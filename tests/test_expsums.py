import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import ktf_kit
from ktf_kit import arith, expsums
from ktf_kit.characters import DirichletCharacter, character, enumerate_characters, induce
from ktf_kit.expsums import (
    KloostermanQuery,
    equivalence_scan,
    gauss_sum,
    kloosterman,
    kloosterman_local,
    kloosterman_moduli,
    p3_witness,
    quad_solution_count,
    s3_symmetry,
    salie_eval,
    scan_queries,
    selberg_identity,
    twisted_kloosterman,
    weil_certificate,
)
from ktf_kit.transforms import TestFunction

TRIV = DirichletCharacter.principal(1)
H_GAUSS = TestFunction.gaussian(1.0)
PROPERTY = settings(max_examples=60, deadline=None)
SMALL_LEVELS = (1, 2, 3, 4, 5, 7, 8, 9, 12)


@st.composite
def queries(draw, max_k=12):
    """A random S_chi(a, b; n; c) with a small level N and c = N k."""
    N = draw(st.sampled_from(SMALL_LEVELS))
    c = N * draw(st.integers(1, max_k))
    chi = draw(st.sampled_from(enumerate_characters(N)))
    n = draw(st.integers(-12, 12).filter(lambda n: n != 0))
    return KloostermanQuery(draw(st.integers(0, c - 1)), draw(st.integers(0, c - 1)), n, c, chi)


# ---------------------------------------------------------------- gauss sums

def test_gauss_orthogonality():
    for chi in enumerate_characters(9):
        if not chi.is_principal():
            assert abs(gauss_sum(chi, 0)) < 1e-12


def test_gauss_principal_prime():
    chi0 = DirichletCharacter.principal(7)
    assert abs(gauss_sum(chi0, 1) + 1) < 1e-12  # mu(7) = -1


def test_gauss_modes_agree_and_abs():
    for M in (1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 16, 21):
        for chi in enumerate_characters(M):
            for m in (-9, -6, -3, -1, 0, 1, 2, 3, 10):
                d = gauss_sum(chi, m, "direct")
                f = gauss_sum(chi, m, "formula")
                assert abs(d - f) < 1e-9
                if math.gcd(m, M) == 1 and chi.conductor == M:
                    assert abs(abs(d) - math.sqrt(M)) < 1e-9
                if m != 0:
                    assert abs(d) <= math.sqrt(chi.conductor) * arith.sigma(abs(m)) + 1e-9


# ---------------------------------------------------------- kloosterman sums

def test_trivial_cases():
    assert abs(kloosterman(KloostermanQuery(0, 0, 1, 10, TRIV)) - arith.phi(10)) < 1e-12
    assert abs(kloosterman(KloostermanQuery(1, 1, 1, 3, TRIV)) + 1) < 1e-12


def test_query_validation():
    with pytest.raises(ValueError):
        KloostermanQuery(1, 1, 0, 3, TRIV)
    with pytest.raises(ValueError):
        KloostermanQuery(1, 1, 1, 3, DirichletCharacter.principal(2))


def _units_oracle(q):
    """The unit table as one gcd and one pow call per residue."""
    if q == 1:
        return [0], [0]
    xs = [x for x in range(q) if math.gcd(x, q) == 1]
    return xs, [pow(x, -1, q) for x in xs]


def test_units_match_the_gcd_pow_oracle():
    for q in [*range(1, 3001), 101**2, 3**9, 2**16, 1009**2]:
        xs, inv = expsums._units(q)
        oracle_xs, oracle_inv = _units_oracle(q)
        assert xs.dtype == inv.dtype == np.int64
        assert xs.tolist() == oracle_xs and inv.tolist() == oracle_inv, q
        if q > 1:
            assert np.all(xs * inv % q == 1)


def test_units_reject_moduli_outside_the_int64_domain():
    # inverses multiply residues below q, so q^2 must stay below 2^63
    with pytest.raises(ValueError):
        expsums._units(math.isqrt(2**63 - 1) + 1)


def test_table_cache_drops_the_largest_tables_first():
    budget = expsums._TABLE_BUDGET
    cache = expsums._table_cache(lambda q: object())
    half = budget // 2
    first = cache(half)
    cache(half - 1)
    assert cache(half) is first  # a hit: both tables fit the budget
    cache(3)  # two residues over the budget: the largest table, q = half, goes
    assert cache.cache_info().currsize == 2 and cache(half) is not first
    big = cache(budget + 1)  # larger than the budget: kept in the one oversize slot
    assert cache(budget + 1) is big and cache.cache_info().currsize == 3
    assert cache(budget + 2) is not big  # the next oversize table replaces it
    assert cache(budget + 1) is not big
    cache(half - 1)  # a hit: the slot leaves the tables under the budget alone
    assert cache.cache_info() == (3, 7, budget, 3)


def test_plan_cache_drops_the_oldest_plans_first():
    # with maxsize the cache drops its oldest entry, not the largest: the
    # newest plan, however large, survives the calls of its own key
    budget = expsums._TABLE_BUDGET
    cache = expsums._table_cache(lambda n, c: object(), residues=lambda n, c: c, maxsize=2)
    a, b = cache(1, 3), cache(2, budget // 2)
    c = cache(3, budget // 2)  # over the budget: (1, 3) is the oldest and goes first
    assert cache(3, budget // 2) is c and cache(2, budget // 2) is b
    assert cache.cache_info() == (2, 3, 2, 2)
    assert cache(1, 3) is not a  # rebuilt; over the budget again, (2, budget / 2) goes
    assert cache(3, budget // 2) is c and cache(2, budget // 2) is not b
    cache.cache_clear()
    assert cache.cache_info() == (0, 0, 2, 0)


def _vmrss_kib_after(code):
    """VmRSS in KiB of a fresh process after it runs code, with a single-threaded BLAS."""
    code += ("print(*[line.split()[1] for line in open('/proc/self/status')\n"
             "        if line.startswith('VmRSS:')])\n")
    env = {**os.environ, "PYTHONPATH": str(Path(ktf_kit.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    return int(out.stdout)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmRSS (Linux)")
def test_twisted_sums_at_an_oversize_modulus_keep_one_plan():
    # mod 1009^2 a character's values and its plan's conj(chi) weights are
    # 16 MB each; both caches keep one such entry in their oversize slots, so
    # three characters in a row stay at the first one's memory (152 MB,
    # measured), where keeping every entry reached 216 MB
    assert _vmrss_kib_after("from ktf_kit.characters import character\n"
                            "from ktf_kit.expsums import twisted_kloosterman\n"
                            "q = 1009**2\n"
                            "for i in (1, 2, 3):\n"
                            "    twisted_kloosterman(1, 1, q, character(q, i))\n") < 170 * 1024


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmRSS (Linux)")
def test_pair_tables_at_an_oversize_modulus_keep_one_table():
    # mod 1009^2 the pair table of each n != 1 is 16 MB; the pair cache keeps
    # one such table in its oversize slot, so five n in a row stay at 132 MB
    # (measured), where keeping every table reached 202 MB
    assert _vmrss_kib_after("from ktf_kit.characters import DirichletCharacter\n"
                            "from ktf_kit.expsums import KloostermanQuery, kloosterman\n"
                            "chi = DirichletCharacter.principal(1)\n"
                            "for n in (2, 3, 5, 6, 7):\n"
                            "    kloosterman(KloostermanQuery(1, 1, n, 1009**2, chi), 'direct')\n"
                            ) < 150 * 1024


@pytest.mark.parametrize("c", [1, 2, 6, 12, 45, 60])
def test_modes_agree_spot(c):
    for N in arith.divisors(c):
        if N > 12:
            continue
        for chi in enumerate_characters(N):
            for n in (1, 3, -2):
                for a, b in ((0, 1), (1, 1), (5, 7), (c - 1, 3)):
                    q = KloostermanQuery(a, b, n, c, chi)
                    d = kloosterman(q, "direct")
                    assert abs(d - kloosterman(q, "factored")) < 1e-10
                    assert abs(d - kloosterman(q, "salie")) < 1e-10


@PROPERTY
@given(queries())
def test_routes_agree(q):
    d = kloosterman(q, "direct")
    assert abs(d - kloosterman(q, "factored")) < 1e-9
    assert abs(d - kloosterman(q, "salie")) < 1e-9


@st.composite
def level_queries(draw):
    """S_chi(a, b; n; c) with chi mod N <= 36, c = N k <= 240, any a and b."""
    N = draw(st.integers(1, 36))
    chi = draw(st.sampled_from(enumerate_characters(N)))
    c = N * draw(st.integers(1, 240 // N))
    n = draw(st.integers(-12, 12).filter(lambda n: n != 0))
    return KloostermanQuery(draw(st.integers()), draw(st.integers()), n, c, chi)


@PROPERTY
@given(level_queries())
@example(KloostermanQuery(5, 7, 2, 36, character(12, 2)))    # chi_3 principal, 3 !| n: untwisted
@example(KloostermanQuery(5, 7, 3, 36, character(12, 2)))    # chi_3 principal, 3 | n: twisted
@example(KloostermanQuery(5, 7, 6, 180, character(36, 6)))   # chi_3 principal mod 9, 3 | n
@example(KloostermanQuery(3, 4, 1, 10, character(5, 1)))     # twisted at q = p, Salie mode
@example(KloostermanQuery(3, 5, 1, 24, character(8, 1)))     # p = 2, ell = 3
@example(KloostermanQuery(1, 6, 5, 32, character(8, 3)))     # p = 2, ell = 5
@example(KloostermanQuery(-2**70 - 1, 2**64 + 3, -4, 96, character(24, 5)))   # a, b past int64
def test_factored_and_salie_routes_match_the_direct_oracle(q):
    d = kloosterman(q, "direct")
    for mode in ("factored", "salie"):
        assert abs(kloosterman(q, mode) - d) <= 1e-9 * max(1.0, abs(d)), mode


@pytest.mark.parametrize("a", [10**15 + 5, 2**63 + 5, -(10**15) + 2, -7])
def test_routes_reduce_large_arguments_mod_c(a):
    # a X in int64 wraps once |a| X > 2^63: every route reduces a and b mod c first
    c = 1000003
    q = KloostermanQuery(a, 7, 1, c, TRIV)
    d = kloosterman(q, "direct")
    assert d == kloosterman(KloostermanQuery(a % c, 7, 1, c, TRIV), "direct")
    assert abs(kloosterman(q, "factored") - d) <= 1e-12 * c
    # the untwisted local factor is public and takes any a and b
    for modulus, n in ((c, 1), (5**3, 5)):
        assert kloosterman_local(a, -a, n, modulus, None) == \
            kloosterman_local(a % modulus, -a % modulus, n, modulus, None)


def test_salie_route_reads_the_table_at_a_prime_modulus(monkeypatch):
    # stationary phase needs q = p^ell with ell >= 2: a query twisted only at
    # q = 7 takes its factor from the one table entry in both modes
    calls = []
    salie = expsums.salie_eval
    monkeypatch.setattr(expsums, "salie_eval", lambda *args: calls.append(args) or salie(*args))
    _clear_plans()
    q = KloostermanQuery(3, 5, 2, 28, character(7, 1))
    s = kloosterman(q, "salie")
    misses = kloosterman_local.cache_info().misses
    assert s == kloosterman(q, "factored")
    assert kloosterman_local.cache_info().misses == misses
    assert calls == []
    assert abs(s - kloosterman(q, "direct")) <= 1e-9


def test_principal_local_twist_shares_the_untwisted_entry():
    # chi mod 12 of conductor 4 is principal at 3; for n prime to 3 every x of
    # x x' = n is a unit mod 3, so the query is its twin's mod 4, which has no
    # character at 3, and finds every local factor in the twin's entries
    _clear_plans()
    chi, twin = character(12, 2), character(4, 1)
    for n in (1, 2, -4):
        before = [kloosterman(KloostermanQuery(5, 7, n, 36, twin), mode) for mode in ROUTES[1:]]
        size = kloosterman_local.cache_info().currsize
        after = [kloosterman(KloostermanQuery(5, 7, n, 36, chi), mode) for mode in ROUTES[1:]]
        assert kloosterman_local.cache_info().currsize == size, n
        assert after == before, n


@PROPERTY
@given(st.data())
def test_twisted_multiplicativity(data):
    # S_chi(a, b; n; c1 c2) = S_chi1(a/c2, b/c2; n; c1) S_chi2(a/c1, b/c1; n; c2)
    # for coprime c1, c2, chi = chi1 chi2 with chi1 mod N1 | c1 and chi2 mod N2 | c2
    N1, N2 = data.draw(st.sampled_from(
        [(N1, N2) for N1 in SMALL_LEVELS for N2 in SMALL_LEVELS if math.gcd(N1, N2) == 1]))
    c1 = N1 * data.draw(st.integers(1, 6))
    c2 = N2 * data.draw(st.integers(1, 6))
    assume(math.gcd(c1, c2) == 1)
    chi1 = data.draw(st.sampled_from(enumerate_characters(N1)))
    chi2 = data.draw(st.sampled_from(enumerate_characters(N2)))
    chi = induce(chi1, N1 * N2).mul(induce(chi2, N1 * N2))
    c = c1 * c2
    a, b = data.draw(st.integers(0, c - 1)), data.draw(st.integers(0, c - 1))
    n = data.draw(st.integers(-12, 12).filter(lambda n: n != 0))
    i1, i2 = arith.inv_mod(c2, c1), arith.inv_mod(c1, c2)
    whole = kloosterman(KloostermanQuery(a, b, n, c, chi), "direct")
    left = kloosterman(KloostermanQuery(a * i1 % c1, b * i1 % c1, n, c1, chi1), "direct")
    right = kloosterman(KloostermanQuery(a * i2 % c2, b * i2 % c2, n, c2, chi2), "direct")
    assert abs(whole - left * right) < 1e-9


def test_chi_nonzero_off_units_of_c():
    # chi mod 5 viewed on Z/10: chi(6) != 0 even though gcd(6,10) = 2
    chi = enumerate_characters(5)[1]
    q = KloostermanQuery(1, 2, 3, 10, chi)
    d = kloosterman(q, "direct")
    f = kloosterman(q, "factored")
    assert abs(d - f) < 1e-10
    assert abs(d) > 1e-9  # the x = 6 style terms do contribute


def test_local_vanishing_cases():
    # constant-one, a=b=1, p=5, n = 5 (k = 1), ell = 2: k > a_p + b_p = 0 -> 0
    assert kloosterman_local(1, 1, 5, 25, None) == 0
    # n = 125 (k = 3), ell = 3: k >= ell and ell > a_p + b_p + 1 = 1 -> 0
    assert kloosterman_local(1, 1, 125, 125, None) == 0


def test_local_rejects_exponent_for_n():
    # the third argument is n = p^k itself; an exponent such as 3 is not a
    # power of 5 and must be rejected, never read as n
    with pytest.raises(ValueError):
        kloosterman_local(1, 1, 3, 125, None)


def test_untwisted_local_factor_is_cached_once_for_both_modes():
    # with chi_p = None the salie flag selects nothing, so the factored and the
    # Salie route of a query whose local factors are all untwisted share them
    kloosterman_local.cache_clear()
    q = KloostermanQuery(4321, 8765, 1, 10007, DirichletCharacter.principal(1))
    f = kloosterman(q, "factored")
    s = kloosterman(q, "salie")
    assert f == s
    assert kloosterman_local.cache_info().misses == 1


def test_untwisted_local_factors_of_one_uv_share_a_cache_entry():
    # mod a prime the one local factor of S(a, b; 1; c) is S(a, b; c); the
    # factored route looks it up as S(1, ab; c)
    kloosterman_local.cache_clear()
    values = [kloosterman(KloostermanQuery(a, 6 * pow(a, -1, 10007) % 10007, 1, 10007, TRIV),
                          "factored") for a in (1, 2, 3, 6)]
    assert kloosterman_local.cache_info().misses == 1
    direct = kloosterman(KloostermanQuery(2, 3, 1, 10007, TRIV), "direct")
    assert all(abs(v - direct) < 1e-9 for v in values)


PRIME_POWERS = [q for q in range(2, 3**6 + 1) if len(arith.factor(q).pairs) == 1]


@PROPERTY
@given(st.sampled_from(PRIME_POWERS), st.integers(0, 20), st.integers(1, 3**6),
       st.integers(0, 3**6))
@example(2**6, 7, 3, 5)     # p = 2, k = ell + 1
@example(2**9, 4, 5, 12)    # p = 2, k < ell
@example(3**6, 3, 2, 27)    # k < ell, p | v
def test_untwisted_local_factor_depends_on_uv_alone(q, k, u, v):
    # S(u, v; p^k; q) = S(1, uv; p^k; q) for a unit u (x -> x/u, x' -> u x'): the
    # identity behind the key under which the factored route caches these factors;
    # q = p^ell <= 3^6, k <= ell + 1
    (p, ell), = arith.factor(q).pairs
    k %= ell + 2
    if u % p == 0:
        u += 1
    lhs = kloosterman_local(u % q, v % q, p**k, q, None)
    rhs = kloosterman_local(1, u * v % q, p**k, q, None)
    assert abs(lhs - rhs) <= 1e-12 * q


@PROPERTY
@given(st.sampled_from(PRIME_POWERS), st.integers(0, 10**6), st.integers(0, 3**6),
       st.integers(0, 3**6))
@example(2**7, 5, 3, 9)            # p = 2
@example(2**9, 1, 2**8 * 3, 0)     # p = 2, u = p^(ell-1) unit, v = 0
@example(5**4, 3, 0, 17)           # u = 0
@example(3**6, 7, 3**5 * 2, 11)    # u = p^(ell-1) unit
@example(7**3, 2, 10, 0)           # v = 0
def test_twisted_local_factor_reads_the_dft_table(q, i, u, v):
    # a twisted factor S_chi(u, v; q), q = p^ell <= 3^6, is read from the table of
    # S_chi(p^j, t; q) built by one inverse DFT; the direct sum is the oracle
    chars = enumerate_characters(q)
    chi = chars[i % len(chars)]
    u, v = u % q, v % q
    table = kloosterman_local(u, v, 1, q, chi)
    assert abs(table - twisted_kloosterman(u, v, q, chi, "direct")) <= 1e-12 * q


# ------------------------------------------------------------------ plans

PLAN_CACHES = (expsums._direct_plan, expsums._local_plan, expsums._weil_plan)
ROUTES = ("direct", "factored", "salie")


def _pairs_oracle(n, c):
    """The pair table by a loop over x mod c."""
    if c == 1:
        return np.array([0]), np.array([0])
    xs, xps = [], []
    n_mod = n % c
    for x in range(c):
        g = math.gcd(x, c)
        if n_mod % g != 0:
            continue
        cg = c // g
        x0 = (x // g) % cg
        base = (pow(x0, -1, cg) * ((n_mod // g) % cg)) % cg if cg > 1 else 0
        for k in range(g):
            xs.append(x)
            xps.append(base + k * cg)
    return np.array(xs, dtype=np.int64), np.array(xps, dtype=np.int64)


@PROPERTY
@given(st.integers(1, 300), st.integers(-12, 12).filter(lambda n: n != 0),
       st.sampled_from((0, 1, 2, 7)))
def test_pairs_match_the_loop(c, n, multiple):
    # n + multiple c: the same residue, or a multiple of c itself when n is dropped
    for m in (n + multiple * c, multiple * c or c):
        got, want = expsums._pairs(m, c), _pairs_oracle(m, c)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w), (m, c)


@PROPERTY
@given(st.integers(1, 300), st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_principal_twist_is_the_classical_sum(q, a, b):
    # conj(chi) is 1 on the units: the direct plan keeps no weight array, and the
    # twisted sum is the classical one bit for bit
    chi = DirichletCharacter.principal(q)
    assert repr(twisted_kloosterman(a, b, q, chi)) == repr(expsums._classical_kloosterman(a, b, q))
    assert expsums._direct_plan(1, q, chi)[0] is None


def test_factored_route_builds_only_prime_power_unit_tables(monkeypatch):
    # the twisted local factors read _pairs(1, q), which is _units(q); a pair
    # table of a composite c would be an O(c) table per c-series term
    from ktf_kit import ktf
    _clear_plans()
    calls = []
    pairs = expsums._pairs
    monkeypatch.setattr(expsums, "_pairs", lambda n, c: calls.append((n, c)) or pairs(n, c))
    req = ktf.KtfRequest(1009, DirichletCharacter.principal(1009), 1, 1, 1, H_GAUSS)
    ktf.geo_kloosterman(req)
    for q in (KloostermanQuery(3, 5, 2, 60, enumerate_characters(12)[3]),
              KloostermanQuery(1, 7, -4, 2018, DirichletCharacter.principal(1009)),
              KloostermanQuery(0, 9, 1, 121, TRIV)):
        weil_certificate(q)
    assert calls
    for n, c in calls:
        assert len(arith.factor(c).pairs) == 1 and n % c == 1, (n, c)


def test_twisted_factors_of_a_prime_level_read_one_table(monkeypatch):
    # at N = 401 every twisted local factor is S_chi(u, v; 401) with a unit u:
    # all of them read the one table of S_chi(1, t; 401), and none takes a
    # direct sum mod 401
    from ktf_kit import ktf
    _clear_plans()
    moduli = []
    plan = expsums._direct_plan
    monkeypatch.setattr(expsums, "_direct_plan",
                        lambda n, c, chi: moduli.append(c) or plan(n, c, chi))
    ktf.geo_kloosterman(ktf.KtfRequest(401, DirichletCharacter.principal(401), 1, 1, 1, H_GAUSS))
    assert 401 not in moduli
    assert expsums._twisted_table.cache_info().misses == 1


def test_twisted_factor_above_the_budget_is_the_direct_sum():
    # a table mod 1009^2 > _TABLE_BUDGET would take more transient memory than
    # the sums it replaces, so such a factor is the direct sum, bit for bit
    q = 1009**2
    chi = character(q, 1)
    _clear_plans()
    assert repr(kloosterman_local(5, 7, 1, q, chi)) == repr(twisted_kloosterman(5, 7, q, chi))
    assert expsums._twisted_table.cache_info().misses == 0


@st.composite
def moduli_blocks(draw):
    """A character mod N <= 60 and a block of moduli c = N k, k <= 40."""
    N = draw(st.integers(1, 60))
    chi = draw(st.sampled_from(enumerate_characters(N)))
    ks = draw(st.lists(st.integers(1, 40), min_size=1, max_size=8))
    return chi, [N * k for k in ks]


@PROPERTY
@given(moduli_blocks(), st.integers(1, 12), st.integers(-60, 60), st.integers(-60, 60))
@example((character(3, 0), [6, 12, 24, 96]), 1, 1, 1)       # p = 2, 2^e || c
@example((character(5, 2), [15, 30, 45]), 3, 2, 1)           # p = 3 divides n and c
@example((character(7, 0), [63, 175, 343, 7]), 1, 1, 2)      # p^2 | k: 3^2, 5^2, 7^2
@example((character(12, 3), [24, 36, 72, 12]), 5, 7, 1)      # p | gcd(N, k), p = 2, 3
@example((character(7, 1), [7, 21, 77, 91, 187 * 7]), 2, 3, 5)   # an odd non-principal chi
@example((character(5, 0), [5, 15, 35]), 1, 0, 1)            # a = 0: no unit u
@example((character(5, 0), [15, 35, 55]), 1, 1, 0)           # b = 0: t = 0 mod p
def test_kloosterman_moduli_matches_direct_and_factored(block, n, a, b):
    # the block route agrees with the direct oracle and, to rounding, with the
    # scalar factored route at every modulus of the block
    chi, cs = block
    values = kloosterman_moduli(a, b, n, cs, chi)
    assert values.shape == (len(cs),)
    for c, v in zip(cs, values):
        q = KloostermanQuery(a % c, b % c, n, c, chi)
        assert abs(v - kloosterman(q, "direct")) <= 1e-9, c
        assert abs(v - kloosterman(q, "factored")) <= 1e-12 * c, c


def test_kloosterman_moduli_rejects_a_modulus_off_the_level():
    with pytest.raises(ValueError):
        kloosterman_moduli(1, 1, 1, [12, 14], character(4, 0))
    with pytest.raises(ValueError):
        kloosterman_moduli(1, 1, 0, [12], character(4, 0))


def test_prime_sums_are_the_classical_sums_in_passes_of_any_size(monkeypatch):
    # the half-sum identity holds at every t, t = 0 included; a budget of 40
    # residues splits the keys into several passes with the same sums
    keys = [(p, t) for p in (3, 5, 7, 11, 13, 101, 1009) for t in (0, 1, 2, p - 1)]
    whole = expsums._prime_kloosterman(keys)
    for (p, t), v in zip(keys, whole):
        assert abs(v - expsums._classical_kloosterman(1, t, p)) <= 1e-12 * p
    monkeypatch.setattr(expsums, "_TABLE_BUDGET", 40)
    assert expsums._prime_kloosterman(keys).tolist() == whole.tolist()
    assert expsums._prime_kloosterman([]).shape == (0,)


def test_c_series_sums_fresh_prime_factors_in_one_pass(monkeypatch):
    # the classical S(1, t; p) at odd primes p not dividing N n are summed by
    # _prime_kloosterman; no report at N = 401 takes _classical_kloosterman there
    from ktf_kit import ktf
    _clear_plans()
    moduli, keys = [], []
    classical, prime_pass = expsums._classical_kloosterman, expsums._prime_kloosterman
    monkeypatch.setattr(expsums, "_classical_kloosterman",
                        lambda a, b, q: moduli.append(q) or classical(a, b, q))
    monkeypatch.setattr(expsums, "_prime_kloosterman",
                        lambda ks: keys.extend(ks) or prime_pass(ks))
    ktf.cuspidal_inferred(ktf.KtfRequest(401, DirichletCharacter.principal(401), 1, 1, 1,
                                         H_GAUSS))
    assert len(keys) > 100
    assert [q for q in moduli if q > 2 and arith.is_prime(q)] == []


def _clear_plans():
    for cache in (*PLAN_CACHES, kloosterman_local, expsums._twisted_table):
        cache.cache_clear()


@PROPERTY
@given(st.data())
def test_no_plan_leaks_between_keys(data):
    # queries that share (c, chi) but not n, and (n, c) but not chi, evaluated
    # interleaved, equal their values computed from empty caches
    N = data.draw(st.sampled_from([N for N in SMALL_LEVELS if N > 2]))
    c = N * data.draw(st.integers(1, 8))
    chi1, chi2 = data.draw(st.lists(st.sampled_from(enumerate_characters(N)),
                                    min_size=2, max_size=2, unique=True))
    n1, n2 = data.draw(st.lists(st.integers(-12, 12).filter(lambda n: n != 0),
                                min_size=2, max_size=2, unique=True))
    a, b = data.draw(st.integers(0, c - 1)), data.draw(st.integers(0, c - 1))
    qs = [KloostermanQuery(a, b, n1, c, chi1), KloostermanQuery(a, b, n2, c, chi1),
          KloostermanQuery(a, b, n1, c, chi2), KloostermanQuery(a, b, n2, c, chi2)]
    warm = [(kloosterman(q, mode), weil_certificate(q)) for q in qs for mode in ROUTES]
    cold = []
    for q in qs:
        for mode in ROUTES:
            _clear_plans()
            value = kloosterman(q, mode)
            _clear_plans()
            cold.append((value, weil_certificate(q)))
    assert warm == cold


def test_plan_caches_stay_bounded():
    list(expsums.weil_scan_rows(30, 12))
    for cache in PLAN_CACHES:
        info = cache.cache_info()
        assert info.maxsize == expsums._PLANS and info.currsize <= expsums._PLANS


def test_swap_and_scaling():
    for chi in enumerate_characters(9):
        for a, b in ((1, 2), (4, 7), (0, 5)):
            l = kloosterman(KloostermanQuery(a, b, 1, 9, chi))
            r = kloosterman(KloostermanQuery(b, a, 1, 9, chi.conj()))
            assert abs(l - r) < 1e-10
    chi = enumerate_characters(3)[1]
    for n1, n2, c in ((5, 2, 12), (7, 3, 9), (11, 4, 6)):
        l = kloosterman(KloostermanQuery(1, 2, n1 * n2, c, chi))
        r = kloosterman(KloostermanQuery(1, 2 * n1, n2, c, chi))
        assert abs(l - r) < 1e-10


# -------------------------------------------------------------------- salie

def test_salie_matches_direct_broadly():
    for p, ells in ((2, (2, 3, 4, 5, 6)), (3, (2, 3, 4)), (5, (2, 3)), (7, (2, 3))):
        for ell in ells:
            q = p**ell
            if q > 400:
                continue
            for chi in enumerate_characters(q):
                for a, b in ((1, 1), (1, 2), (p, 1), (1, p), (0, 1), (1, 0), (3, 7)):
                    d = twisted_kloosterman(a, b, q, chi, "direct")
                    s = salie_eval(a, b, q, chi)
                    assert abs(d - s) < 1e-9, (p, ell, chi.label(), a, b)


def test_salie_vanishing_even_ell():
    # p odd, ell = 2a, conductor <= p^(2a-1), p | b  ->  0
    p, ell = 5, 2
    q = p**ell
    for chi in enumerate_characters(q):
        if chi.conductor <= p ** (ell - 1):
            v = salie_eval(1, p, q, chi)
            assert abs(v) < 1e-12


def test_p3_witness():
    q, target = p3_witness(17)
    val = kloosterman(q, "direct")
    assert abs(val - target) < 1e-9
    assert abs(val) > arith.tau(q.c) * math.sqrt(q.c)  # beats conductor-free bound
    cert = weil_certificate(q)
    assert cert.satisfied == (True, True)


# ----------------------------------------------------------- weil bounds

def test_weil_zero_value_satisfied():
    cert = weil_certificate(KloostermanQuery(1, 1, 1, 25, DirichletCharacter.principal(5)))
    assert cert.satisfied[0] and cert.satisfied[1]


def test_weil_bounds_match_their_closed_form():
    # bit for bit, so any reordering of the factors shows
    for q in scan_queries(24, 6, n_values=(1, 2, -3, 4, 12), ab_pairs_per_c=4):
        cert = weil_certificate(q)
        g = math.gcd(math.gcd(abs(q.a * q.n), abs(q.b * q.n)), q.c)
        cchi = q.chi.conductor
        base = arith.tau(abs(q.n)) * arith.tau(q.c) * g**0.5 * math.sqrt(q.c)
        bound2 = base * cchi**0.25
        for p in arith.factor(cchi).primes():
            bound2 *= p**0.25
        assert cert.bound1 == base * math.sqrt(cchi), q
        assert cert.bound2 == bound2, q


def test_weil_classical_small_grid():
    # |S(a,b;c)| <= tau(c) (a,b,c)^(1/2) c^(1/2) for the principal character
    for c in range(1, 80):
        for a, b in ((1, 1), (2, 3), (0, 4)):
            v = abs(kloosterman(KloostermanQuery(a, b, 1, c, TRIV)))
            g = math.gcd(math.gcd(a, b), c)
            assert v <= arith.tau(c) * math.sqrt(g * c) + 1e-9


# ------------------------------------------------------- selberg identity

def test_selberg_identity_random():
    rng = random.Random(20240817)
    checked = 0
    while checked < 150:
        N = rng.choice([1, 1, 2, 3, 4, 5, 8, 9])
        c = N * rng.randint(1, 14)
        n = rng.randint(1, 10)
        b = rng.randint(0, c - 1)
        a = rng.randint(0, c - 1)
        if math.gcd(N, n) != 1 and math.gcd(N, b) != 1:
            continue
        chi = rng.choice(enumerate_characters(N))
        q = KloostermanQuery(a, b, n, c, chi)
        assert abs(selberg_identity(q, "lhs") - selberg_identity(q, "rhs")) < 1e-9
        checked += 1


@PROPERTY
@given(queries(max_k=14))
def test_selberg_identity_property(q):
    assume(math.gcd(q.chi.modulus, abs(q.n)) == 1 or math.gcd(q.chi.modulus, q.b) == 1)
    assert abs(selberg_identity(q, "lhs") - selberg_identity(q, "rhs")) < 1e-9


def test_selberg_identity_precondition():
    chi = enumerate_characters(6)[1]
    with pytest.raises(ValueError):
        selberg_identity(KloostermanQuery(1, 2, 3, 6, chi), "rhs")


def test_s3_symmetry():
    for a1, a2, a3, c in ((1, 2, 3, 12), (2, 5, 7, 30), (4, 9, 25, 11)):
        vals = [s3_symmetry(a1, a2, a3, c, p) for p in itertools.permutations((0, 1, 2))]
        assert max(abs(v - vals[0]) for v in vals) < 1e-9


# ---------------------------------------------------------- quadratic counts

def test_quad_examples():
    assert quad_solution_count(1, 0, -1, 2, 3).count == 4       # x^2 = 1 mod 8
    assert quad_solution_count(1, 0, -1, 7, 1).count == 2       # x^2 = 1 mod 7
    qc = quad_solution_count(1, 1, 0, 5, 3)                      # x^2 + x = 0 mod 125
    assert (qc.count, qc.units, qc.divisible) == (2, 1, 1)


def test_quad_formula_vs_brute():
    rng = random.Random(11)
    prime_powers = [(p, n) for p in (2, 3, 5, 7, 11) for n in range(1, 10) if p**n <= 512]
    for p, n in prime_powers:
        for _ in range(30):
            a = rng.randint(-50, 50)
            if a == 0 or a % p == 0:
                continue
            B = rng.randint(-50, 50)
            c0 = rng.randint(-50, 50)
            f = quad_solution_count(a, B, c0, p, n, "formula")
            br = quad_solution_count(a, B, c0, p, n, "brute")
            assert f == br, (a, B, c0, p, n)


@PROPERTY
@given(st.sampled_from([(p, n) for p in (2, 3, 5, 7, 11) for n in range(1, 10) if p**n <= 512]),
       st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_quad_formula_matches_brute_property(pn, a, B, c0):
    p, n = pn
    assume(a % p != 0)
    assert quad_solution_count(a, B, c0, p, n, "formula") == \
        quad_solution_count(a, B, c0, p, n, "brute")


def test_quad_rejects_bad_leading_coeff():
    with pytest.raises(ValueError):
        quad_solution_count(5, 1, 1, 5, 2)


# ------------------------------------------------------------------- scan

def test_equivalence_scan_small():
    rep = equivalence_scan(40, 12, n_values=(1, 2, 3), ab_pairs_per_c=6)
    assert rep.max_dev_factored < 1e-9
    assert rep.max_dev_salie < 1e-9
    assert rep.weil_violations == 0


def test_equivalence_scan_ratios_match_certificates():
    rep = equivalence_scan(24, 6)
    queries = list(scan_queries(24, 6))
    assert rep.queries == len(queries)
    # the ratios are reported over c > 1: at c = 1 every sum meets both bounds exactly
    certs = [weil_certificate(q) for q in queries if q.c > 1]
    assert rep.max_ratio_bound1 == pytest.approx(max(abs(c.value) / c.bound1 for c in certs),
                                                 abs=1e-9)
    assert rep.max_ratio_bound2 == pytest.approx(max(abs(c.value) / c.bound2 for c in certs),
                                                 abs=1e-9)
    assert rep.max_ratio_bound1 < 1.0 and rep.weil_violations == 0


def test_scan_and_certificates_share_one_weil_verdict(monkeypatch):
    # every bound scaled so that |S| exceeds it by 5e-10 of it at the worst
    # query (c = 17): an absolute 1e-9 slack fails it there, a relative one not
    scale = equivalence_scan(24, 6).max_ratio_bound1 * (1 - 5e-10)
    bounds = expsums._weil_bounds
    monkeypatch.setattr(expsums, "_weil_bounds",
                        lambda g, n, c, cchi: tuple(scale * b for b in bounds(g, n, c, cchi)))
    failed = sum(not all(weil_certificate(q).satisfied) for q in scan_queries(24, 6))
    assert failed > 0
    assert equivalence_scan(24, 6).weil_violations == failed
