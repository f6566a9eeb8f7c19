import itertools
import math
import random

import pytest

from ktf_kit import arith
from ktf_kit.characters import DirichletCharacter, enumerate_characters
from ktf_kit.expsums import (
    KloostermanQuery,
    equivalence_scan,
    gauss_sum,
    kloosterman,
    kloosterman_local,
    p3_witness,
    quad_solution_count,
    s3_symmetry,
    salie_eval,
    scan_queries,
    selberg_identity,
    twisted_kloosterman,
    weil_certificate,
)

TRIV = DirichletCharacter.principal(1)


# ---------------------------------------------------------------- gauss sums

def test_gauss_orthogonality():
    for chi in enumerate_characters(9):
        if not chi.is_principal():
            assert abs(gauss_sum(chi, 0)) < 1e-12


def test_gauss_principal_prime():
    chi0 = DirichletCharacter.principal(7)
    assert abs(gauss_sum(chi0, 1) + 1) < 1e-12  # mu(7) = -1


def test_gauss_modes_agree_and_abs():
    for M in (1, 3, 4, 5, 8, 9, 12, 15, 16, 21):
        for chi in enumerate_characters(M):
            for m in (-6, -1, 0, 1, 2, 3, 10):
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
    certs = [weil_certificate(q) for q in scan_queries(24, 6)]
    assert rep.queries == len(certs)
    assert rep.max_ratio_bound1 == pytest.approx(max(abs(c.value) / c.bound1 for c in certs),
                                                 abs=1e-9)
    assert rep.max_ratio_bound2 == pytest.approx(max(abs(c.value) / c.bound2 for c in certs),
                                                 abs=1e-9)
