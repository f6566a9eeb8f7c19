import cmath
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ktf_kit
from ktf_kit import arith
from ktf_kit.characters import DirichletCharacter, character, enumerate_characters
from ktf_kit.eisenstein import enumerate_basis, hurwitz_zeta
from ktf_kit.ktf import (
    _MIN_TERMS,
    _TAIL_WINDOW,
    KtfRequest,
    SpectralDatum,
    _JIntegralCache,
    _continuous_t_grid,
    _jint_cache,
    classical_crosscheck,
    cuspidal_from_data,
    cuspidal_inferred,
    geo_kloosterman,
    geo_main,
    h_tanh_integral,
    hecke_sigma_identity,
    spec_continuous,
    t_predicate,
)
from ktf_kit.specfun import gl_panels, j2it_values
from ktf_kit.transforms import TestFunction, get_pipeline, v_zero

H = TestFunction.gaussian(1.0)


def req_for(N, n=1, m1=1, m2=1, omega=None, h=H, abs_tol=1e-5):
    # the looser series tolerance keeps small-N truncation cheap in tests;
    # the acceptance suite exercises the default on the large-level scan
    om = omega if omega is not None else DirichletCharacter.principal(N)
    return KtfRequest(N, om, n, m1, m2, h, abs_tol=abs_tol)


# ------------------------------------------------------------- plumbing

def test_t_predicate():
    assert t_predicate(1, 1, 1) == (1, 1)
    assert t_predicate(2, 3, 6) == (1, 1)
    assert t_predicate(1, 2, 1) == (0, None)
    assert t_predicate(4, 9, 1) == (0, None)  # b = 6 does not divide gcd = 1
    assert t_predicate(2, 2, 1) == (1, 2)


def test_request_validation():
    om5 = DirichletCharacter.principal(5)
    with pytest.raises(ValueError):
        KtfRequest(5, om5, 5, 1, 1, H)          # n not coprime
    with pytest.raises(ValueError):
        KtfRequest(6, om5, 1, 1, 1, H)          # modulus mismatch
    odd = [c for c in enumerate_characters(3) if abs(c(-1) + 1) < 1e-12][0]
    with pytest.raises(ValueError):
        KtfRequest(3, odd, 1, 1, 1, H)          # omega(-1) = -1


def test_request_and_main_term_build_no_unit_log_table():
    # omega(-1) is read from the exponents and a principal omega's angles are 0,
    # so neither a request at a large prime level (even or odd omega) nor its
    # main term builds an O(N) unit-log table
    N = 10**6 + 3
    before = arith._unit_log_table.cache_info().currsize
    req = KtfRequest(N, DirichletCharacter.principal(N), 1, 1, 1, H)
    with pytest.raises(ValueError, match="omega"):
        KtfRequest(N, character(N, 1), 1, 1, 1, H)
    main = arith.psi(N) * h_tanh_integral(H)
    assert abs(geo_main(req) - main) <= 1e-15 * main
    assert arith._unit_log_table.cache_info().currsize == before


def test_geo_main_values():
    assert geo_main(req_for(5, m1=1, m2=2)) == 0j  # T = 0
    J = h_tanh_integral(H)
    v = geo_main(req_for(6))
    assert abs(v - 12 * J) < 1e-12              # psi(6) = 12
    # J = (4/pi) V(0)
    assert abs(J - 4 / math.pi * v_zero(H, "pipeline")) < 1e-9


def test_geo_main_character_at_m1_over_b():
    # m1/b shares a factor with N -> term vanishes
    om = DirichletCharacter.principal(3)
    r = KtfRequest(3, om, 1, 3, 3, H)   # b = 3, m1/b = 1 -> nonzero
    assert abs(geo_main(r)) > 0
    r2 = KtfRequest(3, om, 1, 9, 1, H)  # b = 3... wait gcd(9,1)=1, b must divide 1
    assert geo_main(r2) == 0j


# Jint(x) = int J_{2it}(x) h(t) t / cosh(pi t) dt for gaussian:1 is purely
# imaginary.  4 pi / c for c = 101, 1009, 30000 are Kloosterman-term
# arguments and 0.5, 3.0, 5.9 run the J-series; these six imaginary parts were
# computed with one scalar Lanczos Gamma call per t-node.  7.5, 12.0, 6 pi run
# the ODE continuation; their rows are 2 sum_t Im J_{2it}(x) w(t) over the
# same 512-node t-grid and weights, with J from mpmath.besselj at mp.dps = 30
# and the sum in mpmath.
JINT_GAUSSIAN_1 = [
    (4 * math.pi / 101, -0.0786026261613868),
    (4 * math.pi / 1009, -0.007994507042636143),
    (4 * math.pi / 30000, -0.00026892560492561615),
    (0.5, -0.2517973950557416),
    (3.0, 0.34039250126921533),
    (5.9, -0.28198862617068116),
    (7.5, 0.037167245793369164),
    (12.0, -0.2092781348686155),
    (6 * math.pi, -0.1329238570898534),
]


@pytest.mark.parametrize("x, im", JINT_GAUSSIAN_1)
def test_jint_pinned_values(x, im):
    v = _jint_cache(TestFunction.parse("gaussian:1"))(x)
    assert v.real == 0
    assert abs(v.imag - im) <= 1e-13 * abs(im)


def test_jint_ode_arguments_share_one_grid():
    # x = 7, 10, 15 have different log(x/2) keys (4, 5, 6) but the same
    # panel count, so one t-grid, one series coefficient table and one ODE
    # path serve them
    _jint_cache.cache_clear()
    jint = _jint_cache(TestFunction.parse("gaussian:1"))
    for x in (7.0, 10.0, 15.0):
        jint(x)
    assert len(jint._grids) == 1
    (path_len,) = [len(path) for *_, path in jint._grids.values()]
    assert path_len == 1 + 8  # the seed at x = 6, a checkpoint past each of 7, ..., 14


def test_jint_series_range_matches_the_elementwise_sum():
    # up to x = 6 Jint is one matrix-vector product on its t-grid's weighted
    # series rows; the sum of the elementwise J values on the same grid agrees
    jint = _jint_cache(H)
    rng = np.random.default_rng(1)
    for x in np.exp(rng.uniform(math.log(1e-12), math.log(6.0), 200)).tolist():
        ts, hw, *_ = jint._grid(x)
        ref = 2j * np.sum(np.imag(j2it_values(ts, x)) * hw)
        assert abs(jint(x) - ref) <= 5e-14 * np.sum(np.abs(hw))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(math.log(1e-12), math.log(12.0)).map(math.exp), min_size=1,
                max_size=70))
def test_jint_blocks_match_the_elementwise_sum(xs):
    # one many() call on a fresh cache: its x share blocks per t-grid below
    # x = 6 and take the ODE above; each value agrees with the sum of the
    # elementwise J values on its own grid
    jint = _JIntegralCache(H)
    for x, v in zip(xs, jint.many(xs)):
        ts, hw, *_ = jint._grid(x)
        ref = 2j * np.sum(np.imag(j2it_values(ts, x)) * hw)
        assert abs(v - ref) <= 5e-14 * np.sum(np.abs(hw)), x


def test_geo_kloosterman_fetches_jint_in_blocks_of_the_minimum():
    # Jint comes in blocks of the next _MIN_TERMS arguments, so at most one
    # block's tail goes unused
    _jint_cache.cache_clear()
    k = geo_kloosterman(req_for(101, abs_tol=1e-6))[2]
    assert k <= len(_jint_cache(H)._cache) < k + _MIN_TERMS


@pytest.mark.parametrize("N, n, used", [
    (101, 1, 956), (101, 2, 989), (101, 4, 1338),
    (401, 1, 335), (401, 2, 368), (401, 4, 318),
    (1009, 1, 163), (1009, 2, 176), (1009, 4, 166)])
def test_c_terms_used_pinned(N, n, used):
    req = KtfRequest(N, DirichletCharacter.principal(N), n, 1, 1, H)
    assert geo_kloosterman(req)[2] == used


def test_geo_kloosterman_real_for_equal_m():
    g2, tail, k = geo_kloosterman(req_for(11))
    assert abs(g2.imag) < 1e-12
    assert tail < 1e-5 * arith.psi(11)
    assert k >= 64


def test_geo_kloosterman_tail_is_the_spread_of_the_last_partial_sums():
    req = KtfRequest(101, DirichletCharacter.principal(101), 1, 1, 1, H)
    total, tail, k, terms = geo_kloosterman(req, return_terms=True)
    partial, s = [], 0j
    for _, term in terms:
        s += term
        partial.append(s)
    assert len(terms) == k and partial[-1] == total
    assert tail == max(abs(p - total) for p in partial[-_TAIL_WINDOW:])
    # the series stops at the first k >= 64 whose window spread is below tol / 2
    half_tol = req.abs_tol * arith.psi(101) / 2
    assert tail < half_tol
    assert max(abs(p - partial[-2]) for p in partial[-_TAIL_WINDOW - 1:-1]) >= half_tol


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM (Linux)")
def test_geo_kloosterman_memory_ceiling_at_level_7():
    # the c-series at N = 7 reaches c = 80283; the table caches are bounded, so
    # the process stays below 100 MB (it peaked at 304 MB with unbounded caches).
    # The peak is VmHWM, not ru_maxrss: Linux carries the high-water mark of the
    # spawning process (this test runner) into the child's ru_maxrss at exec.
    code = (
        "from ktf_kit.characters import DirichletCharacter\n"
        "from ktf_kit.ktf import KtfRequest, cuspidal_inferred\n"
        "from ktf_kit.transforms import TestFunction\n"
        "r = cuspidal_inferred(KtfRequest(7, DirichletCharacter.principal(7), 1, 1, 1,\n"
        "                                 TestFunction.parse('gaussian:1')))\n"
        "hwm = [line.split()[1] for line in open('/proc/self/status')\n"
        "       if line.startswith('VmHWM:')]\n"
        "print(r.c_terms_used, repr(r.geo_kloosterman), *hwm)\n")
    # a single-threaded BLAS, as in test_transforms' round-trip ceiling test
    env = {**os.environ, "PYTHONPATH": str(Path(ktf_kit.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    used, g2, peak_kib = out.stdout.split()
    assert int(used) == 11469
    assert g2 == "(-0.035825093770079565-1.5720361835014404e-16j)"
    assert int(peak_kib) < 100 * 1024


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM (Linux)")
@pytest.mark.parametrize("N", [30030, 100003, 1000003])
def test_cli_report_at_large_level_memory_ceiling(N):
    # past N = 23,437 the c-series reaches c = 1.5e6 within its 64-term minimum,
    # so only a cap on terms (not on c) lets these levels finish.  Measured peaks
    # are 38 MB at N = 30030 and 44 MB at N = 100003 (0.15 s and 0.27 s); building
    # all phi(N) characters for the Eisenstein pairs took 100 MB at N = 100003.
    # At N = 10^6 + 3 each term has a local factor mod N twisted by the principal
    # character, whose direct sum keeps no weight array: 102 MB, 141 MB with one.
    ceiling_mb = {30030: 64, 100003: 64, 1000003: 120}[N]
    code = ("import sys, json, contextlib, io\n"
            "from ktf_kit.cli import main\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    code = main(sys.argv[1:])\n"
            "hwm = [line.split()[1] for line in open('/proc/self/status')\n"
            "       if line.startswith('VmHWM:')]\n"
            "print(code, json.loads(out.getvalue())['c_terms_used'], *hwm)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(ktf_kit.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", code, "ktf", "--N", str(N), "--h", "gaussian:1"],
                         capture_output=True, text=True, check=True, env=env)
    exit_code, used, peak_kib = map(int, out.stdout.split())
    assert exit_code == 0 and used == 64
    assert peak_kib < ceiling_mb * 1024


def test_geo_kloosterman_magnitude_trend():
    vals = []
    for N in (101, 401, 1009):
        g2, _, _ = geo_kloosterman(req_for(N))
        vals.append(abs(g2) / arith.psi(N))
    assert vals[2] < vals[0]


def test_spec_continuous_matches_classical_at_level_one():
    """At N = 1 the term reduces to the sigma_{2it} / |zeta(1+2it)|^2 integrand.

    The classical integrand is also integrated on twice the panels; the
    returned t_quadrature_error must cover that difference."""
    m1, m2 = 2, 3
    req = req_for(1, m1=m1, m2=m2)
    v, terr = spec_continuous(req)
    ts, ws = _continuous_t_grid(H)

    def sigma_2it(m, t):
        return sum(d ** (2j * t) for d in arith.divisors(m))

    # exact reduction of the Theorem-main integrand: sigma_it(m) = m^{-2it}
    # sigma_{2it}(m), so the ratio factor appears as (m1/m2)^{-it}
    def classical(ts, ws):
        integrand = np.array([
            (m1 / m2) ** (-1j * t) * sigma_2it(m1, t) * np.conj(sigma_2it(m2, t))
            / abs(hurwitz_zeta(1 + 2j * t, 1.0)) ** 2
            for t in ts])
        return np.sum(ws * np.real(np.asarray(H(ts))) * integrand) / math.pi

    assert abs(v - classical(ts, ws)) < 1e-10 * max(1.0, abs(v))
    # the same rule on [1e-6, T] with twice the panels, mirrored to t < 0
    fine_ts, fine_ws = gl_panels(1e-6, get_pipeline(H).T, len(ts) // 16, 16)
    fine = classical(np.concatenate([-fine_ts[::-1], fine_ts]),
                     np.concatenate([fine_ws[::-1], fine_ws]))
    assert abs(v - fine) <= terr < 1e-12


def test_spec_continuous_real_for_equal_m():
    v, _ = spec_continuous(req_for(12, n=5, m1=2, m2=2))
    assert abs(v.imag) < 1e-14


def test_report_assembly_and_roundtrip():
    doc = cuspidal_inferred(req_for(7)).to_json_dict()
    lhs = complex(*doc["spec_cuspidal_inferred"])
    rhs = (complex(*doc["geo_main"]) + complex(*doc["geo_kloosterman"])
           - complex(*doc["spec_continuous"]))
    assert abs(lhs - rhs) < 1e-12


def test_report_swap_conjugates():
    a = cuspidal_inferred(req_for(5, n=2, m1=2, m2=3)).spec_cuspidal_inferred
    b = cuspidal_inferred(req_for(5, n=2, m1=3, m2=2)).spec_cuspidal_inferred
    assert abs(a - b.conjugate()) < 1e-4


def test_cuspidal_from_data():
    req = req_for(5)
    assert cuspidal_from_data(req, []) == 0j
    datum = SpectralDatum(1.0 + 0j, 1.0, 1.0, 1.0, 1.0)
    v = cuspidal_from_data(req, [datum])
    assert abs(v - math.exp(-1) / math.cosh(math.pi)) < 1e-14
    exc = SpectralDatum(0.2j, 1.0, 1.0, 1.0, 1.0)
    v = cuspidal_from_data(req, [exc])
    # h(0.2i) = e^{0.04}; cosh(pi 0.2i) = cos(0.2 pi)
    assert abs(v - math.exp(0.04) / math.cos(0.2 * math.pi)) < 1e-12


def test_spectral_datum_validation():
    with pytest.raises(ValueError):
        SpectralDatum(1.0 + 0j, 1.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        SpectralDatum(0.7j + 0.3, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        SpectralDatum(0.9j, 1.0, 1.0, 1.0)


# ------------------------------------------------------- classical route

def test_classical_crosscheck_trivial_n():
    d = classical_crosscheck(req_for(5, n=1, m1=2, m2=3))
    assert max(d.values()) < 1e-14


@pytest.mark.parametrize("N,n,m1,m2", [
    (4, 3, 2, 6), (4, 3, 6, 2), (8, 5, 4, 4), (9, 2, 6, 3), (12, 7, 6, 6),
])
def test_classical_crosscheck_general(N, n, m1, m2):
    d = classical_crosscheck(req_for(N, n=n, m1=m1, m2=m2))
    assert max(d.values()) <= 1e-8


def test_classical_crosscheck_nontrivial_omega():
    om = [c for c in enumerate_characters(8)
          if abs(c(-1) - 1) < 1e-9 and not c.is_principal()][0]
    d = classical_crosscheck(req_for(8, n=3, m1=6, m2=2, omega=om))
    assert max(d.values()) <= 1e-8


def test_classical_crosscheck_shares_jint_arguments():
    # the ell = 2 term at c is the direct term at 2c, so both sides read one
    # Jint argument per c <= 24 N
    _jint_cache.cache_clear()
    classical_crosscheck(req_for(5, n=4, m1=6, m2=1), k_terms=24)
    assert len(_jint_cache(H)._cache) == 24


def test_hecke_sigma_identity_random():
    rng = random.Random(99)
    checked = 0
    while checked < 200:
        N = rng.choice([1, 3, 4, 5, 8, 9, 12])
        oms = [c for c in enumerate_characters(N) if abs(c(-1) - 1) < 1e-9]
        om = rng.choice(oms)
        els = enumerate_basis(N, om)
        if not els:
            continue
        e = rng.choice(els)
        n = rng.choice([k for k in range(1, 13) if math.gcd(k, N) == 1])
        m = rng.choice([k for k in range(1, 13) if math.gcd(k, N) == 1])
        lhs, rhs = hecke_sigma_identity(n, m, e, rng.uniform(-3, 3))
        assert abs(lhs - rhs) <= 1e-12
        checked += 1


def test_hecke_sigma_identity_rejects():
    e = enumerate_basis(5, DirichletCharacter.principal(5))[0]
    with pytest.raises(ValueError):
        hecke_sigma_identity(5, 1, e, 0.5)


# -------------------------------------------------- positivity and trends

def test_positivity_small_levels():
    for N in (7, 11, 23):
        rep = cuspidal_inferred(req_for(N))
        psi = arith.psi(N)
        assert rep.spec_cuspidal_inferred.real >= -1e-4 * psi
        assert abs(rep.spec_cuspidal_inferred.imag) <= 1e-6 * psi


def test_odd_power_suppression():
    vals = []
    for N in (101, 401, 1009):
        rep = cuspidal_inferred(req_for(N, n=2))
        vals.append(abs(rep.spec_cuspidal_inferred) / arith.psi(N))
    assert vals[0] > vals[1] > vals[2]
