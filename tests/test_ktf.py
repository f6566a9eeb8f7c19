import cmath
import math
import random

import numpy as np
import pytest

from ktf_kit import arith
from ktf_kit.characters import DirichletCharacter, enumerate_characters
from ktf_kit.eisenstein import enumerate_basis, hurwitz_zeta
from ktf_kit.ktf import (
    KtfRequest,
    SpectralDatum,
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
from ktf_kit.specfun import gl_panels
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
# imaginary; these imaginary parts were computed with one scalar Lanczos Gamma
# call per t-node (12.0 and 6 pi by a fresh ODE sweep per x).  4 pi / c for
# c = 101, 1009, 30000 are Kloosterman-term arguments, 0.5, 3.0, 5.9 run the
# J-series and 7.5, 12.0, 6 pi the ODE continuation.
JINT_GAUSSIAN_1 = [
    (4 * math.pi / 101, -0.0786026261613868),
    (4 * math.pi / 1009, -0.007994507042636143),
    (4 * math.pi / 30000, -0.00026892560492561615),
    (0.5, -0.2517973950557416),
    (3.0, 0.34039250126921533),
    (5.9, -0.28198862617068116),
    (7.5, 0.037167245793310315),
    (12.0, -0.20927813486868893),
    (6 * math.pi, -0.1329238570901982),
]


@pytest.mark.parametrize("x, im", JINT_GAUSSIAN_1)
def test_jint_pinned_values(x, im):
    v = _jint_cache(TestFunction.parse("gaussian:1"))(x)
    assert v.real == 0
    assert abs(v.imag - im) <= 1e-13 * abs(im)


def test_jint_ode_arguments_share_one_grid():
    # x = 7, 10, 15 have different log(x/2) keys (4, 5, 6) but the same
    # panel count, so one t-grid, one 1/Gamma row and one ODE path serve them
    _jint_cache.cache_clear()
    jint = _jint_cache(TestFunction.parse("gaussian:1"))
    for x in (7.0, 10.0, 15.0):
        jint(x)
    assert len(jint._grids) == 1
    (path_len,) = [len(path) for _, _, _, path in jint._grids.values()]
    assert path_len == 1 + 8  # the seed at x = 6, a checkpoint past each of 7, ..., 14


def test_geo_kloosterman_real_for_equal_m():
    g2, tail, k = geo_kloosterman(req_for(11))
    assert abs(g2.imag) < 1e-12
    assert tail < 1e-5 * arith.psi(11)
    assert k >= 64


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
    rep = cuspidal_inferred(req_for(7))
    assert rep.verify_identity()
    doc = rep.to_json_dict()
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
