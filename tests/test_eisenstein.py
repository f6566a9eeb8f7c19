import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ktf_kit import arith
from ktf_kit.characters import (
    CharacterPair,
    DirichletCharacter,
    enumerate_characters,
    local_component,
    pairs_with_product,
)
from ktf_kit.eisenstein import (
    basis_norm_sq,
    dirichlet_L,
    dirichlet_L_line,
    eisenstein_eval,
    enumerate_basis,
    hurwitz_zeta,
    lambda_n_eis,
    phi_fin_value,
    residue_half,
    riemann_zeta,
    sigma_s,
)

TRIV1 = DirichletCharacter.principal(1)


# ------------------------------------------------------------- L functions

def test_hurwitz_against_oracle():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for s in (2.0, 0.6 + 0j, 1 + 2j, 1.5 - 4j, 2.4 + 16j, -0.3 + 2j):
        for q in (1.0, 0.2, 1 / 7):
            ref = complex(mp.zeta(mp.mpc(s), q))
            assert abs(hurwitz_zeta(s, q) - ref) <= 1e-11 * abs(ref)


# six decimals keep s off the tiny nonzero values where mpmath at 30 digits
# loses accuracy (zeta(s, 2) at s = -2e-24 is off by 5e-11)
HURWITZ_ARGS = st.builds(complex, st.floats(-0.5, 3.0).map(lambda v: round(v, 6)),
                         st.floats(-20.0, 20.0).map(lambda v: round(v, 6)))


@settings(max_examples=40, deadline=None)
@given(st.lists(HURWITZ_ARGS, min_size=1, max_size=12), st.floats(0.05, 2.0),
       st.booleans())
def test_hurwitz_array_matches_scalar_and_oracle(ss, q, deflate):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    if not deflate:
        ss = [s for s in ss if abs(s - 1) > 1e-3]
        assume(ss)
    vals = hurwitz_zeta(np.array(ss), q, deflate=deflate)
    assert vals.shape == (len(ss),)
    for s, v in zip(ss, vals):
        scalar = hurwitz_zeta(s, q, deflate=deflate)
        assert isinstance(scalar, complex)
        assert abs(v - scalar) <= 1e-14 * max(1.0, abs(scalar))
        if deflate and s == 1:
            ref = complex(-mp.digamma(q))  # the limit of zeta(s, q) - 1/(s-1)
        else:
            ref = mp.zeta(mp.mpc(s.real, s.imag), q)
            ref = complex(ref - 1 / (mp.mpc(s.real, s.imag) - 1) if deflate else ref)
        assert abs(v - ref) <= 1e-11 * max(1.0, abs(ref))


def test_hurwitz_array_pole_and_long_rows():
    with pytest.raises(ValueError, match="pole"):
        hurwitz_zeta(np.array([2.0, 1.0, 3.0]), 1.0)
    # |Im s| = 2000 needs 2806-term heads; blocks shrink so each stays small
    s = np.array([0.5 + 2000j, 2.0 + 3.0j, 1.5 - 1999j])
    vals = hurwitz_zeta(s, 0.5)
    for si, v in zip(s, vals):
        assert v == pytest.approx(hurwitz_zeta(si, 0.5), rel=1e-13)


# (12, 0) is principal; (15, 1) is induced from a character mod 5
@pytest.mark.parametrize("modulus, index", [(12, 0), (15, 1), (5, 1), (7, 2)])
@settings(max_examples=10, deadline=None)
@given(st.lists(st.floats(5e-4, 11.0), min_size=1, max_size=8))
def test_dirichlet_L_array_matches_scalar(modulus, index, ts):
    """L(1 + 2it) on an array equals the scalar calls and the Hurwitz sum over
    the full modulus (deflated for a non-principal character)."""
    chi = enumerate_characters(modulus)[index]
    assert chi.is_principal() == (modulus == 12)
    ss = 1 + 2j * np.array(ts)
    vals = dirichlet_L(chi, ss)
    assert vals.shape == ss.shape
    assert np.array_equal(dirichlet_L_line(chi, np.array(ts)), vals)
    for s, v in zip(ss, vals):
        scalar = dirichlet_L(chi, s)
        assert isinstance(scalar, complex)
        assert abs(v - scalar) <= 1e-14 * abs(scalar)
        ref = modulus ** -s * sum(chi(a) * hurwitz_zeta(s, a / modulus,
                                                        deflate=not chi.is_principal())
                                  for a in range(1, modulus + 1))
        assert abs(v - ref) <= 1e-12 * abs(ref)


def test_dirichlet_L_oracle_near_one():
    """At t = 5e-4, |s - 1| = 1e-3: the deflated Hurwitz sum against mpmath."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    s = 1 + 2j * 5e-4
    for chi in enumerate_characters(7)[1:]:
        vals = [mp.mpc(0)] + [mp.expjpi(2 * mp.mpf(chi.angle(a)) / arith.carmichael(7))
                              for a in range(1, 7)]
        ref = complex(mp.dirichlet(mp.mpc(s.real, s.imag), vals))
        assert abs(dirichlet_L(chi, s) - ref) <= 1e-13 * abs(ref)


ELEMENTS = [e for N in (1, 5, 7, 12, 15)
            for e in enumerate_basis(N, DirichletCharacter.principal(N))]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ELEMENTS), st.integers(-12, 12), st.integers(1, 40),
       st.lists(st.builds(complex, st.floats(-0.4, 2.0), st.floats(-12.0, 12.0)),
                min_size=1, max_size=8))
def test_sigma_lambda_array_match_scalar(e, m, n, ss):
    assume(math.gcd(n, e.level) == 1)
    if m == 0:
        ss = [s + 1 for s in ss]  # sigma_s at m = 0 needs Re(s) > 1/2
    sigmas = sigma_s(e, m, np.array(ss))
    lams = lambda_n_eis(n, e.pair, np.array(ss))
    assert sigmas.shape == lams.shape == (len(ss),)
    for s, sig, lam in zip(ss, sigmas, lams):
        scalar = sigma_s(e, m, s)
        assert isinstance(scalar, complex)
        assert abs(sig - scalar) <= 1e-14 * max(1.0, abs(scalar))
        scalar = lambda_n_eis(n, e.pair, s)
        assert isinstance(scalar, complex)
        assert abs(lam - scalar) <= 1e-14 * max(1.0, abs(scalar))


def test_L_nonreal_mod5_finite():
    chi = [c for c in enumerate_characters(5)
           if not c.is_principal() and not c.mul(c).is_principal()][0]
    v = dirichlet_L_line(chi, 0.0)
    assert abs(v) > 0.1
    # Hurwitz-zeta oracle at s -> 1; character values at full precision so the
    # 1/(s-1) poles cancel exactly
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    eps = mp.mpf(10) ** -15
    vals = {a: mp.expjpi(2 * mp.mpf(chi.angle(a)) / arith.carmichael(5))
            if chi.angle(a) is not None else mp.mpc(0) for a in range(1, 6)}
    s = 1 + eps
    ref = complex(sum(vals[a] * mp.zeta(s, mp.mpf(a) / 5) for a in range(1, 6)) * 5**-s)
    assert abs(v - ref) < 1e-9


def test_L_principal_zeta_relation():
    chi0 = DirichletCharacter.principal(6)
    s = 1 + 2j
    target = riemann_zeta(s) * (1 - 2**-s) * (1 - 3**-s)
    assert abs(dirichlet_L(chi0, s) - target) < 1e-12
    with pytest.raises(ValueError):
        dirichlet_L_line(chi0, 0.0)


def test_L_conjugation_symmetry():
    for chi in enumerate_characters(7):
        if chi.is_principal():
            continue
        a = dirichlet_L(chi.conj(), 1 - 1.4j)
        b = dirichlet_L(chi, 1 + 1.4j).conjugate()
        assert abs(a - b) < 1e-11


def test_L_partial_variant():
    chi = enumerate_characters(5)[1]
    full = dirichlet_L_line(chi, 0.5)
    part = dirichlet_L_line(chi, 0.5, "partial", N=15)
    s = 1 + 1j
    assert abs(part - full * (1 - chi(3) * 3**-s)) < 1e-12


# ------------------------------------------------------------------ basis

def test_basis_counts():
    b1 = enumerate_basis(1, TRIV1)
    assert len(b1) == 1 and b1[0].tuple_ip == ()
    b7 = enumerate_basis(7, DirichletCharacter.principal(7))
    assert sorted(e.ip(7) for e in b7) == [0, 1]
    for N in range(1, 61):
        om = DirichletCharacter.principal(N)
        expect = sum(arith.tau(N // (p.chi1.conductor * p.chi2.conductor))
                     for p in pairs_with_product(om))
        assert len(enumerate_basis(N, om)) == expect


def test_norms():
    b1 = enumerate_basis(1, TRIV1)
    assert basis_norm_sq(b1[0]) == Fraction(1)
    for e in enumerate_basis(7, DirichletCharacter.principal(7)):
        assert e.norm_sq == (Fraction(1, 8) if e.ip(7) == 1 else Fraction(7, 8))
    for e in enumerate_basis(12, DirichletCharacter.principal(12)):
        assert e.norm_sq > 0
        assert abs(e.constant) == pytest.approx(1.0, abs=1e-14)


def test_constant_is_product_of_local_components():
    for N in (12, 45, 72, 100):
        for om in enumerate_characters(N):
            for e in enumerate_basis(N, om):
                ref = 1.0 + 0j
                for p, i in e.tuple_ip:
                    k = arith.ord_p(N, p)
                    if i < k:
                        ref *= np.conj(local_component(e.pair.chi1, p, p**k)(e.M // p**i))
                assert abs(e.constant - ref) <= 1e-14


def test_phi_fin_value():
    # identity coset with all i_p = N_p: value 1
    for e in enumerate_basis(9, DirichletCharacter.principal(9)):
        if e.ip(3) == 2:
            assert abs(phi_fin_value(e, 0, 1) - 1) < 1e-14
            # i_p = N_p: value chi2'(d) on any (c, d) with min(ord_p(c), N_p) = i_p
            assert abs(phi_fin_value(e, 9, 2) - e.chi2p(2)) < 1e-14
        if e.ip(3) == 1:
            # support condition fails when min(ord_p c, N_p) != i_p
            assert phi_fin_value(e, 9, 1) == 0j
            assert phi_fin_value(e, 1, 1) == 0j
    with pytest.raises(ValueError):
        phi_fin_value(enumerate_basis(9, DirichletCharacter.principal(9))[0], 3, 3)


# ------------------------------------------------------------------ sigma

def test_sigma_classical():
    e1 = enumerate_basis(1, TRIV1)[0]
    assert abs(sigma_s(e1, 6, 0.0) - arith.tau(6)) < 1e-12
    assert abs(sigma_s(e1, 12, 0.0) - arith.tau(12)) < 1e-12


def test_sigma_zero_cases():
    for e in enumerate_basis(5, DirichletCharacter.principal(5)):
        if e.pair.chi2.conductor > 1:
            assert sigma_s(e, 0, 0.8) == 0j
    with pytest.raises(ValueError):
        sigma_s(enumerate_basis(1, TRIV1)[0], 0, 0.3)


def test_sigma_bound():
    for N in (5, 12, 24):
        for e in enumerate_basis(N, DirichletCharacter.principal(N)):
            for m in (1, 2, 6, -4):
                v = abs(sigma_s(e, m, 0.37j))
                bound = (math.sqrt(e.pair.chi2.conductor) / e.M
                         * arith.tau(abs(m)) * arith.sigma(abs(m)))
                assert v <= bound + 1e-9


def test_sigma_gauss_mode_agreement():
    for N in (8, 12):
        for e in enumerate_basis(N, DirichletCharacter.principal(N)):
            for m in (2, 6, -9):
                a = sigma_s(e, m, 0.51j, "formula")
                b = sigma_s(e, m, 0.51j, "direct")
                assert abs(a - b) < 1e-10


def test_eisbound_scan_frozen_constant():
    """|sigma_it(m1) conj(sigma_it(m2))| / norm^2 <= C * N^0.1, C frozen."""
    C_FROZEN = 260.0   # fitted once over this deterministic scan, then frozen
    m1, m2, t = 2, 3, 0.37
    Ns = list(range(1, 101)) + list(range(105, 2001, 95)) + [720, 1260, 1680, 1980, 2000]
    worst = 0.0
    for N in Ns:
        for e in enumerate_basis(N, DirichletCharacter.principal(N)):
            q = abs(sigma_s(e, m1, 1j * t) * np.conj(sigma_s(e, m2, 1j * t)))
            q /= float(e.norm_sq)
            worst = max(worst, q / N**0.1)
            assert q <= C_FROZEN * N**0.1, (N, e.tuple_ip, q)
    assert worst > 1.0  # the scan is not vacuous


# ------------------------------------------------------------------ lambda

def test_lambda_values():
    pr = CharacterPair(TRIV1, TRIV1)
    assert abs(lambda_n_eis(1, pr, 0.3j) - 1) < 1e-15
    assert abs(lambda_n_eis(3, pr, 0.0) - 2) < 1e-14
    s = 0.7j
    assert abs(lambda_n_eis(4, pr, s) - 4**s * (1 + 2 ** (-2 * s) + 4 ** (-2 * s))) < 1e-12
    with pytest.raises(ValueError):
        chi5 = DirichletCharacter.principal(5)
        lambda_n_eis(10, CharacterPair(chi5, chi5), 0.0)


# --------------------------------------------------------------- evaluation

@pytest.mark.parametrize("N", [1, 4, 5])
@pytest.mark.parametrize("s", [0.6, 0.75, 1.0])
def test_direct_vs_fourier(N, s):
    om = DirichletCharacter.principal(N)
    for e in enumerate_basis(N, om):
        for z in (1j, 0.3 + 0.8j):
            d = eisenstein_eval(e, s, z, "direct")
            f = eisenstein_eval(e, s, z, "fourier")
            assert abs(d - f) <= 1e-6 * abs(f)


def test_direct_tail_only_for_principal_chi2p(monkeypatch):
    # the row tail is weighted by the sum of chi2' over a period, which is
    # phi(N2) for a principal chi2' and exactly 0 otherwise
    from ktf_kit import eisenstein
    s, z = 0.75 + 0.3j, 0.3 + 0.8j
    # principal chi2': values pinned from the floating sum of chi2' values
    for N, k, pinned in ((4, 1, 0.2988930225023455 - 0.36754007263115374j),
                         (9, 1, 0.14986297193279885 - 0.3448428350438663j)):
        e = enumerate_basis(N, DirichletCharacter.principal(N))[k]
        assert e.chi2p.is_principal() and e.N1 > 1 and e.N2 > 1
        assert eisenstein_eval(e, s, z, "direct") == pinned
    # non-principal chi2' whose floating sum of values is 1.6e-15, not 0:
    # no Hurwitz zeta at 2s (the tail) may be evaluated, only L(1 + 2s)
    orders = []
    hz = eisenstein.hurwitz_zeta
    monkeypatch.setattr(eisenstein, "hurwitz_zeta",
                        lambda s_, q, **kw: orders.append(s_) or hz(s_, q, **kw))
    even = [c for c in enumerate_characters(13) if abs(c(-1) - 1) < 1e-9]
    e = enumerate_basis(13, even[2])[0]
    assert not e.chi2p.is_principal()
    eisenstein_eval(e, s, z, "direct")
    assert orders and all(o == 1 + 2 * s for o in orders)


def test_periodicity():
    e = enumerate_basis(5, DirichletCharacter.principal(5))[1]
    a = eisenstein_eval(e, 0.85, 0.2 + 0.9j, "fourier")
    b = eisenstein_eval(e, 0.85, 1.2 + 0.9j, "fourier")
    assert abs(a - b) < 1e-10 * abs(a)


def test_nontrivial_chi2_constant_term():
    # nontrivial chi2: delta term absent, so E ~ chi1'(0) y^{1/2+s} for large y
    oms = [c for c in enumerate_characters(5) if not c.is_principal()
           and abs(c(-1) - 1) < 1e-9]
    e = [el for el in enumerate_basis(5, oms[0]) if el.pair.chi2.conductor > 1][0]
    y = 40.0
    v = eisenstein_eval(e, 0.75, y * 1j, "fourier")
    main = (1 if e.N1 == 1 else 0) * y ** (0.5 + 0.75)
    assert abs(v - main) < 1e-10


def test_direct_requires_convergence_region():
    e = enumerate_basis(1, TRIV1)[0]
    with pytest.raises(ValueError):
        eisenstein_eval(e, 0.4, 1j, "direct")


def test_residue_formula():
    assert abs(residue_half(enumerate_basis(1, TRIV1)[0]) - 3 / math.pi) < 1e-15
    for e in enumerate_basis(7, DirichletCharacter.principal(7)):
        r = residue_half(e)
        if e.ip(7) == 1:
            assert abs(r - (3 / math.pi) / (1 - 7**-2.0) * arith.phi(7) / 49) < 1e-12
        else:
            assert abs(r - (3 / math.pi) * (7 / 8)) < 1e-12
    # absent pole
    om = [c for c in enumerate_characters(5) if not c.is_principal()
          and abs(c(-1) - 1) < 1e-9][0]
    bad = [e for e in enumerate_basis(5, om) if e.pair.chi1.conductor > 1][0]
    with pytest.raises(ValueError, match="no pole"):
        residue_half(bad)


def test_residue_numerically():
    e1 = enumerate_basis(1, TRIV1)[0]
    eps_list = (0.04, 0.02, 0.01, 0.005)
    vals = [eps * eisenstein_eval(e1, 0.5 + eps, 1j, "fourier").real for eps in eps_list]
    xs, ys = list(eps_list), vals
    for k in range(1, len(xs)):
        for i in range(len(xs) - k):
            ys[i] = (xs[i + k] * ys[i] - xs[i] * ys[i + 1]) / (xs[i + k] - xs[i])
    assert abs(ys[0] - 3 / math.pi) <= 1e-8
