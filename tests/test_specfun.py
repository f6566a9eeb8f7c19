import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

mp = pytest.importorskip("mpmath")

from ktf_kit.specfun import (
    bessel_J_2it,
    bessel_K,
    bessel_K_it,
    gamma_complex,
    gl_edges,
    gl_integrate,
    gl_panels,
    j2it_values,
    k_squared_integral,
)
from ktf_kit.specfun import _j2it_ode_extend

mp.mp.dps = 30


def test_gamma_one():
    assert abs(gamma_complex(1) - 1) < 1e-14
    assert abs(gamma_complex(5) - 24) < 1e-12


def test_gamma_reflection_line():
    for t in np.linspace(0.0, 20.0, 41):
        v = abs(gamma_complex(complex(0.5, t))) ** 2 * math.cosh(math.pi * t)
        assert abs(v - math.pi) < 1e-10 * math.pi


def test_gamma_vs_highprec_oracle():
    for re in (-2.3, -0.5, 0.1, 0.5, 1.0, 3.7, 10.0):
        for im in (0.0, 0.5, 2.0, 8.0, 15.0, 30.0):
            z = complex(re, im)
            if z.imag == 0 and z.real <= 0 and z.real == int(z.real):
                continue
            ref = complex(mp.gamma(mp.mpc(z.real, z.imag)))
            assert abs(gamma_complex(z) - ref) <= 1e-12 * abs(ref)


def test_gamma_pole():
    with pytest.raises(ValueError):
        gamma_complex(0)
    with pytest.raises(ValueError):
        gamma_complex(-3)


def _near_pole(z: complex) -> bool:
    k = round(z.real)
    return k <= 0 and abs(z - k) < 0.05


# Re z in [-4.5, 12] covers the reflection branch; |Im z| <= 30 is the
# documented accuracy range
GAMMA_ARGS = st.builds(complex, st.floats(-4.5, 12.0), st.floats(-30.0, 30.0)).filter(
    lambda z: not _near_pole(z))


@settings(max_examples=60, deadline=None)
@given(st.lists(GAMMA_ARGS, min_size=1, max_size=16))
def test_gamma_array_matches_scalar_and_oracle(zs):
    vals = gamma_complex(np.array(zs))
    assert vals.shape == (len(zs),)
    for z, v in zip(zs, vals):
        scalar = gamma_complex(z)
        assert isinstance(scalar, complex)
        assert abs(v - scalar) <= 1e-15 * abs(scalar)
        ref = complex(mp.gamma(mp.mpc(z.real, z.imag)))
        assert abs(v - ref) <= 1e-12 * abs(ref)


@settings(max_examples=30, deadline=None)
@given(st.lists(GAMMA_ARGS, max_size=8), st.integers(-8, 0), st.data())
def test_gamma_array_with_pole_raises(zs, pole, data):
    at = data.draw(st.integers(0, len(zs)))
    z = np.array(zs[:at] + [complex(pole)] + zs[at:])
    with pytest.raises(ValueError, match="pole"):
        gamma_complex(z)
    with pytest.raises(ValueError, match="pole"):
        gamma_complex(z.reshape(1, -1))


def test_bessel_K_it_against_oracle():
    for t in (0.0, 0.5, 1.0, 2.0, 10.0, 30.0):
        for x in (1e-3, 0.05, 1.0, 2 * math.pi, 20.0, 50.0):
            ref = complex(mp.besselk(mp.mpc(0, t), x))
            assert abs(ref.imag) < 1e-25
            assert abs(bessel_K_it(t, x) - ref.real) < 1e-10


def test_bessel_K_it_small_arguments():
    # k_squared_integral reaches x = 2 pi e^{-40} = 2.7e-17, where K_it ~ log x
    for t in (0.0, 0.5, 2.0, 10.0, 12.0):
        for x in (2.7e-17, 1e-11, 1e-3):
            ref = float(mp.besselk(mp.mpc(0, t), x).real)
            assert abs(bessel_K_it(t, x) - ref) <= 1e-13


def test_bessel_K_it_properties():
    with pytest.raises(ValueError):
        bessel_K_it(1.0, 0.0)
    # positive and decreasing at t=0
    xs = np.linspace(0.1, 8.0, 40)
    vals = bessel_K_it(0.0, xs)
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) < 0)
    # exponential decay envelope at x = 50
    v = bessel_K_it(1.0, 50.0)
    assert abs(v) <= math.sqrt(math.pi / 100.0) * math.exp(-50) * 1.2


def test_bessel_K_complex_order():
    for nu in (0.6, 0.75, 1.0, 1.5, 0.5 + 1j, 2j):
        for x in (0.5, 2.0, 6.28):
            ref = complex(mp.besselk(mp.mpc(nu), x))
            assert abs(bessel_K(nu, x) - ref) <= 1e-9 * max(1e-12, abs(ref))


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 12.0, 13.0])
def test_k_squared_integral(t):
    val = k_squared_integral(t)
    ref = math.pi / (8 * math.cosh(math.pi * t))
    assert abs(val - ref) <= {0.0: 1e-12, 13.0: 1e-10}.get(t, 1e-11) * ref


def test_k_squared_integral_raises_where_its_estimate_stalls():
    # K_it loses its relative accuracy at large t; the value is not returned
    for t in (14.0, 20.0):
        with pytest.raises(ArithmeticError, match="estimate"):
            k_squared_integral(t)


def test_bessel_J_series_values():
    assert abs(bessel_J_2it(0.0, 1.0) - float(mp.besselj(0, 1))) < 1e-12
    for t in (0.0, 0.3, 1.0, 2.0, 4.0):
        for x in (0.01, 0.5, 5.0, 10.0, 25.0, 30.0):
            ref = complex(mp.besselj(mp.mpc(0, 2 * t), x))
            assert abs(bessel_J_2it(t, x) - ref) <= 1e-8 * max(1e-300, abs(ref))


def test_bessel_J_conjugate_symmetry():
    for t in (0.3, 1.7):
        for x in (0.5, 4.0):
            v = bessel_J_2it(t, x)
            assert abs(bessel_J_2it(-t, x) - v.conjugate()) < 1e-12


def test_bessel_J_gamma_majorant():
    # |J_{2it}(x)| <= (x/2)^0 * e / |Gamma(2it + 1/2)|-style bound on samples
    for t in (0.5, 1.0, 2.0):
        for x in (0.5, 2.0, 8.0):
            v = abs(bessel_J_2it(t, x))
            bound = 3.0 / abs(gamma_complex(complex(0.5, 2 * t)))
            assert v <= bound


def test_bessel_J_cutoff_error():
    with pytest.raises(ValueError, match="cutoff"):
        bessel_J_2it(0.0, 31.0)
    with pytest.raises(ValueError):
        bessel_J_2it(0.0, -1.0)


def test_j2it_ode_extension():
    ts = np.array([0.01, 0.5, 2.0, 6.0])
    vals = _j2it_ode_extend(ts, np.array([40.0]))[40.0]
    for t, v in zip(ts, vals):
        ref = complex(mp.besselj(mp.mpc(0, 2 * t), 40.0))
        assert abs(v - ref) <= 1e-8 * abs(ref)
    # consistency with the public values at the seam
    seam = j2it_values(ts, 29.9)
    for t, v in zip(ts, seam):
        ref = complex(mp.besselj(mp.mpc(0, 2 * t), 29.9))
        assert abs(v - ref) <= 1e-8 * abs(ref)


# x in (6, 30]: anywhere, on an integer, or on or near the RK4 lattice 6 + k * 0.002
ODE_X = st.one_of(st.floats(6.0, 30.0, exclude_min=True), st.integers(7, 30).map(float),
                  st.integers(1, 12000).map(lambda k: 6.0 + 0.002 * k))


@settings(max_examples=6, deadline=None)
@given(st.lists(ODE_X, min_size=1, max_size=4))
def test_ode_path_is_bit_identical_to_fresh_sweeps(xs):
    # one checkpoint path shared by targets in any order gives exactly the
    # values of a fresh sweep from the seed, and holds one state per unit of x
    ts = np.array([0.01, 0.7, 3.0])
    rgamma = 1.0 / gamma_complex(1 + 2j * ts)
    path = []
    for x in xs:
        shared = j2it_values(ts, x, rgamma=rgamma, path=path)
        assert np.array_equal(shared, j2it_values(ts, x))
    assert len(path) <= math.floor(max(xs)) - 4


# rounded to 6 decimals: subnormal draws would test the oracle's rounding, not the rule
UNIT = st.floats(-1.0, 1.0).map(lambda c: round(c, 6))


@settings(max_examples=80, deadline=None)
@given(st.floats(-5.0, 5.0), st.floats(0.5, 20.0), st.integers(1, 64),
       st.lists(UNIT, min_size=1, max_size=32), UNIT.map(lambda u: 12.0 * abs(u)))
def test_gl_integrate_exact_degree_and_estimate(a, length, panels, coeffs, omega_h):
    b = a + length
    xs, ws = gl_panels(a, b, panels)
    # polynomial in s = (2x - a - b) / (b - a) in [-1, 1], degree <= 31
    s = (2.0 * xs - a - b) / length
    poly = np.polynomial.polynomial.polyval(s, coeffs)
    exact = length / 2 * sum(2 * c / (k + 1) for k, c in enumerate(coeffs) if k % 2 == 0)
    scale = length * sum(abs(c) for c in coeffs)
    value, estimate = gl_integrate(poly, ws)
    assert abs(value - exact) <= 1e-12 * scale
    if len(coeffs) <= 14:  # degree <= 13: no Legendre tail on any panel
        assert estimate <= 1e-13 * scale
    # an oscillating integrand, resolved by the panels (omega times the panel
    # half-width <= 12; coarser panels alias the Legendre tail): the estimate
    # covers the error, up to rounding
    omega = omega_h * 2 * panels / length
    value, estimate = gl_integrate(np.cos(omega * xs), ws)
    exact = length if omega == 0 else (math.sin(omega * b) - math.sin(omega * a)) / omega
    assert abs(value - exact) <= estimate + 1e-13


def test_gl_edges_uneven_panels():
    xs, ws = gl_edges([0.0, 0.25, 1.0, 3.0])
    assert len(xs) == 3 * 16 and np.all(np.diff(xs) > 0)
    assert abs(np.sum(ws) - 3.0) < 1e-14
    assert abs(np.sum(ws * xs**31) - 3.0**32 / 32) < 1e-12 * 3.0**32 / 32


def test_import_builds_no_legendre_tables():
    # the Legendre rules and the tail matrix are built on first use, not at import
    code = "import sys, ktf_kit; print('numpy.polynomial' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"
