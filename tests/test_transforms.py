import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ktf_kit
from ktf_kit.transforms import (
    GridFunction,
    TestFunction,
    admissible_check,
    get_pipeline,
    q_from_h,
    roundtrip_h,
    roundtrip_sup_error,
    selfdual_half_integral,
    v_from_q,
    v_zero,
    zagier_2d_reference,
    zagier_hat,
    zagier_transform,
)

GAUSS = TestFunction.gaussian(1.0)
WINDOW = TestFunction.spectral_window(5.0)


def test_parse_literals():
    h = TestFunction.parse("gaussian:1")
    assert h.family == "gaussian" and h.params == (1.0,)
    h = TestFunction.parse("spectral_window:5,1")
    assert h.params == (5.0, 1.0)
    h = TestFunction.parse("polynomial_gaussian:1,0.5")
    assert h.params == (1.0, 0.5)
    with pytest.raises(ValueError):
        TestFunction.parse("weird:1")


def test_admissible_check():
    ok, diag = admissible_check(GAUSS, 1.0, 4.0)
    assert ok and diag["even_defect"] < 1e-14
    ok, _ = admissible_check(WINDOW, 0.5, 2.0)
    assert ok
    # odd function fails evenness
    odd = lambda t: np.asarray(t) * np.exp(-np.asarray(t) ** 2)
    ok, diag = admissible_check(odd, 0.5, 2.0)
    assert not ok and diag["even_defect"] > 1e-3


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction(np.array([0.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0]))


def test_grid_function_equality_is_identity():
    u, v = np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0])
    grid = GridFunction(u, v)
    assert grid == grid
    assert (grid == GridFunction(u.copy(), v.copy())) is False


def test_phi_value_and_symmetry():
    pipe = get_pipeline(GAUSS)
    # Phi(1) = (1/2pi) int e^{-r^2} dr = 1/(2 sqrt(pi))
    assert abs(pipe.phi(np.array([1.0]))[0] - 0.5 / math.sqrt(math.pi)) < 1e-12
    for y in (0.4, 3.0, 20.0):
        a = pipe.phi(np.array([y]))[0]
        b = pipe.phi(np.array([1.0 / y]))[0]
        assert abs(a - b) < 1e-12


def test_q_decay_envelope():
    Q = q_from_h(GAUSS)
    # declared strip half-width 1.0: (1+u)^A |Q(u)| stays bounded
    vals = np.abs(Q.values) * (1.0 + Q.u) ** GAUSS.strip_halfwidth
    assert np.max(vals) < 10.0


def test_v_decay_envelope():
    V = v_from_q(GAUSS)
    vals = np.abs(V.values) * (1.0 + V.u) ** (GAUSS.strip_halfwidth + 0.5)
    assert np.max(vals) < 10.0
    assert np.all(np.isreal(V.values))


def test_forward_consistency():
    pipe = get_pipeline(GAUSS)
    for u in (0.0, 1.0, 5.0):
        assert abs(pipe.q_from_v(np.array([u]))[0] - pipe.q_exact([u])[0]) < 1e-8


@pytest.mark.parametrize("h,tol", [(GAUSS, 1e-6), (WINDOW, 1e-6)])
def test_roundtrip(h, tol):
    assert roundtrip_sup_error(h, 10.0, 41) <= tol


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM (Linux)")
def test_roundtrip_memory_ceiling():
    # the Q, V and round-trip quadratures run in blocks of 512 rows, so building
    # the pipeline and the round trip stays below 200 MB.  The peak is VmHWM,
    # as in test_ktf's level-7 ceiling test.  The child's BLAS is single-threaded:
    # a blocked matmul sums in another order with more threads, which moves the
    # last digits of the pinned error.
    code = (
        "from ktf_kit.transforms import TestFunction, roundtrip_sup_error\n"
        "err = roundtrip_sup_error(TestFunction.spectral_window(5.0), 10.0, 41)\n"
        "hwm = [line.split()[1] for line in open('/proc/self/status')\n"
        "       if line.startswith('VmHWM:')]\n"
        "print(repr(err), *hwm)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(ktf_kit.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    err, peak_kib = out.stdout.split()
    assert abs(float(err) - 6.368271543780168e-10) <= 1e-15 * 6.368271543780168e-10
    assert int(peak_kib) < 200 * 1024


def test_grids_carry_their_pipeline():
    pipe = get_pipeline(GAUSS)
    Q = q_from_h(GAUSS)
    assert Q.pipeline is pipe and pipe.Qp.pipeline is pipe
    assert v_from_q(Q) is pipe.V
    assert roundtrip_h(Q, 2.0) == roundtrip_h(GAUSS, 2.0)
    assert "pipeline" not in repr(GridFunction(Q.u[:3], Q.values[:3], pipeline=pipe))


def test_hand_built_grid_is_refused():
    Q = q_from_h(GAUSS)
    bare = GridFunction(Q.u, Q.values)
    for use in (v_from_q, lambda g: roundtrip_h(g, 1.0), selfdual_half_integral):
        with pytest.raises(ValueError, match="does not carry its originating pipeline"):
            use(bare)


def test_roundtrip_even_and_values():
    assert abs(roundtrip_h(GAUSS, 0.0) - 1.0) < 1e-6
    assert abs(roundtrip_h(GAUSS, 3.0) - math.exp(-9.0)) < 1e-6
    assert abs(roundtrip_h(GAUSS, 2.0) - roundtrip_h(GAUSS, -2.0)) < 1e-12


@pytest.mark.parametrize("h", [GAUSS, WINDOW, TestFunction.polynomial_gaussian(1.0, 0.3)])
def test_v_zero_routes(h):
    vi = v_zero(h, "integral")
    vp = v_zero(h, "pipeline")
    assert vi > 0  # nonnegative h
    assert abs(vi - vp) <= 1e-8 * abs(vi)


def test_zagier_transform_properties():
    assert abs(zagier_transform(GAUSS, 1.3) - zagier_transform(GAUSS, -1.3)) < 1e-14
    assert zagier_transform(GAUSS, 0.0) > 0
    pipe = get_pipeline(GAUSS)
    t_out = math.sqrt(4.0 + pipe.V.u_max) + 1.0
    assert zagier_transform(GAUSS, t_out) == 0.0


@pytest.mark.parametrize("t", [0.0, 1.0, 3.0, 7.0])
def test_zagier_matches_raw_2d(t):
    z1 = zagier_transform(GAUSS, t)
    z2 = zagier_2d_reference(GAUSS, t)
    assert abs(z1 - z2) <= 1e-8 * max(abs(z1), 1e-12)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_zagier_hat_routes(a):
    zb = zagier_hat(GAUSS, a, "bessel")
    zg = zagier_hat(GAUSS, a, "geometric")
    assert abs(zb - zg) <= 1e-8 * abs(zb)


def test_zagier_hat_rejects():
    with pytest.raises(ValueError):
        zagier_hat(GAUSS, -1.0)
    with pytest.raises(ValueError):
        zagier_hat(GAUSS, 1.0, "spectral")
    # 16,800 panels over V's support 1.142e4 at a = 160, refused before it allocates
    with pytest.raises(ValueError, match=r"16800 panels for V's support 1\.142e\+04 at a = 160"):
        zagier_hat(GAUSS, 160.0, "geometric")


@pytest.mark.parametrize("h,tol", [(GAUSS, 1e-6), (WINDOW, 1e-5)])
def test_selfdual_half_integral(h, tol):
    lhs, rhs = selfdual_half_integral(h)
    assert abs(lhs - rhs) <= tol
    assert abs(rhs - v_zero(h, "pipeline") / 2.0) < 1e-15


def test_selfdual_scaling_linearity():
    # doubling h doubles V and hence both sides
    h2 = TestFunction.polynomial_gaussian(2.0)
    h1 = TestFunction.polynomial_gaussian(1.0)
    l2, r2 = selfdual_half_integral(h2)
    l1, r1 = selfdual_half_integral(h1)
    assert abs(l2 - 2 * l1) < 1e-8
    assert abs(r2 - 2 * r1) < 1e-12
