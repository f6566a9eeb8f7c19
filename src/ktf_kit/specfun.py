"""Complex Gamma, Bessel functions of imaginary order, and the composite
Gauss-Legendre rule with its error estimate.

K_it comes from the real cosh-transform integral, J_2it from its power series
below a cutoff (with an ODE continuation used internally above it), Gamma from
a fixed Lanczos table, elementwise on arrays so a whole t-grid takes one call
(the ktf module keeps the row 1/Gamma(1 + 2it) of each of its t-grids).  All
constants live here so results are reproducible bit-for-bit across runs.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# Lanczos approximation, g = 7, 9 coefficients.  One fixed table; do not tune.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma_complex(z: complex | np.ndarray) -> complex | np.ndarray:
    """Gamma(z) by the Lanczos sum, elementwise on a scalar or an array of z.

    Reflection handles Re(z) < 1/2; a pole anywhere raises ValueError.
    Relative error below 1e-12 for |Im z| <= 30 away from the poles.
    """
    za = np.asarray(z, dtype=complex)
    zs = za.reshape(-1)
    pole = (zs.imag == 0) & (zs.real <= 0) & (zs.real == np.round(zs.real))
    if np.any(pole):
        raise ValueError(f"gamma pole at z = {zs[pole][0]}")
    refl = zs.real < 0.5
    w = np.where(refl, 1 - zs, zs) - 1
    x = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        x = x + _LANCZOS_C[i] / (w + i)
    t = w + _LANCZOS_G + 0.5
    out = math.sqrt(2 * math.pi) * t ** (w + 0.5) * np.exp(-t) * x
    out[refl] = np.pi / (np.sin(np.pi * zs[refl]) * out[refl])
    return complex(out[0]) if za.ndim == 0 else out.reshape(za.shape)


# ----------------------------------------------------------------------------
# Gauss-Legendre machinery


@lru_cache(maxsize=None)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def gl_edges(edges, order: int = 16):
    """Nodes and weights of a composite Gauss-Legendre rule, one panel per
    pair of consecutive edges."""
    x0, w0 = _leggauss(order)
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    xs = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
    ws = (half[:, None] * w0[None, :]).ravel()
    return xs, ws


def gl_panels(a: float, b: float, n_panels: int, order: int = 16):
    """Nodes and weights of a composite Gauss-Legendre rule on n_panels equal panels of [a, b]."""
    return gl_edges(np.linspace(a, b, n_panels + 1), order)


@lru_cache(maxsize=1)
def _legendre_tail() -> np.ndarray:
    """(16, 2): a panel's values at its nodes -> its two highest Legendre
    coefficients, by a_k = (2k + 1)/2 sum_i w_i P_k(x_i) f(x_i)."""
    x, w = _leggauss(16)
    k = np.arange(14, 16)
    return w[:, None] * np.polynomial.legendre.legvander(x, 15)[:, k] * (2 * k + 1) / 2


def gl_integrate(values: np.ndarray, weights: np.ndarray) -> tuple[complex, float]:
    """(value, estimate) of the integral from values at the nodes of a 16-node
    gl_panels / gl_edges rule and that rule's weights.

    The estimate is not a bound: half-width * max(|a14|, |a15|) summed over
    the panels, a14 and a15 being the integrand's two highest Legendre
    coefficients on the panel (~0 for a polynomial of degree <= 13).
    """
    half_widths = weights.reshape(-1, 16).sum(axis=1) / 2
    tail = np.abs(values.reshape(-1, 16) @ _legendre_tail()).max(axis=1)
    return np.sum(weights * values), float(np.sum(half_widths * tail))


# ----------------------------------------------------------------------------
# K-Bessel of (mostly imaginary) order


def _bessel_K_nodes(x_min: float, freq: float):
    """Quadrature nodes for int_0^inf e^{-x cosh u} * (trig in u) du."""
    u_max = math.acosh(max(2.0, 745.0 / x_min))
    width = min(0.5, math.pi / (2.0 * (1.0 + freq)))
    n_panels = max(8, int(u_max / width) + 1)
    return gl_panels(0.0, u_max, n_panels, 16)


def bessel_K_it(t: float, x) -> float | np.ndarray:
    """K_{it}(x) = int_0^inf exp(-x cosh u) cos(tu) du for x > 0; real-valued.

    Domain: x >= 2.7e-17, the smallest argument k_squared_integral passes
    (2 pi e^{-40}).  Absolute error below 1e-10 for x >= 1e-3, |t| <= 30, and
    below 1e-13 at x = 2.7e-17, 1e-11 and 1e-3 for t in {0, 0.5, 2, 10, 12}.
    """
    xs = np.asarray(x, dtype=float)
    if np.any(xs <= 0):
        raise ValueError("bessel_K_it requires x > 0")
    u, w = _bessel_K_nodes(float(np.min(xs)), abs(t))
    flat, wc = xs.reshape(-1), w * np.cos(t * u)
    out = np.empty(len(flat))
    for i in range(0, len(flat), 512):  # bounds the (x, u) block in memory
        out[i:i + 512] = np.exp(-np.multiply.outer(flat[i:i + 512], np.cosh(u))) @ wc
    return float(out[0]) if np.isscalar(x) or xs.ndim == 0 else out.reshape(xs.shape)


def bessel_K(nu: complex, x: float) -> complex:
    """K_nu(x) = int_0^inf exp(-x cosh u) cosh(nu u) du, x > 0, complex order.

    Accurate for |Re nu| <= 2 and x bounded away from 0 (the Eisenstein
    Fourier series needs nu = s with Re s in [0, 3/2]).
    """
    if x <= 0:
        raise ValueError("bessel_K requires x > 0")
    nu = complex(nu)
    u_max = math.acosh(max(2.0, (745.0 + 10.0) / x))
    # guard against cosh(nu u) growth for real parts
    if abs(nu.real) > 0:
        while x * math.cosh(u_max) - abs(nu.real) * u_max < 745.0 and u_max < 60.0:
            u_max += 0.5
    width = min(0.5, math.pi / (2.0 * (1.0 + abs(nu.imag))))
    u, w = gl_panels(0.0, u_max, max(8, int(u_max / width) + 1), 16)
    vals = np.exp(-x * np.cosh(u)) * np.cosh(nu * u)
    return complex(np.sum(w * vals))


_K2_REL_TOL = 1e-9  # k_squared_integral stops when its estimate is this far below the value


def k_squared_integral(t: float) -> float:
    """int_0^inf K_{it}(2 pi w)^2 dw, numerically (matches pi/(8 cosh(pi t))).

    With w = e^v on v in [-40, 3], the panels double from 16 to 512 until the
    gl_integrate estimate meets _K2_REL_TOL; ArithmeticError if it never does.
    The range starts at -40 because at t = 0 the integrand decays only like
    v^2 e^v as v -> -inf (the part below -26 is 8e-9 of the value).
    Verified for |t| <= 13 (relative error 2e-14 at t = 0, below 1e-11 up to
    t = 12.5).  Above that K_it loses its relative accuracy (~e^{-pi |t| / 2}
    out of cancelling O(1) terms) and the estimate stalls: the call raises at
    t = 13.5, 14 and 20.
    """
    for panels in (16, 32, 64, 128, 256, 512):
        v, ws = gl_panels(-40.0, 3.0, panels)
        w = np.exp(v)
        val, est = gl_integrate(bessel_K_it(t, 2 * np.pi * w) ** 2 * w, ws)
        if est <= _K2_REL_TOL * abs(val):
            return float(val)
    raise ArithmeticError(f"k_squared_integral at t = {t}: estimate {est:.1e} above "
                          f"{_K2_REL_TOL:g} * |{val:.3e}| at {panels} panels")


# ----------------------------------------------------------------------------
# J-Bessel of imaginary order 2it

J_SERIES_CUTOFF = 30.0
J_SERIES_MAX_TERMS = 120
_ODE_X0 = 6.0  # above this x, J_2it is continued by RK4 from series data here
_ODE_STEP = 0.002


def bessel_J_2it(t: float, x: float) -> complex:
    """J_{2it}(x) for 0 < x <= J_SERIES_CUTOFF, relative error ~1e-9.

    The power series is used where its cancellation stays harmless
    (x <= _ODE_X0 = 6); for _ODE_X0 < x <= cutoff the value is continued by
    integrating Bessel's equation from series data at _ODE_X0, which keeps
    the stated accuracy (the raw series loses ~e^x in float64).  Above the
    cutoff a ValueError names the cutoff; larger arguments are reached
    internally by the ktf module through :func:`j2it_values`.
    """
    if x <= 0:
        raise ValueError("bessel_J_2it requires x > 0")
    if x > J_SERIES_CUTOFF:
        raise ValueError(
            f"x = {x} above series cutoff {J_SERIES_CUTOFF}; the ktf module "
            "handles larger arguments internally")
    return complex(j2it_values(np.array([t]), x)[0])


def _j_series(nu: np.ndarray, x: float, rgamma: np.ndarray | None = None) -> np.ndarray:
    """Power series of J_nu(x) for an array of complex orders.

    rgamma is 1/Gamma(1 + nu); computed here when the caller has not kept it.
    """
    if rgamma is None:
        rgamma = 1.0 / gamma_complex(1 + nu)
    term = np.exp(nu * math.log(x / 2.0)) * rgamma
    total = term.copy()
    z = x * x / 4.0
    for k in range(1, J_SERIES_MAX_TERMS + 1):
        term = term * (-z) / (k * (nu + k))
        total += term
        if np.max(np.abs(term)) < 1e-18 * max(1e-300, float(np.max(np.abs(total)))):
            break
    return total


def _j2it_ode_extend(ts: np.ndarray, x_targets: np.ndarray, rgamma: np.ndarray | None = None,
                     path: list | None = None) -> dict[float, np.ndarray]:
    """J_{2it}(x) beyond the safe series range by integrating Bessel's ODE.

    Seeds at _ODE_X0 with series values (cancellation-free there) and the
    exact derivative J_nu' = (nu/x) J_nu - J_{nu+1}, then fixed-step RK4 on
    the lattice _ODE_X0 + k _ODE_STEP, with one partial step to each target.
    For imaginary order the equation is oscillatory with bounded solutions,
    so forward integration is stable.

    path is a list of checkpoints (x, y, y') for these ts: the seed, then the
    state at the first lattice point past each integer x.  A caller that
    evaluates many x on one t-grid keeps one list with that grid; a target
    then resumes from the last checkpoint at or below x - _ODE_STEP instead
    of from the seed.  The values are bit-identical to a fresh sweep: the
    checkpoints are lattice states, and the partial step to a target never
    replaces a stored state.
    """
    ts = np.asarray(ts, dtype=float)
    nu = 2j * ts
    nu2 = nu * nu  # = -4 t^2
    if path is None:
        path = []
    if not path:
        y = _j_series(nu, _ODE_X0, rgamma)
        path.append((_ODE_X0, y, (nu / _ODE_X0) * y - _j_series(nu + 1, _ODE_X0)))

    def rhs(x, y, yp):
        return yp, -(yp / x) - (1.0 - nu2 / (x * x)) * y

    out: dict[float, np.ndarray] = {}
    for xt in np.sort(x_targets):
        if xt < _ODE_X0:
            raise ValueError("ODE extension only goes upward from the seed")
        i = len(path) - 1
        while i > 0 and xt - path[i][0] < _ODE_STEP:  # no full step from path[i] to xt
            i -= 1
        x, y, yp = path[i]
        while x < xt - 1e-12:
            h = min(_ODE_STEP, xt - x)
            k1y, k1p = rhs(x, y, yp)
            k2y, k2p = rhs(x + h / 2, y + h / 2 * k1y, yp + h / 2 * k1p)
            k3y, k3p = rhs(x + h / 2, y + h / 2 * k2y, yp + h / 2 * k2p)
            k4y, k4p = rhs(x + h, y + h * k3y, yp + h * k3p)
            y = y + h / 6 * (k1y + 2 * k2y + 2 * k3y + k4y)
            yp = yp + h / 6 * (k1p + 2 * k2p + 2 * k3p + k4p)
            x += h
            if h == _ODE_STEP and int(x) > int(path[-1][0]):
                path.append((x, y, yp))
        out[float(xt)] = y.copy()
    return out


def j2it_values(ts: np.ndarray, x: float, rgamma: np.ndarray | None = None,
                path: list | None = None) -> np.ndarray:
    """J_{2it}(x) on an array of t, choosing series or ODE continuation.

    A caller that evaluates many x on one fixed t-grid keeps with that grid
    rgamma, 1/Gamma(1 + 2it) on ts, and path, the ODE checkpoint list of
    _j2it_ode_extend (start it as []).
    """
    ts = np.asarray(ts, dtype=float)
    if x <= _ODE_X0:
        return _j_series(2j * ts, x, rgamma)
    return _j2it_ode_extend(ts, np.array([x]), rgamma=rgamma, path=path)[float(x)]
