"""Complex Gamma, Bessel functions of imaginary order, and the composite
Gauss-Legendre rule with its error estimate.

K_nu comes from the cosh-transform integral, J_2it from its power series
up to x = 6 and from Taylor steps of Bessel's equation above it (within 3e-13
relative of mpmath for |t| <= 60, measured; one t per call), Gamma from
a fixed Lanczos table, elementwise on arrays so a whole t-grid takes one call
(the ktf module keeps the series coefficient table of each of its t-grids).
Weighted sums over a grid of equal panels in the series range, as in a
J-integral, are taken for a whole array of x at once, with the phases split
into panel midpoints and node offsets (j2it_weighted_series).
All constants live here so results are reproducible bit-for-bit across runs.
"""

from __future__ import annotations

import math
import sys
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


def gl_panel_offsets(a: float, b: float, n_panels: int, order: int = 16):
    """(mid, off, weights) of the rule of gl_panels, with node j of panel p at
    mid[p] + off[j]: the panels are equal, so they share one offset vector.

    The nodes (mid[:, None] + off).ravel() differ from those of gl_panels by
    rounding only (at most 1.8e-15 on [0, T] for T <= 13, measured).
    """
    x0, w0 = _leggauss(order)
    edges = np.linspace(a, b, n_panels + 1)
    half = (b - a) / (2 * n_panels)
    return 0.5 * (edges[:-1] + edges[1:]), half * x0, np.tile(half * w0, n_panels)


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


def bessel_K(nu: complex, x) -> float | complex | np.ndarray:
    """K_nu(x) = int_0^inf exp(-x cosh u) cosh(nu u) du, elementwise on x > 0.

    One Gauss-Legendre rule for all x, on [0, acosh(745 / min x)]; for
    imaginary nu = it the weights carry cos(tu), so K_it is real.  K_it has
    absolute error below 1e-10 for x >= 1e-3, |t| <= 30, and below 1e-13 at
    x = 2.7e-17 (k_squared_integral's smallest), 1e-11 and 1e-3 for t in
    {0, 0.5, 2, 10, 12}.  Complex orders are accurate for |Re nu| <= 2 and x
    bounded away from 0 (the Eisenstein series needs Re nu in [0, 3/2]).
    """
    xs = np.asarray(x, dtype=float)
    if np.any(xs <= 0):
        raise ValueError("bessel_K requires x > 0")
    nu = complex(nu)
    x_min = float(np.min(xs))
    u_max = math.acosh(max(2.0, 745.0 / x_min))
    if nu.real != 0:  # guard against cosh(nu u) growth
        while x_min * math.cosh(u_max) - abs(nu.real) * u_max < 745.0 and u_max < 60.0:
            u_max += 0.5
    width = min(0.5, math.pi / (2.0 * (1.0 + abs(nu.imag))))
    u, w = gl_panels(0.0, u_max, max(8, int(u_max / width) + 1), 16)
    wc = w * np.cos(nu.imag * u) if nu.real == 0 else w * np.cosh(nu * u)
    flat, out = xs.reshape(-1), np.empty(xs.size, dtype=wc.dtype)
    for i in range(0, len(flat), 512):  # bounds the (x, u) block in memory
        out[i:i + 512] = np.exp(-np.multiply.outer(flat[i:i + 512], np.cosh(u))) @ wc
    return out[0].item() if xs.ndim == 0 else out.reshape(xs.shape)


def bessel_K_it(t: float, x) -> float | np.ndarray:
    """K_{it}(x) = bessel_K(it, x), real-valued, elementwise on x > 0."""
    return bessel_K(1j * t, x)


_K2_REL_TOL = 1e-9  # k_squared_integral stops when its estimate is this far below the value
_K2_T_MAX = 13.0  # k_squared_integral's verified domain is |t| <= this


def k_squared_integral(t: float) -> float:
    """int_0^inf K_{it}(2 pi w)^2 dw, numerically (matches pi/(8 cosh(pi t))).

    With w = e^v on v in [-40, 3], the panels double from 16 to 512 until the
    gl_integrate estimate meets _K2_REL_TOL; ArithmeticError if it never does.
    The range starts at -40 because at t = 0 the integrand decays only like
    v^2 e^v as v -> -inf (the part below -26 is 8e-9 of the value).
    Verified for |t| <= _K2_T_MAX = 13 (relative error 2e-14 at t = 0, below
    1e-11 up to t = 12.5).  Above that K_it loses its relative accuracy
    (~e^{-pi |t| / 2} out of cancelling O(1) terms) and the estimate stalls
    (at t = 13.5, 14 and 20 all six levels failed), so a larger |t| raises
    ArithmeticError before integrating.
    """
    if abs(t) > _K2_T_MAX:
        raise ArithmeticError(f"k_squared_integral at t = {t}: outside |t| <= {_K2_T_MAX:g}, "
                              "where its estimate stalls")
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
_SERIES_TOL = 1e-18  # the last series term kept, relative to the first
ODE_X0 = 6.0  # above this x, J_2it is continued by Taylor steps from series data here
_ODE_STEP = 1.0  # the Taylor steps go along the lattice ODE_X0 + k _ODE_STEP
_ODE_TERMS = 45  # Taylor terms per (sub-)step
_ODE_T_PER_SUBSTEP = 20.0  # a step has 1 + floor(max |t| / this) sub-steps


def bessel_J_2it(t: float, x: float) -> complex:
    """J_{2it}(x) for sys.float_info.min <= x <= J_SERIES_CUTOFF, within 3e-13
    relative of mpmath for |t| <= 60 (measured).

    The power series is used where its cancellation stays harmless
    (x <= ODE_X0 = 6); for ODE_X0 < x <= cutoff the value is continued by
    Taylor steps of Bessel's equation from series data at ODE_X0, which keep
    that accuracy (the raw series loses ~e^x in float64).  Outside the
    domain a ValueError names its bound (below it x/2 underflows in log(x/2));
    larger arguments are reached internally by the ktf module through
    :func:`j2it_values`.
    """
    if not x >= sys.float_info.min:
        raise ValueError(f"bessel_J_2it needs a normal float x >= {sys.float_info.min}")
    if x > J_SERIES_CUTOFF:
        raise ValueError(
            f"x = {x} above series cutoff {J_SERIES_CUTOFF}; the ktf module "
            "handles larger arguments internally")
    return complex(j2it_values(np.array([t]), x)[0])


def _series_terms(x: float) -> int:
    """K(x), the least K with (x^2/4)^K / (K!)^2 <= _SERIES_TOL.

    That bounds term K of the series of J_nu(x) over term 0 for every order
    with |nu + k| >= k (imaginary nu, and nu + 1 for the ODE seed).
    """
    z, K, ratio = x * x / 4.0, 0, 1.0
    while ratio > _SERIES_TOL:
        K += 1
        ratio *= z / (K * K)
    return K


def _series_table(nu: np.ndarray, K: int, table: list | None = None) -> list:
    """Rows 0..K of the series coefficients c_k(nu) = 1/(k! Gamma(1 + nu + k)).

    Row 0 is 1/Gamma(1 + nu) and row k is row k-1 / (k (nu + k)).  A table
    already holding the first rows on these nu is extended in place.
    """
    table = [] if table is None else table
    if not table:
        table.append(1.0 / gamma_complex(1 + nu))
    for k in range(len(table), K + 1):
        table.append(table[-1] / (k * (nu + k)))
    return table


def _j_series(nu: np.ndarray, x: float, table: list | None = None) -> np.ndarray:
    """Power series of J_nu(x) for an array of complex orders (DLMF 10.2.2):
    (x/2)^nu times the Horner sum of rows 0..K(x) of the coefficient table in
    -x^2/4, K(x) = _series_terms(x).

    table is the _series_table of nu; a caller that evaluates many x on one
    t-grid keeps one list with that grid (start it as []), which grows to
    the K(x) of the largest x seen.
    """
    K = _series_terms(x)
    table = _series_table(nu, K, table)
    z = -x * x / 4.0
    acc = table[K]
    for row in reversed(table[:K]):
        acc = acc * z + row
    return np.exp(nu * math.log(x / 2.0)) * acc


_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's constant: splits a float64 into two 26-bit halves


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) with hi + lo = a exactly and each half exactly multipliable (Veltkamp)."""
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


def _phases(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """exp(i a b) on the outer product of a column a and a row b.

    p = fl(a b) misses a b by e, found exactly by Dekker's two-product (1971) on
    the Veltkamp halves, and exp(i (p + e)) = exp(i p) (1 + i e) to first order.
    So the phase keeps its accuracy however large |a b| is.
    """
    p = a * b
    (ah, al), (bh, bl) = _split(a), _split(b)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return np.exp(1j * p) * (1 + 1j * e)


def j2it_weighted_series(mid: np.ndarray, off: np.ndarray, weights: np.ndarray, x,
                         table: list | None = None, weighted: list | None = None):
    """sum_t weights(t) J_{2it}(x) over the nodes t = mid[p] + off[j] of a grid of
    equal panels (gl_panel_offsets, panel-major like weights), for each x of an
    array of x <= ODE_X0; a scalar x is the length-1 case and gives a complex.

    By the series of _j_series summed over t first: with E = (x/2)^{2it} and
    z = -x^2/4 the sum is sum_k z^k (W[k] . E), where row k of W is weights *
    c_k(2it), c_k the rows of _series_table.  E is separable,
    E(mid[p] + off[j]) = E_mid[p] E_off[j], so W reshaped to ((K + 1) P, 16) times
    E_off, contracted with E_mid, gives every W[k] . E: P + 16 complex exps per x
    instead of 16 P, and one matrix product for the whole array.  The phase
    arguments 2 log(x/2) mid and 2 log(x/2) off carry their rounding error
    (_phases).  Every x takes the K(x) of the largest x, which only adds terms
    below the series tolerance.

    A caller that evaluates many x on one grid with fixed weights keeps table,
    as in _j_series, and weighted, a list whose one element is W (start both as
    []); W is rebuilt from the table when K passes its height.
    """
    xs = np.asarray(x, dtype=float)
    flat = xs.reshape(-1)
    if np.any(flat > ODE_X0):
        raise ValueError(f"the weighted J-series needs x <= ODE_X0 = {ODE_X0}")
    K = _series_terms(float(flat.max()))
    weighted = [] if weighted is None else weighted
    if not weighted or len(weighted[0]) <= K:
        ts = (mid[:, None] + off).ravel()
        weighted[:] = [np.array(_series_table(2j * ts, K, table)) * weights]
    a = 2.0 * np.log(flat / 2.0)[:, None]
    rows = weighted[0][:K + 1].reshape(-1, len(off)) @ _phases(a, off).T  # ((K + 1) P, len(x))
    v = np.einsum("kpm,mp->km", rows.reshape(K + 1, len(mid), -1), _phases(a, mid))
    z = -flat * flat / 4.0
    acc = v[K]
    for row in reversed(v[:K]):
        acc = acc * z + row
    return complex(acc[0]) if xs.ndim == 0 else acc.reshape(xs.shape)


def _taylor_step(x0: float, h: float, y: np.ndarray, yp: np.ndarray, t4: np.ndarray, m: int):
    """(y, y') at x0 + h from (y, y') at x0 by m equal sub-steps, each summing
    _ODE_TERMS Taylor terms of x^2 y'' + x y' + (x^2 + t4) y = 0, t4 = 4t^2.  Its
    coefficients c_k at x follow x^2 (k+1)(k+2) c_{k+2} = -[x (k+1)(2k+1) c_{k+1}
    + (k^2 + x^2 + t4) c_k + 2 x c_{k-1} + c_{k-2}].  The recurrence is real, so it
    runs on the real and imaginary parts side by side; row j of c holds c_{j-2}."""
    for j in range(m):
        x, s = x0 + j * h / m, h / m
        q = np.repeat(1.0 + t4 / (x * x), 2)
        c = np.zeros((_ODE_TERMS + 2, 2 * len(y)))  # c_{-2} = c_{-1} = 0
        c[2], c[3] = y.view(float), yp.view(float)
        for k in range(_ODE_TERMS - 2):
            c[k + 4] = (-1.0 / ((k + 1) * (k + 2))) * (
                (2 * k + 1) * (k + 1) / x * c[k + 3] + (q + k * k / (x * x)) * c[k + 2]
                + 2.0 / x * c[k + 1] + c[k] / (x * x))
        powers = s ** np.arange(_ODE_TERMS)
        slopes = np.arange(1, _ODE_TERMS) * powers[:-1]  # d/ds of the powers
        y, yp = (powers @ c[2:]).view(complex), (slopes @ c[3:]).view(complex)
    return y, yp


def _j2it_ode_extend(ts: np.ndarray, x: float, table: list | None = None,
                     path: list | None = None) -> np.ndarray:
    """J_{2it}(x) beyond the safe series range by Taylor steps of Bessel's ODE.

    Seeds at ODE_X0 with series values (cancellation-free there) and the
    exact derivative J_nu' = (nu/x) J_nu - J_{nu+1}, then takes Taylor steps
    (_taylor_step) on the unit lattice 6, 7, 8, ..., with one partial step to
    x.  For imaginary order the equation is oscillatory with bounded
    solutions, so forward stepping is stable.  A step has more sub-steps for
    larger |t| (_ODE_T_PER_SUBSTEP).  Against mpmath the values are within
    3e-13 relative for x <= 60 and |t| <= 60 (measured).

    path is a list of checkpoints (x, y, y') for these ts: the seed, then the
    state at each lattice point reached.  A caller that evaluates many x on
    one t-grid keeps one list with that grid; x then resumes from the last
    checkpoint below it instead of from the seed.  The values are
    bit-identical to a fresh sweep: the checkpoints are lattice states, and
    the partial step to x never replaces a stored state.
    """
    if x < ODE_X0:
        raise ValueError("ODE extension only goes upward from the seed")
    ts = np.asarray(ts, dtype=float)
    nu = 2j * ts
    path = [] if path is None else path
    if not path:
        y = _j_series(nu, ODE_X0, table)
        path.append((ODE_X0, y, (nu / ODE_X0) * y - _j_series(nu + 1, ODE_X0)))
    t4 = 4.0 * ts * ts
    m = 1 + int(np.max(np.abs(ts), initial=0.0) / _ODE_T_PER_SUBSTEP)
    i = len(path) - 1
    while i > 0 and path[i][0] >= x:
        i -= 1
    xi, y, yp = path[i]
    while xi + _ODE_STEP < x:
        y, yp = _taylor_step(xi, _ODE_STEP, y, yp, t4, m)
        xi += _ODE_STEP
        if xi > path[-1][0]:
            path.append((xi, y, yp))
    return _taylor_step(xi, x - xi, y, yp, t4, m)[0]


def j2it_values(ts: np.ndarray, x: float, table: list | None = None,
                path: list | None = None) -> np.ndarray:
    """J_{2it}(x) on an array of t, choosing series or ODE continuation.

    A caller that evaluates many x on one fixed t-grid keeps with that grid
    table, the series coefficient rows of _j_series on nu = 2it, and path,
    the ODE checkpoint list of _j2it_ode_extend (start both as []).
    """
    ts = np.asarray(ts, dtype=float)
    if x <= ODE_X0:
        return _j_series(2j * ts, x, table)
    return _j2it_ode_extend(ts, x, table, path)
