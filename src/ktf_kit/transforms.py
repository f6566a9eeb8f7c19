"""The h <-> Phi/Q <-> V transform pipeline and the Zagier transform.

Starting from an admissible even test function h(t), the chain is

    Phi(y) = (1/2pi) int h(r) y^{-ir} dr          (inverse Mellin, sigma = 0)
    Q(u)   = Phi(y(u)),  y(u) = (2+u+sqrt(4u+u^2))/2
    V(u)   = -(1/pi) int_R Q'(u + w^2) dw
    Q(u)   = int_R V(u + x^2) dx                  (round trip, Harish-Chandra)
    h(t)   = int_0^inf Phi(y) y^{it} dy/y         (round trip, Mellin)

Q' is taken from the differentiated defining integral, never from grid
differences.  V and the round-trip Q are scalings of one Abel integral,
_abel(F, u) = int_0^inf F(u + x^2) dx, applied to the Q' and V grids.  Grids
are logarithmic with cubic-spline interpolation and a computed effective
support; everything downstream (Kuznetsov terms, Zagier transform) consumes
these grids.  The constant J = (1/pi^2) int h(t) tanh(pi t) t dt = (4/pi) V(0)
of the trace formula's main term is h_tanh_integral, next to v_zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .specfun import gl_edges, gl_panels, j2it_values


# ----------------------------------------------------------------------------
# test functions


@dataclass(frozen=True)
class TestFunction:
    """Even test function h(t), analytic on |Im t| < strip_halfwidth.

    family is one of gaussian (params: scale), spectral_window (params:
    center, width), polynomial_gaussian (params: even-power coefficients).
    Nothing here checks h >= 0 on R and i(-1/2, 1/2), which the
    equidistribution weights require: polynomial_gaussian(0, 1) = t^2 e^{-t^2}
    is -0.067 at t = i/4.
    """

    __test__ = False  # not a pytest class despite the name

    family: str
    params: tuple[float, ...]
    strip_halfwidth: float = 1.0

    def __call__(self, t):
        t = np.asarray(t)
        if self.family == "gaussian":
            (scale,) = self.params
            return np.exp(-((t / scale) ** 2))
        if self.family == "spectral_window":
            center, width = self.params
            return np.exp(-(((t**2 - center**2) / width**2) ** 2))
        if self.family == "polynomial_gaussian":
            acc = np.zeros_like(t, dtype=complex)
            for k, c in enumerate(self.params):
                acc = acc + c * t ** (2 * k)
            return acc * np.exp(-(t**2))
        raise ValueError(f"unknown family {self.family!r}")

    @staticmethod
    def gaussian(scale: float = 1.0) -> "TestFunction":
        return TestFunction("gaussian", (float(scale),))

    @staticmethod
    def spectral_window(center: float, width: float = 1.0) -> "TestFunction":
        return TestFunction("spectral_window", (float(center), float(width)))

    @staticmethod
    def polynomial_gaussian(*coeffs: float) -> "TestFunction":
        return TestFunction("polynomial_gaussian", tuple(float(c) for c in coeffs))

    @staticmethod
    def parse(spec: str) -> "TestFunction":
        """Parse 'family:p1[,p2,...]' literals used by the CLI."""
        name, _, rest = spec.partition(":")
        params = tuple(float(p) for p in rest.split(",") if p) if rest else ()
        if name == "gaussian":
            return TestFunction.gaussian(*(params or (1.0,)))
        if name == "spectral_window":
            return TestFunction.spectral_window(*params)
        if name == "polynomial_gaussian":
            return TestFunction.polynomial_gaussian(*params)
        raise ValueError(f"unknown test function family {name!r}")

    def support_cut(self, tol: float = 1e-18) -> float:
        """T with |h| < tol * max|h| for t >= T (real axis)."""
        hi = 50.0
        while hi < 1e6:
            ts = np.linspace(0.0, hi, 20001)
            vals = np.abs(np.asarray(self(ts)))
            peak = float(np.max(vals))
            above = np.nonzero(vals > tol * peak)[0]
            last = float(ts[above[-1]])
            if last < 0.9 * hi:
                return last + 2.0 * hi / 20000.0
            hi *= 4.0
        return hi


def admissible_check(h, A_req: float, B_req: float) -> tuple[bool, dict]:
    """Numeric admissibility scan: evenness plus decay on the strip |Im t| <= A_req.

    Returns (ok, diagnostics); diagnostics carry the worst evenness defect and
    the bound constant sup |h(x+iy)| (1+|x|)^{B_req} over a grid of 120 x and 9 y.
    """
    ts = np.linspace(0.0, 12.0, 120)
    even_defect = float(np.max(np.abs(np.asarray(h(ts)) - np.asarray(h(-ts)))))
    T = h.support_cut(1e-10) if isinstance(h, TestFunction) else 30.0
    xs = np.linspace(0.0, 2.5 * T, 120)
    ys = np.linspace(0.0, A_req, 9)
    const = 0.0
    tail = 0.0
    finite = True
    for y in ys:
        vals = np.abs(np.asarray(h(xs + 1j * y), dtype=complex))
        if not np.all(np.isfinite(vals)):
            finite = False
            break
        weighted = vals * (1 + np.abs(xs)) ** B_req
        const = max(const, float(np.max(weighted)))
        tail = max(tail, float(np.max(weighted[xs > 2.0 * T])))
    decays = finite and tail <= 1e-6 * max(const, 1e-300)
    ok = finite and even_defect < 1e-10 and decays
    return ok, {"even_defect": even_defect, "strip_constant": const,
                "tail_constant": tail, "finite": finite}


# ----------------------------------------------------------------------------
# grid functions


@dataclass(eq=False)  # == is identity: the fields are arrays
class GridFunction:
    """Values on a log-spaced grid with natural-cubic-spline interpolation.

    Evaluation beyond the last abscissa returns 0 (the grid is built out to
    where the decay envelope falls below the construction tolerance).
    pipeline is the SelbergPipeline that built the grid, if any.
    """

    u: np.ndarray
    values: np.ndarray
    pipeline: SelbergPipeline | None = field(default=None, repr=False)
    _coefs: tuple = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if np.any(np.diff(self.u) <= 0):
            raise ValueError("abscissae must be strictly increasing")
        self._coefs = _spline_coefs(self.u, self.values)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        y = _spline_eval(self.u, self.values, self._coefs, x)
        y[x > self.u[-1]] = 0.0
        return float(y[0]) if scalar else y

    @property
    def u_max(self) -> float:
        return float(self.u[-1])

    def effective_support(self, tol: float) -> float:
        big = np.abs(self.values) > tol
        if not np.any(big):
            return float(self.u[0])
        return float(self.u[np.max(np.nonzero(big))])

    def dump_rows(self):
        for ui, vi in zip(self.u, self.values):
            yield float(ui), float(vi)


def _spline_coefs(x: np.ndarray, y: np.ndarray):
    """Natural cubic spline second derivatives (Thomas algorithm)."""
    n = len(x)
    h = np.diff(x)
    if n < 3:
        return np.zeros(n)
    a = h[:-1]
    b = 2.0 * (h[:-1] + h[1:])
    c = h[1:]
    d = 6.0 * ((y[2:] - y[1:-1]) / h[1:] - (y[1:-1] - y[:-2]) / h[:-1])
    cp = np.empty(n - 2)
    dp = np.empty(n - 2)
    cp[0] = c[0] / b[0]
    dp[0] = d[0] / b[0]
    for i in range(1, n - 2):
        m = b[i] - a[i] * cp[i - 1]
        cp[i] = c[i] / m
        dp[i] = (d[i] - a[i] * dp[i - 1]) / m
    m2 = np.zeros(n)
    for i in range(n - 3, -1, -1):
        m2[i + 1] = dp[i] - (cp[i] * m2[i + 2] if i < n - 3 else 0.0)
    return m2


def _spline_eval(x: np.ndarray, y: np.ndarray, m2: np.ndarray, xq: np.ndarray):
    idx = np.clip(np.searchsorted(x, xq) - 1, 0, len(x) - 2)
    h = x[idx + 1] - x[idx]
    a = (x[idx + 1] - xq) / h
    b = (xq - x[idx]) / h
    return (a * y[idx] + b * y[idx + 1]
            + ((a**3 - a) * m2[idx] + (b**3 - b) * m2[idx + 1]) * h * h / 6.0)


# ----------------------------------------------------------------------------
# the pipeline


def _y_of_u(u):
    u = np.asarray(u, dtype=float)
    return 0.5 * (2.0 + u + np.sqrt(4.0 * u + u * u))


def _yprime_of_u(u):
    u = np.asarray(u, dtype=float)
    return 0.5 * (1.0 + (2.0 + u) / np.sqrt(u * (4.0 + u)))


class SelbergPipeline:
    """Caches the Q, Q', V grids derived from one test function."""

    ABS_TOL = 1e-12

    def __init__(self, h: TestFunction):
        self.h = h
        self.T = h.support_cut()
        # dominant oscillation frequency of Q in log u is the first moment of h
        ts = np.linspace(0.0, self.T, 4096)
        ht = np.abs(np.asarray(h(ts)))
        self.freq = float(np.sum(ts * ht) / max(np.sum(ht), 1e-300))
        self._phi_cache: dict = {}

    # -- Phi and its derivative (exact integrals, vectorized over y) --------

    def _r_nodes(self, max_logy: float):
        key = round(max_logy, 2)
        if key not in self._phi_cache:
            panels = max(48, int(self.T * (1.0 + key) / 2.0))
            self._phi_cache[key] = gl_panels(0.0, self.T, panels, 16)
        return self._phi_cache[key]

    def _r_integral(self, y: np.ndarray, trig, power: int) -> np.ndarray:
        """int_0^inf r^power h(r) trig(r log y) dr for every y, in blocks of 512."""
        ly = np.log(y)
        r, w = self._r_nodes(float(np.max(np.abs(ly))))
        whr = w * r**power * np.real(np.asarray(self.h(r)))
        return np.concatenate([trig(np.multiply.outer(ly[i:i + 512], r)) @ whr
                               for i in range(0, len(y), 512)])

    def phi(self, y) -> np.ndarray:
        """Phi(y) = (1/pi) int_0^inf h(r) cos(r log y) dr."""
        return self._r_integral(np.atleast_1d(np.asarray(y, dtype=float)), np.cos, 0) / math.pi

    def phi_prime(self, y) -> np.ndarray:
        """Phi'(y) = -(1/(pi y)) int_0^inf r h(r) sin(r log y) dr."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        return -self._r_integral(y, np.sin, 1) / (math.pi * y)

    def q_exact(self, u) -> np.ndarray:
        return self.phi(_y_of_u(u))

    def q_prime_exact(self, u) -> np.ndarray:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        return self.phi_prime(_y_of_u(u)) * _yprime_of_u(u)

    # -- grids ----------------------------------------------------------------

    def _u_grid(self) -> np.ndarray:
        u_max = 4.0
        while u_max < 1e200:
            if abs(float(self.q_exact([u_max])[0])) < self.ABS_TOL:
                break
            u_max *= 2.0
        # spline error ~ (step * freq)^4 / 77 in log-u; hold it near 1e-8
        step = 0.03 / max(0.75, self.freq)
        ln_range = math.log(u_max / 1e-7)
        n = int(min(40000, max(3072, ln_range / step)))
        return np.concatenate([[0.0], np.geomspace(1e-7, u_max, n - 1)])

    @cached_property
    def Q(self) -> GridFunction:
        u = self._u_grid()
        return GridFunction(u, self.q_exact(u), pipeline=self)

    @cached_property
    def Qp(self) -> GridFunction:
        u = self.Q.u
        return GridFunction(u, self.q_prime_exact(np.maximum(u, 1e-12)), pipeline=self)

    @cached_property
    def V(self) -> GridFunction:
        """V(u) = -(2/pi) int_0^inf Q'(u + w^2) dw via the Q' grid."""
        u = self.Q.u
        return GridFunction(u, -(2.0 / math.pi) * _abel(self.Qp, u), pipeline=self)

    @cached_property
    def v0(self) -> float:
        return float(-(2.0 / math.pi) * _abel(self.Qp, 0.0)[0])

    # -- round trip -------------------------------------------------------------

    def q_from_v(self, u) -> np.ndarray:
        """Q(u) = 2 int_0^inf V(u + x^2) dx using the V grid."""
        return 2.0 * _abel(self.V, u)

    def h_roundtrip_many(self, ts: np.ndarray) -> np.ndarray:
        """Mellin transforms at it of Phi-tilde built from the V grid, for many t
        sharing one Q-tilde evaluation, resolved up to max |t|."""
        ts = np.asarray(ts, dtype=float)
        t_res = float(np.max(np.abs(ts))) if len(ts) else 1.0
        v_max = math.acosh(1.0 + 0.5 * self.Q.u_max)
        panels = max(64, int(v_max * (1.0 + t_res) / 2.0))
        vs, ws = gl_panels(0.0, v_max, panels, 16)
        q_vals = self.q_from_v(2.0 * np.cosh(vs) - 2.0)
        return 2.0 * (np.cos(np.multiply.outer(ts, vs)) @ (ws * q_vals))


def _abel(F: GridFunction, u) -> np.ndarray:
    """int_0^inf F(u + x^2) dx for every u, cut where F's grid ends."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    xs, ws = _half_line_nodes(math.sqrt(F.u_max))
    out = np.empty(len(u))
    for i in range(0, len(u), 512):  # bounds the (u, x) block in memory
        args = u[i:i + 512, None] + xs[None, :] ** 2
        out[i:i + 512] = F(args.ravel()).reshape(args.shape) @ ws
    return out


@lru_cache(maxsize=None)
def _half_line_nodes(w_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Geometric Gauss-Legendre panels on [0, w_max], dense near 0."""
    edges = [0.0]
    e = min(0.25, w_max / 8)
    while e < w_max:
        edges.append(e)
        e *= 1.6
    edges.append(w_max)
    return gl_edges(edges)


@lru_cache(maxsize=None)
def get_pipeline(h: TestFunction) -> SelbergPipeline:
    return SelbergPipeline(h)


# ----------------------------------------------------------------------------
# spec-level operations


def _pipeline_of(obj) -> SelbergPipeline:
    """Accept a TestFunction or a GridFunction produced by this pipeline."""
    if isinstance(obj, TestFunction):
        return get_pipeline(obj)
    if getattr(obj, "pipeline", None) is None:
        raise ValueError("grid function does not carry its originating pipeline")
    return obj.pipeline


def q_from_h(h: TestFunction) -> GridFunction:
    ok, diag = admissible_check(h, 0.5, 1.5)
    if not ok:
        raise ValueError(f"test function not admissible: {diag}")
    return get_pipeline(h).Q


def v_from_q(q: TestFunction | GridFunction) -> GridFunction:
    """V grid from the Q grid (or directly from the test function)."""
    return _pipeline_of(q).V


def roundtrip_h(h: TestFunction | GridFunction, t: float) -> complex:
    return complex(_pipeline_of(h).h_roundtrip_many(np.array([t]))[0])


def roundtrip_sup_error(h: TestFunction, t_hi: float = 10.0, n: int = 41) -> float:
    """sup over a [0, t_hi] grid of |roundtrip - h| (shared quadrature)."""
    pipe = get_pipeline(h)
    ts = np.linspace(0.0, t_hi, n)
    vals = pipe.h_roundtrip_many(ts)
    return float(np.max(np.abs(vals - np.real(np.asarray(h(ts))))))


def h_tanh_integral(h: TestFunction) -> float:
    """J = (1/pi^2) int_R h(t) tanh(pi t) t dt = (4/pi) V(0) (Iwaniec, Spectral
    Methods of Automorphic Forms, 1.8), the constant of the trace formula's main term."""
    T = get_pipeline(h).T
    ts, ws = gl_panels(0.0, T, max(64, int(T * 6)), 16)
    vals = np.real(np.asarray(h(ts))) * np.tanh(np.pi * ts) * ts
    return float(2.0 * np.sum(ws * vals) / math.pi**2)


def v_zero(h: TestFunction, route: str = "pipeline") -> float:
    """V(0) by the stated route; 'integral' is (1/4pi) int h(t) tanh(pi t) t dt,
    i.e. (pi/4) times h_tanh_integral."""
    if route == "pipeline":
        return get_pipeline(h).v0
    if route == "integral":
        return math.pi / 4.0 * h_tanh_integral(h)
    raise ValueError(f"unknown route {route!r}")


_ZAGIER_PANELS = 2048  # order-12 panels of zagier_transform's v-integral
_ZAGIER_MAX_PANELS = 2**14  # 16-node panels zagier_hat's geometric route may take


def zagier_transform(h: TestFunction, t: float) -> float:
    """Z(t) = iint_H V(|z^2 + 1 - t^2/4|^2 / y^2) dy/y dx.

    The double integral is evaluated through the exact level-set measure of
    u(x, y) = |z^2 + 1 - t^2/4|^2 / y^2: at each level the x-window is a
    closed-form quartic root and the y-integral of its derivative is an
    arcsin, collapsing to

        Z(t) = pi * int_{v0}^{inf} V(v^2 + t^2 - 4) dv,
        v0 = sqrt(max(0, 4 - t^2)).

    (Validated against raw 2d quadrature in the test suite.)
    """
    pipe = get_pipeline(h)
    V = pipe.V
    t = abs(t)
    if t * t - 4.0 >= V.u_max:
        return 0.0
    v0 = math.sqrt(max(0.0, 4.0 - t * t))
    v_hi = math.sqrt(V.u_max - (t * t - 4.0))
    vs, ws = gl_panels(v0, v_hi, _ZAGIER_PANELS, 12)
    return float(math.pi * np.sum(ws * V(vs * vs + t * t - 4.0)))


def zagier_2d_reference(h: TestFunction, t: float) -> float:
    """Slow raw 2d quadrature of the Zagier transform (testing oracle): 900
    12-node panels in log y, one 96-node Gauss-Legendre rule in x per y."""
    pipe = get_pipeline(h)
    V = pipe.V
    U = V.u_max
    w0 = 1.0 - t * t / 4.0
    beta = math.sqrt(max(U + 4.0 * w0, 0.0))
    y_hi = 0.5 * (beta + math.sqrt(U))
    y_lo = max(1e-14, 0.5 * (beta - math.sqrt(U)))
    vs, wv = gl_panels(math.log(y_lo), math.log(y_hi), 900, 12)
    ys = np.exp(vs)
    x_hi = np.sqrt(np.maximum(-(ys * ys) + beta * ys - w0, 0.0))
    x0, xw0 = np.polynomial.legendre.leggauss(96)
    xs = 0.5 * x_hi[:, None] * (x0[None, :] + 1.0)
    xw = 0.5 * x_hi[:, None] * np.tile(xw0, (len(ys), 1))
    y2 = (ys * ys)[:, None]
    u_args = ((xs * xs - y2 + w0) ** 2 + 4.0 * xs * xs * y2) / y2
    vals = V(u_args.ravel()).reshape(u_args.shape)
    return float(2.0 * np.sum(wv * np.sum(vals * xw, axis=1)))


def zagier_hat(h: TestFunction, a: float, route: str = "bessel") -> float:
    """hat-Z(a) = 2 int_0^inf Z(t) cos(2 pi a t) dt, geometrically or by the
    J-Bessel integral of h.

    The geometric route never samples Z.  In polar coordinates on Z's region
    {t, v >= 0, t^2 + v^2 >= 4}, with int_0^{pi/2} cos(x cos th) dth =
    (pi/2) J_0(x) (DLMF 10.9.1), it is pi^2 int_2^{r_max} V(r^2 - 4)
    J_0(2 pi a r) r dr, r_max^2 = 4 + V's support at 1e-12, on one panel per
    period 1/a of J_0 plus 16: the cost grows with a * r_max, and more than
    _ZAGIER_MAX_PANELS panels raise ValueError.  The Bessel route is
    -Im Jint(4 pi a) / (4a), with the Jint of the trace formula's c-series.
    """
    if a <= 0:
        raise ValueError("a must be positive")
    if route == "geometric":
        V = get_pipeline(h).V
        support = V.effective_support(1e-12)
        r_max = math.sqrt(4.0 + support)
        panels = int((r_max - 2.0) * a) + 16
        if panels > _ZAGIER_MAX_PANELS:
            raise ValueError(f"geometric route needs {panels} panels for V's support "
                             f"{support:.3e} at a = {a:g}, above {_ZAGIER_MAX_PANELS}")
        rs, ws = gl_panels(2.0, r_max, panels, 16)
        table, path = [], []  # one J_0 coefficient table and ODE path for all r
        j0 = np.array([j2it_values(np.zeros(1), 2.0 * math.pi * a * r, table, path)[0].real
                       for r in rs])
        return float(math.pi**2 * np.sum(ws * V(rs * rs - 4.0) * j0 * rs))
    if route == "bessel":
        from .ktf import _jint_cache  # ktf imports this module
        return -_jint_cache(h)(4.0 * math.pi * a).imag / (4.0 * a)
    raise ValueError(f"unknown route {route!r}")


def selfdual_half_integral(h: TestFunction | GridFunction) -> tuple[float, float]:
    """(int_0^inf r-hat(w) dw, V(0)/2) for r(t) = V(t^2); they agree.

    The w-integral of r-hat(w) = 2 int_0^inf V(t^2) cos(2 pi w t) dt over
    [0, W] is done first (exactly), leaving the Dirichlet-kernel integral
    (1/pi) int_0^inf V(t^2) sin(2 pi W t) / t dt, extended in W until two
    doublings agree to 1e-9.
    """
    pipe = _pipeline_of(h)
    V = pipe.V
    t_max = math.sqrt(V.u_max)

    def g(t: float) -> float:
        return float(V(t * t)) / (math.pi * t)

    def lhs_at(W: float) -> float:
        lam = 2.0 * math.pi * W
        T = min(t_max, 60.0 / W + 8.0)
        panels = max(64, int(T * W * 1.3))
        ts, tw = gl_panels(0.0, T, panels, 16)
        vals = V(ts * ts)
        head = float(np.sum(tw * vals * np.sin(lam * ts) / ts)) / math.pi
        if T >= t_max:
            return head
        # two integrations by parts account for the oscillatory t-tail
        eps = 1e-4 * T
        gp = (g(T + eps) - g(T - eps)) / (2 * eps)
        return head + g(T) * math.cos(lam * T) / lam - gp * math.sin(lam * T) / lam**2

    W = 6.0
    prev = lhs_at(W)
    for _ in range(6):
        cur = lhs_at(2 * W)
        if abs(cur - prev) < 1e-9:
            prev = cur
            break
        W *= 2
        prev = cur
    return prev, pipe.v0 / 2.0
