"""The computable sides of the Kuznetsov trace formula and their cross-checks.

For a request (N, omega', n, m1, m2, h) the three computable terms are

    Geo1  = T(m1,m2,n) psi(N) conj(omega'(m1/b)) (1/pi^2) int h(t) tanh(pi t) t dt
    Geo2  = (2i psi(N)/pi) sum_{c in NZ+} S_{omega'}(m2,m1;n;c)/c * Jint(4 pi sqrt(n m1 m2)/c)
    Spec2 = (1/pi) sum_{pairs} sum_{(i_p)} int lambda_n sigma_it(m1) conj(sigma_it(m2))
            (m1/m2)^{it} h(t) / (norm^2 |L(1+2it, chi1~^{-1} chi2~)|^2) dt

and the cuspidal side is inferred as Spec1 = Geo1 + Geo2 - Spec2.  The
constant J = (1/pi^2) int h(t) tanh(pi t) t dt of Geo1 is
transforms.h_tanh_integral, next to the Abel integrals that give V(0) = (pi/4) J.
The classical-derivation identities (n = 1 formula summed over ell | (n, m1))
are implemented with shared caches so both routes agree to rounding.
"""

from __future__ import annotations

import cmath
import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import arith
from .characters import DirichletCharacter
from .eisenstein import (
    EisensteinBasisElement,
    dirichlet_L,
    enumerate_basis,
    hurwitz_zeta,  # noqa: F401  not called here; bench/tracer.py finds the Hurwitz layer by it
    lambda_n_eis,
    sigma_s,
)
from .expsums import KloostermanQuery, kloosterman
from .specfun import (
    ODE_X0,
    gl_integrate,
    gl_panel_offsets,
    gl_panels,
    j2it_values,
    j2it_weighted_series,
)
from .transforms import TestFunction, get_pipeline, h_tanh_integral


# ----------------------------------------------------------------------------
# request / report / spectral data


@dataclass(frozen=True)
class KtfRequest:
    N: int
    omega: DirichletCharacter      # nebentypus mod N with omega(-1) = 1
    n: int
    m1: int
    m2: int
    h: TestFunction
    abs_tol: float = 1e-6   # Kloosterman-series truncation target, per unit psi(N)

    def __post_init__(self):
        if self.omega.modulus != self.N:
            raise ValueError("nebentypus must have modulus N")
        if self.omega.parity() != 1:
            raise ValueError("need omega(-1) = 1")
        if self.n < 1 or math.gcd(self.n, self.N) != 1:
            raise ValueError("need n >= 1 coprime to N")
        if self.m1 < 1 or self.m2 < 1:
            raise ValueError("need m1, m2 >= 1")


@dataclass
class KtfReport:
    """The terms of one request and their error figures, all estimates.

    tail_bound, despite its name, estimates the c-series truncation error by
    the spread of its last _TAIL_WINDOW partial sums (see geo_kloosterman);
    it is not a bound.  t_quadrature_error is gl_integrate's estimate for the
    continuous term.
    """

    request: KtfRequest
    geo_main: complex
    geo_kloosterman: complex
    spec_continuous: complex
    spec_cuspidal_inferred: complex
    c_terms_used: int
    tail_bound: float
    t_quadrature_error: float

    def to_json_dict(self) -> dict:
        def c(v):
            return [v.real, v.imag]
        return {
            "request": {
                "N": self.request.N, "omega": self.request.omega.label(),
                "n": self.request.n, "m1": self.request.m1, "m2": self.request.m2,
                "h": f"{self.request.h.family}:{','.join(map(str, self.request.h.params))}",
            },
            "geo_main": c(self.geo_main),
            "geo_kloosterman": c(self.geo_kloosterman),
            "spec_continuous": c(self.spec_continuous),
            "spec_cuspidal_inferred": c(self.spec_cuspidal_inferred),
            "c_terms_used": self.c_terms_used,
            "tail_bound": self.tail_bound,
            "t_quadrature_error": self.t_quadrature_error,
        }


@dataclass(frozen=True)
class SpectralDatum:
    """One Maass form's data: parameter t, coefficients, norm, Hecke eigenvalue."""

    t: complex
    a_m1: complex
    a_m2: complex
    norm_sq: float
    lam: complex = 1.0 + 0j

    def __post_init__(self):
        if self.norm_sq <= 0:
            raise ValueError("norm_sq must be positive")
        if abs(self.t.real) > 1e-12 and abs(self.t.imag) > 1e-12:
            raise ValueError("spectral parameter must be real or purely imaginary")
        if abs(self.t.imag) >= 0.5:
            raise ValueError("exceptional parameter must satisfy |Im t| < 1/2")


# ----------------------------------------------------------------------------
# T-predicate and main term


def t_predicate(m1: int, m2: int, n: int) -> tuple[int, int | None]:
    """(T(m1,m2,n), b) with b = sqrt(m1 m2 / n) when m1 m2 = b^2 n, b | (m1, m2)."""
    if (m1 * m2) % n != 0:
        return 0, None
    q = m1 * m2 // n
    b = math.isqrt(q)
    if b * b != q or b == 0:
        return 0, None
    if math.gcd(m1, m2) % b != 0:
        return 0, None
    return 1, b


def geo_main(req: KtfRequest) -> complex:
    ind, b = t_predicate(req.m1, req.m2, req.n)
    if not ind:
        return 0j
    w = np.conj(req.omega(req.m1 // b))
    if w == 0:
        return 0j
    return complex(arith.psi(req.N) * w * h_tanh_integral(req.h))


# ----------------------------------------------------------------------------
# the Bessel integral over the spectral parameter


class _JIntegralCache:
    """Jint(x) = int_R J_{2it}(x) h(t) t / cosh(pi t) dt on t-grids per h.

    A grid, keyed by its panel count, has its nodes as panel midpoints plus
    one offset vector (specfun.gl_panel_offsets) and keeps its series
    coefficient table (see specfun._j_series; its rows grow to the term count
    of the largest x seen), those rows times the integrand's weights (see
    specfun.j2it_weighted_series), through which the x <= ODE_X0 of one call
    cost one matrix product, and its ODE checkpoint path (see
    specfun._j2it_ode_extend) for every x above ODE_X0."""

    def __init__(self, h: TestFunction):
        self.h = h
        self.T = get_pipeline(h).T
        self._cache: dict[float, complex] = {}
        self._grids: dict[int, tuple] = {}

    def _panels(self, x: float) -> int:
        key = int(2.0 * (1.0 + abs(math.log(x / 2.0))))
        width = min(0.25, 2.0 * math.pi / (4.0 * max(1.0, key / 2.0)))
        return max(32, int(self.T / width))

    def _grid(self, x: float):
        """(ts, hw, mid, off, table, weighted, path) of the t-grid of x."""
        panels = self._panels(x)
        if panels not in self._grids:
            mid, off, ws = gl_panel_offsets(0.0, self.T, panels, 16)
            ts = (mid[:, None] + off).ravel()
            hw = np.real(np.asarray(self.h(ts))) * ts / np.cosh(np.pi * ts) * ws
            self._grids[panels] = (ts, hw, mid, off, [], [], [])
        return self._grids[panels]

    def many(self, xs) -> list[complex]:
        """Jint at each x of xs.  The new x <= ODE_X0 of one t-grid are one
        j2it_weighted_series call; each new x above it is one j2it_values call."""
        by_grid: dict[int, list[float]] = {}
        for x in dict.fromkeys(xs):
            if x not in self._cache:
                by_grid.setdefault(self._panels(x), []).append(x)
        for group in by_grid.values():
            ts, hw, mid, off, table, weighted, path = self._grid(group[0])
            series = [x for x in group if x <= ODE_X0]
            if series:
                sums = j2it_weighted_series(mid, off, hw, np.array(series), table, weighted)
                self._cache.update(zip(series, (2j * sums.imag).tolist()))
            for x in group:
                if x > ODE_X0:
                    s = np.sum(np.imag(j2it_values(ts, x, table=table, path=path)) * hw)
                    self._cache[x] = complex(2j * s)
        return [self._cache[x] for x in xs]

    def __call__(self, x: float) -> complex:
        return self.many([x])[0]


_jint_cache = lru_cache(maxsize=16)(_JIntegralCache)


# ----------------------------------------------------------------------------
# Kloosterman (second geometric) term


_TAIL_WINDOW = 48  # trailing partial sums whose spread is the tail_bound
_K_CAP = 1_500_000  # the c-series raises ArithmeticError past this many terms
_MIN_TERMS = 64  # the c-series never stops before this many terms


def _c_term(req: KtfRequest, c: int, jint: complex, scale: complex) -> complex:
    """scale S(m2,m1;n;c)/c jint, one term of the c-series, jint its Jint value;
    scale = 2i psi(N)/pi."""
    S = kloosterman(KloostermanQuery(req.m2 % c, req.m1 % c, req.n, c, req.omega), "factored")
    return scale * S / c * jint


def geo_kloosterman(req: KtfRequest, return_terms: bool = False):
    """(2i psi(N)/pi) sum over c in NZ+ of S(m2,m1;n;c)/c Jint(...), truncated.

    The terms only admit a slowly-decaying certified majorant (the Weil bound
    ignores sign cancellation in c), so the series is summed until the spread
    of the partial sums over a trailing window falls below
    abs_tol * psi(N); that spread is reported as tail_bound.  It is an
    estimate of the truncation error, not a bound: at small N the error left
    past the window can be larger (for gaussian:1 the terms fall like
    c^{-3/2}).  The Jint values come in blocks of the next _MIN_TERMS
    arguments, one _JIntegralCache.many call each.
    """
    jint = _jint_cache(req.h)
    A = 4.0 * math.pi * math.sqrt(req.n * req.m1 * req.m2)
    scale = 2j * arith.psi(req.N) / math.pi
    tol_c = req.abs_tol * arith.psi(req.N)
    half_tol = tol_c / 2
    total = 0j
    terms = []
    history: deque[complex] = deque(maxlen=_TAIL_WINDOW)
    k = 0
    while True:
        k += 1
        c = k * req.N
        if k > _K_CAP:
            if k <= _MIN_TERMS:
                why = f"{k - 1} terms summed, below the {_MIN_TERMS}-term minimum"
            else:
                tail = max(abs(t0 - total) for t0 in history)
                why = f"partial-sum spread {tail:.3e} above tolerance {tol_c:.3e}"
            raise ArithmeticError(f"c-sum not converged in {_K_CAP} terms: {why}")
        if (k - 1) % _MIN_TERMS == 0:  # the Jint of the next _MIN_TERMS terms in one call
            block = jint.many([A / (j * req.N) for j in range(k, k + _MIN_TERMS)])
        term = _c_term(req, c, block[(k - 1) % _MIN_TERMS], scale)
        total += term
        if return_terms:
            terms.append((c, term))
        history.append(total)
        # one partial sum at distance >= half_tol already means "not converged"
        if k >= _MIN_TERMS and all(abs(t0 - total) < half_tol for t0 in history):
            break
    tail = max(abs(t0 - total) for t0 in history)
    if return_terms:
        return total, tail, k, terms
    return total, tail, k


# ----------------------------------------------------------------------------
# continuous spectral term


@lru_cache(maxsize=32)
def _continuous_t_grid(h: TestFunction) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-T, -eps] and [eps, T], in 16-node Gauss-Legendre panels."""
    T = get_pipeline(h).T
    ts1, ws1 = gl_panels(1e-6, T, max(48, int(T * 10)), 16)
    return np.concatenate([-ts1[::-1], ts1]), np.concatenate([ws1[::-1], ws1])


class _ContinuousContext:
    """Per-(N, omega, h) grid, |L(1 + 2it)|^2 and sigma / lambda rows of the continuous term."""

    def __init__(self, N: int, omega: DirichletCharacter, h: TestFunction):
        self.ts, self.ws = _continuous_t_grid(h)
        self.hv = np.real(np.asarray(h(self.ts)))
        self.elements = []
        for e in enumerate_basis(N, omega):
            Labs2 = np.abs(dirichlet_L(e.denominator_character, 1 + 2j * self.ts)) ** 2
            self.elements.append((e, float(e.norm_sq), Labs2))
        self._sigma: dict = {}
        self._lambda: dict = {}

    def sigma(self, e, m: int) -> np.ndarray:
        key = (id(e), m)
        if key not in self._sigma:
            self._sigma[key] = sigma_s(e, m, 1j * self.ts)
        return self._sigma[key]

    def lam(self, e, n: int) -> np.ndarray:
        key = (id(e), n)
        if key not in self._lambda:
            self._lambda[key] = lambda_n_eis(n, e.pair, 1j * self.ts)
        return self._lambda[key]


_continuous_context = lru_cache(maxsize=64)(_ContinuousContext)


def spec_continuous(req: KtfRequest) -> tuple[complex, float]:
    """Continuous-spectrum term of the trace formula and its t_quadrature_error.

    The integrand, summed over the basis elements, is integrated once on a
    composite Gauss-Legendre grid; the error is gl_integrate's Legendre-tail
    estimate, not a bound.
    """
    ctx = _continuous_context(req.N, req.omega, req.h)
    ratio = np.exp(1j * ctx.ts * math.log(req.m1 / req.m2)) if req.m1 != req.m2 else 1.0
    integrand = np.zeros(len(ctx.ts), dtype=complex)
    for e, norm, Labs2 in ctx.elements:
        integrand += (ctx.lam(e, req.n) * ctx.sigma(e, req.m1) * np.conj(ctx.sigma(e, req.m2))
                      * ratio * ctx.hv / (norm * Labs2))
    value, estimate = gl_integrate(integrand, ctx.ws)
    return complex(value / math.pi), estimate / math.pi


# ----------------------------------------------------------------------------
# assembly


def cuspidal_inferred(req: KtfRequest) -> KtfReport:
    g1 = geo_main(req)
    g2, tail, used = geo_kloosterman(req)
    s2, terr = spec_continuous(req)
    s1 = g1 + g2 - s2
    if not (math.isfinite(s1.real) and math.isfinite(s1.imag)):
        raise ArithmeticError("non-finite trace formula assembly")
    return KtfReport(req, g1, g2, s2, s1, used, tail, terr)


def cuspidal_from_data(req: KtfRequest, data: list[SpectralDatum]) -> complex:
    """Spec1 = sum_j lambda_n a_{m1} conj(a_{m2}) h(t_j) / (norm^2 cosh(pi t_j))."""
    total = 0j
    for d in data:
        ht = complex(np.asarray(req.h(np.array([d.t], dtype=complex)))[0])
        total += d.lam * d.a_m1 * np.conj(d.a_m2) * ht / (d.norm_sq * cmath.cosh(cmath.pi * d.t))
    return complex(total)


# ----------------------------------------------------------------------------
# classical-derivation cross-checks


def classical_crosscheck(req: KtfRequest, k_terms: int = 40) -> dict[str, float]:
    """Relative per-term deltas between Theorem-main and the ell-summed n=1 route.

    The n = 1 route sums conj(omega'(ell)) times the terms of the request
    (N, 1, n m1 / ell^2, m2) over ell | (n, m1).  The Kloosterman sides use the
    matched truncation c <= k_terms * N, under which the Selberg-identity
    rearrangement is exact term by term: the ell-term at c is the direct term
    at ell c, and Jint(A / (ell c)) shares its cache entry.
    """
    jint = _jint_cache(req.h)
    C = k_terms * req.N
    A = 4.0 * math.pi * math.sqrt(req.n * req.m1 * req.m2)

    def terms(r: KtfRequest, ell: int) -> tuple[complex, complex, complex]:
        scale = 2j * arith.psi(r.N) / math.pi
        cs = range(r.N, C // ell + 1, r.N)
        jints = jint.many([A / (ell * c) for c in cs])
        kloos = sum((_c_term(r, c, j, scale) for c, j in zip(cs, jints)), 0j)
        return geo_main(r), kloos, spec_continuous(r)[0]

    direct = terms(req, 1)
    via = (0j, 0j, 0j)
    for ell in arith.divisors(math.gcd(req.n, req.m1)):
        sub = KtfRequest(req.N, req.omega, 1, req.n * req.m1 // (ell * ell), req.m2, req.h,
                         req.abs_tol)
        w = np.conj(req.omega(ell))
        via = tuple(v + w * x for v, x in zip(via, terms(sub, ell)))
    return {name: float(abs(d - v) / max(1.0, abs(d), abs(v)))
            for name, d, v in zip(("geo_main", "geo_kloosterman", "spec_continuous"),
                                  direct, via)}


def hecke_sigma_identity(n: int, m: int, e: EisensteinBasisElement,
                         t: float) -> tuple[complex, complex]:
    """lhs = lambda_n sigma_it(m) m^{it}; rhs = sum_{ell | (n,m)} conj(omega'(ell))
    sigma_it(m n / ell^2) (n m / ell^2)^{it}.  Exact identity."""
    N = e.level
    if math.gcd(n * m, N) != 1:
        raise ValueError("n and m must be coprime to the level")
    s = 1j * t
    lhs = lambda_n_eis(n, e.pair, s) * sigma_s(e, m, s) * cmath.exp(s * math.log(m))
    rhs = 0j
    for ell in arith.divisors(math.gcd(n, m)):
        w = np.conj(e.pair.chi1(ell) * e.pair.chi2(ell))
        arg = m * n // (ell * ell)
        rhs += w * sigma_s(e, arg, s) * cmath.exp(s * math.log(arg))
    return complex(lhs), complex(rhs)
