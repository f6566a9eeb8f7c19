"""The computable sides of the Kuznetsov trace formula and their cross-checks.

For a request (N, omega', n, m1, m2, h) the three computable terms are

    Geo1  = T(m1,m2,n) psi(N) conj(omega'(m1/b)) (1/pi^2) int h(t) tanh(pi t) t dt
    Geo2  = (2i psi(N)/pi) sum_{c in NZ+} S_{omega'}(m2,m1;n;c)/c * Jint(4 pi sqrt(n m1 m2)/c)
    Spec2 = (1/pi) sum_{pairs} sum_{(i_p)} int lambda_n sigma_it(m1) conj(sigma_it(m2))
            (m1/m2)^{it} h(t) / (norm^2 |L(1+2it, chi1~^{-1} chi2~)|^2) dt

and the cuspidal side is inferred as Spec1 = Geo1 + Geo2 - Spec2.  The
classical-derivation identities (n = 1 formula summed over ell | (n, m1))
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
    _denominator_character,
    dirichlet_L,
    enumerate_basis,
    hurwitz_zeta,  # noqa: F401  not called here; bench/tracer.py finds the Hurwitz layer by it
    lambda_n_eis,
    sigma_s,
)
from .expsums import KloostermanQuery, kloosterman
from .specfun import gamma_complex, gl_integrate, gl_panels, j2it_values
from .transforms import TestFunction, get_pipeline


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
        if abs(self.omega(-1) - 1) > 1e-12:
            raise ValueError("need omega(-1) = 1")
        if self.n < 1 or math.gcd(self.n, self.N) != 1:
            raise ValueError("need n >= 1 coprime to N")
        if self.m1 < 1 or self.m2 < 1:
            raise ValueError("need m1, m2 >= 1")


@dataclass
class KtfReport:
    request: KtfRequest
    geo_main: complex
    geo_kloosterman: complex
    spec_continuous: complex
    spec_cuspidal_inferred: complex
    c_terms_used: int
    tail_bound: float
    t_quadrature_error: float

    def verify_identity(self, tol: float = 1e-12) -> bool:
        lhs = self.spec_cuspidal_inferred
        rhs = self.geo_main + self.geo_kloosterman - self.spec_continuous
        return abs(lhs - rhs) <= tol * max(1.0, abs(rhs))

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


def h_tanh_integral(h: TestFunction) -> float:
    """J = (1/pi^2) int_R h(t) tanh(pi t) t dt = (4/pi) V(0), see transforms.v_zero."""
    T = get_pipeline(h).T
    ts, ws = gl_panels(0.0, T, max(64, int(T * 6)), 16)
    vals = np.real(np.asarray(h(ts))) * np.tanh(np.pi * ts) * ts
    return float(2.0 * np.sum(ws * vals) / math.pi**2)


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

    A grid, keyed by its panel count, keeps its row 1/Gamma(1 + 2it) and its
    ODE checkpoint path (see specfun._j2it_ode_extend) for every x that uses it."""

    def __init__(self, h: TestFunction):
        self.h = h
        self.T = get_pipeline(h).T
        self._cache: dict[float, complex] = {}
        self._grids: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, list]] = {}

    def _grid(self, x: float):
        key = int(2.0 * (1.0 + abs(math.log(x / 2.0))))
        width = min(0.25, 2.0 * math.pi / (4.0 * max(1.0, key / 2.0)))
        panels = max(32, int(self.T / width))
        if panels not in self._grids:
            ts, ws = gl_panels(0.0, self.T, panels, 16)
            hw = np.real(np.asarray(self.h(ts))) * ts / np.cosh(np.pi * ts) * ws
            self._grids[panels] = (ts, hw, 1.0 / gamma_complex(1 + 2j * ts), [])
        return self._grids[panels]

    def __call__(self, x: float) -> complex:
        if x not in self._cache:
            ts, hw, rgamma, path = self._grid(x)
            jv = j2it_values(ts, x, rgamma=rgamma, path=path)
            self._cache[x] = complex(2j * np.sum(np.imag(jv) * hw))
        return self._cache[x]


_jint_cache = lru_cache(maxsize=16)(_JIntegralCache)


# ----------------------------------------------------------------------------
# Kloosterman (second geometric) term


def _divisor_tail(K: int, s: float) -> float:
    """Upper bound for sum_{k > K} tau(k) k^{-s}, s > 1 (hyperbola split)."""
    def ztail(X: float) -> float:
        return X ** (1 - s) / (s - 1) + X**-s
    root = max(1, math.isqrt(K))
    head = sum(d**-s * ztail(K / d) for d in range(1, root + 1))
    zeta_s = 1.0 + sum(d**-s for d in range(2, 400)) + ztail(400.0)
    return head + ztail(root) * zeta_s


_TAIL_WINDOW = 48  # trailing partial sums whose spread is the tail_bound


def geo_kloosterman(req: KtfRequest, c_cap: int = 1500000, return_terms: bool = False):
    """(2i psi(N)/pi) sum over c in NZ+ of S(m2,m1;n;c)/c Jint(...), truncated.

    The terms only admit a slowly-decaying certified majorant (the Weil bound
    ignores sign cancellation in c), so the series is summed until the spread
    of the partial sums over a trailing window falls below
    abs_tol * psi(N); that spread is reported as tail_bound.
    """
    N, n, m1, m2 = req.N, req.n, req.m1, req.m2
    jint = _jint_cache(req.h)
    A = 4.0 * math.pi * math.sqrt(n * m1 * m2)
    pref = 2j * arith.psi(N) / math.pi
    tol_c = req.abs_tol * arith.psi(N)
    total = 0j
    terms = []
    history: deque[complex] = deque(maxlen=_TAIL_WINDOW)
    k = 0
    tail = math.inf
    while True:
        k += 1
        c = k * N
        if c > c_cap:
            raise ArithmeticError(
                f"c-sum not converged by c = {c_cap}: partial-sum spread {tail:.3e} "
                f"above tolerance {tol_c:.3e}")
        q = KloostermanQuery(m2 % c, m1 % c, n, c, req.omega)
        S = kloosterman(q, "factored")
        term = pref * S / c * jint(A / c)
        total += term
        if return_terms:
            terms.append((c, term))
        history.append(total)
        if k >= 64:
            tail = max(abs(t0 - total) for t0 in history)
            if tail < tol_c / 2:
                break
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
            Labs2 = np.abs(dirichlet_L(_denominator_character(e), 1 + 2j * self.ts)) ** 2
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


def _ell_decomposition(req: KtfRequest):
    """(ell, omega-bar(ell), derived (m1', m2')) for ell | (n, m1)."""
    out = []
    for ell in arith.divisors(math.gcd(req.n, req.m1)):
        w = np.conj(req.omega(ell))
        out.append((ell, w, req.n * req.m1 // (ell * ell), req.m2))
    return out


def classical_crosscheck(req: KtfRequest, k_terms: int = 40) -> dict[str, float]:
    """Relative per-term deltas between Theorem-main and the ell-summed n=1 route.

    The Kloosterman sides use the matched truncation c <= k_terms * N, under
    which the Selberg-identity rearrangement is exact term by term.
    """
    # --- main term
    direct_main = geo_main(req)
    via = 0j
    for ell, w, M1, M2 in _ell_decomposition(req):
        if w == 0:
            continue
        sub = KtfRequest(req.N, req.omega, 1, M1, M2, req.h, req.abs_tol)
        via += w * geo_main(sub)
    d_main = abs(direct_main - via) / max(1.0, abs(direct_main))

    # --- kloosterman term, matched truncation c <= C both routes
    jint = _jint_cache(req.h)
    C = k_terms * req.N
    A = 4.0 * math.pi * math.sqrt(req.n * req.m1 * req.m2)
    pref = 2j * arith.psi(req.N) / math.pi

    direct_k = 0j
    for c in range(req.N, C + 1, req.N):
        S = kloosterman(KloostermanQuery(req.m2 % c, req.m1 % c, req.n, c, req.omega),
                        "factored")
        direct_k += pref * S / c * jint(A / c)
    via_k = 0j
    for ell, w, M1, M2 in _ell_decomposition(req):
        if w == 0:
            continue
        for cp in range(req.N, C // ell + 1, req.N):
            S = kloosterman(KloostermanQuery(M2 % cp, M1 % cp, 1, cp, req.omega),
                            "factored")
            via_k += w * pref * S / cp * jint(A / (ell * cp))
    d_kloos = abs(direct_k - via_k) / max(1.0, abs(direct_k), abs(via_k))

    # --- continuous term, shared grid
    direct_c = spec_continuous(req)[0]
    via_c = 0j
    for ell, w, M1, M2 in _ell_decomposition(req):
        if w == 0:
            continue
        sub = KtfRequest(req.N, req.omega, 1, M1, M2, req.h, req.abs_tol)
        via_c += w * spec_continuous(sub)[0]
    d_cont = abs(direct_c - via_c) / max(1.0, abs(direct_c), abs(via_c))

    return {"geo_main": d_main, "geo_kloosterman": d_kloos, "spec_continuous": d_cont}


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
