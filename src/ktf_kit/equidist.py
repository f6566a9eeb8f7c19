"""Chebyshev moments, Sato-Tate measures and the equidistribution scan.

The weighted Hecke eigenvalues nu_p = omega'(p)^{1/2} lambda_p delivered by
the trace formula equidistribute (as the level grows) for the Sato-Tate
measure, modified by a finite Chebyshev correction when p divides the chosen
Fourier index m.  This module provides the polynomials, the measures and
their moments, and the level-scan report built on the inferred cuspidal side.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import arith
from .characters import DirichletCharacter
from .ktf import KtfRequest, cuspidal_inferred
from .transforms import TestFunction, h_tanh_integral


def chebyshev_eval(ell: int, x) -> float | np.ndarray:
    """X_ell with X_0 = 1, X_1 = x, X_{l+1} = x X_l - X_{l-1} (sin((l+1)t)/sin t)."""
    if ell < 0:
        raise ValueError("degree must be nonnegative")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if ell == 0:
        return float(prev) if x.ndim == 0 else prev
    cur = x.copy()
    for _ in range(ell - 1):
        prev, cur = cur, x * cur - prev
    return float(cur) if x.ndim == 0 else cur


@dataclass(frozen=True)
class Measure:
    """sato_tate: (1/pi) sqrt(1 - x^2/4) dx on [-2, 2];
    modified(m, p): multiplied by sum_{l'=0}^{ord_p(m)} X_{2l'}(x)."""

    kind: str
    m: int = 0
    p: int = 0

    def density_factor(self, x) -> np.ndarray:
        if self.kind == "sato_tate":
            return np.ones_like(np.asarray(x, dtype=float))
        if self.kind == "modified":
            r = arith.ord_p(self.m, self.p) if self.m % self.p == 0 else 0
            acc = np.zeros_like(np.asarray(x, dtype=float))
            for lp in range(r + 1):
                acc = acc + chebyshev_eval(2 * lp, x)
            return acc
        raise ValueError(f"unknown measure kind {self.kind!r}")


@lru_cache(maxsize=None)
def _gc_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Chebyshev (second kind) nodes for int f dmu_inf after x = 2 cos t."""
    k = np.arange(1, n + 1)
    theta = k * math.pi / (n + 1)
    x = 2.0 * np.cos(theta)
    w = 2.0 / (n + 1) * np.sin(theta) ** 2
    return x, w


def measure_moment(mu: Measure, i: int, j: int) -> float:
    """int X_i X_j dmu by 80-node Gauss-Chebyshev quadrature (exact for polynomials)."""
    x, w = _gc_nodes(80)
    vals = chebyshev_eval(i, x) * chebyshev_eval(j, x) * mu.density_factor(x)
    return float(np.sum(w * vals))


@dataclass
class MomentReport:
    N: int
    p: int
    ell: int
    m: int
    lhs: complex
    prediction: float
    ratio: complex


def _check_degree(ell: int) -> None:
    if ell < 0:
        raise ValueError(f"degree ell must be nonnegative, got ell = {ell}")


def moment_report(N: int, omega: DirichletCharacter, p: int, ell: int, m: int,
                  h: TestFunction, abs_tol: float = 1e-6) -> MomentReport:
    """Weighted Chebyshev moment sum_u X_ell(nu_p) w_u from the trace formula.

    lhs is omega'(p)^{ell/2} (principal branch) times the inferred cuspidal
    side at n = p^ell, m1 = m2 = m; the prediction is J psi(N) exactly when
    ell = 2 ell' with ell' <= ord_p(m).
    """
    _check_degree(ell)
    if not arith.is_prime(p) or N % p == 0:
        raise ValueError("p must be a prime not dividing N")
    req = KtfRequest(N, omega, p**ell, m, m, h, abs_tol=abs_tol)
    rep = cuspidal_inferred(req)
    wp = omega(p)
    branch = cmath.exp(0.5 * ell * cmath.log(wp)) if wp != 0 else 0j
    lhs = branch * rep.spec_cuspidal_inferred
    J = h_tanh_integral(h)
    ok = ell % 2 == 0 and (ell // 2 == 0 or (m % p**(ell // 2) == 0
                                             and arith.ord_p(m, p) >= ell // 2))
    prediction = J * arith.psi(N) if ok else 0.0
    return MomentReport(N, p, ell, m, lhs, prediction, lhs / (J * arith.psi(N)))


def equidist_scan(p: int, m: int, h: TestFunction, N_list: list[int],
                  ell_list: tuple[int, ...] = (0, 1, 2),
                  abs_tol: float = 1e-6) -> list[tuple]:
    """Rows (N, p, m, ell, ratio_re, ratio_im, prediction) with
    ratio = moment(ell) / moment(0), to be compared with int X_ell dmu."""
    for ell in ell_list:
        _check_degree(ell)
    rows = []
    for N in sorted(N_list):
        omega = DirichletCharacter.principal(N)
        base = moment_report(N, omega, p, 0, m, h, abs_tol)
        for ell in ell_list:
            rep = base if ell == 0 else moment_report(N, omega, p, ell, m, h, abs_tol)
            ratio = rep.lhs / base.lhs
            rows.append((N, p, m, ell, float(ratio.real), float(ratio.imag),
                         rep.prediction))
    return rows
