"""Correctness checks for the benchmark's operations.

Every check compares a program output with a value computed here, apart from
the program (scipy quadrature, mpmath, brute-force sums, closed forms), or
with a property the method must have.  The tolerances are the acceptance
suite's own.  A check returns ``(figures, problems)``: the figures are the
accuracy numbers it looked at, recorded next to the timings, and an empty
problem list means the output passed.
"""

from __future__ import annotations

import cmath
import json
import math
from functools import lru_cache

GEO_MAIN_REL = 1e-10          # geo_main against psi(N) J by quadrature
POSITIVITY_REL = 1e-6         # cuspidal side: Re >= -tol psi(N), |Im| <= tol psi(N)
RATIO_BAND = (0.9, 1.1)       # cuspidal side / (J psi(N))
RATIO_REL = 1e-9              # reported ratios against the ones recomputed here
IDENTITY_REL = 1e-12          # Spec1 = Geo1 + Geo2 - Spec2
CROSSCHECK_TOL = 1e-8         # classical-derivation per-term deltas
HECKE_TOL = 1e-12             # Hecke-sigma identity residual
BESSEL_REL = 1e-9             # J_{2it}(x) against mpmath
KLOOSTERMAN_TOL = 1e-9        # routes, brute force and Ramanujan sums
WEIL_SLACK = 1e-9             # relative slack on the certified Weil bounds


# ----------------------------------------------------------------------------
# elementary arithmetic, written apart from ktf_kit.arith


def factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def psi(N: int) -> int:
    """Index of Gamma_0(N) in SL_2(Z): N prod_{p | N} (1 + 1/p)."""
    out = N
    for p in factor(N):
        out = out // p * (p + 1)
    return out


def tau(n: int) -> int:
    return math.prod(k + 1 for k in factor(n).values())


def mobius(n: int) -> int:
    f = factor(n)
    return 0 if any(k > 1 for k in f.values()) else (-1) ** len(f)


@lru_cache(maxsize=None)
def gaussian_tanh_integral() -> float:
    """J = (1/pi^2) int_R h(t) tanh(pi t) t dt for h(t) = exp(-t^2), by scipy."""
    from scipy.integrate import quad
    val, _ = quad(lambda t: math.exp(-t * t) * math.tanh(math.pi * t) * t,
                  0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=400)
    return 2.0 * val / math.pi**2


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ----------------------------------------------------------------------------
# ktf_levels


def check_ktf_report(N: int, exit_code: int, text: str) -> tuple[dict, list[str]]:
    """A `ktf-kit ktf` report at level N, principal omega, n = m1 = m2 = 1,
    h = gaussian:1."""
    if exit_code != 0:
        return {"exit_code": exit_code}, [f"CLI exit code {exit_code}"]
    try:
        doc = json.loads(text)
        g1, g2, s2, s1 = (complex(*doc[k]) for k in
                          ("geo_main", "geo_kloosterman", "spec_continuous",
                           "spec_cuspidal_inferred"))
        ratio = float(doc["ratio_to_J_psi"])
        figures = {"tail_bound": doc["tail_bound"], "c_terms_used": doc["c_terms_used"],
                   "t_quadrature_error": doc["t_quadrature_error"], "ratio": ratio}
    except (ValueError, KeyError, TypeError) as exc:
        return {}, [f"CLI output is not a valid report: {exc!r}"]
    problems = []
    J, P = gaussian_tanh_integral(), psi(N)
    if _rel(g1, P * J) > GEO_MAIN_REL:
        problems.append(f"geo_main {g1} != psi(N) J = {P * J}")
    if s1.real < -POSITIVITY_REL * P or abs(s1.imag) > POSITIVITY_REL * P:
        problems.append(f"cuspidal side {s1} not positive within {POSITIVITY_REL} psi(N)")
    if not RATIO_BAND[0] <= ratio <= RATIO_BAND[1]:
        problems.append(f"ratio {ratio} outside {RATIO_BAND}")
    if _rel(ratio, s1.real / (J * P)) > RATIO_REL:
        problems.append(f"ratio {ratio} != Re Spec1 / (J psi(N)) = {s1.real / (J * P)}")
    if abs(s1 - (g1 + g2 - s2)) > IDENTITY_REL * max(1.0, abs(g1 + g2 - s2)):
        problems.append("Spec1 != Geo1 + Geo2 - Spec2")
    return figures, problems


def check_moment(N: int, ell: int, lhs: complex, prediction: float,
                 ratio: complex) -> tuple[dict, list[str]]:
    """An `equidist.moment_report` at p = 2, m = 1, principal omega."""
    J, P = gaussian_tanh_integral(), psi(N)
    figures = {"ratio_re": ratio.real, "ratio_im": ratio.imag}
    problems = []
    if prediction != 0.0:
        problems.append(f"prediction {prediction} != 0 for ell = {ell}, m = 1")
    if abs(ratio - lhs / (J * P)) > RATIO_REL * max(1.0, abs(ratio)):
        problems.append(f"ratio {ratio} != lhs / (J psi(N)) = {lhs / (J * P)}")
    if abs(lhs.imag) > POSITIVITY_REL * P:
        problems.append(f"moment {lhs} not real within {POSITIVITY_REL} psi(N)")
    return figures, problems


# ----------------------------------------------------------------------------
# crosscheck_grid


def check_crosscheck(deltas: dict[str, float]) -> tuple[dict, list[str]]:
    figures = {"worst_delta": max(deltas.values())}
    problems = [f"{k} delta {v:.3e} > {CROSSCHECK_TOL}" for k, v in deltas.items()
                if not v <= CROSSCHECK_TOL]
    if set(deltas) != {"geo_main", "geo_kloosterman", "spec_continuous"}:
        problems.append(f"unexpected crosscheck terms {sorted(deltas)}")
    return figures, problems


def check_hecke(pairs: list[tuple[complex, complex]]) -> tuple[dict, list[str]]:
    worst = max(abs(lhs - rhs) for lhs, rhs in pairs)
    problems = [] if worst <= HECKE_TOL else [f"Hecke-sigma residual {worst:.3e} > {HECKE_TOL}"]
    return {"worst_residual": worst}, problems


def mpmath_j2it(t: float, x: float) -> complex:
    import mpmath
    with mpmath.workdps(30):
        return complex(mpmath.besselj(2j * t, x))


def check_bessel(points: list[tuple[float, float]],
                 values: list[complex]) -> tuple[dict, list[str]]:
    problems = []
    worst = 0.0
    for (t, x), v in zip(points, values):
        rel = _rel(v, mpmath_j2it(t, x))
        worst = max(worst, rel)
        if not rel <= BESSEL_REL:
            problems.append(f"J_2it at t={t}, x={x}: relative error {rel:.3e}")
    return {"worst_rel": worst}, problems


# ----------------------------------------------------------------------------
# kloosterman_grid


def brute_kloosterman(a: int, b: int, n: int, c: int, chi, N: int) -> complex:
    """sum over x x' = n (mod c) of conj(chi(x mod N)) e((a x + b x')/c)."""
    total = 0j
    for x in range(c):
        w = chi(x % N) if N > 1 else 1.0
        if w == 0:
            continue
        for xp in range(c):
            if (x * xp - n) % c == 0:
                total += w.conjugate() * cmath.exp(2j * math.pi * ((a * x + b * xp) % c) / c)
    return total


def ramanujan_sum(b: int, c: int) -> int:
    """c_c(b) = sum_{d | (b, c)} mu(c/d) d."""
    g = math.gcd(b, c)
    return sum(mobius(c // d) * d for d in range(1, g + 1) if g % d == 0)


def conductor(chi, N: int) -> int:
    """Least d | N with chi(x) = 1 whenever x = 1 (mod d) and (x, N) = 1."""
    units = [x for x in range(1, N + 1) if math.gcd(x, N) == 1]
    for d in (d for d in range(1, N + 1) if N % d == 0):
        if all(abs(chi(x) - 1) < 1e-9 for x in units if x % d == 1 % d):
            return d
    return N


def weil_bounds(a: int, b: int, n: int, c: int, cond: int) -> tuple[float, float]:
    """The two certified conductor-aware Weil bounds for S_chi(a, b; n; c)."""
    g = math.gcd(math.gcd(abs(a * n), abs(b * n)), c)
    base = tau(abs(n)) * tau(c) * math.sqrt(g * c)
    b2 = base * cond**0.25 * math.prod(p**0.25 for p in factor(cond))
    return base * math.sqrt(cond), b2


def check_kloosterman_block(rows: list[dict]) -> tuple[dict, list[str]]:
    """One modulus: every query's three routes, Weil bounds and reference values.

    A row holds the query (a, b, n, c, N), the conductor of its character,
    the three route values, the certificate's value and flags, and optionally
    a reference value (brute force or Ramanujan sum) under "reference".
    """
    worst_route = worst_ref = worst_weil = 0.0
    problems = []
    for r in rows:
        d = r["direct"]
        dev = max(abs(d - r["factored"]), abs(d - r["salie"]), abs(d - r["cert_value"]))
        worst_route = max(worst_route, dev)
        if not dev <= KLOOSTERMAN_TOL:
            problems.append(f"routes disagree by {dev:.3e} at {r['query']}")
        b1, b2 = weil_bounds(*r["query"][:4], r["cond"])
        ratio = abs(d) / min(b1, b2)
        worst_weil = max(worst_weil, ratio)
        if not ratio <= 1 + WEIL_SLACK or r["cert_satisfied"] != (True, True):
            problems.append(f"Weil bound exceeded (|S|/bound {ratio:.6f}) at {r['query']}")
        if "reference" in r:
            ref_dev = abs(d - r["reference"])
            worst_ref = max(worst_ref, ref_dev)
            if not ref_dev <= KLOOSTERMAN_TOL:
                problems.append(f"value {d} != reference {r['reference']} at {r['query']}")
    return {"worst_route_dev": worst_route, "worst_reference_dev": worst_ref,
            "worst_weil_ratio": worst_weil}, problems
