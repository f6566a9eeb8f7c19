"""The benchmark's workloads: a fixed, seeded list of ops and a check for each.

``build(name, seed)`` imports ktf_kit and returns the workload's ops.  An op's
``run`` calls into the package through module attributes (``cli.main``,
``expsums.kloosterman``, ...), so a traced run sees the calls; its ``check``
receives what ``run`` returned and gives ``(figures, problems)`` as the
functions of :mod:`checks` do.  Checks that compare ops with each other (the
level trends) are in ``Workload.trend``, which reads the ops' verdicts and
returns further problems by op index.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import checks


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[dict, list[str]]]


@dataclass
class Workload:
    ops: list[Op]
    trend: Callable[[list], dict[int, list[str]]] = field(default=lambda verdicts: {})


# ----------------------------------------------------------------------------
# ktf_levels: cold trace-formula reports and Sato-Tate moments


KTF_LEVELS = (101, 401, 1009)
MOMENT_P = 2
MOMENT_ELLS = (1, 2)


def _ktf_levels(seed: int) -> Workload:
    """One op per level: the CLI report, then the moments at the same level.

    The inputs are fixed: the seed has nothing to sample here.  A single
    moment takes about a second, too short to time steadily on a shared
    machine, so an op is what a user runs at one level.
    """
    from ktf_kit import cli, equidist
    from ktf_kit.characters import DirichletCharacter
    from ktf_kit.transforms import TestFunction

    h = TestFunction.parse("gaussian:1")

    def run(N):
        argv = ["ktf", "--N", str(N), "--n", "1", "--m1", "1", "--m2", "1", "--h", "gaussian:1"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        omega = DirichletCharacter.principal(N)
        moments = [equidist.moment_report(N, omega, MOMENT_P, ell, 1, h) for ell in MOMENT_ELLS]
        return code, out.getvalue(), moments

    def check(N, result):
        code, text, moments = result
        figures, problems = checks.check_ktf_report(N, code, text)
        for ell, m in zip(MOMENT_ELLS, moments):
            fig, prob = checks.check_moment(N, ell, m.lhs, m.prediction, m.ratio)
            figures.update({f"moment_l{ell}_{k}": v for k, v in fig.items()})
            problems += prob
        return figures, problems

    ops = [Op(f"ktf+moments N={N}", lambda N=N: run(N), lambda r, N=N: check(N, r))
           for N in KTF_LEVELS]

    def trend(verdicts):
        """|1 - ratio| of the reports and |ratio| of each moment do not grow with N.

        verdicts[i] is op i's (figures, problems), or None if the op raised.
        """
        if any(v is None or v[1] for v in verdicts):
            return {}  # the per-op checks already failed
        series = {"report": [abs(1 - f["ratio"]) for f, _ in verdicts]}
        for ell in MOMENT_ELLS:
            series[f"moment l={ell}"] = [
                abs(complex(f[f"moment_l{ell}_ratio_re"], f[f"moment_l{ell}_ratio_im"]))
                for f, _ in verdicts]
        problems: dict[int, list[str]] = {}
        for label, vals in series.items():
            for k in range(1, len(vals)):
                if vals[k] > vals[k - 1]:
                    problems.setdefault(k, []).append(
                        f"{label}: {vals[k]:.6g} at N={KTF_LEVELS[k]} above "
                        f"{vals[k - 1]:.6g} at N={KTF_LEVELS[k - 1]}")
        return problems

    return Workload(ops, trend)


# ----------------------------------------------------------------------------
# crosscheck_grid: classical-derivation cross-checks at small levels


# One product n*m1*m2 per level fixes the Bessel arguments 4 pi sqrt(n m1 m2)/c,
# so the work per level does not depend on the seed, which picks the split.
CROSSCHECK_PRODUCTS = {4: 36, 5: 24, 6: 24, 7: 36, 8: 30, 9: 32, 10: 108, 11: 36, 12: 40}
CROSSCHECK_K_TERMS = 24
HECKE_LEVELS = (1, 3, 4, 5, 8, 9, 12)
HECKE_TUPLES = 200
BESSEL_POINTS = 4   # on each side of x = 6


def crosscheck_triples(N: int, product: int) -> list[tuple[int, int, int]]:
    """(n, m1, m2) with n m1 m2 = product, every factor <= 12, (n, N) = 1."""
    return [(n, m1, product // (n * m1))
            for n in range(1, 13) if math.gcd(n, N) == 1 and product % n == 0
            for m1 in range(1, 13) if (product // n) % m1 == 0
            and product // (n * m1) <= 12]


def _crosscheck_grid(seed: int) -> Workload:
    from ktf_kit import eisenstein, ktf, specfun
    from ktf_kit.characters import DirichletCharacter
    from ktf_kit.transforms import TestFunction

    rng = random.Random(seed)
    h = TestFunction.gaussian(1.0)
    ops = []
    for N, product in CROSSCHECK_PRODUCTS.items():
        n, m1, m2 = rng.choice(crosscheck_triples(N, product))
        req = ktf.KtfRequest(N, DirichletCharacter.principal(N), n, m1, m2, h)
        ops.append(Op(f"crosscheck N={N} n={n} m1={m1} m2={m2}",
                      lambda req=req: ktf.classical_crosscheck(req, k_terms=CROSSCHECK_K_TERMS),
                      checks.check_crosscheck))

    # Hecke-sigma tuples: (N, omega index among even characters, element draw, n, m, t).
    tuples = []
    for _ in range(HECKE_TUPLES):
        N = rng.choice(HECKE_LEVELS)
        coprime = [k for k in range(1, 13) if math.gcd(k, N) == 1]
        tuples.append((N, rng.randrange(1 << 30), rng.randrange(1 << 30),
                       rng.choice(coprime), rng.choice(coprime), rng.uniform(-3, 3)))

    def hecke():
        from ktf_kit.characters import enumerate_characters
        out = []
        for N, w, k, n, m, t in tuples:
            even = [c for c in enumerate_characters(N) if abs(c(-1) - 1) < 1e-9]
            basis = eisenstein.enumerate_basis(N, even[w % len(even)])
            if basis:
                out.append(ktf.hecke_sigma_identity(n, m, basis[k % len(basis)], t))
        return out

    ops.append(Op(f"hecke_sigma x{HECKE_TUPLES}", hecke, checks.check_hecke))

    # J_{2it}(x) on both sides of the series/ODE switch at x = 6; the ODE cost
    # grows with x - 6, so the points above 6 sit in fixed narrow bands.
    points = [(rng.uniform(0.1, 3.0), rng.uniform(0.5, 6.0)) for _ in range(BESSEL_POINTS)]
    points += [(rng.uniform(0.1, 3.0), 6.5 + 0.7 * i + rng.uniform(0.0, 0.2))
               for i in range(BESSEL_POINTS)]
    ops.append(Op(f"bessel_J_2it x{len(points)}",
                  lambda: [specfun.bessel_J_2it(t, x) for t, x in points],
                  lambda values: checks.check_bessel(points, values)))
    return Workload(ops)


# ----------------------------------------------------------------------------
# kloosterman_grid: every route of the twisted Kloosterman sums, per modulus


KLOOSTERMAN_MAX_C = 60
KLOOSTERMAN_MAX_N = 36
KLOOSTERMAN_NS = (1, 2, 3, 4, 6, 12)
KLOOSTERMAN_AB = 5        # seeded (a, b) pairs per modulus
BRUTE_SAMPLE = 3          # seeded queries per modulus checked by brute force


def _kloosterman_grid(seed: int) -> Workload:
    from ktf_kit import characters, expsums
    from ktf_kit.characters import DirichletCharacter

    rng = random.Random(seed)
    ops = []
    for c in range(2, KLOOSTERMAN_MAX_C + 1):
        ab = [(rng.randrange(c), rng.randrange(c)) for _ in range(KLOOSTERMAN_AB)]
        queries = []
        for N in (d for d in range(1, min(c, KLOOSTERMAN_MAX_N) + 1) if c % d == 0):
            for chi in characters.enumerate_characters(N):
                queries += [expsums.KloostermanQuery(a, b, n, c, chi)
                            for n in KLOOSTERMAN_NS for a, b in ab]
        # Ramanujan sum S(0, b; 1; c) = c_c(b) with the principal character
        b0 = rng.randrange(1, c)
        queries.append(expsums.KloostermanQuery(0, b0, 1, c, DirichletCharacter.principal(1)))
        brute = set(rng.sample(range(len(queries) - 1), BRUTE_SAMPLE))
        ops.append(Op(f"kloosterman c={c} queries={len(queries)}",
                      lambda queries=queries: _kloosterman_block(expsums, queries),
                      lambda res, queries=queries, brute=brute: _check_block(queries, res, brute)))
    return Workload(ops)


def _kloosterman_block(expsums, queries):
    out = []
    for q in queries:
        cert = expsums.weil_certificate(q)
        out.append((expsums.kloosterman(q, "direct"), expsums.kloosterman(q, "factored"),
                    expsums.kloosterman(q, "salie"), cert.value, cert.satisfied))
    return out


def _check_block(queries, results, brute):
    conductors: dict = {}
    rows = []
    for i, (q, (d, f, s, v, sat)) in enumerate(zip(queries, results)):
        N = q.chi.modulus
        if q.chi not in conductors:
            conductors[q.chi] = checks.conductor(q.chi, N)
        row = {"query": (q.a, q.b, q.n, q.c, N), "cond": conductors[q.chi], "direct": d,
               "factored": f, "salie": s, "cert_value": v, "cert_satisfied": tuple(sat)}
        if i == len(queries) - 1:
            row["reference"] = checks.ramanujan_sum(q.b, q.c)
        elif i in brute:
            row["reference"] = checks.brute_kloosterman(q.a, q.b, q.n, q.c, q.chi, N)
        rows.append(row)
    return checks.check_kloosterman_block(rows)


WORKLOADS = {
    "ktf_levels": _ktf_levels,
    "crosscheck_grid": _crosscheck_grid,
    "kloosterman_grid": _kloosterman_grid,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
