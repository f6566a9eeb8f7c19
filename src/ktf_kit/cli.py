"""Command-line front end.

Every subcommand is a pure function of its flags and input files; floating
output is printed with 15 significant digits so runs can be diffed.  Exit
codes: 0 success, 2 usage error, 3 numeric-tolerance failure, 4 input-data
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys

from . import arith
from .characters import (
    character,
    enumerate_characters,  # noqa: F401  not called here; bench/tracer.py wraps it
)
from .eisenstein import enumerate_basis, eisenstein_eval, residue_half
from .equidist import equidist_scan
from .expsums import (
    KloostermanQuery,
    gauss_sum,
    kloosterman,
    weil_scan_rows,
)
from .ktf import KtfRequest, SpectralDatum, classical_crosscheck, cuspidal_from_data, cuspidal_inferred
from .transforms import (
    TestFunction,
    h_tanh_integral,
    q_from_h,
    roundtrip_sup_error,
    v_from_q,
    v_zero,
    zagier_hat,
)

USAGE_EXIT = 2
TOLERANCE_EXIT = 3
DATA_EXIT = 4

_FMT = "{:.15g}"


def _f(x) -> str:
    return _FMT.format(x)


def _c(z) -> str:
    return f"{_f(z.real)} {_f(z.imag)}"


class _UsageError(Exception):
    """A flag value outside its documented range; main maps it to USAGE_EXIT."""


def _from_flags(build, *args):
    """build(*args) from flag values; a ValueError there is a usage error."""
    try:
        return build(*args)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _ktf_request(args) -> KtfRequest:
    omega = _from_flags(character, args.N, args.omega_index)
    return _from_flags(KtfRequest, args.N, omega, args.n, args.m1, args.m2,
                       _from_flags(TestFunction.parse, args.h))


def load_spectral_data(path: str) -> list[SpectralDatum]:
    """Parse the spectral-data CSV; raise ValueError naming the offending row."""
    header = ["t_re", "t_im", "a_m1_re", "a_m1_im", "a_m2_re", "a_m2_im",
              "norm_sq", "lambda_re", "lambda_im"]
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh)
                if r and not r[0].lstrip().startswith("#")]
    if not rows or [c.strip() for c in rows[0]] != header:
        raise ValueError(f"bad or missing header; expected {','.join(header)}")
    for i, row in enumerate(rows[1:], start=2):
        try:
            vals = [float(v) for v in row]
            if len(vals) != 9:
                raise ValueError("wrong field count")
            datum = SpectralDatum(complex(vals[0], vals[1]), complex(vals[2], vals[3]),
                                  complex(vals[4], vals[5]), vals[6],
                                  complex(vals[7], vals[8]))
        except (ValueError, IndexError) as exc:
            raise ValueError(f"row {i}: {exc}") from exc
        out.append(datum)
    return out


def _write_csv(path: str | None, header: list[str], rows):
    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", newline="", encoding="utf-8")) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ktf-kit",
                                 description="Kloosterman sums, Eisenstein data and "
                                             "the Kuznetsov trace formula")
    sub = ap.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kloosterman", help="evaluate S_chi(a,b;n;c)")
    k.add_argument("--a", type=int, required=True)
    k.add_argument("--b", type=int, required=True)
    k.add_argument("--n", type=int, required=True)
    k.add_argument("--c", type=int, required=True)
    k.add_argument("--modulus", type=int, required=True)
    k.add_argument("--char-index", type=int, default=0)
    k.add_argument("--mode", choices=["direct", "factored", "salie"], default="direct")

    g = sub.add_parser("gauss", help="evaluate G_chi(m)")
    g.add_argument("--modulus", type=int, required=True)
    g.add_argument("--char-index", type=int, default=0)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--mode", choices=["direct", "formula"], default="direct")

    w = sub.add_parser("weil-scan", help="scan Kloosterman values against the Weil bounds")
    w.add_argument("--max-c", type=int, required=True)
    w.add_argument("--max-N", type=int, required=True)
    w.add_argument("--ab-pairs", type=int, default=20)
    w.add_argument("--n-max", type=int, default=12)
    w.add_argument("--out", default=None)

    t = sub.add_parser("transform-roundtrip", help="Selberg-transform round trip diagnostics")
    t.add_argument("--h", required=True, help="test function literal family:params")
    t.add_argument("--t-max", type=float, default=10.0)
    t.add_argument("--tol", type=float, default=1e-6)
    t.add_argument("--dump-grid", default=None, help="write (u, Q, V) rows to this CSV")

    z = sub.add_parser("zagier", help="Zagier transform hat-Z(a) by both routes")
    z.add_argument("--h", required=True)
    z.add_argument("--a", type=float, required=True)
    z.add_argument("--tol", type=float, default=1e-3)

    e = sub.add_parser("eisenstein", help="evaluate an Eisenstein basis element")
    e.add_argument("--N", type=int, required=True)
    e.add_argument("--omega-index", type=int, default=0)
    e.add_argument("--element", type=int, default=0)
    e.add_argument("--s-re", type=float, required=True)
    e.add_argument("--s-im", type=float, default=0.0)
    e.add_argument("--z-re", type=float, default=0.0)
    e.add_argument("--z-im", type=float, default=1.0)
    e.add_argument("--mode", choices=["direct", "fourier", "both", "residue"],
                   default="both")
    e.add_argument("--list-basis", action="store_true")

    f = sub.add_parser("ktf", help="evaluate the trace-formula sides")
    f.add_argument("--N", type=int, required=True)
    f.add_argument("--omega-index", type=int, default=0)
    f.add_argument("--n", type=int, default=1)
    f.add_argument("--m1", type=int, default=1)
    f.add_argument("--m2", type=int, default=1)
    f.add_argument("--h", required=True)
    f.add_argument("--spectral-data", default=None,
                   help="CSV of Maass data for the direct cuspidal sum")
    f.add_argument("--out", default=None, help="write the JSON report here")

    x = sub.add_parser("crosscheck", help="classical-derivation per-term deltas")
    x.add_argument("--N", type=int, required=True)
    x.add_argument("--omega-index", type=int, default=0)
    x.add_argument("--n", type=int, required=True)
    x.add_argument("--m1", type=int, required=True)
    x.add_argument("--m2", type=int, required=True)
    x.add_argument("--h", required=True)
    x.add_argument("--tol", type=float, default=1e-8)

    q = sub.add_parser("equidist", help="weighted Chebyshev moment scan")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--h", required=True)
    q.add_argument("--N-list", required=True, help="comma-separated levels")
    q.add_argument("--l-list", default="0,1,2")
    q.add_argument("--out", default=None)

    l = sub.add_parser("load-check", help="validate a spectral-data CSV")
    l.add_argument("--file", required=True)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0,) else 0

    try:
        return _dispatch(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except ArithmeticError as exc:  # e.g. a Kloosterman c-series that did not converge
        print(f"error: {exc}", file=sys.stderr)
        return TOLERANCE_EXIT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT


def _dispatch(args) -> int:
    cmd = args.command

    if cmd == "kloosterman":
        chi = _from_flags(character, args.modulus, args.char_index)
        q = _from_flags(KloostermanQuery, args.a, args.b, args.n, args.c, chi)
        v = kloosterman(q, args.mode)
        print(_c(v) if abs(v.imag) > 1e-12 else _f(v.real))
        return 0

    if cmd == "gauss":
        chi = _from_flags(character, args.modulus, args.char_index)
        v = gauss_sum(chi, args.m, args.mode)
        print(_c(v))
        return 0

    if cmd == "weil-scan":
        header = ["N", "chi", "a", "b", "n", "c", "re", "im", "bound1", "bound2", "ok"]
        rows = []
        violations = 0
        for row in weil_scan_rows(args.max_c, args.max_N,
                                  tuple(range(1, args.n_max + 1)), args.ab_pairs):
            rows.append([row[0], row[1], row[2], row[3], row[4], row[5],
                         _f(row[6]), _f(row[7]), _f(row[8]), _f(row[9]), row[10]])
            if not row[10]:
                violations += 1
        _write_csv(args.out, header, rows)
        if violations:
            print(f"{violations} Weil-bound violations", file=sys.stderr)
            return TOLERANCE_EXIT
        return 0

    if cmd == "transform-roundtrip":
        h = _from_flags(TestFunction.parse, args.h)
        err = roundtrip_sup_error(h, args.t_max)
        vi = v_zero(h, "integral")
        vp = v_zero(h, "pipeline")
        print(f"roundtrip_sup_error {_f(err)}")
        print(f"v0_integral {_f(vi)}")
        print(f"v0_pipeline {_f(vp)}")
        if args.dump_grid:
            Q = q_from_h(h)
            V = v_from_q(Q)
            _write_csv(args.dump_grid, ["u", "Q", "V"],
                       [[_f(u), _f(q), _f(v)] for (u, q), (_, v)
                        in zip(Q.dump_rows(), V.dump_rows())])
        if err > args.tol or abs(vi - vp) > 1e-8 * abs(vi):
            return TOLERANCE_EXIT
        return 0

    if cmd == "zagier":
        h = _from_flags(TestFunction.parse, args.h)
        zg = _from_flags(zagier_hat, h, args.a, "geometric")
        zb = zagier_hat(h, args.a, "bessel")
        print(f"bessel {_f(zb)}")
        print(f"geometric {_f(zg)}")
        rel = abs(zb - zg) / max(1e-300, abs(zb))
        print(f"rel_diff {_f(rel)}")
        return 0 if rel <= args.tol else TOLERANCE_EXIT

    if cmd == "eisenstein":
        omega = _from_flags(character, args.N, args.omega_index)
        basis = enumerate_basis(args.N, omega)
        if args.list_basis:
            _write_csv(None, ["chi1", "chi2", "ip", "M", "norm_sq"],
                       [e.label_row() for e in basis])
            return 0
        if not 0 <= args.element < len(basis):
            raise _UsageError(f"element index out of range (basis size {len(basis)})")
        e = basis[args.element]
        if args.mode == "residue":
            print(_f(residue_half(e)))
            return 0
        s = complex(args.s_re, args.s_im)
        z = complex(args.z_re, args.z_im)
        if args.mode in ("direct", "both"):
            print(f"direct {_c(eisenstein_eval(e, s, z, 'direct'))}")
        if args.mode in ("fourier", "both"):
            print(f"fourier {_c(eisenstein_eval(e, s, z, 'fourier'))}")
        return 0

    if cmd == "ktf":
        req = _ktf_request(args)
        rep = cuspidal_inferred(req)
        doc = rep.to_json_dict()
        doc["ratio_to_J_psi"] = rep.spec_cuspidal_inferred.real / (
            h_tanh_integral(req.h) * arith.psi(args.N))
        if args.spectral_data is not None:
            data = load_spectral_data(args.spectral_data)
            v = cuspidal_from_data(req, data)
            doc["spec_cuspidal_from_data"] = [v.real, v.imag]
        text = json.dumps(doc, indent=2)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        return 0

    if cmd == "crosscheck":
        req = _ktf_request(args)
        deltas = classical_crosscheck(req)
        for k, v in deltas.items():
            print(f"{k} {_f(v)}")
        return 0 if max(deltas.values()) <= args.tol else TOLERANCE_EXIT

    if cmd == "equidist":
        h = _from_flags(TestFunction.parse, args.h)
        rows = _from_flags(lambda: equidist_scan(
            args.p, args.m, h, [int(v) for v in args.N_list.split(",") if v],
            tuple(int(v) for v in args.l_list.split(",") if v)))
        _write_csv(args.out, ["N", "p", "m", "l", "ratio_re", "ratio_im", "prediction"],
                   [[r[0], r[1], r[2], r[3], _f(r[4]), _f(r[5]), _f(r[6])] for r in rows])
        return 0

    if cmd == "load-check":
        data = load_spectral_data(args.file)
        print(f"{len(data)} spectral data rows ok")
        return 0

    raise AssertionError(f"unhandled command {cmd}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
