"""One round of a workload in a fresh process: set up, run every op, check.

Started by run.py, never imported.  The round times each op with the checks
off the clock, reads its own peak resident memory before the checks load
scipy and mpmath, and writes everything it measured as JSON to ``--result``.
With ``--trace 1`` the calls into ktf_kit are wrapped by :class:`tracer.Tracer`
and the round adds its per-layer figures; the spans of a traced round go to
``--spans`` when that is given.

Exit codes: 0 after a completed round (failed ops and failed checks are in
the result), 2 when ktf_kit cannot be imported from this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import cmath
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The speed of a shared machine drifts by up to 2x over tens of seconds to
# minutes.  A fixed calibration kernel, written here and calling nothing in
# ktf_kit, runs before the first op and again whenever CALIBRATE_EVERY_S of op
# time has passed.  Every time of the round is multiplied by
# (CALIBRATION_REF_S / median kernel time) ** CALIBRATION_POWER.  The workloads
# follow the drift less than the kernel does (log-log slopes of 0.4 to 0.8
# against it), so the correction is taken at half power; see bench/README.md.
CALIBRATE_EVERY_S = 0.5
CALIBRATION_REF_S = 0.05
CALIBRATION_POWER = 0.5


def calibration_kernel() -> float:
    """Seconds taken by a fixed mix of scalar complex arithmetic and small numpy ops."""
    start = time.perf_counter()
    z, acc = 0.3 + 0.1j, 0j
    for i in range(70000):
        acc += cmath.exp(z * i * 1e-5) / (1 + z * i)
    a = np.arange(64, dtype=float)
    for _ in range(3500):
        a = np.sqrt(a * a + 1.0) - 0.5
    return time.perf_counter() - start


def import_package():
    """Import ktf_kit from this checkout's src directory and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import ktf_kit
    except ImportError as exc:
        raise SystemExit(f"cannot import ktf_kit from {SRC}: {exc}") from exc
    if not Path(ktf_kit.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"ktf_kit was imported from {ktf_kit.__file__}, not from {SRC}")
    return ktf_kit


def checked(op, result) -> tuple[dict, list[str]]:
    """op.check(result); a check that raises rejects the output."""
    try:
        return op.check(result)
    except Exception as exc:
        return {}, [f"check raised {type(exc).__name__}: {exc}"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.perf_counter() of the parent just before it started this process")
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    try:
        ktf_kit = import_package()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    workload = workloads.build(args.workload, args.seed)
    ready = time.perf_counter()
    setup_s = ready - args.spawned_at

    results, errors, op_s = [], [], []
    calibration = [calibration_kernel()]
    since = 0.0
    for i, op in enumerate(workload.ops):
        token = tracer.begin_op(i) if tracer else None
        start = time.perf_counter()
        try:
            results.append(op.run())
            errors.append(None)
        except Exception as exc:  # an op that raises is counted as failed
            results.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        finally:
            op_s.append(time.perf_counter() - start)
            if tracer:
                tracer.end_op(token)
        since += op_s[-1]
        if since >= CALIBRATE_EVERY_S or i == len(workload.ops) - 1:
            calibration.append(calibration_kernel())
            since = 0.0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scale = (CALIBRATION_REF_S / statistics.median(calibration)) ** CALIBRATION_POWER

    layers, absent, coverage = {}, [], None
    if tracer:
        tracer.uninstall()
        layers, absent = tracer.per_layer(ktf_kit.expsums)
        layers = {k: v * scale if k.endswith(".s") else v for k, v in layers.items()}
        coverage = tracer.coverage()
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump({"spans": tracer.dump(), "ops": [op.name for op in workload.ops],
                           "layers": tracer.layer_totals()}, fh)

    verdicts = [None if err else checked(op, res)
                for op, res, err in zip(workload.ops, results, errors)]
    for i, extra in workload.trend(verdicts).items():
        verdicts[i][1].extend(extra)
    records = [{"op": op.name, "seconds": t, "error": err,
                "figures": v[0] if v else None, "problems": v[1] if v else None}
               for op, t, err, v in zip(workload.ops, op_s, errors, verdicts)]

    doc = {"setup_s": setup_s * scale, "wall_s": sum(op_s) * scale,
           "op_s": [t * scale for t in op_s], "peak_rss_mb": peak_rss_mb,
           "raw": {"setup_s": setup_s, "wall_s": sum(op_s), "op_s": op_s,
                   "calibration_s": calibration},
           "records": records, "layers": layers, "absent": absent, "coverage": coverage}
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
