"""Run one benchmark workload for a fixed time and print its metrics.

    python3 bench/run.py --workload ktf_levels --seed 1 --seconds 40 --trace 0

A run is a sequence of rounds.  Each round is a fresh Python process
(bench/worker.py) with OpenBLAS and OpenMP pinned to one thread; it imports
ktf_kit from ./src, builds the workload's ops from the seed, runs them in
order and checks every output.  Another round starts while at least half of
one as long as the longest so far fits within --seconds.  Each round
corrects its times in part for the drift of the machine's speed, measured by
a calibration kernel (see worker.py); the unscaled figures are printed too.
The last line of standard output is one JSON object: with --trace 0 it holds
the end-to-end metrics, medians over the rounds; with --trace 1 the
per-layer metrics of traced rounds.  Lines before it give the accuracy
figures of every op of the first round and, when tracing, the traced wall
time and span coverage.  Complete per-round data go to bench/out/.

The exit code is 0 when every round completed, otherwise 1 with no result
line (for instance when ./src/ktf_kit is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
RUN_LIMIT_S = 170.0     # a run never outlives this, rounds included
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

sys.path.insert(0, str(BENCH))
from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    return "ratio" if name.endswith("hit_ratio") else "count"


def run_round(args, index: int, deadline: float) -> dict:
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = OUT / f"{stem}-round{index}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace), "--result", str(result)]
    if args.trace and index == 0:
        cmd += ["--spans", str(OUT / f"{stem}.spans.json")]
    env = dict(os.environ, **THREAD_PINS)
    start = time.perf_counter()
    proc = subprocess.run(cmd + ["--spawned-at", repr(start)], cwd=ROOT, env=env,
                          stdout=subprocess.DEVNULL,
                          timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        raise RuntimeError(f"round {index} exited with code {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        doc = json.load(fh)
    result.unlink()
    doc["round_s"] = time.perf_counter() - start
    return doc


def summarize(rounds: list[dict], trace: int) -> dict:
    if trace:
        names = [m for m in PER_LAYER if m in rounds[0]["layers"]]
        return {m: {"value": statistics.median(r["layers"][m] for r in rounds),
                    "unit": per_layer_unit(m)} for m in names}
    values = end_to_end(rounds)
    return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END_UNITS.items()}


def end_to_end(rounds: list[dict]) -> dict[str, float]:
    """Medians over the rounds; op_p50_s is the median over the op list of
    each op's median latency."""
    per_op = zip(*(r["op_s"] for r in rounds))
    return {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "op_p50_s": statistics.median(statistics.median(ts) for ts in per_op),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    begin = time.perf_counter()
    deadline = begin + RUN_LIMIT_S
    rounds: list[dict] = []
    try:
        while True:
            rounds.append(run_round(args, len(rounds), deadline))
            longest = max(r["round_s"] for r in rounds)
            if time.perf_counter() - begin + longest / 2 > args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(r["records"]) for r in rounds)
    failed = sum(1 for r in rounds for rec in r["records"] if rec["error"])
    correct = all(not rec["problems"] for r in rounds for rec in r["records"]
                  if not rec["error"])
    for i, rec in enumerate(rounds[0]["records"]):
        print("op", i, json.dumps(rec))
    for r in rounds:
        for rec in r["records"]:
            for problem in [rec["error"]] if rec["error"] else rec["problems"]:
                print(f"FAIL {rec['op']}: {problem}", file=sys.stderr)
    raw = end_to_end([r["raw"] | {"peak_rss_mb": r["peak_rss_mb"]} for r in rounds])
    raw["calibration_s"] = statistics.median(c for r in rounds for c in r["raw"]["calibration_s"])
    print("unscaled", json.dumps(raw))
    if args.trace:
        walls = [r["wall_s"] for r in rounds]
        print("trace", json.dumps({"rounds": len(rounds), "traced_wall_s": statistics.median(walls),
                                   "span_coverage": statistics.median(r["coverage"] for r in rounds),
                                   "absent": rounds[0]["absent"]}))
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "seconds": args.seconds, "rounds": rounds}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": summarize(rounds, args.trace)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
