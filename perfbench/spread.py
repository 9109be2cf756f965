"""Spread report: run workloads repeatedly and summarise every metric.

Usage, from the repository root::

    python3 perfbench/spread.py --runs 10 --seed0 101
    python3 perfbench/spread.py --workloads session-jobs2 --runs 5 --seed0 1 --traced

Runs ``perfbench/run.py`` once per seed (``seed0``, ``seed0 + 1``, ...)
for each workload, with ``run_seconds`` from ``BENCHMARK.json``, and
prints per end-to-end metric the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``), the quartile distance as a share
of the median, and the metric's bound.  Before each run it times a
fixed numpy kernel that does not touch the program: a machine-speed
reference printed beside the run, not a metric.  With ``--traced`` it
also makes one traced run per seed and reports the tracing overhead as
the relative gap between untraced ``ops_per_s`` and traced
``trace.ops_per_s``.
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

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"   # the calibration kernel runs on one thread, like the program

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def calibration_s() -> float:
    """Seconds for a fixed sort + matrix-product kernel (machine speed)."""
    rng = np.random.default_rng(0)
    data = rng.random(1_000_000)
    a = rng.random((300, 300))
    t0 = time.perf_counter()
    for _ in range(3):
        np.sort(data)
        a @ a
    return time.perf_counter() - t0


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=300)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=101)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--traced", action="store_true")
    args = p.parse_args(argv)

    for workload in args.workloads.split(","):
        runs, traced = [], []
        print(f"== {workload}: {args.runs} runs, seeds {args.seed0}.."
              f"{args.seed0 + args.runs - 1}, {args.seconds} s", flush=True)
        for seed in range(args.seed0, args.seed0 + args.runs):
            cal = calibration_s()
            result = run_once(workload, seed, args.seconds, 0)
            runs.append(result)
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"seed {seed}: calibration {cal:.4f} s  correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}  {values}",
                  flush=True)
            if args.traced:
                traced.append(run_once(workload, seed, args.seconds, 1))
        print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
        for name in bounds:
            med, q1, q3, spread = summarise([r["metrics"][name]["value"] for r in runs])
            print(f"{name:<14}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.3f}{bounds[name]:>7}")
        failed = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"failed share per run: {failed}")
        if traced:
            plain = statistics.median(r["metrics"]["ops_per_s"]["value"] for r in runs)
            with_trace = statistics.median(t["metrics"]["trace.ops_per_s"]["value"]
                                           for t in traced)
            print(f"tracing overhead: {plain / with_trace - 1:+.3%} "
                  f"(ops_per_s {plain:.4g} untraced, {with_trace:.4g} traced)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
