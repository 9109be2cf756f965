"""One measured process: set up, run the timed phase, check, report.

Started by ``run.py`` (never directly by a user) as::

    python3 perfbench/child.py --workload W --seed S --seconds T
                               --trace 0|1 --launched <monotonic> [--probe]

``--launched`` is the parent's ``time.monotonic()`` just before the
launch, so ``setup_s`` counts interpreter start as well.  With
``--probe`` the process stops after set-up and prints only its set-up
time.  Otherwise the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402
from multiprocessing import get_context  # noqa: E402

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import COUNTERS, LAYERS, Tracer  # noqa: E402


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def _warm_stats() -> dict[str, int]:
    from repro.core.reds import fit_stats
    from repro.experiments.dataplane import resident_stats
    from repro.experiments.parallel import pool_stats

    pools, plane, fits = pool_stats(), resident_stats(), fit_stats()
    return {"experiments.pool_spawns": pools["spawned"],
            "experiments.pools_reused": pools["reused"],
            "experiments.segments_published": plane["published"],
            "experiments.segments_reused": plane["reused"],
            "experiments.fit_memo_fits": fits["fits"],
            "experiments.fit_memo_hits": fits["hits"]}


def _check(inputs: wl.Inputs, results: list[wl.OpResult]) -> None:
    """Independent checks of every op; repeats must equal their first answer."""
    first: dict = {}
    for r in results:
        if r.error is not None:
            continue
        key = (r.op.method, r.op.dataset)
        image = checks.answer_bytes(r.result, r.trajectory)
        if key in first:
            if image != first[key]:
                r.problems.append("answer differs from the earlier answer to the same request")
            continue
        first[key] = image
        ds = inputs.datasets[r.op.dataset]
        x_test, y_test = inputs.test[ds.function]
        r.problems += checks.check_op(r.op.method, r.result, r.trajectory, r.measures,
                                      inputs.train[r.op.dataset][0], x_test, y_test)


def _check_oneshot(inputs: wl.Inputs, results: list[wl.OpResult]) -> None:
    """Every session answer equals a jobs=1 one-shot answer to the same request."""
    requests = sorted({(r.op.method, r.op.dataset) for r in results if r.error is None})
    with ProcessPoolExecutor(max_workers=2, mp_context=get_context("spawn")) as pool:
        futures = {}
        for method, d in requests:
            ds = inputs.datasets[d]
            futures[(method, d)] = pool.submit(
                wl.oneshot_answer, method, *inputs.train[d], ds.seed, *inputs.test[ds.function])
        expected = {key: checks.answer_bytes(*f.result()) for key, f in futures.items()}
    for r in results:
        if r.error is None and checks.answer_bytes(r.result, r.trajectory) != \
                expected[(r.op.method, r.op.dataset)]:
            r.problems.append("answer differs from the jobs=1 one-shot answer")


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--launched", type=float, required=True)
    p.add_argument("--probe", action="store_true")
    args = p.parse_args(argv)

    inputs = wl.make_inputs(args.workload, args.seed, args.seconds)
    wl.import_program()
    import_s = time.perf_counter() - _T_START
    t0 = time.perf_counter()
    wl.generate(inputs)
    simulate_s = time.perf_counter() - t0
    wl.warm_up(inputs)
    setup_s = time.monotonic() - args.launched
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer().install() if args.trace else None
    stats0, cpu0 = _warm_stats(), _cpu_s()
    t0 = time.perf_counter()
    leaked: list[str] = []
    if args.workload == "session-jobs2":
        results, leaked = wl.run_session(inputs)
    else:
        results = wl.run_oneshot(inputs)
    timed_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    stats1 = _warm_stats()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    worker_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    if tracer is not None:
        tracer.remove()

    _check(inputs, results)
    if args.workload == "session-jobs2":
        _check_oneshot(inputs, results)
    for r in results:
        if not r.ok:
            print(f"op {r.op} failed: {r.error or r.problems}", file=sys.stderr)
    if leaked:
        print(f"data-plane segments left after the session closed: {leaked}", file=sys.stderr)

    ok = [r for r in results if r.ok]
    correct = not leaked and all(not r.problems for r in results)
    n_ok = max(len(ok), 1)
    if args.trace:
        metrics = {"setup.import_s": (import_s, "s"), "data.simulate_s": (simulate_s, "s")}
        for layer in LAYERS:
            metrics[f"{layer}_s"] = (tracer.self_s[layer] / n_ok, "s/op")
        for name in COUNTERS:
            metrics[name] = (tracer.counts[name] / n_ok, "count/op")
        for name in stats1:
            metrics[name] = ((stats1[name] - stats0[name]) / n_ok, "count/op")
        metrics["experiments.worker_peak_rss_mb"] = (worker_rss_mb, "MB")
        op_wall = sum(r.wall_s for r in results)
        metrics["trace.ops_per_s"] = (len(ok) / timed_s, "1/s")
        metrics["trace.coverage"] = (sum(tracer.self_s.values()) / op_wall, "ratio")
    else:
        metrics = {
            "ops_per_s": (len(ok) / timed_s, "1/s"),
            "op_p50_s": (statistics.median(r.wall_s for r in ok) if ok else 0.0, "s"),
            "cpu_s_per_op": (cpu_s / n_ok, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "test_pr_auc": (statistics.fmean(r.measures["pr_auc"] for r in ok) if ok else 0.0,
                            "ratio"),
            "test_wracc": (statistics.fmean(r.measures["wracc"] for r in ok) if ok else 0.0,
                           "ratio"),
        }
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": len(results) - len(ok),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
