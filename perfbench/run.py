"""End-to-end discovery benchmark: one run of one workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload reds-tuned --seed 1 --seconds 20 --trace 0

Builds nothing: it runs the program from ``src/`` of the checkout it
sits in, and fails (exit code 2, no result line) when that source is
absent.  The measuring process gets a clean environment: BLAS and
OpenMP pinned to one thread, every ``REDS_*`` switch of the program
removed, temporary files kept inside the checkout.

With ``--trace 0`` it first starts ``PROBES`` set-up probes, processes
that only set up and exit, then the measured process; ``setup_s`` is the
median of their set-up times.  With ``--trace 1`` it starts the measured
process alone, with the per-layer wrappers installed.  The last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBES = 2
DEADLINE_S = 175.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("reds-tuned", "sd-direct", "session-jobs2")


def clean_env(tmp: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REDS_") and k not in ("PYTHONPATH", "PYTHONSTARTUP")}
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp)
    return env


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def launch(args: argparse.Namespace, env: dict, deadline: float, probe: bool) -> dict:
    """Run one child process to its end and return its result object."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--launched", repr(time.monotonic())]
    if probe:
        cmd.append("--probe")
    # Own process group, so a timeout also stops the child's pool workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.communicate()
        raise RuntimeError("child process ran past the deadline")
    kill_group(proc.pid)   # anything the child left behind in its group
    if proc.returncode != 0:
        raise RuntimeError(f"child process exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError("child process printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    tmp = ROOT / ".perfbench_tmp"
    tmp.mkdir(exist_ok=True)
    try:
        env = clean_env(tmp)
        setups = []
        if not args.trace:
            setups = [launch(args, env, deadline, probe=True)["setup_s"]
                      for _ in range(PROBES)]
        result = launch(args, env, deadline, probe=False)
    except (RuntimeError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if setups:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
