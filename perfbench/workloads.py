"""The three workloads: inputs made from the seed, and the ops run on them.

Every run of a workload executes a fixed list of ops, derived only from
``--seed`` and ``--seconds`` (which sets a whole number of rounds, never
a time box).  The program receives only generated arrays: training sets
come from :func:`repro.experiments.make_train_data` with seeds shifted by
the workload seed, test samples from :func:`repro.experiments.get_test_data`
(the fixed, independent 20 000-point sample of the paper's protocol).

Calls into the program go through module attributes
(``repro.core.methods.discover``,
``repro.experiments.harness.evaluate_boxes``) so that the traced
run's wrappers, which replace those attributes, see them.
"""

from __future__ import annotations

import importlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

FUNCTIONS = ("borehole", "1")          # one deterministic, one noisy Dalal function
N_TRAIN = 400
REDS_METHODS = ("RPx", "RPf", "RBIcxp")
SD_METHODS = ("P", "Pc", "PBc", "BI5", "BIc")
SESSION_METHOD = "RPx"
SESSION_FUNCTION = "borehole"
#: Dataset of each session request.  Dataset 0 is hot: it recurs between
#: fresh datasets, so the fit memo sees hits beside misses; 1 and 2 come
#: back once warm.  5 datasets x 3 pool keys exceed the 8-entry pool
#: cache.  Misses (5) outnumber hits (4), so the median request is the
#: cheapest tuned fit, whose cost does not hang on which model class the
#: tuning picks for one dataset; hits show in ``ops_per_s``.  The seed
#: shifts the data of every request, never the order, so every seed
#: meets the same pattern of cache hits and misses.
SESSION_SEQUENCE = (0, 1, 0, 2, 0, 3, 4, 1, 2)
SESSION_JOBS = 2
ENGINE = "vectorized"

WORKLOADS = ("reds-tuned", "sd-direct", "session-jobs2")

#: Rounds of the one-shot workloads per second of ``--seconds``.  Only
#: ``--seconds`` enters the round count, so a run's work never depends on
#: how fast the machine is.  At 20 s: one reds-tuned round (about 26 s on
#: 2 vCPUs) and ten sd-direct rounds (about 3.5 s each); with fewer,
#: sd-direct's throughput hung on PBc's cost on a handful of datasets.
ROUNDS_PER_SECOND = {"reds-tuned": 1 / 26, "sd-direct": 0.5}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds * ROUNDS_PER_SECOND[workload]))


def data_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th training set of a run with workload ``seed``."""
    return 10_000 + 97 * seed + index


@dataclass(frozen=True)
class Dataset:
    function: str
    seed: int


@dataclass(frozen=True)
class Op:
    """One discovery call plus its test-set evaluation."""

    method: str
    dataset: int        # index into Inputs.datasets


@dataclass
class Inputs:
    datasets: list[Dataset]
    ops: list[Op]       # the whole run, in order
    train: dict = field(default_factory=dict)   # dataset index -> (x, y)
    test: dict = field(default_factory=dict)    # function -> (x_test, y_test)


def make_inputs(workload: str, seed: int, seconds: float) -> Inputs:
    """The fixed op list of a run (no program code runs here)."""
    if workload == "session-jobs2":
        # One fixed sequence; --seconds does not repeat it, since a second
        # pass would turn every request into a hit.
        datasets = [Dataset(SESSION_FUNCTION, data_seed(seed, i))
                    for i in range(max(SESSION_SEQUENCE) + 1)]
        return Inputs(datasets, [Op(SESSION_METHOD, d) for d in SESSION_SEQUENCE])
    if workload not in ROUNDS_PER_SECOND:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    # Round r runs every method on fresh training sets of every function,
    # so a run averages over as many datasets as it has rounds; round 0's
    # sets are the same for both workloads.
    methods = REDS_METHODS if workload == "reds-tuned" else SD_METHODS
    datasets, ops = [], []
    for _ in range(rounds_for(workload, seconds)):
        for fn in FUNCTIONS:
            datasets.append(Dataset(fn, data_seed(seed, len(datasets))))
            ops += [Op(m, len(datasets) - 1) for m in methods]
    return Inputs(datasets, ops)


# ----------------------------------------------------------------------
# Program side
# ----------------------------------------------------------------------

def import_program() -> None:
    """Import the program's public modules (the measured import time)."""
    for name in ("repro", "repro.core.methods", "repro.core.reds",
                 "repro.experiments", "repro.experiments.harness",
                 "repro.experiments.session", "repro.experiments.parallel",
                 "repro.experiments.dataplane", "repro.metrics"):
        importlib.import_module(name)


def generate(inputs: Inputs) -> None:
    """Simulate every training set and fetch every test sample."""
    from repro.data import get_model
    from repro.experiments import get_test_data, make_train_data

    for index, ds in enumerate(inputs.datasets):
        inputs.train[index] = make_train_data(get_model(ds.function), N_TRAIN, ds.seed)
        if ds.function not in inputs.test:
            inputs.test[ds.function] = get_test_data(ds.function)


def warm_up(inputs: Inputs) -> None:
    """One cheap discovery + evaluation, so first-call costs land in set-up."""
    from repro.data import get_model

    ds = inputs.datasets[0]
    x, y = inputs.train[0]
    x_test, y_test = inputs.test[ds.function]
    methods = importlib.import_module("repro.core.methods")
    harness = importlib.import_module("repro.experiments.harness")
    result = methods.discover("P", x, y, seed=ds.seed, engine=ENGINE, jobs=1)
    harness.evaluate_boxes(result, x_test, y_test, get_model(ds.function).relevant, jobs=1)


@dataclass
class OpResult:
    op: Op
    wall_s: float
    result: object = None          # DiscoveryResult
    trajectory: np.ndarray | None = None
    measures: dict | None = None   # pr_auc, precision, recall, wracc
    error: str | None = None
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None and not self.problems


def _measures(result, trajectory, x_test, y_test) -> dict:
    from repro.metrics import precision_recall, pr_auc, wracc_score

    prec, rec = precision_recall(result.chosen_box, x_test, y_test)
    return {"pr_auc": pr_auc(trajectory), "precision": prec, "recall": rec,
            "wracc": wracc_score(result.chosen_box, x_test, y_test)}


def run_oneshot(inputs: Inputs) -> list[OpResult]:
    """``reds-tuned`` / ``sd-direct``: one-shot discover + evaluate_boxes at jobs=1."""
    from repro.data import get_model

    methods = importlib.import_module("repro.core.methods")
    harness = importlib.import_module("repro.experiments.harness")
    out = []
    for op in inputs.ops:
        ds = inputs.datasets[op.dataset]
        x, y = inputs.train[op.dataset]
        x_test, y_test = inputs.test[ds.function]
        relevant = get_model(ds.function).relevant
        t0 = time.perf_counter()
        try:
            result = methods.discover(op.method, x, y, seed=ds.seed,
                                      engine=ENGINE, jobs=1)
            ev = harness.evaluate_boxes(result, x_test, y_test, relevant, jobs=1)
        except Exception as exc:  # an op that raises counts as failed
            out.append(OpResult(op, time.perf_counter() - t0, error=repr(exc)))
            continue
        wall = time.perf_counter() - t0
        measures = {k: ev[k] for k in ("pr_auc", "precision", "recall", "wracc")}
        out.append(OpResult(op, wall, result, ev["trajectory"], measures))
    return out


def shm_segments() -> set[str]:
    """Data-plane segments currently in /dev/shm."""
    from repro.experiments.dataplane import SEGMENT_PREFIX

    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith(SEGMENT_PREFIX)}
    except FileNotFoundError:
        return set()


def run_session(inputs: Inputs) -> tuple[list[OpResult], list[str]]:
    """``session-jobs2``: one warm ``Session(jobs=2)`` serves every request.

    The session opens at the start and closes at the end of the timed
    phase, so its workers are reaped inside it.  Returns the op results
    and the data-plane segments left in /dev/shm after the close.
    """
    from repro.experiments.session import Session

    before = shm_segments()
    out = []
    with Session(jobs=SESSION_JOBS, engine=ENGINE, tune=True) as session:
        for op in inputs.ops:
            ds = inputs.datasets[op.dataset]
            x, y = inputs.train[op.dataset]
            x_test, y_test = inputs.test[ds.function]
            t0 = time.perf_counter()
            try:
                result = session.discover(op.method, x, y, seed=ds.seed)
                trajectory = session.trajectory(result.boxes, x_test, y_test)
            except Exception as exc:
                out.append(OpResult(op, time.perf_counter() - t0, error=repr(exc)))
                continue
            out.append(OpResult(op, time.perf_counter() - t0, result, trajectory))
    leaked = sorted(shm_segments() - before)
    for r in out:
        if r.error is None:
            ds = inputs.datasets[r.op.dataset]
            r.measures = _measures(r.result, r.trajectory, *inputs.test[ds.function])
    return out, leaked


def oneshot_answer(method: str, x: np.ndarray, y: np.ndarray, seed: int,
                   x_test: np.ndarray, y_test: np.ndarray):
    """A ``jobs=1`` one-shot discover + trajectory, outside any session."""
    from repro.core.methods import discover
    from repro.metrics import peeling_trajectory

    result = discover(method, x, y, seed=seed, engine=ENGINE, jobs=1)
    return result, peeling_trajectory(result.boxes, x_test, y_test, jobs=1)
