"""Per-layer timing from outside the program.

The traced run wraps public functions of each layer at the place their
caller looks them up: a module attribute (modules bind names with
``from ... import``, so the caller's module is patched, not the
definer's) or a class attribute for methods.  Modules are resolved
through :mod:`importlib` because package attributes can shadow them:
``repro.core.reds`` is the function, ``sys.modules["repro.core.reds"]``
the module.

Each wrapper records its *self* time (its wall time minus that of
traced calls nested in it), so the layer times add up to the traced op
time.  Work inside pool workers shows only as the parent-side wall time
of ``experiments.execute`` and in the program's own counters.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict


def _rows(arg_index):
    def count(args, kwargs, result):
        return len(args[arg_index])
    return count


def _trees(args, kwargs, result):
    return len(getattr(result, "trees_", ()))


def _fans_out(args, kwargs) -> bool:
    """True when ``execute``/``run_chunked`` hands work to worker processes.

    With ``jobs <= 1`` both run the tasks inline, in the caller's
    process; that time stays with the calling layer.
    """
    jobs = kwargs.get("jobs", args[2] if len(args) > 2 else 1)
    return jobs is None or jobs > 1 or kwargs.get("executor") is not None


#: (module[:class], attribute, layer, {counter: count function or None
#: for a call count}[, predicate: trace only the calls it accepts]).
SITES = (
    ("repro.core.methods", "discover", "core.discover", {}),
    ("repro.core.hyperparams", "optimize_alpha", "core.hyperparams",
     {"core.hyperparams_calls": None}),
    ("repro.core.hyperparams", "optimize_bumping_features", "core.hyperparams",
     {"core.hyperparams_calls": None}),
    ("repro.core.hyperparams", "optimize_bi_depth", "core.hyperparams",
     {"core.hyperparams_calls": None}),
    ("repro.core.reds", "tune_metamodel", "metamodels.tune", {}),
    ("repro.metamodels.boosting:GradientBoostingModel", "fit", "metamodels.fit",
     {"metamodels.fits": None, "metamodels.trees_grown": _trees}),
    ("repro.metamodels.forest:RandomForestModel", "fit", "metamodels.fit",
     {"metamodels.fits": None, "metamodels.trees_grown": _trees}),
    ("repro.core.reds", "predict_chunked", "metamodels.label",
     {"metamodels.label_rows": _rows(1)}),
    ("repro.core.methods", "prim_peel", "subgroup.sd", {"subgroup.sd_rows": _rows(0)}),
    ("repro.core.methods", "prim_bumping", "subgroup.sd", {"subgroup.sd_rows": _rows(0)}),
    ("repro.core.methods", "best_interval", "subgroup.sd", {"subgroup.sd_rows": _rows(0)}),
    ("repro.experiments.harness", "evaluate_boxes", "metrics.eval",
     {"metrics.boxes_evaluated": lambda args, kwargs, result: len(args[0].boxes) + 1}),
    ("repro.experiments.session:Session", "trajectory", "metrics.eval",
     {"metrics.boxes_evaluated": _rows(1)}),
    ("repro.experiments.parallel", "execute", "experiments.execute", {}, _fans_out),
    ("repro.experiments.parallel", "run_chunked", "experiments.execute", {}, _fans_out),
)

LAYERS = tuple(dict.fromkeys(site[2] for site in SITES))
COUNTERS = tuple(dict.fromkeys(name for site in SITES for name in site[3]))


def _owner(path: str):
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Installs the wrappers of :data:`SITES`; sums self times and counts."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, owner, attr: str, layer: str, counters: dict, when=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if when is not None and not when(args, kwargs):
                return original(*args, **kwargs)
            stack = tracer._stack()
            frame = [0.0]          # wall time of traced calls nested in this one
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with tracer._lock:
                    tracer.self_s[layer] += elapsed - frame[0]
            with tracer._lock:
                for name, count in counters.items():
                    tracer.counts[name] += 1 if count is None else count(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def install(self) -> "Tracer":
        for path, attr, layer, counters, *when in SITES:
            self._wrap(_owner(path), attr, layer, counters, *when)
        return self

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
