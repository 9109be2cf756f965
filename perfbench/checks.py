"""Output checks, computed apart from the program.

Precision, recall and WRAcc of every box are recomputed here with plain
numpy from the box bounds and category sets, and compared with what the
program reported.  The property checks encode the paper's guarantees,
not a stored copy of some earlier output.
"""

from __future__ import annotations

import numpy as np

PRIM_FAMILY = frozenset({"P", "Pc", "RPx", "RPf"})   # nested peeling trajectories
MIN_SUPPORT = 20                                     # Table 2's mp
RTOL = 1e-9


def box_mask(box, x: np.ndarray) -> np.ndarray:
    """Rows of ``x`` inside ``box``: closed intervals, plus category sets."""
    inside = np.ones(len(x), dtype=bool)
    for j in range(x.shape[1]):
        if np.isfinite(box.lower[j]):
            inside &= x[:, j] >= box.lower[j]
        if np.isfinite(box.upper[j]):
            inside &= x[:, j] <= box.upper[j]
        if box.cats is not None and box.cats[j] is not None:
            inside &= np.isin(x[:, j], np.fromiter(box.cats[j], dtype=float))
    return inside


def box_measures(box, x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """(precision, recall, WRAcc) of ``box`` on ``(x, y)``."""
    inside = box_mask(box, x)
    n, n_all = int(inside.sum()), len(y)
    pos = float(np.sum(y[inside]))
    pos_all = float(np.sum(y))
    if n == 0:
        return 0.0, 0.0, 0.0
    prec = pos / n
    rec = pos / pos_all if pos_all else 0.0
    return prec, rec, n / n_all * (prec - pos_all / n_all)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(1.0, abs(a), abs(b))


def check_op(method: str, result, trajectory: np.ndarray, measures: dict,
             x_train: np.ndarray, x_test: np.ndarray, y_test: np.ndarray) -> list[str]:
    """Every way one op's output is wrong; empty when it is right."""
    problems = []
    prec, rec, wracc = box_measures(result.chosen_box, x_test, y_test)
    for name, mine in (("precision", prec), ("recall", rec), ("wracc", wracc)):
        if not _close(mine, measures[name]):
            problems.append(f"{name}: program {measures[name]!r}, recomputed {mine!r}")
    if len(trajectory) != len(result.boxes):
        problems.append(f"trajectory has {len(trajectory)} points for {len(result.boxes)} boxes")
    else:
        for i, box in enumerate(result.boxes):
            p, r, _ = box_measures(box, x_test, y_test)
            if not (_close(r, trajectory[i, 0]) and _close(p, trajectory[i, 1])):
                problems.append(f"trajectory point {i}: program {tuple(trajectory[i])}, "
                                f"recomputed {(r, p)}")
                break
    for name in ("precision", "recall", "pr_auc"):
        if not 0.0 <= measures[name] <= 1.0:
            problems.append(f"{name} {measures[name]!r} outside [0, 1]")
    if not measures["wracc"] <= 0.25:
        problems.append(f"wracc {measures['wracc']!r} above 0.25")
    if method in PRIM_FAMILY:
        boxes = result.boxes
        for i in range(1, len(boxes)):
            outer, inner = boxes[i - 1], boxes[i]
            if not (np.all(inner.lower >= outer.lower) and np.all(inner.upper <= outer.upper)):
                problems.append(f"trajectory box {i} is not inside box {i - 1}")
                break
        for i, box in enumerate(boxes):
            support = int(box_mask(box, x_train).sum())
            if support < MIN_SUPPORT:
                problems.append(f"trajectory box {i} covers {support} < {MIN_SUPPORT} points of D")
                break
    return problems


def answer_bytes(result, trajectory: np.ndarray) -> bytes:
    """Exact byte image of an answer, for bit-identity comparisons."""
    parts = []
    for box in list(result.boxes) + [result.chosen_box]:
        parts.append(np.ascontiguousarray(box.lower).tobytes())
        parts.append(np.ascontiguousarray(box.upper).tobytes())
        parts.append(repr(None if box.cats is None
                          else [None if c is None else sorted(c) for c in box.cats]).encode())
    parts.append(np.ascontiguousarray(trajectory).tobytes())
    return b"|".join(parts)
