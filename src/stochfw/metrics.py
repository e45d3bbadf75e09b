"""Convergence criteria and the per-iteration trace.

The Frank-Wolfe gap gap(y) = max_{x in X} <grad f(y), y - x> is the
non-convex convergence criterion: non-negative everywhere, zero exactly at
stationary points. Relative suboptimality (f - f_min)/(f_max - f_min) is
the convex-case metric, with f_max the largest objective value recorded in
the trace and f_min supplied by a longer reference run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constraints import lmo

__all__ = [
    "TraceRow",
    "Trace",
    "fw_gap",
    "relative_suboptimality",
    "min_gap_so_far",
]

_GAP_CLAMP = 1e-12


@dataclass(frozen=True)
class TraceRow:
    k: int
    sfo: int
    lmo: int
    f: float
    gap: float | None
    wall_ns: int


@dataclass
class Trace:
    """The rows one seed of a solve recorded, in iteration order."""

    rows: list = field(default_factory=list)

    def append(self, row):
        if self.rows:
            last = self.rows[-1]
            if row.k <= last.k:
                raise ValueError("trace iterations must be strictly increasing")
            if row.sfo < last.sfo or row.lmo < last.lmo:
                raise ValueError("oracle counters must be non-decreasing")
        self.rows.append(row)

    def f_values(self):
        return np.array([r.f for r in self.rows])

    def gap_values(self):
        return [r.gap for r in self.rows if r.gap is not None]


def fw_gap(obj, cset, y, grad=None):
    """gap(y) = <grad f(y), y - s> with s the LMO vertex at grad f(y).

    ``grad``, if given, is grad f(y) itself, and no pass is made; otherwise
    grad f(y) comes from one pass over the data. Mathematically non-negative
    for feasible y; values within 1e-12 below zero (rounding) are reported
    as 0. NaN when grad f(y) is not finite, since no vertex minimizes
    against it.
    """
    g = obj.grad_full(y) if grad is None else grad
    if not np.all(np.isfinite(g)):
        return float("nan")
    s = lmo(cset, g)
    gap = float(g @ (np.asarray(y, dtype=np.float64) - s))
    if -_GAP_CLAMP <= gap < 0.0:
        return 0.0
    return gap


def relative_suboptimality(trace, f_min):
    """(f_k - f_min) / (f_max - f_min) per recorded row.

    f_max is the largest value in the trace. A constant trace maps to all
    zeros. Raises ``ValueError`` if f_min exceeds the smallest trace value,
    since that makes the reference inconsistent.
    """
    f = trace.f_values()
    if len(f) == 0:
        raise ValueError("empty trace")
    if f_min > f.min():
        raise ValueError(f"f_min={f_min} exceeds smallest trace value {f.min()}")
    f_max = f.max()
    if f_max == f_min:
        return np.zeros_like(f)
    return (f - f_min) / (f_max - f_min)


def min_gap_so_far(trace):
    """Running minimum over the recorded gaps."""
    gaps = trace.gap_values()
    if not gaps:
        raise ValueError("trace has no recorded gaps")
    return np.minimum.accumulate(np.array(gaps))
