"""The Frank-Wolfe iteration loop binding objective, set, estimator, step size.

Every algorithm shares the same loop:

    s^k     = argmin_{s in X} <g^k, s>          (one LMO call)
    x^{k+1} = x^k + eta_k (s^k - x^k)
    g^{k+1} = estimator update

The step size eta_k comes from the rule named by ``SolverConfig.schedule``
fed the run's own K, the estimator's p and b and the data's n. A rule the
run cannot feed (theorem1 without p, theorem3 with b > n) raises
``ValueError`` at k = 0, before the first estimator update.

With eta_k in (0, 1] and feasible x^0, every iterate is a convex
combination of feasible points and stays feasible. The update is computed
in exactly the association x + eta*(s - x) for cross-run reproducibility.

The seeds of one ``SolverConfig`` run in lockstep: the iterates and the
estimates are (m, d) blocks with one row per seed, and each step makes one
LMO call, one step size and one estimator update for all of them. Inside
the update the batch kernel serves every seed with one gather and one
compiled loop per margin or weighted row sum (``objectives.Batch``). The
RNGs of the estimators that draw (fw's holds none), SARAH's coins and
refreshes, the SAGA tables, the margins, the recorded rows, the gaps and
the callbacks stay per seed, and every output sums its own seed's entries
in the order a solve of that seed alone does, so each seed's trace is
byte-identical to its solve alone. One seed is the case m = 1 of the same
loop.

Every full-data pass reads the margins z = X x at its seed's current
iterate from one ``Margins`` per seed: the loss of each recorded row, the
gap's full gradient and the estimator's full refreshes. Each is handed the
margins, not z, so they also share the per-sample loss terms of z (the
expit of nlls, t = -y z of logistic), evaluated once per iterate: an fw
step evaluates them once for its estimate, its row's loss and its gap. A
batch's margins come from the batch kernel. The loop reports each step to
the margins with the vertex its LMO picked, (i, r) for s = r e_i, so on
the l1 ball and the simplex z follows x' = x + eta (r e_i - x) by one
column of X instead of a pass over all of X: a read
applies the steps since the last one as one scale of z and one column add
per distinct column, or makes a pass when that is cheaper. On the box,
whose vertices are dense, the reads at one iterate (fw's gradient at
x^{k+1} and row k+1's loss) share one pass. Replayed margins differ from X x by rounding,
so l1 and simplex traces can differ from a pass-per-read loop's, or from
a replay that applies the steps one at a time, by a few ulps; they are
bit-reproducible run to run.

A non-finite objective or gradient estimate raises ``NanAbort(k)`` at the
first iteration k that records it or hands the estimate to the LMO,
whatever ``record_every`` is, in any seed; so does a non-finite full
gradient at a row that evaluates the Frank-Wolfe gap. fw's estimate is
that full gradient already, so its gap rows reuse it.

Oracle accounting: the estimator owns the SFO counters, one per seed. One
LMO call per iteration: row k records lmo = k and lmo_total is K. A gap
row's full gradient (n SFO-equivalents) and LMO are metered apart from
these: gap_lmo_total counts the gap rows, the same in every seed's trace,
and gap_sfo_total is n times that.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .constraints import _lmo as lmo  # the vertices and their picks; bench/tracing.py wraps it
from .constraints import _check_int, contains
from .estimators import ALGORITHMS, init_estimator
from .metrics import Trace, TraceRow, fw_gap
from .objectives import Margins
from .schedules import SCHEDULE_KINDS, eta

__all__ = ["SolverConfig", "Run", "SolveResult", "NanAbort", "solve", "default_x0"]


class NanAbort(RuntimeError):
    """Objective or gradient became non-finite; carries the iteration index."""

    def __init__(self, k, what):
        self.k = k
        super().__init__(f"non-finite {what} at iteration {k}")


@dataclass(frozen=True)
class SolverConfig:
    """One algorithm run from one or more seeds: algorithm, horizon,
    step-size rule, estimator parameters, seeds.

    ``K``, ``gap_every`` and ``record_every`` must be Python or numpy
    integers, not bools.

    ``schedule`` names a rule of ``SCHEDULE_KINDS``. ``seeds`` holds at least
    one seed; ``solve`` runs them in lockstep. ``gap_every = 0`` disables gap
    evaluation. ``record_every`` thins the trace. ``timing`` stamps rows with
    a monotonic clock; it defaults off so reruns with the same seed are
    byte-identical.
    """

    algorithm: str
    K: int
    schedule: str
    estimator_cfg: object
    seeds: tuple = (0,)
    gap_every: int = 0
    record_every: int = 1
    timing: bool = False

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        kind = ALGORITHMS[self.algorithm].estimator.kind
        if kind != self.estimator_cfg.kind:
            raise ValueError(
                f"{self.algorithm} needs a {kind!r} estimator, got {self.estimator_cfg.kind!r}"
            )
        for name in ("K", "gap_every", "record_every"):
            _check_int(name, getattr(self, name))
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.schedule not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.schedule!r}")
        if not isinstance(self.seeds, tuple) or not self.seeds:
            raise ValueError("seeds must be a non-empty tuple")
        if self.gap_every < 0:
            raise ValueError("gap_every must be >= 0")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


@dataclass
class Run:
    """What one seed of a solve produced."""

    seed: int
    x_final: np.ndarray
    trace: Trace
    sfo_total: int
    lmo_total: int
    gap_sfo_total: int
    gap_lmo_total: int


@dataclass
class SolveResult:
    """One ``Run`` per seed, in the order of ``SolverConfig.seeds``, and the
    estimator that served them all."""

    runs: list
    estimator: object = field(repr=False)

    @property
    def sfo_total(self):
        """SFO calls of all seeds together."""
        return sum(run.sfo_total for run in self.runs)


def default_x0(cset):
    """A feasible starting point: the origin, or a vertex for the simplex."""
    if cset.dim is None:
        raise ValueError("constraint set needs dim to build a starting point")
    x0 = np.zeros(cset.dim)
    if cset.kind == "simplex":
        x0[0] = cset.radius
    return x0


def solve(cfg, obj, cset, x0, callback=None):
    """Run K Frank-Wolfe iterations from feasible x0, for every seed of
    ``cfg`` in lockstep, and return the result.

    ``callback(k, x_k)`` fires at every recorded row with that seed's
    current iterate, seed by seed; useful for feasibility audits and custom
    instrumentation.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (obj.d,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({obj.d},)")
    if not contains(cset, x0, 0.0):
        raise ValueError("x0 is not feasible")

    x = np.tile(x0, (len(cfg.seeds), 1))
    margins = [Margins(obj, x_j) for x_j in x]
    est = init_estimator(cfg.estimator_cfg, obj, x, cfg.seeds, margins)
    traces = [Trace() for _ in cfg.seeds]
    # fw's estimate is the full gradient at x_k, from the same margins
    reuse_grad = cfg.estimator_cfg.kind == "full"
    t0 = time.monotonic_ns() if cfg.timing else None

    def record(k, x):
        gap_due = cfg.gap_every > 0 and k % cfg.gap_every == 0
        for x_k, g_k, mg, sfo, trace in zip(x, est.g, margins, est.sfo_counts, traces):
            f_k = obj.loss_full(x_k, mg)
            if not math.isfinite(f_k):
                raise NanAbort(k, "objective")
            if not np.isfinite(g_k).all():
                raise NanAbort(k, "gradient estimate")
            gap_k = None
            if gap_due:
                grad = g_k if reuse_grad else obj.grad_full(x_k, mg)
                gap_k = fw_gap(obj, cset, x_k, grad)
                if np.isnan(gap_k):  # fw_gap's answer to a non-finite gradient
                    raise NanAbort(k, "full gradient")
            wall = time.monotonic_ns() - t0 if cfg.timing else 0
            trace.append(TraceRow(k=k, sfo=sfo, lmo=k, f=f_k, gap=gap_k, wall_ns=wall))
            if callback is not None:
                callback(k, x_k)

    p, b, n = cfg.estimator_cfg.p, cfg.estimator_cfg.b, obj.n
    dense = [None] * len(cfg.seeds)  # each seed's pick when the vertices are dense
    for k in range(cfg.K):
        if k % cfg.record_every == 0:
            record(k, x)
        try:
            s, picks = lmo(cset, est.g)
        except ValueError:
            # The LMO's own finiteness check doubles as the estimate's, so
            # unrecorded iterations pay for no extra scan of g.
            if np.all(np.isfinite(est.g)):
                raise
            raise NanAbort(k, "gradient estimate") from None
        step = eta(cfg.schedule, k, cfg.K, p, b, n)
        x_new = x + step * (s - x)
        for mg, x_j, pick in zip(margins, x_new, picks or dense):
            mg.step(x_j, step, pick)
        est.update(x_new, x, k)
        x = x_new

    record(cfg.K, x)

    gap_rows = len(traces[0].gap_values())  # every seed records the same rows
    runs = [Run(seed, x_j, trace, sfo, cfg.K, gap_rows * n, gap_rows)
            for seed, x_j, trace, sfo in zip(cfg.seeds, x, traces, est.sfo_counts)]
    return SolveResult(runs=runs, estimator=est)
