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

A non-finite objective or gradient estimate raises ``NanAbort(k)`` at the
first iteration k that records it or hands the estimate to the LMO,
whatever ``record_every`` is; so does a non-finite full gradient at a row
that evaluates the Frank-Wolfe gap.

Oracle accounting: the estimator owns the SFO counter; lmo_total equals K.
Frank-Wolfe gap evaluations need one full gradient (n SFO-equivalents) and
one LMO each; these are metered separately (gap_sfo_total, gap_lmo_total)
so reported totals reflect only the algorithm's own oracle calls.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .constraints import contains, lmo
from .estimators import ALGORITHMS, init_estimator
from .metrics import Trace, TraceRow, fw_gap
from .schedules import SCHEDULE_KINDS, eta

__all__ = ["SolverConfig", "SolveResult", "NanAbort", "solve", "default_x0"]


class NanAbort(RuntimeError):
    """Objective or gradient became non-finite; carries the iteration index."""

    def __init__(self, k, what):
        self.k = k
        super().__init__(f"non-finite {what} at iteration {k}")


@dataclass(frozen=True)
class SolverConfig:
    """One run: algorithm, horizon, step-size rule, estimator parameters, seed.

    ``schedule`` names a rule of ``SCHEDULE_KINDS``.
    ``gap_every = 0`` disables gap evaluation. ``record_every`` thins the
    trace. ``timing`` stamps rows with a monotonic clock; it defaults off so
    reruns with the same seed are byte-identical.
    """

    algorithm: str
    K: int
    schedule: str
    estimator_cfg: object
    seed: int = 0
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
        if self.K < 0:
            raise ValueError("K must be non-negative")
        if self.schedule not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.schedule!r}")
        if self.gap_every < 0:
            raise ValueError("gap_every must be >= 0")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


@dataclass
class SolveResult:
    x_final: np.ndarray
    trace: Trace
    sfo_total: int
    lmo_total: int
    gap_sfo_total: int = 0
    gap_lmo_total: int = 0
    estimator: object = field(default=None, repr=False)


def default_x0(cset):
    """A feasible starting point: the origin, or a vertex for the simplex."""
    if cset.dim is None:
        raise ValueError("constraint set needs dim to build a starting point")
    x0 = np.zeros(cset.dim)
    if cset.kind == "simplex":
        x0[0] = cset.radius
    return x0


def solve(cfg, obj, cset, x0, callback=None):
    """Run K Frank-Wolfe iterations from feasible x0 and return the result.

    ``callback(k, x_k)`` fires at every recorded row with the current
    iterate; useful for feasibility audits and custom instrumentation.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    if x.shape != (obj.d,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({obj.d},)")
    if not contains(cset, x, 0.0):
        raise ValueError("x0 is not feasible")

    est = init_estimator(cfg.estimator_cfg, obj, x, cfg.seed)
    trace = Trace(
        metadata={
            "algorithm": cfg.algorithm,
            "K": cfg.K,
            "seed": cfg.seed,
            "schedule": cfg.schedule,
            "dataset": obj.dataset.name,
        }
    )
    gap_sfo = 0
    gap_lmo = 0
    t0 = time.monotonic_ns() if cfg.timing else None

    def record(k, x_k):
        nonlocal gap_sfo, gap_lmo
        f_k = obj.loss_full(x_k)
        if not np.isfinite(f_k):
            raise NanAbort(k, "objective")
        if not np.all(np.isfinite(est.g)):
            raise NanAbort(k, "gradient estimate")
        gap_k = None
        if cfg.gap_every > 0 and k % cfg.gap_every == 0:
            gap_k = fw_gap(obj, cset, x_k)
            if np.isnan(gap_k):  # fw_gap's answer to a non-finite gradient
                raise NanAbort(k, "full gradient")
            gap_sfo += obj.n
            gap_lmo += 1
        wall = time.monotonic_ns() - t0 if cfg.timing else 0
        trace.append(
            TraceRow(k=k, sfo=est.sfo_count, lmo=lmo_total, f=f_k, gap=gap_k, wall_ns=wall)
        )
        if callback is not None:
            callback(k, x_k)

    p, b, n = cfg.estimator_cfg.p, cfg.estimator_cfg.b, obj.n
    lmo_total = 0
    for k in range(cfg.K):
        if k % cfg.record_every == 0:
            record(k, x)
        try:
            s = lmo(cset, est.g)
        except ValueError:
            # The LMO's own finiteness check doubles as the estimate's, so
            # unrecorded iterations pay for no extra scan of g.
            if np.all(np.isfinite(est.g)):
                raise
            raise NanAbort(k, "gradient estimate") from None
        lmo_total += 1
        step = eta(cfg.schedule, k, cfg.K, p, b, n)
        x_new = x + step * (s - x)
        est.update(x_new, x, k)
        x = x_new

    if cfg.K > 0:
        record(cfg.K, x)

    return SolveResult(
        x_final=x,
        trace=trace,
        sfo_total=est.sfo_count,
        lmo_total=lmo_total,
        gap_sfo_total=gap_sfo,
        gap_lmo_total=gap_lmo,
        estimator=est,
    )
