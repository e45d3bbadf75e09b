"""Per-layer microbenchmarks, through each layer's public functions only.

Every measurement starts with a warm-up call, then times blocks of calls
long enough that the clock's resolution does not matter, and reports the
median block's time per call with the number of blocks. Estimator updates
are timed as one continuous stream instead, because SARAH's occasional full
refresh belongs in its average cost. Multiply-adds and bytes are computed
from the batch size and the mean row nnz, not counted, and their units say
so.
"""

from __future__ import annotations

import itertools
import statistics
import time

import numpy as np

from stochfw.cli import ExperimentSpec
from stochfw.constraints import CONSTRAINT_KINDS, ConstraintSet, lmo
from stochfw.data import normalize_labels, parse_libsvm
from stochfw.estimators import EstimatorConfig, init_estimator
from stochfw.metrics import fw_gap
from stochfw.objectives import Objective
from stochfw.schedules import default_batch, default_params
from stochfw.solver import default_x0

_BLOCK_S = 0.003
_UPDATE_BUDGET_S = 0.6
_PATH_LEN = 4000

# Sparse passes over the batch rows per update, as the update rules in
# stochfw.estimators are written: margins at each point, then one scatter per
# weighted sum of rows. A full pass touches every row twice (margin, scatter).
_BATCH_PASSES = {"sarah": 3, "saga_sarah": 5, "momentum": 2}
_BYTES_PER_NNZ = 16  # int64 column index + float64 value


def time_call(call, budget_s, min_samples=5, max_samples=31):
    """Median seconds per ``call()`` and the number of timed blocks."""
    call()
    reps, t0 = 0, time.perf_counter()
    while time.perf_counter() - t0 < _BLOCK_S:
        call()
        reps += 1
    n = int(min(max_samples, max(min_samples, budget_s / (time.perf_counter() - t0))))
    per_call = []
    for _ in range(n):
        t = time.perf_counter()
        for _ in range(reps):
            call()
        per_call.append((time.perf_counter() - t) / reps)
    return statistics.median(per_call), n


def _cycle(items):
    return itertools.cycle(items).__next__


def _fw_path(cset, d, rng):
    """Feasible points along Frank-Wolfe steps toward random vertices."""
    x = default_x0(cset)
    path = [x]
    for k in range(_PATH_LEN):
        s = lmo(cset, rng.normal(size=d))
        x = x + 2.0 / (k + 12.0) * (s - x)
        path.append(x)
    return path


def measure(text, spec_fields, seed, report):
    """Time every layer on one workload's input; ``report(name, value, unit, n)``."""
    spec = ExperimentSpec(dataset_path="", **spec_fields)
    rng = np.random.default_rng([seed, 1])

    parse_s, n = time_call(lambda: parse_libsvm(text), budget_s=1.5, min_samples=3)
    report("data.parse_s", parse_s, "s", n)
    report("data.parse_mb_per_s", len(text) / parse_s / 1e6, "MB/s", n)
    ds = normalize_labels(parse_libsvm(text), spec.loss)
    init_s, n = time_call(lambda: Objective(spec.loss, ds), budget_s=0.3)
    report("objectives.init_s", init_s, "s", n)

    obj = Objective(spec.loss, ds)
    cset = ConstraintSet(spec.constraint, spec.radius, dim=ds.d)
    path = _fw_path(cset, ds.d, rng)
    point = _cycle(path)
    b = default_batch(ds.n)
    batches = _cycle([rng.integers(0, ds.n, size=b) for _ in range(64)])

    for name, fn in (
        ("loss_full", lambda: obj.loss_full(point())),
        ("grad_full", lambda: obj.grad_full(point())),
        ("grad_batch", lambda: obj.grad_batch(batches(), point())),
    ):
        sec, n = time_call(fn, budget_s=0.3)
        report(f"objectives.{name}_us", sec * 1e6, "us", n)

    nnz = len(ds.values)
    batch_nnz = b * nnz / ds.n
    p = default_params("sarah", ds.n, b)[0]
    lam = default_params("saga_sarah", ds.n, b)[1]
    configs = {
        "full": EstimatorConfig(kind="full", b=b),
        "sarah": EstimatorConfig(kind="sarah", b=b, p=p),
        "saga_sarah": EstimatorConfig(kind="saga_sarah", b=b, lam=lam),
        "momentum": EstimatorConfig(kind="momentum", b=b),
    }
    for kind, cfg in configs.items():
        sec, n = time_call(lambda: init_estimator(cfg, obj, path[0], seed), budget_s=0.2)
        report(f"estimators.{kind}.init_us", sec * 1e6, "us", n)

        est = init_estimator(cfg, obj, path[0], seed)
        est.update(path[1], path[0], 0)
        sfo0, k = est.sfo_count, 1
        t0 = time.perf_counter()
        while k < _PATH_LEN and (k < 50 or time.perf_counter() - t0 < _UPDATE_BUDGET_S):
            est.update(path[k + 1], path[k], k)
            k += 1
        elapsed = time.perf_counter() - t0
        updates = k - 1
        sfo = est.sfo_count - sfo0
        update_us = elapsed / updates * 1e6
        if kind == "full":
            passes_nnz = 2 * nnz
        elif kind == "sarah":
            # each update costs n SFO on refresh and 2b otherwise
            refreshes = (sfo - 2 * b * updates) // (ds.n - 2 * b)
            report("estimators.sarah.refresh_ratio", refreshes / updates, "ratio", updates)
            passes_nnz = (refreshes * 2 * nnz
                          + (updates - refreshes) * _BATCH_PASSES[kind] * batch_nnz) / updates
        else:
            passes_nnz = _BATCH_PASSES[kind] * batch_nnz
        report(f"estimators.{kind}.update_us", update_us, "us", updates)
        report(f"estimators.{kind}.sfo_per_update", sfo / updates, "count", updates)
        report(f"estimators.{kind}.madds_per_update", passes_nnz, "madd_computed", updates)
        report(f"estimators.{kind}.bytes_per_update", passes_nnz * _BYTES_PER_NNZ,
               "B_computed", updates)
        report(f"estimators.{kind}.madd_rate", passes_nnz / update_us, "Mmadd/s", updates)

    grads = _cycle([rng.normal(size=ds.d) for _ in range(64)])
    for kind in CONSTRAINT_KINDS:
        other = ConstraintSet(kind, spec.radius, dim=ds.d)
        sec, n = time_call(lambda: lmo(other, grads()), budget_s=0.2)
        report(f"constraints.lmo_us.{kind}", sec * 1e6, "us", n)

    sec, n = time_call(lambda: fw_gap(obj, cset, point()), budget_s=0.3)
    report("metrics.fw_gap_us", sec * 1e6, "us", n)
