"""The solve's margins z = X x: the column view it replays Frank-Wolfe steps
from, how far replayed margins drift from a fresh pass over X, how many
passes a solve makes, and one view per Objective across threads."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochfw import objectives
from stochfw.constraints import ConstraintSet, lmo
from stochfw.data import Dataset, normalize_labels, parse_libsvm
from stochfw.estimators import EstimatorConfig, init_estimator
from stochfw.objectives import Margins, Objective
from stochfw.solver import SolverConfig, default_x0, solve

from conftest import binary_sparse_libsvm_text, tiny_objective


@st.composite
def sparse_objectives(draw):
    """Random CSR data; rows and columns may be empty, d may exceed the
    largest index."""
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 9))
    indptr, indices = [0], []
    for _ in range(n):
        indices.extend(sorted(draw(st.sets(st.integers(0, d - 1), max_size=d))))
        indptr.append(len(indices))
    finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    values = draw(st.lists(finite, min_size=len(indices), max_size=len(indices)))
    labels = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    return Objective("logistic", Dataset(
        indptr=np.asarray(indptr), indices=np.asarray(indices),
        values=np.asarray(values, dtype=np.float64),
        labels=np.asarray(labels, dtype=np.float64), d=d,
    ))


@settings(max_examples=200, deadline=None)
@given(sparse_objectives())
def test_column_view_columns_equal_scipy_columns(obj):
    for i in range(obj.d):
        col = obj.X[:, [i]].tocsc()
        rows, vals = obj.column(i)
        assert np.array_equal(rows, col.indices)
        assert np.array_equal(vals.view(np.uint64), col.data.view(np.uint64))


@pytest.mark.parametrize("kind", ["l1_ball", "simplex"])
@pytest.mark.parametrize("data", ["bc_logistic", "mushrooms_scale_logistic"])
def test_replayed_margins_stay_near_a_fresh_pass(data, kind, request, monkeypatch):
    # fw reads z at every iterate, so each read replays one vertex step
    obj = request.getfixturevalue(data)
    cset = ConstraintSet(kind, 2000.0, dim=obj.d)
    passes = []
    margins = Objective.margins
    monkeypatch.setattr(Objective, "margins", lambda self, w: passes.append(1) or margins(self, w))

    def drift(z, x):
        exact = margins(obj, x)
        return np.max(np.abs(z - exact)) / np.max(np.abs(exact))

    x = default_x0(cset)
    cache = Margins(obj, x)
    worst = 0.0
    for k in range(2000):
        z = cache.at()
        if k % 100 == 99:
            worst = max(worst, drift(z, x))
        s = lmo(cset, obj.grad_full(x, z))
        step = 2.0 / (k + 2.0)
        x_new = x + step * (s - x)
        cache.step(x_new, step, s)
        x = x_new
    worst = max(worst, drift(cache.at(), x))
    assert len(passes) == 1  # x0 only: the other 2000 reads were replays
    assert worst <= 1e-12, worst


# Objective.margins calls (passes over X) per solve of the run below at the
# parent commit, where every recorded loss and full gradient made its own.
_PARENT_PASSES = {
    ("fw", "l1_ball", 1): 131, ("fw", "l1_ball", 4): 81,
    ("fw", "simplex", 1): 131, ("fw", "simplex", 4): 81,
    ("fw", "linf_box", 1): 131, ("fw", "linf_box", 4): 81,
    ("sarah_fw", "l1_ball", 1): 84, ("sarah_fw", "l1_ball", 4): 34,
    ("sarah_fw", "simplex", 1): 84, ("sarah_fw", "simplex", 4): 34,
    ("sarah_fw", "linf_box", 1): 84, ("sarah_fw", "linf_box", 4): 34,
    ("saga_sarah_fw", "l1_ball", 1): 71, ("saga_sarah_fw", "l1_ball", 4): 21,
    ("saga_sarah_fw", "simplex", 1): 71, ("saga_sarah_fw", "simplex", 4): 21,
    ("saga_sarah_fw", "linf_box", 1): 71, ("saga_sarah_fw", "linf_box", 4): 21,
    ("momentum_fw", "l1_ball", 1): 71, ("momentum_fw", "l1_ball", 4): 21,
    ("momentum_fw", "simplex", 1): 71, ("momentum_fw", "simplex", 4): 21,
    ("momentum_fw", "linf_box", 1): 71, ("momentum_fw", "linf_box", 4): 21,
}
_ESTIMATORS = {
    "fw": EstimatorConfig(kind="full"),
    "sarah_fw": EstimatorConfig(kind="sarah", b=3, p=0.3),
    "saga_sarah_fw": EstimatorConfig(kind="saga_sarah", b=3, lam=0.2),
    "momentum_fw": EstimatorConfig(kind="momentum", b=3),
}


@pytest.mark.parametrize("algorithm,kind,record_every", sorted(_PARENT_PASSES))
def test_no_solve_makes_more_passes_than_the_parent(algorithm, kind, record_every,
                                                    monkeypatch):
    obj = tiny_objective(n=20, d=6, seed=9)
    cset = ConstraintSet(kind, 3.0, dim=obj.d)
    gap_every = 7 if record_every == 1 else 10
    cfg = SolverConfig(algorithm, 60, "classic_fw", _ESTIMATORS[algorithm], seeds=(4,),
                       gap_every=gap_every, record_every=record_every)
    passes = []
    margins = Objective.margins
    monkeypatch.setattr(Objective, "margins", lambda self, w: passes.append(1) or margins(self, w))
    solve(cfg, obj, cset, default_x0(cset))
    assert len(passes) <= _PARENT_PASSES[algorithm, kind, record_every]


@pytest.mark.parametrize("kind", ["l1_ball", "simplex", "linf_box"])
@pytest.mark.parametrize("algorithm", sorted(_ESTIMATORS))
def test_cached_reads_match_a_pass_per_read(algorithm, kind, monkeypatch):
    # every recorded loss, gap and refresh read through the cache against the
    # same solve with a fresh pass over X at the current iterate on every read
    obj = tiny_objective(n=20, d=6, seed=9)
    cset = ConstraintSet(kind, 3.0, dim=obj.d)
    cfg = SolverConfig(algorithm, 80, "classic_fw", _ESTIMATORS[algorithm], seeds=(4,),
                       gap_every=3, record_every=2)
    (cached,) = solve(cfg, obj, cset, default_x0(cset)).runs
    monkeypatch.setattr(Margins, "at", lambda self: self._obj.margins(self._x))
    (fresh,) = solve(cfg, obj, cset, default_x0(cset)).runs
    assert cached.sfo_total == fresh.sfo_total
    for a, b in zip(cached.trace.rows, fresh.trace.rows, strict=True):
        assert (a.k, a.sfo, a.lmo) == (b.k, b.sfo, b.lmo)
        assert a.f == pytest.approx(b.f, rel=1e-12)
        assert (a.gap is None) == (b.gap is None)
        if a.gap is not None:
            assert a.gap == pytest.approx(b.gap, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("kind", ["l1_ball", "simplex"])
@pytest.mark.parametrize("algorithm,est_cfg", [
    ("saga_sarah_fw", EstimatorConfig(kind="saga_sarah", b=3, lam=0.2)),
    ("saga_sarah_fw", EstimatorConfig(kind="saga_sarah", b=3, lam=0.2, cold_start=True)),
    ("momentum_fw", EstimatorConfig(kind="momentum", b=3)),
], ids=["saga_sarah_fw", "saga_sarah_fw-cold", "momentum_fw"])
@pytest.mark.parametrize("data", ["bc_logistic", "mushrooms_scale_logistic"])
def test_batch_margins_do_not_depend_on_the_solves_margins(data, algorithm, est_cfg, kind,
                                                          request):
    # a solve replays z at every row, yet its estimate is that of an
    # estimator with no margins stepped along the same iterates, bit for bit
    # (sarah_fw is left out: its full refreshes read the replayed z)
    obj = request.getfixturevalue(data)
    cset = ConstraintSet(kind, 2000.0, dim=obj.d)
    cfg = SolverConfig(algorithm, 40, "classic_fw", est_cfg, seeds=(5,))
    path = []
    result = solve(cfg, obj, cset, default_x0(cset), callback=lambda k, x: path.append(x.copy()))
    assert len(path) == cfg.K + 1
    est = init_estimator(est_cfg, obj, path[0], 5)
    for k in range(cfg.K):
        est.update(path[k + 1], path[k], k)
    assert est.g.tobytes() == result.estimator.g[0].tobytes()


def test_first_use_from_four_threads_builds_one_view(monkeypatch):
    text = binary_sparse_libsvm_text(400, 30, seed=11)

    def fresh():
        return Objective("logistic", normalize_labels(parse_libsvm(text), "logistic"))

    cset = ConstraintSet("l1_ball", 50.0, dim=30)
    x0 = default_x0(cset)
    configs = [
        SolverConfig("sarah_fw", 60, "theorem1", EstimatorConfig(kind="sarah", b=4, p=0.1),
                     seeds=(seed,), gap_every=5)
        for seed in range(4)
    ]
    alone = [solve(cfg, fresh(), cset, x0).runs[0].trace.rows for cfg in configs]

    builds = []
    build = objectives._column_view

    def slow_build(X):
        builds.append(threading.get_ident())
        time.sleep(0.05)  # every thread reaches the view while it is built
        return build(X)

    monkeypatch.setattr(objectives, "_column_view", slow_build)
    obj = fresh()
    start = threading.Barrier(4)

    def run(cfg):
        start.wait()
        return solve(cfg, obj, cset, x0).runs[0].trace.rows

    with ThreadPoolExecutor(max_workers=4) as pool:
        together = list(pool.map(run, configs))
    assert len(builds) == 1
    assert together == alone
