"""The solve's margins z = X x: the column view it replays Frank-Wolfe steps
from, how far replayed margins drift from a fresh pass over X, when a read
makes a fresh pass instead, how many passes a solve makes, and one view per
Objective across threads."""

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
        col = obj.dataset.to_csr()[:, [i]].tocsc()
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


@pytest.mark.parametrize("kind", ["l1_ball", "simplex"])
@pytest.mark.parametrize("data", ["bc_logistic", "mushrooms_scale_logistic"])
def test_reads_25_steps_apart_stay_near_a_fresh_pass(data, kind, request, monkeypatch):
    # each read collapses 25 vertex steps into one scale and a column add per
    # distinct column; the first step has eta = 1, so its read scales z by 0
    obj = request.getfixturevalue(data)
    if data == "bc_logistic":
        # dense columns: the cost test would make a pass at most of these
        # reads, so the column adds' fixed cost is cancelled to check the
        # replay's drift
        monkeypatch.setattr(objectives, "_COLUMN_COST", -obj.n)
    cset = ConstraintSet(kind, 2000.0, dim=obj.d)
    passes = []
    margins = Objective.margins
    monkeypatch.setattr(Objective, "margins", lambda self, w: passes.append(1) or margins(self, w))

    x = default_x0(cset)
    cache = Margins(obj, x)
    worst = 0.0
    for k in range(2000):
        exact = margins(obj, x)
        if k % 25 == 0:
            z = cache.at()
            worst = max(worst, np.max(np.abs(z - exact)) / np.max(np.abs(exact), initial=1.0))
        s = lmo(cset, obj.grad_full(x, exact))
        step = 2.0 / (k + 2.0)
        x_new = x + step * (s - x)
        cache.step(x_new, step, s)
        x = x_new
    assert len(passes) == 1  # x0 only: the other 80 reads were replays
    assert worst <= 1e-12, worst


def test_a_replay_that_touches_more_than_a_pass_makes_the_pass(bc_logistic, monkeypatch):
    # on bc (683 x 10, dense) a replay of m + 1 steps on m distinct columns
    # touches n + (m + 1) _STEP_COST + m (n + _COLUMN_COST) entries; past
    # nnz, the read is a fresh pass
    obj = bc_logistic
    n, nnz = obj.n, len(obj.dataset.values)
    passes = []
    margins = Objective.margins
    monkeypatch.setattr(Objective, "margins", lambda self, w: passes.append(1) or margins(self, w))
    x = np.zeros(obj.d)
    cache = Margins(obj, x)
    cache.at()
    for m in range(1, obj.d + 1):
        before = len(passes)
        for i in range(m):  # m distinct columns, the first one twice
            for r in ((3.0, -2.0) if i == 0 else (5.0,)):
                s = np.zeros(obj.d)
                s[i] = r
                x = x + 0.25 * (s - x)
                cache.step(x, 0.25, s)
        z = cache.at()
        fresh = n + (m + 1) * objectives._STEP_COST + m * (n + objectives._COLUMN_COST) > nnz
        assert len(passes) - before == fresh, m
        assert np.allclose(z, margins(obj, x), rtol=1e-13, atol=1e-13 * np.abs(z).max())
    assert 1 < passes.count(1) < obj.d + 1  # both kinds of read happened


def test_steps_past_their_budget_make_a_pass(mushrooms_scale_logistic, monkeypatch):
    # repeats of one column cost a replay _STEP_COST each, so step keeps at
    # most (nnz - n) / _STEP_COST of them: the steps a read holds stay bounded
    obj = mushrooms_scale_logistic
    limit = (len(obj.dataset.values) - obj.n) // objectives._STEP_COST
    passes = []
    margins = Objective.margins
    monkeypatch.setattr(Objective, "margins", lambda self, w: passes.append(1) or margins(self, w))
    s = np.zeros(obj.d)
    s[3] = 2.0
    for steps, made in ((100, 0), (limit, 1), (limit + 1, 1)):
        x = np.zeros(obj.d)
        cache = Margins(obj, x)
        cache.at()
        for _ in range(steps):
            x = x + 0.01 * (s - x)
            cache.step(x, 0.01, s)
        # the steps held, or None once there are more than the limit
        assert cache._steps is None if steps > limit else len(cache._steps) == steps
        passes.clear()
        z = cache.at()
        assert len(passes) == made, steps
        assert np.allclose(z, margins(obj, x), rtol=1e-12, atol=1e-12)


def test_dense_columns_always_make_passes(monkeypatch):
    # a column of 20 rows does not pay for an add on 20 x 6 dense data
    obj = tiny_objective(n=20, d=6, seed=9)
    cset = ConstraintSet("l1_ball", 3.0, dim=obj.d)
    passes = []
    margins = Objective.margins
    monkeypatch.setattr(Objective, "margins", lambda self, w: passes.append(1) or margins(self, w))
    cfg = SolverConfig("fw", 30, "classic_fw", _ESTIMATORS["fw"], seeds=(4,))
    solve(cfg, obj, cset, default_x0(cset))
    assert len(passes) == cfg.K + 1  # a pass at every iterate


@pytest.mark.parametrize("kind", ["l1_ball", "simplex"])
@pytest.mark.parametrize("algorithm", ["fw", "sarah_fw", "saga_sarah_fw", "momentum_fw"])
def test_thinned_rows_make_one_pass_per_seed(algorithm, kind, mushrooms_scale_logistic,
                                             monkeypatch):
    # rows 25 steps apart, as the benchmark's mushrooms-vr grid records them:
    # every read after x0 is a replay, gaps and sarah's refreshes included
    obj = mushrooms_scale_logistic
    cset = ConstraintSet(kind, 2000.0, dim=obj.d)
    x0 = default_x0(cset)
    est_cfg = _ESTIMATORS[algorithm]
    if algorithm == "sarah_fw":
        est_cfg = EstimatorConfig(kind="sarah", b=3, p=0.05)
    cfg = SolverConfig(algorithm, 200, "classic_fw", est_cfg, seeds=(0, 1),
                       gap_every=50, record_every=25)
    points = []
    margins = Objective.margins
    monkeypatch.setattr(Objective, "margins",
                        lambda self, w: points.append(w.copy()) or margins(self, w))
    solve(cfg, obj, cset, x0)
    assert len(points) == len(cfg.seeds)
    assert all(np.array_equal(w, x0) for w in points)


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


@pytest.mark.parametrize("every", [1, 3, 25])
@pytest.mark.parametrize("kind", ["l1_ball", "simplex", "linf_box"])
@pytest.mark.parametrize("data", ["bc_logistic", "bc_nlls"])
def test_terms_read_through_the_margins_are_those_of_a_copy_of_z(data, kind, every,
                                                                 request, monkeypatch):
    # the margins hold the loss terms of the last z they gave; a replay
    # moves z in place and a pass makes a new z, and neither may leave stale
    # terms behind
    obj = request.getfixturevalue(data)
    cset = ConstraintSet(kind, 2000.0, dim=obj.d)
    passes = []
    margins = Objective.margins
    monkeypatch.setattr(Objective, "margins", lambda self, w: passes.append(1) or margins(self, w))

    x = default_x0(cset)
    cache = Margins(obj, x)
    replays = 0
    for k in range(150):
        if k % every == 0:
            before = len(passes)
            z = cache.at().copy()
            replays += len(passes) == before
            for _ in range(2):  # the second read takes the held terms
                assert obj.loss_full(x, cache) == obj.loss_full(x, z)
                assert obj.grad_full(x, cache).tobytes() == obj.grad_full(x, z).tobytes()
        s = lmo(cset, obj.grad_full(x, margins(obj, x)))
        step = 2.0 / (k + 2.0)
        x_new = x + step * (s - x)
        cache.step(x_new, step, s)
        x = x_new
    # reads after a pass and after a replay are both checked
    if kind == "linf_box":
        assert replays == 0
    elif every == 1:
        assert replays > 0


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

    def slow_build(*args):
        builds.append(threading.get_ident())
        time.sleep(0.05)  # every thread reaches the view while it is built
        return build(*args)

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
