import numpy as np
import pytest

from stochfw.constraints import ConstraintSet, contains, lmo
from stochfw.data import parse_libsvm
from stochfw.estimators import EstimatorConfig, FullGradEstimator, SagaSarahEstimator
from stochfw.metrics import fw_gap
from stochfw.objectives import Objective
from stochfw.solver import NanAbort, SolverConfig, default_x0, solve

from conftest import poison_margins, tiny_objective


def fw_config(K, **kwargs):
    return SolverConfig(
        algorithm="fw", K=K, schedule="classic_fw",
        estimator_cfg=EstimatorConfig(kind="full"), **kwargs,
    )


def sarah_config(K, p=0.5, b=2, **kwargs):
    return SolverConfig(
        algorithm="sarah_fw", K=K, schedule="classic_fw",
        estimator_cfg=EstimatorConfig(kind="sarah", b=b, p=p), **kwargs,
    )


def test_one_iteration_records_x0_and_row_K():
    # K = 1 is the least run: row 0 at x0, then row K whatever record_every
    obj = tiny_objective()
    cset = ConstraintSet("l1_ball", 5.0, dim=obj.d)
    x0 = np.zeros(obj.d)
    res = solve(fw_config(1, record_every=5), obj, cset, x0).runs[0]
    assert [(r.k, r.sfo, r.lmo) for r in res.trace.rows] == [(0, obj.n, 0), (1, 2 * obj.n, 1)]
    assert res.trace.rows[0].f == obj.loss_full(x0)
    assert res.lmo_total == 1
    assert not np.array_equal(res.x_final, x0)


def test_classic_fw_descends_on_single_sample_logistic():
    # y=1, x=(1, 2): f decreases monotonically over the first 10 iterations
    obj = Objective("logistic", parse_libsvm("+1 1:1 2:2\n"))
    cset = ConstraintSet("l1_ball", 1.0, dim=2)
    res = solve(fw_config(10), obj, cset, np.zeros(2)).runs[0]
    f = res.trace.f_values()
    assert np.all(np.diff(f) <= 0)
    assert f[-1] < f[0]
    assert contains(cset, res.x_final, 1e-9)


def test_sarah_p1_bit_identical_to_fw():
    obj = tiny_objective(n=12, d=5, seed=2)
    cset = ConstraintSet("l1_ball", 3.0, dim=obj.d)
    x0 = np.zeros(obj.d)
    r_fw = solve(fw_config(50, seeds=(3,)), obj, cset, x0).runs[0]
    r_sarah = solve(sarah_config(50, p=1.0, seeds=(3,)), obj, cset, x0).runs[0]
    assert np.array_equal(r_fw.x_final, r_sarah.x_final)
    assert [r.f for r in r_fw.trace.rows] == [r.f for r in r_sarah.trace.rows]


@pytest.mark.parametrize("kind", ["l1_ball", "simplex", "linf_box"])
def test_recorded_iterates_stay_feasible(kind):
    obj = tiny_objective(n=10, d=4, seed=4)
    cset = ConstraintSet(kind, 2.0, dim=obj.d)
    x0 = default_x0(cset)
    seen = []
    solve(sarah_config(200, seeds=(5,)), obj, cset, x0,
          callback=lambda k, x: seen.append(x.copy()))
    assert len(seen) == 201
    for x in seen:
        assert contains(cset, x, 1e-9)


def test_deterministic_reruns_are_bit_identical():
    obj = tiny_objective(n=10, d=4, seed=6)
    cset = ConstraintSet("l1_ball", 2.0, dim=obj.d)
    runs = []
    for _ in range(2):
        res = solve(sarah_config(100, p=0.2, seeds=(11,), gap_every=10), obj, cset,
                    np.zeros(obj.d)).runs[0]
        runs.append(res)
    a, b = runs
    assert np.array_equal(a.x_final, b.x_final)
    assert a.trace.rows == b.trace.rows
    assert a.sfo_total == b.sfo_total


def test_oracle_accounting():
    obj = tiny_objective(n=10, d=4, seed=7)
    cset = ConstraintSet("l1_ball", 2.0, dim=obj.d)
    result = solve(sarah_config(40, seeds=(1,), gap_every=10), obj, cset, np.zeros(obj.d))
    (res,) = result.runs
    assert res.lmo_total == 40
    assert res.sfo_total == result.sfo_total == result.estimator.sfo_count
    assert res.trace.rows[-1].sfo == res.sfo_total
    # gap evaluated at k = 0, 10, 20, 30, 40: metered separately
    assert res.gap_lmo_total == 5
    assert res.gap_sfo_total == 5 * obj.n
    gap_ks = [r.k for r in res.trace.rows if r.gap is not None]
    assert gap_ks == [0, 10, 20, 30, 40]


def test_record_every_thins_trace():
    obj = tiny_objective(n=6, d=4)
    cset = ConstraintSet("l1_ball", 2.0, dim=obj.d)
    res = solve(fw_config(10, record_every=4), obj, cset, np.zeros(obj.d)).runs[0]
    assert [r.k for r in res.trace.rows] == [0, 4, 8, 10]


def test_infeasible_x0_rejected():
    obj = tiny_objective()
    cset = ConstraintSet("l1_ball", 1.0, dim=obj.d)
    with pytest.raises(ValueError, match="feasible"):
        solve(fw_config(5), obj, cset, np.full(obj.d, 1.0))
    with pytest.raises(ValueError, match=r"x0 has shape \(5,\), expected \(4,\)"):
        solve(fw_config(5), obj, cset, np.zeros(obj.d + 1))
    # a set of another dimension: the LMO's own error, not a NaN abort
    wide = ConstraintSet("l1_ball", 1.0, dim=obj.d + 1)
    with pytest.raises(ValueError, match="g has shape") as err:
        solve(fw_config(5), obj, wide, np.zeros(obj.d))
    assert type(err.value) is ValueError


def test_nan_abort_carries_iteration(monkeypatch):
    # reads: x0 for the init pass and row 0, then x_{k+1} for fw's update at
    # k and for row k+1; the eighth read is row 3's loss
    obj = tiny_objective(n=6, d=4)
    cset = ConstraintSet("l1_ball", 2.0, dim=obj.d)
    poison_margins(monkeypatch, 7)
    with pytest.raises(NanAbort) as err:
        solve(fw_config(10), obj, cset, np.zeros(obj.d))
    assert err.value.k == 3


def test_nan_gradient_aborts_between_recorded_rows(monkeypatch):
    # The update at k=2 makes the estimate NaN; with record_every=5 no
    # row is recorded at k=3, so the LMO is the first to see it.
    obj = tiny_objective(n=6, d=4)
    cset = ConstraintSet("l1_ball", 2.0, dim=obj.d)
    poison_margins(monkeypatch, 4)  # init, row 0, updates at k=0 and k=1
    with pytest.raises(NanAbort, match="gradient estimate") as err:
        solve(fw_config(10, record_every=5), obj, cset, np.zeros(obj.d))
    assert err.value.k == 3


def test_nan_full_gradient_at_gap_row_aborts(monkeypatch):
    # sarah's init pass and row 0's loss are the good reads; the gap at k=0
    # then sees NaN margins while the estimate itself is still finite
    obj = tiny_objective(n=6, d=4)
    cset = ConstraintSet("l1_ball", 2.0, dim=obj.d)
    poison_margins(monkeypatch, 2)
    with pytest.raises(NanAbort, match="full gradient") as err:
        solve(sarah_config(10, gap_every=1), obj, cset, np.zeros(obj.d))
    assert err.value.k == 0


def test_default_x0_per_kind():
    assert np.array_equal(default_x0(ConstraintSet("l1_ball", 2.0, dim=3)), np.zeros(3))
    assert np.array_equal(default_x0(ConstraintSet("linf_box", 2.0, dim=3)), np.zeros(3))
    s = default_x0(ConstraintSet("simplex", 2.0, dim=3))
    assert np.array_equal(s, [2.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="needs dim"):
        default_x0(ConstraintSet("l1_ball", 2.0))


def test_config_validation():
    est = EstimatorConfig(kind="full")
    with pytest.raises(ValueError):
        SolverConfig(algorithm="bogus", K=5, schedule="classic_fw", estimator_cfg=est)
    with pytest.raises(ValueError):
        SolverConfig(algorithm="sarah_fw", K=5, schedule="classic_fw", estimator_cfg=est)
    with pytest.raises(ValueError, match="K must be >= 1"):
        fw_config(0)
    with pytest.raises(ValueError, match="unknown schedule"):
        SolverConfig(algorithm="fw", K=5, schedule="bogus", estimator_cfg=est)
    with pytest.raises(ValueError):
        SolverConfig(algorithm="fw", K=5, schedule="classic_fw", estimator_cfg=est,
                     record_every=0)
    with pytest.raises(ValueError, match="gap_every must be >= 0"):
        fw_config(5, gap_every=-1)
    for seeds in ((), 3, [1, 2]):
        with pytest.raises(ValueError, match="seeds"):
            SolverConfig(algorithm="fw", K=5, schedule="classic_fw", estimator_cfg=est,
                         seeds=seeds)


@pytest.mark.parametrize("field,value", [
    ("K", 5.5), ("K", True), ("K", np.float64(5.0)),
    ("record_every", 2.5), ("record_every", True),
    ("gap_every", 3.5), ("gap_every", False), ("gap_every", "2"),
])
def test_counts_must_be_integers(field, value):
    # accepted, record_every = 2.5 would record rows at k = 0, 5, 10, 12 of
    # K = 12, gap_every = 3.5 a gap at k = 0 alone, and K = True one step
    with pytest.raises(ValueError, match=f"{field} must be an integer, got"):
        fw_config(**{"K": 5, field: value})
    counts = {"K": np.int64(5), "record_every": np.int32(2), "gap_every": np.uint8(3)}
    assert len(solve(fw_config(**counts), tiny_objective(), ConstraintSet("l1_ball", 1.0),
                     np.zeros(4)).runs[0].trace.rows) == 4  # rows 0, 2, 4 and K


def test_cold_start_saga_sarah_makes_no_full_pass(monkeypatch):
    # the paper's SAGA-SARAH-FW start: one sampled gradient and an empty
    # table, then 2b SFO a step and no pass over all n rows
    obj = tiny_objective(n=300, d=40, seed=5)
    cset = ConstraintSet("l1_ball", 2.0, dim=obj.d)
    b, K = 3, 200
    passes = []
    mean_rows = Objective.mean_rows

    def counted(self, c):
        passes.append(len(c))
        return mean_rows(self, c)

    def saga_solve(cold_start):
        est = EstimatorConfig(kind="saga_sarah", b=b, lam=0.01, cold_start=cold_start)
        cfg = SolverConfig("saga_sarah_fw", K, "theorem3", est, seeds=(4, 9),
                           gap_every=0, record_every=7)
        return solve(cfg, obj, cset, default_x0(cset)).runs

    monkeypatch.setattr(Objective, "mean_rows", counted)
    for run in saga_solve(cold_start=True):
        assert [r.k for r in run.trace.rows] == [*range(0, K, 7), K]
        assert [r.sfo for r in run.trace.rows] == [1 + 2 * b * r.k for r in run.trace.rows]
    assert passes == []
    # the table start, for contrast: one full pass per seed at x0
    assert [run.trace.rows[0].sfo for run in saga_solve(cold_start=False)] == [obj.n, obj.n]
    assert passes == [obj.n, obj.n]


def test_step_size_rule_reads_the_run(monkeypatch):
    # theorem1's first step is the plateau p/2 of the estimator's own p:
    # from x0 = 0 the first iterate is exactly eta_0 * s_0.
    obj = tiny_objective(n=10, d=4, seed=8)
    cset = ConstraintSet("l1_ball", 2.0, dim=obj.d)
    x0 = np.zeros(obj.d)
    p = 0.02
    cfg = SolverConfig("sarah_fw", 50, "theorem1", EstimatorConfig(kind="sarah", b=2, p=p))
    iterates = {}
    solve(cfg, obj, cset, x0, callback=lambda k, x: iterates.setdefault(k, x.copy()))
    s0 = lmo(cset, obj.grad_full(x0))
    assert np.array_equal(iterates[1], (p / 2.0) * s0)

    # A rule whose parameters the run lacks or violates fails before any
    # estimator update: theorem1 without p, theorem3 with b > n.
    def no_update(self, x_new, x_old, k):
        raise AssertionError("estimator updated before the step-size check")

    monkeypatch.setattr(FullGradEstimator, "update", no_update)
    monkeypatch.setattr(SagaSarahEstimator, "update", no_update)
    with pytest.raises(ValueError, match="theorem1 schedule needs p"):
        solve(SolverConfig("fw", 5, "theorem1", EstimatorConfig(kind="full")),
              obj, cset, x0)
    too_big = EstimatorConfig(kind="saga_sarah", b=obj.n + 1, lam=0.5)
    with pytest.raises(ValueError, match="theorem3 schedule needs 1 <= b <= n"):
        solve(SolverConfig("saga_sarah_fw", 5, "theorem3", too_big), obj, cset, x0)


def test_fw_evaluates_the_loss_terms_once_per_iterate():
    # the estimate, the row's loss and the gap at x_k share one expit of the
    # margins: K + 1 iterates, K + 1 calls on all n samples
    obj = tiny_objective("nlls", n=10, d=4, seed=9)
    cset = ConstraintSet("linf_box", 2.0, dim=obj.d)
    sizes = []
    expit = obj._expit
    obj._expit = lambda z: sizes.append(len(z)) or expit(z)
    solve(fw_config(12, gap_every=1), obj, cset, np.zeros(obj.d))
    assert sizes.count(obj.n) == 12 + 1


def test_fw_gap_rows_reuse_the_estimate(monkeypatch):
    # fw's estimate at x_k is grad f(x_k) from the same margins the gap
    # reads, so gap rows add no gradient pass and keep the bits of one
    obj = tiny_objective(n=10, d=4, seed=9)
    cset = ConstraintSet("linf_box", 2.0, dim=obj.d)
    iterates = []
    calls = []
    grad_full = Objective.grad_full
    monkeypatch.setattr(Objective, "grad_full",
                        lambda self, w, z=None: calls.append(1) or grad_full(self, w, z))
    (res,) = solve(fw_config(12, gap_every=1), obj, cset, np.zeros(obj.d),
                   callback=lambda k, x: iterates.append(x.copy())).runs
    assert len(calls) == 1 + 12  # the initial estimate and one per update
    assert (res.gap_sfo_total, res.gap_lmo_total) == (13 * obj.n, 13)
    # on the box every margin read is a fresh pass, so fw_gap alone agrees
    monkeypatch.undo()
    assert [r.gap for r in res.trace.rows] == [fw_gap(obj, cset, x) for x in iterates]
