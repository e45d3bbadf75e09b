import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stochfw.estimators import (
    EstimatorConfig,
    FullGradEstimator,
    SarahEstimator,
    init_estimator,
)
from stochfw.objectives import Batch
from stochfw.reference import enumerate_batches, expected_estimator_update

from conftest import (
    run_python,
    scripted,
    separable_libsvm_text,
    sparse_objectives,
    tiny_objective,
)


@pytest.fixture
def obj():
    return tiny_objective(n=6, d=4, seed=0)


def random_points(obj, seed=1):
    rng = np.random.default_rng(seed)
    x_old = rng.normal(size=obj.d)
    x_new = x_old + 0.1 * rng.normal(size=obj.d)
    return x_new, x_old


def test_init_full_and_sarah_start_at_full_gradient(obj):
    x0 = np.ones(obj.d)
    for kind in ("full", "sarah", "momentum"):
        cfg = EstimatorConfig(kind=kind, b=1, p=0.5 if kind == "sarah" else None)
        est = init_estimator(cfg, obj, x0, seed=0)
        assert np.array_equal(est.g[0], obj.grad_full(x0))
        assert est.sfo_count == obj.n


def test_init_saga_default_fills_table(obj):
    x0 = np.ones(obj.d)
    est = init_estimator(EstimatorConfig(kind="saga_sarah", b=2, lam=0.1), obj, x0, 0)
    assert est.sfo_count == obj.n
    assert np.max(np.abs(est.saga_avg - obj.grad_full(x0))) <= 1e-15
    assert np.max(np.abs(est.g - obj.grad_full(x0))) <= 1e-15
    assert np.max(np.abs(est.table_mean() - est.saga_avg)) <= 1e-15


def test_init_saga_cold_start(obj):
    x0 = np.ones(obj.d)
    cfg = EstimatorConfig(kind="saga_sarah", b=2, lam=0.1, cold_start=True)
    est = init_estimator(cfg, obj, x0, seed=3)
    assert est.sfo_count == 1
    assert np.array_equal(est.saga_avg[0], np.zeros(obj.d))
    assert np.array_equal(est.table_coefs[0], np.zeros(obj.n))
    # g equals one of the per-sample gradients
    per_sample = [obj.grad_batch([i], x0) for i in range(obj.n)]
    assert any(np.array_equal(est.g[0], gi) for gi in per_sample)


def test_sarah_p1_always_refreshes(obj):
    x_new, x_old = random_points(obj)
    est = init_estimator(EstimatorConfig(kind="sarah", b=2, p=1.0), obj, x_old, 0)
    for k in range(10):
        est.update(x_new, x_old, k)
        assert np.array_equal(est.g[0], obj.grad_full(x_new))
    assert est.refreshes == [10]


def test_sarah_no_move_keeps_estimate_on_batch_branch(obj):
    x_new, x_old = random_points(obj)
    est = init_estimator(EstimatorConfig(kind="sarah", b=2, p=0.5), obj, x_old, 0)
    g_before = est.g.copy()
    scripted(est, refresh=False).update(x_old, x_old, 0)
    assert np.array_equal(est.g, g_before)


def test_sarah_refresh_consumes_exactly_one_rng_draw(obj):
    x_new, x_old = random_points(obj)
    seed = 42
    est = init_estimator(EstimatorConfig(kind="sarah", b=2, p=1.0), obj, x_old, seed)
    est.update(x_new, x_old, 0)  # refresh branch: one uniform draw
    twin = np.random.default_rng(seed)
    twin.random()
    assert est.rngs[0].random() == twin.random()


# one algorithm's grid over both losses, the l1 ball and the box, seeds 0
# and 1, through ``stochfw.cli.main`` in a fresh interpreter; the last line
# says whether numpy.random was loaded. argv: a directory holding grid.libsvm
# and a config file per constraint, then the algorithm
ALG_GRID = """
import sys
from stochfw.cli import main
work = sys.argv[1]
for loss in ("logistic", "nlls"):
    for constraint in ("l1_ball", "linf_box"):
        assert main(["run", "--dataset", f"{work}/grid.libsvm", "--loss", loss,
                     "--config", f"{work}/{constraint}.cfg", "--alg", sys.argv[2],
                     "--K", "30", "--seed", "0,1",
                     "--out", f"{work}/out/{loss}-{constraint}"]) == 0
print("numpy.random" in sys.modules)
"""


@pytest.mark.parametrize("alg, draws", [("fw", False), ("sarah_fw", True)])
def test_only_drawing_estimators_load_numpy_random(tmp_path, alg, draws):
    # numpy loads numpy.random at its first use, about 6 MB of a fresh
    # process's peak RSS; fw draws nothing, so its grid never loads it
    (tmp_path / "grid.libsvm").write_text(separable_libsvm_text(40, 6, seed=2))
    for constraint in ("l1_ball", "linf_box"):
        (tmp_path / f"{constraint}.cfg").write_text(f"constraint = {constraint}\n")
    assert run_python(ALG_GRID, tmp_path, alg) == str(draws)
    # two traces and a summary for each loss and constraint
    assert len(list((tmp_path / "out").rglob("*.csv"))) == 4 * 3


def test_full_estimator_holds_no_rng(obj):
    est = init_estimator(EstimatorConfig(kind="full"), obj, np.ones((2, obj.d)), (0, 1))
    assert isinstance(est, FullGradEstimator)
    assert not hasattr(est, "rngs")
    assert not hasattr(est, "draw_batch")


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 2**31 - 1), b=st.integers(1, 64), steps=st.integers(1, 40),
       seed=st.integers(0, 2**64 - 1))
def test_block_draw_equals_per_step_draws(n, b, steps, seed):
    # the estimators draw a block of steps at once on this numpy guarantee
    block_rng, step_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    block = block_rng.integers(0, n, size=(steps, b))
    per_step = np.array([step_rng.integers(0, n, size=b) for _ in range(steps)])
    assert block.dtype == per_step.dtype
    assert np.array_equal(block, per_step)
    assert block_rng.random() == step_rng.random()


def per_step_batches(cfg, n, seeds, updates):
    """The batches an estimator's updates take when every draw comes from its
    seed's RNG one step at a time, coin first: one (m', b) block per update,
    after saga_sarah's cold-start sample indices."""
    twins = [np.random.default_rng(seed) for seed in seeds]

    def draw(rng):
        return rng.integers(0, n, size=cfg.b)

    batches = [np.array([rng.integers(0, n)]) for rng in twins] if cfg.cold_start else []
    for _ in range(updates):
        if cfg.kind == "sarah":
            rows = [draw(rng) for rng in twins if not rng.random() < cfg.p]
        else:
            rows = [draw(rng) for rng in twins]
        if rows:
            batches.append(np.array(rows))
    return batches


# n = 3: batches repeat indices, and b = 100 exceeds n
@pytest.mark.parametrize("n", [120, 3], ids=["n120", "n3"])
@pytest.mark.parametrize("b", [2, 100])  # a block of 1024 steps, and of 20
@pytest.mark.parametrize("seeds", [5, (5, 9)], ids=["one-seed", "two-seeds"])
@pytest.mark.parametrize("params", [
    {"kind": "momentum"},
    {"kind": "saga_sarah", "lam": 0.2},
    {"kind": "saga_sarah", "lam": 0.2, "cold_start": True},
    {"kind": "sarah", "p": 0.3},
], ids=["momentum", "saga_sarah", "saga_sarah-cold", "sarah"])
def test_batches_are_the_per_step_draws(monkeypatch, params, seeds, b, n):
    obj = tiny_objective(n=n, d=4, seed=0)
    x_new, x_old = random_points(obj)
    if not isinstance(seeds, int):
        x_new, x_old = np.tile(x_new, (len(seeds), 1)), np.tile(x_old, (len(seeds), 1))
    seen = []
    gather = Batch.__init__

    def recording(self, obj, S):
        seen.append(np.array(S))
        gather(self, obj, S)

    monkeypatch.setattr(Batch, "__init__", recording)
    cfg = EstimatorConfig(b=b, **params)
    est = init_estimator(cfg, obj, x_old, seeds)
    for k in range(50):
        est.update(x_new, x_old, k)
    want = per_step_batches(cfg, obj.n, np.atleast_1d(seeds), 50)
    assert len(seen) == len(want)
    for got, expected in zip(seen, want):
        assert np.array_equal(got, expected)


@st.composite
def small_sparse_cases(draw):
    """A random sparse dataset (n 2-5, d 1-4; rows and columns may be all
    zero) bound to either loss, with x_new, x_old and an estimate g0."""
    obj = draw(sparse_objectives(n=(2, 5), d=(1, 4), bound=2.0))
    vector = st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=obj.d, max_size=obj.d)
    return (obj, *(np.array(draw(vector)) for _ in range(3)))


def fixed_case(g_seed):
    obj = tiny_objective(n=6, d=4, seed=0)
    return (obj, *random_points(obj), np.random.default_rng(g_seed).normal(size=obj.d))


# b in 1-2; the enumeration holds every batch with a repeated index
@settings(max_examples=40, deadline=None)
@given(case=small_sparse_cases(), b=st.integers(1, 2))
@example(case=fixed_case(7), b=2)
def test_sarah_expectation_identity(case, b):
    obj, x_new, x_old, g0 = case
    p = 0.3

    enum = expected_estimator_update(
        "sarah", obj, {"g": g0}, x_new, x_old, b=b, p=p
    )
    closed = p * obj.grad_full(x_new) + (1 - p) * (
        g0 + obj.grad_full(x_new) - obj.grad_full(x_old)
    )
    assert np.max(np.abs(enum - closed)) <= 1e-12

    # the estimator's own update path, averaged over every forced outcome
    cfg = EstimatorConfig(kind="sarah", b=b, p=p)
    batches = enumerate_batches(obj.n, b)
    acc = np.zeros(obj.d)
    for S in batches:
        est = init_estimator(cfg, obj, x_old, 0)
        est.g[0] = g0
        scripted(est, refresh=False, batch=S).update(x_new, x_old, 0)
        acc += est.g[0]
    est = init_estimator(cfg, obj, x_old, 0)
    est.g[0] = g0
    scripted(est, refresh=True).update(x_new, x_old, 0)
    impl = p * est.g[0] + (1 - p) * acc / len(batches)
    assert np.max(np.abs(impl - enum)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(case=small_sparse_cases(), b=st.integers(1, 2))
@example(case=fixed_case(8), b=2)
def test_saga_sarah_expectation_identity(case, b):
    obj, x_new, x_old, g0 = case
    lam = 0.25
    # stale table: y_i = 0.7 * grad f_i(x_old)
    table_coefs = 0.7 * obj.grad_coefs(x_old)
    table = 0.7 * np.array([obj.grad_batch([i], x_old) for i in range(obj.n)])

    enum = expected_estimator_update(
        "saga_sarah", obj, {"g": g0, "table": table}, x_new, x_old,
        b=b, lam=lam,
    )
    cfg = EstimatorConfig(kind="saga_sarah", b=b, lam=lam)
    batches = enumerate_batches(obj.n, b)
    acc = np.zeros(obj.d)
    for S in batches:
        est = init_estimator(cfg, obj, x_old, 0)
        est.g[0] = g0
        est.table_coefs[0] = table_coefs
        est.saga_avg = est.table_mean()
        scripted(est, batch=S).update(x_new, x_old, 0)
        acc += est.g[0]
    assert np.max(np.abs(acc / len(batches) - enum)) <= 1e-12


def test_saga_sarah_fresh_table_closed_form(obj):
    # y_i = grad f_i(x_old) for all i: E[g'] = grad f(new) - grad f(old)
    #                                          + (1-lam) g + lam grad f(old)
    x_new, x_old = random_points(obj)
    g0 = np.random.default_rng(9).normal(size=obj.d)
    lam = 0.25
    table = np.array([obj.grad_batch([i], x_old) for i in range(obj.n)])
    enum = expected_estimator_update(
        "saga_sarah", obj, {"g": g0, "table": table}, x_new, x_old,
        b=2, lam=lam,
    )
    closed = (
        obj.grad_full(x_new) - obj.grad_full(x_old) + (1 - lam) * g0
        + lam * obj.grad_full(x_old)
    )
    assert np.max(np.abs(enum - closed)) <= 1e-12


def test_saga_sarah_collapses_to_full_gradient(obj):
    # lam = 1, b = n, S = [n]: every term telescopes to grad f(x_new)
    x_new, x_old = random_points(obj)
    est = init_estimator(
        EstimatorConfig(kind="saga_sarah", b=obj.n, lam=1.0), obj, x_old, 0
    )
    scripted(est, batch=range(obj.n)).update(x_new, x_old, 0)
    assert np.max(np.abs(est.g - obj.grad_full(x_new))) <= 1e-12


def test_saga_sarah_stationary_update(obj):
    # x_new = x_old with a fresh table: g' = (1-lam) g + lam grad f(x_old)
    _, x_old = random_points(obj)
    lam = 0.4
    est = init_estimator(
        EstimatorConfig(kind="saga_sarah", b=3, lam=lam), obj, x_old, 0
    )
    g0 = est.g.copy()
    scripted(est, batch=[0, 2, 4]).update(x_old, x_old, 0)
    expect = (1 - lam) * g0 + lam * obj.grad_full(x_old)
    assert np.max(np.abs(est.g - expect)) <= 1e-12


def test_saga_write_back_keeps_each_samples_first_position(obj):
    # each sample's table entry and average delta come from its first
    # position in S, the positions np.unique(S, return_index=True) names;
    # later duplicates are zeros in the scatter, so the order of its sums
    # is pinned too
    x_new, x_old = random_points(obj)
    S = np.array([3, 1, 3, 0, 1, 3, 5, 0])
    est = init_estimator(EstimatorConfig(kind="saga_sarah", b=len(S), lam=0.2), obj, x_old, 0)
    table, avg = est.table_coefs[0].copy(), est.saga_avg[0].copy()
    scripted(est, batch=S).update(x_new, x_old, 0)
    B = Batch(obj, S)
    c_new = B.coefs(x_new)
    uniq, first = np.unique(S, return_index=True)
    delta = np.zeros(len(S))
    delta[first] = c_new[first] - table[uniq]
    table[uniq] = c_new[first]
    assert np.array_equal(est.table_coefs[0], table)
    assert np.array_equal(est.saga_avg[0], avg + B.scatter(delta) / obj.n)


def test_saga_table_consistency_after_random_updates(obj):
    est = init_estimator(
        EstimatorConfig(kind="saga_sarah", b=2, lam=0.2), obj, np.zeros(obj.d), 11
    )
    rng = np.random.default_rng(12)
    x = np.zeros(obj.d)
    for k in range(500):
        x_new = x + 0.01 * rng.normal(size=obj.d)
        est.update(x_new, x, k=k)
        x = x_new
    assert np.max(np.abs(est.saga_avg - est.table_mean())) <= 1e-10


@pytest.mark.parametrize("k", [0, 3])  # rho = 1 at k = 0: the batch gradient alone
def test_momentum_expectation_identity(obj, k):
    x_new, x_old = random_points(obj)
    g0 = np.random.default_rng(13).normal(size=obj.d)
    rho = (k + 1.0) ** (-2.0 / 3.0)
    enum = expected_estimator_update(
        "momentum", obj, {"g": g0}, x_new, x_old, b=2, k=k
    )
    closed = (1 - rho) * g0 + rho * obj.grad_full(x_new)
    assert np.max(np.abs(enum - closed)) <= 1e-12


def test_momentum_rho_one_takes_batch_gradient(obj):
    x_new, x_old = random_points(obj)
    cfg = EstimatorConfig(kind="momentum", b=2)
    est = init_estimator(cfg, obj, x_old, 0)
    scripted(est, batch=[1, 3]).update(x_new, x_old, 0)
    assert np.array_equal(est.g[0], obj.grad_batch([1, 3], x_new))


def test_momentum_full_batch_rho_one_is_full_gradient(obj):
    x_new, x_old = random_points(obj)
    cfg = EstimatorConfig(kind="momentum", b=obj.n)
    est = init_estimator(cfg, obj, x_old, 0)
    scripted(est, batch=np.arange(obj.n)).update(x_new, x_old, 0)
    assert np.max(np.abs(est.g - obj.grad_full(x_new))) <= 1e-12


def test_sfo_accounting_with_forced_branches(obj):
    x_new, x_old = random_points(obj)
    b = 2
    est = init_estimator(EstimatorConfig(kind="sarah", b=b, p=0.5), obj, x_old, 0)
    pattern = [True, False, False, True, False, False, False, True]
    scripted(est, refresh=pattern)
    deltas = []
    for k in range(len(pattern)):
        before = est.sfo_count
        est.update(x_new, x_old, k)
        deltas.append(est.sfo_count - before)
    k_full = sum(pattern)
    k_batch = len(pattern) - k_full
    assert est.sfo_count == obj.n + k_full * obj.n + 2 * b * k_batch
    assert deltas == [obj.n if refresh else 2 * b for refresh in pattern]
    assert est.refreshes == [k_full]


def test_saga_sfo_accounting(obj):
    x_new, x_old = random_points(obj)
    b = 3
    est = init_estimator(EstimatorConfig(kind="saga_sarah", b=b, lam=0.2), obj, x_old, 0)
    for k in range(25):
        est.update(x_new, x_old, k)
    assert est.sfo_count == obj.n + 2 * b * 25


def test_momentum_sfo_accounting(obj):
    x_new, x_old = random_points(obj)
    est = init_estimator(EstimatorConfig(kind="momentum", b=4), obj, x_old, 0)
    for k in range(10):
        est.update(x_new, x_old, k=k)
    assert est.sfo_count == obj.n + 4 * 10


def test_same_seed_same_draws(obj):
    x_new, x_old = random_points(obj)
    runs = []
    for _ in range(2):
        est = init_estimator(EstimatorConfig(kind="sarah", b=2, p=0.3), obj, x_old, 99)
        for k in range(20):
            est.update(x_new, x_old, k)
        runs.append((est.g.copy(), est.sfo_count, est.refreshes))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][1:] == runs[1][1:]


def test_config_validation(obj):
    with pytest.raises(ValueError):
        EstimatorConfig(kind="sarah", b=2)  # p missing
    with pytest.raises(ValueError):
        EstimatorConfig(kind="sarah", b=2, p=0.0)
    with pytest.raises(ValueError):
        EstimatorConfig(kind="saga_sarah", b=2)  # lam missing
    with pytest.raises(ValueError):
        EstimatorConfig(kind="full", b=0)
    with pytest.raises(ValueError):
        EstimatorConfig(kind="full", cold_start=True)
    with pytest.raises(ValueError):
        EstimatorConfig(kind="nope")
    with pytest.raises(ValueError, match="config kind 'full' does not match 'sarah'"):
        SarahEstimator(EstimatorConfig(kind="full"), obj, np.zeros((1, obj.d)), (0,))


@pytest.mark.parametrize("b", [2.5, 2.0, True, np.float64(3.0), "2"])
def test_batch_size_must_be_an_integer(b):
    with pytest.raises(ValueError, match="b must be an integer, got"):
        EstimatorConfig(kind="momentum", b=b)
    assert EstimatorConfig(kind="momentum", b=np.int64(3)).b == 3
