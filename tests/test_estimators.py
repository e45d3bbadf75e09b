import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stochfw.estimators import (
    EstimatorConfig,
    FullGradEstimator,
    SarahEstimator,
    _first_positions,
    init_estimator,
)
from stochfw.objectives import Batch
from stochfw.reference import enumerate_batches, expected_estimator_update

from conftest import (
    one_step,
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
    after saga_sarah's cold-start samples, each a one-seed block of one."""
    twins = [np.random.default_rng(seed) for seed in seeds]

    def draw(rng):
        return rng.integers(0, n, size=cfg.b)

    batches = [np.array([[rng.integers(0, n)]]) for rng in twins] if cfg.cold_start else []
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

    def recording(self, steps, t):
        gather(self, steps, t)
        seen.append(np.array(self.S))

    monkeypatch.setattr(Batch, "__init__", recording)
    cfg = EstimatorConfig(b=b, **params)
    est = init_estimator(cfg, obj, x_old, seeds)
    for k in range(50):
        est.update(x_new, x_old, k)
    want = per_step_batches(cfg, obj.n, np.atleast_1d(seeds), 50)
    assert len(seen) == len(want)
    for got, expected in zip(seen, want):
        assert np.array_equal(got, expected)


def _assert_same_batch(got, want):
    for name in ("S", "y", "indptr", "indices", "values"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert got.size == want.size


# n = 3: batches repeat indices, and b = 100 exceeds n
@pytest.mark.parametrize("n", [120, 3], ids=["n120", "n3"])
@pytest.mark.parametrize("b", [2, 100])  # a block of 1024 steps, and of 20
@pytest.mark.parametrize("seeds", [(5,), (5, 9)], ids=["one-seed", "two-seeds"])
@pytest.mark.parametrize("kind", ["momentum", "sarah"])  # blocks of many steps, and of one
def test_drawn_batches_equal_the_checked_batch_bit_for_bit(kind, seeds, b, n):
    # a Batch served from a prepared block is the public Batch of the same
    # draws: its triple, labels, margins and scatter, through two refills
    obj = tiny_objective(n=n, d=4, seed=0)
    cfg = EstimatorConfig(kind=kind, b=b, p=0.5 if kind == "sarah" else None)
    est = init_estimator(cfg, obj, np.zeros((len(seeds), obj.d)), seeds)
    twins = [np.random.default_rng(seed) for seed in seeds]
    rng = np.random.default_rng(8)
    for _ in range(2 * est._block_steps + 3):
        got = est.draw_batch(range(len(seeds)))
        want = one_step(obj, np.array([twin.integers(0, n, size=b) for twin in twins]))
        _assert_same_batch(got, want)
        w, c = rng.normal(size=(len(seeds), obj.d)), rng.normal(size=(len(seeds), b))
        assert got.margins(w).tobytes() == want.margins(w).tobytes()
        assert got.scatter(c).tobytes() == want.scatter(c).tobytes()


@pytest.mark.parametrize("bad", [-1, "n", 2**63], ids=["negative", "n", "2^63"])
@pytest.mark.parametrize("params", [
    {"kind": "momentum"}, {"kind": "saga_sarah", "lam": 0.2}, {"kind": "sarah", "p": 0.3},
], ids=["momentum", "saga_sarah", "sarah"])
def test_an_out_of_range_draw_raises_before_any_gather(monkeypatch, params, bad):
    # the gather reads any row it is given: a drawn block is range-checked
    # once, when it is drawn, before its first step's rows are copied
    obj = tiny_objective(n=6, d=4, seed=0)
    x_new, x_old = (np.tile(x, (2, 1)) for x in random_points(obj))
    est = init_estimator(EstimatorConfig(b=3, **params), obj, x_old, (0, 1))
    est.draw_refresh = lambda: [False, False]
    index = obj.n if bad == "n" else bad

    def draw_block(rng):
        S = rng.integers(0, obj.n, size=(est._block_steps, 3))
        if index >= 2**63:
            S = S.astype(np.uint64)
        S[-1, -1] = index  # in the block's last step
        return S

    gathers = []
    monkeypatch.setattr(est, "_draw_block", draw_block)
    monkeypatch.setattr(Batch, "__init__", lambda self, steps, t: gathers.append(t))
    with pytest.raises(IndexError):
        est.update(x_new, x_old, 0)
    assert gathers == []


def _first_by_minimum_at(S, n):
    """Each sample's first position in each batch of S, by the smallest
    position ``np.minimum.at`` leaves for it in an n-entry scratch."""
    b, first = S.shape[-1], np.zeros(S.shape, dtype=bool)
    for idx in np.ndindex(S.shape[:-1]):
        smallest = np.full(n, b)
        np.minimum.at(smallest, S[idx], np.arange(b))
        first[idx] = smallest[S[idx]] == np.arange(b)
    return first


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 8), steps=st.integers(1, 4), m=st.integers(1, 3), b=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
def test_first_positions_follow_the_minimum_at_rule(n, steps, m, b, seed):
    # blocks full of duplicates: n of at most 8 for up to 40 draws a batch
    S = np.random.default_rng(seed).integers(0, n, size=(steps, m, b))
    assert np.array_equal(_first_positions(S), _first_by_minimum_at(S, n))


@pytest.mark.parametrize("seeds", [(5,), (5, 9)], ids=["one-seed", "two-seeds"])
def test_saga_writes_back_each_steps_first_positions_across_refills(seeds):
    # n = 3 and b = 100: blocks of 20 steps, every batch full of duplicates;
    # each update writes its own batch's first positions into its own seed's
    # table, and the average moves by the scatter of their deltas alone, in
    # the order of those positions, through two refills
    obj = tiny_objective(n=3, d=4, seed=0)
    m = len(seeds)
    x_old = np.zeros((m, obj.d))
    est = init_estimator(EstimatorConfig(kind="saga_sarah", b=100, lam=0.2), obj, x_old, seeds)
    twins = [np.random.default_rng(seed) for seed in seeds]
    moves = np.random.default_rng(3)
    for k in range(45):
        x_new = x_old + 0.1 * moves.normal(size=x_old.shape)  # new table entries every step
        table, avg = est.table_coefs.copy(), est.saga_avg.copy()
        est.update(x_new, x_old, k)
        S = np.array([twin.integers(0, obj.n, size=100) for twin in twins])
        first = _first_by_minimum_at(S, obj.n)
        B = one_step(obj, S)
        c_new = B.coefs(x_new)
        delta = np.zeros(S.shape)
        for j in range(m):
            delta[j][first[j]] = c_new[j][first[j]] - table[j, S[j][first[j]]]
            table[j, S[j][first[j]]] = c_new[j][first[j]]
        assert est.table_coefs.tobytes() == table.tobytes(), k
        assert est.saga_avg.tobytes() == (avg + B.scatter(delta) / obj.n).tobytes(), k
        x_old = x_new


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
    B = one_step(obj, S)
    c_new = B.coefs(x_new[None])[0]
    uniq, first = np.unique(S, return_index=True)
    delta = np.zeros(len(S))
    delta[first] = c_new[first] - table[uniq]
    table[uniq] = c_new[first]
    assert np.array_equal(est.table_coefs[0], table)
    assert np.array_equal(est.saga_avg[0], avg + B.scatter(delta[None])[0] / obj.n)


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
