"""Property tests: the batch kernel on scipy's compiled CSR loops against X[S].

``Batch(obj, S)`` must reproduce scipy's row-slice products bit for bit
on any CSR shape, including empty rows, duplicate indices in S, b = 1 and
b = n, and with int32 or int64 index arrays; so must the full passes
``Objective.margins`` and ``mean_rows`` against ``X @ w`` and ``X.T @ c``,
and a block of m batches against each of its batches alone; and so must
``Objective.add_column`` against numpy's ``z[rows] += c * values``. The kernel
calls the loops behind those products (``scipy.sparse._sparsetools``, a
private module), so this property is what fails if a scipy release changes
them. The loops check no bounds, so a ``Batch`` must reject a non-integer or
out-of-range S and a w or c of the wrong length itself, and a column add a z
of the wrong length or a column out of range. ``grad_batch`` must be the mean of the
per-sample gradients up to the rounding of the two summation orders; and
one Objective must serve batches from several threads at once. A grid must
import neither the ``scipy.sparse`` nor the ``scipy.special`` package: the
kernels load their two compiled modules from their files, the same module
objects as scipy's own imports in either order, and fall back to those
imports, with the same output bytes, when the files are not there.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stochfw import data as data_module
from stochfw.data import Dataset
from stochfw.objectives import Batch, Objective, _compiled, _load_compiled

from conftest import binary_sparse_libsvm_text, run_python, separable_libsvm_text
from conftest import sparse_objectives as objectives

_VALUES = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def batches(draw, n):
    """b = 1, b = n (every row once), or any draw with duplicates allowed."""
    shape = draw(st.sampled_from(["single", "all", "any"]))
    if shape == "single":
        return np.array([draw(st.integers(0, n - 1))])
    if shape == "all":
        return np.arange(n)
    return np.array(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)))


def vectors(size):
    return st.lists(_VALUES, min_size=size, max_size=size).map(np.array)


def assert_kernel_matches_scipy(obj, data):
    S = data.draw(batches(obj.n))
    w = data.draw(vectors(obj.d))
    c = data.draw(vectors(len(S)))
    B = Batch(obj, S)
    X = obj.dataset.to_csr()
    XS = X[S]
    assert B.indices.dtype == obj.dataset.indices.dtype
    assert np.array_equal(B.margins(w), np.asarray(XS @ w).ravel())
    assert np.array_equal(B.scatter(c), np.asarray(XS.T @ c).ravel())
    assert np.array_equal(B.y, obj.y[S])
    # the full passes run the same loops over all n rows
    c_all = data.draw(vectors(obj.n))
    assert np.array_equal(obj.margins(w), np.asarray(X @ w).ravel())
    assert np.array_equal(obj.mean_rows(c_all), np.asarray(X.T @ c_all).ravel() / obj.n)

    # a block of m batches, one per seed, is each seed's batch bit for bit
    m = data.draw(st.integers(1, 4))
    S = np.array([data.draw(st.lists(st.integers(0, obj.n - 1), min_size=len(S),
                                      max_size=len(S))) for _ in range(m)])
    W = np.array([data.draw(vectors(obj.d)) for _ in range(m)])
    C = np.array([data.draw(vectors(S.shape[1])) for _ in range(m)])
    B = Batch(obj, S)
    coefs = B.coefs(W)
    for t in range(m):
        alone = Batch(obj, S[t])
        assert np.array_equal(B.margins(W)[t], alone.margins(W[t]))
        assert np.array_equal(B.scatter(C)[t], alone.scatter(C[t]))
        assert np.array_equal(coefs[t], alone.coefs(W[t]))
    assert np.array_equal(B.y, obj.y[S])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_margins_and_scatter_match_scipy_bit_for_bit(data):
    assert_kernel_matches_scipy(data.draw(objectives()), data)


# the patch holds for the whole test, so one fixture serves every example
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_kernel_matches_scipy_on_int64_indices(monkeypatch, data):
    # a Dataset keeps int64 indices only at a d or nnz of 2^31 or more;
    # lowering the limit gets them on small shapes
    monkeypatch.setattr(data_module, "INDEX_LIMIT", 0)
    obj = data.draw(objectives())
    assert obj.dataset.indices.dtype == np.int64
    assert_kernel_matches_scipy(obj, data)


# the patch holds for the whole test, so one fixture serves every example
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_column_add_matches_numpy_bit_for_bit(monkeypatch, data):
    # every column, empty ones included, with c = 0, negative c and any other
    with monkeypatch.context() as patch:
        if data.draw(st.booleans(), label="int64 indices"):
            patch.setattr(data_module, "INDEX_LIMIT", 0)
        obj = data.draw(objectives())
    z = data.draw(vectors(obj.n))
    coefs = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), _VALUES)
    for i in range(obj.d):
        c = data.draw(coefs)
        rows, vals = obj.column(i)
        expect = z.copy()
        expect[rows] += c * vals
        obj.add_column(z, i, c)
        assert np.array_equal(z.view(np.uint64), expect.view(np.uint64))


def test_column_add_rejects_bad_z_and_columns(bc_logistic):
    # the compiled loop writes n entries of z and reads the column's bounds unchecked
    obj = bc_logistic
    for z in (np.zeros(obj.n - 1), np.zeros(obj.n + 1), np.zeros((obj.n, 1))):
        with pytest.raises(ValueError, match="z has shape"):
            obj.add_column(z, 0, 1.0)
    z = np.zeros(obj.n)
    for i in (-1, obj.d, obj.d + 1):
        with pytest.raises(IndexError):
            obj.add_column(z, i, 1.0)
    assert not z.any()


def assert_grad_batch_is_mean(obj, S, w):
    # Both sides average the same per-sample products; only the order of the
    # sums differs (np.mean sums pairwise from |S| = 8 on, the kernel in
    # storage order). Each mean of m terms is within m * eps/2 * mean|t| of
    # the exact one, so the two are within m * eps * mean|t| per coordinate.
    terms = np.array([obj.grad_batch([int(i)], w) for i in S])
    bound = len(S) * np.finfo(np.float64).eps * np.mean(np.abs(terms), axis=0)
    assert np.all(np.abs(obj.grad_batch(S, w) - terms.mean(axis=0)) <= bound)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_grad_batch_is_mean_of_sample_gradients(data):
    obj = data.draw(objectives())
    S = data.draw(batches(obj.n))
    w = data.draw(vectors(obj.d))
    assert_grad_batch_is_mean(obj, S, w)


def test_grad_batch_mean_differs_by_summation_order():
    # A case where the two sums differ by 1.78e-15, beyond an absolute 1e-15.
    values = [38.6, 10.2, -2.8, -29.3, -51.3, -57.9, 9.6, -37.1, 57.1, -47.1]
    labels = [1, -1, -1, -1, 1, -1, 1, 1, -1, 1]
    ds = Dataset(
        indptr=np.arange(11, dtype=np.int64),
        indices=np.zeros(10, dtype=np.int64),
        values=np.array(values),
        labels=np.array(labels, dtype=np.float64),
        d=1,
    )
    obj = Objective("logistic", ds)
    S, w = np.arange(10), np.zeros(1)
    expect = np.mean([obj.grad_batch([i], w) for i in S], axis=0)
    assert np.max(np.abs(obj.grad_batch(S, w) - expect)) > 1e-15
    assert_grad_batch_is_mean(obj, S, w)


def test_all_empty_rows_give_float_zeros():
    ds = Dataset(
        indptr=np.zeros(4, dtype=np.int64),
        indices=np.zeros(0, dtype=np.int64),
        values=np.zeros(0),
        labels=np.array([-1.0, 1.0, 1.0]),
        d=2,
    )
    B = Batch(Objective("logistic", ds), [2, 0, 2])
    for out, size in ((B.margins(np.ones(2)), 3), (B.scatter(np.ones(3)), 2)):
        assert out.dtype == np.float64
        assert np.array_equal(out, np.zeros(size))


def test_batch_rejects_bad_indices(bc_logistic):
    # the compiled gather reads any index it is given, so a Batch must check S
    n, w = bc_logistic.n, np.zeros(bc_logistic.d)
    # 2**63 is a uint64 array, range-checked before any cast could wrap it
    for S in ([n], [-1], [0, n + 5], [2**40], [-(2**40)], [2**63]):
        with pytest.raises(IndexError):
            Batch(bc_logistic, S)
    for S in ([[0], [n]], [[-1, 0]]):  # an (m, b) block, checked as a vector is
        with pytest.raises(IndexError):
            Batch(bc_logistic, S)
    # no index is truncated from a float or read from a bool, and 2**70
    # (an object array) is rejected, not left to overflow the int64 cast
    for S in ([[[0, 1]]], [1.7], [0.0], [True], [True, False], [[0.5]], [2**70]):
        with pytest.raises(ValueError):
            Batch(bc_logistic, S)
        with pytest.raises(ValueError):
            bc_logistic.grad_batch(S, w)
    with pytest.raises(ValueError):
        bc_logistic.loss_sample(1.9, w)
    # an empty S is a batch of size 0, which grad_batch alone refuses
    assert Batch(bc_logistic, []).size == 0
    with pytest.raises(ValueError, match="empty batch"):
        bc_logistic.grad_batch([], w)
    # a block of batches reads a block of iterates, so the vector API rejects it
    with pytest.raises(ValueError):
        bc_logistic.grad_batch([[0, 1]], w)


def test_batch_rejects_vectors_of_wrong_length(bc_logistic):
    # the compiled loops read d entries of w and |S| of c unchecked
    d = bc_logistic.d
    B = Batch(bc_logistic, [0, 3, 3])
    for w in (np.ones(d - 1), np.ones(d + 1), np.ones((d, 1))):
        for call in (B.margins, B.coefs):
            with pytest.raises(ValueError, match="w has shape"):
                call(w)
    for c in (np.ones(2), np.ones(4), np.ones(d), np.ones((3, 1))):
        with pytest.raises(ValueError, match="c has shape"):
            B.scatter(c)
    # a block of two batches reads (2, d) iterates and (2, |S|) weights
    B = Batch(bc_logistic, [[0, 3, 3], [1, 2, 0]])
    for w in (np.ones(d), np.ones((1, d)), np.ones((2, d + 1)), np.ones((3, d))):
        for call in (B.margins, B.coefs):
            with pytest.raises(ValueError, match="w has shape"):
                call(w)
    for c in (np.ones(3), np.ones((1, 3)), np.ones((2, 2))):
        with pytest.raises(ValueError, match="c has shape"):
            B.scatter(c)
    for w in (np.ones(d - 1), np.ones((2, d))):
        with pytest.raises(ValueError, match="w has shape"):
            bc_logistic.margins(w)
    with pytest.raises(ValueError, match="c has shape"):
        bc_logistic.mean_rows(np.ones(bc_logistic.n - 1))


def test_batch_rejects_block_too_wide_for_index_dtype():
    # seed t's column indices are shifted by t d in the dataset's index
    # dtype, so m d must stay below 2^31 for int32; one row keeps it small
    d = 2**30
    ds = Dataset(indptr=np.array([0, 1]), indices=np.array([d - 1]),
                 values=np.array([1.0]), labels=np.array([1.0]), d=d)
    obj = Objective("logistic", ds)
    assert ds.indices.dtype == np.int32
    with pytest.raises(ValueError, match="too wide"):
        Batch(obj, [[0], [0]])
    assert Batch(obj, [[0]]).indices.tolist() == [d - 1]


# a grid of every algorithm and both losses through ``stochfw.cli.main`` in a
# fresh interpreter; the last line lists the scipy packages it imported.
# argv: dataset, output directory, then the prelude's own arguments
GRID = """
import sys
{prelude}
from stochfw.cli import main
for loss in ("logistic", "nlls"):
    assert main(["run", "--dataset", sys.argv[1], "--loss", loss, "--K", "30",
                 "--alg", "fw,sarah_fw,saga_sarah_fw,momentum_fw", "--seed", "0,1",
                 "--out", sys.argv[2] + "/" + loss]) == 0
print([m for m in ("scipy.sparse", "scipy.special") if m in sys.modules])
"""


def grid_bytes(out):
    return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.fixture
def grid_dataset(tmp_path):
    path = tmp_path / "grid.libsvm"
    path.write_text(separable_libsvm_text(40, 6, seed=2))
    return path


def test_import_does_not_load_scipy_sparse(grid_dataset, tmp_path):
    # the kernels load scipy's two compiled modules from their files; importing
    # the scipy.sparse and scipy.special packages took about 18 MB of a
    # mushrooms-shape grid's peak RSS
    out = tmp_path / "out"
    assert run_python(GRID.format(prelude=""), grid_dataset, out) == "[]"
    assert len(grid_bytes(out)) == 18  # 8 traces and a summary per loss


@pytest.mark.parametrize("order", ["before", "after"])
def test_compiled_modules_are_scipys_in_either_import_order(tmp_path, order):
    # the packages imported before stochfw, or after its standalone load: the
    # same module objects either way, so every kernel keeps scipy's bits
    code = """
import sys
import numpy as np
before = sys.argv[1] == "before"
if before:
    import scipy.sparse, scipy.special
from stochfw.data import normalize_labels, parse_libsvm
from stochfw.objectives import Objective
ds = normalize_labels(parse_libsvm(open(sys.argv[2], "rb").read()), "logistic")
obj = Objective("logistic", ds)
rng = np.random.default_rng(5)
w, c, t = rng.normal(size=obj.d), rng.normal(size=obj.n), rng.normal(scale=40, size=999)
z, g, s = obj.margins(w), obj.mean_rows(c), obj._expit(t)
assert before == ("scipy.sparse" in sys.modules)
if not before:
    import scipy.sparse, scipy.special
from scipy.sparse import _sparsetools
X = obj.dataset.to_csr()
assert obj._loops is _sparsetools and obj._expit is scipy.special.expit
assert z.tobytes() == (X @ w).tobytes()
assert g.tobytes() == ((X.T @ c) / obj.n).tobytes()
assert s.tobytes() == scipy.special.expit(t).tobytes()
print("ok")
"""
    data = tmp_path / "data.libsvm"
    data.write_text(binary_sparse_libsvm_text(300, 40, seed=4))
    assert run_python(code, order, data) == "ok"


def test_compiled_modules_fall_back_to_the_packages(tmp_path):
    # a scipy laid out otherwise: no files at all, or an _special_ufuncs
    # without expit; the packages give the same functions
    import scipy.special
    from scipy.sparse import _sparsetools

    assert _compiled() == (_sparsetools, scipy.special.expit)
    odd = tmp_path / "odd"
    for package, name in (("sparse", "_sparsetools"), ("special", "_special_ufuncs")):
        (odd / package).mkdir(parents=True)
        (odd / package / f"{name}.py").write_text("")
    for search in ([], [str(tmp_path / "bare")], [str(odd)]):
        loops, expit = _load_compiled(search)
        assert loops is _sparsetools and expit is scipy.special.expit
    assert sys.modules["scipy.sparse._sparsetools"] is _sparsetools


def test_fallback_grid_is_byte_identical(grid_dataset, tmp_path):
    # the search pointed at a directory without the files: the grid imports
    # the packages and writes the same bytes as the standalone load
    prelude = ("import functools, stochfw.objectives as o\n"
               "o._compiled = functools.cache(functools.partial(o._load_compiled, [sys.argv[3]]))")
    out, fallback = tmp_path / "out", tmp_path / "fallback"
    (tmp_path / "empty").mkdir()
    assert run_python(GRID.format(prelude=""), grid_dataset, out) == "[]"
    loaded = run_python(GRID.format(prelude=prelude), grid_dataset, fallback, tmp_path / "empty")
    assert loaded == "['scipy.sparse', 'scipy.special']"
    assert grid_bytes(fallback) == grid_bytes(out)


def test_one_objective_serves_many_threads(mushrooms_scale_logistic):
    # Objective is public, and a caller may share one across its own threads;
    # the kernel keeps no scratch state on it, so interleaved batches must
    # not disturb each other.
    obj = mushrooms_scale_logistic
    rng = np.random.default_rng(3)
    work = [(rng.integers(0, obj.n, size=82), rng.normal(size=obj.d)) for _ in range(24)]
    expect = [obj.grad_batch(S, w) for S, w in work]
    failures = []

    def worker(t):
        try:
            for _ in range(50):
                for j in range(t, len(work), 6):
                    if not np.array_equal(obj.grad_batch(*work[j]), expect[j]):
                        failures.append(j)
        except Exception as exc:  # reported by the assert below
            failures.append(exc)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert failures == []
