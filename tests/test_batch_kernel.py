"""Property tests: the gather/bincount batch kernel against scipy's X[S].

``Objective.batch(S)`` must reproduce scipy's row-slice products bit for bit
on any CSR shape, including empty rows, duplicate indices in S, b = 1 and
b = n; ``grad_batch`` must be the mean of the per-sample gradients; and
one Objective must serve batches from several threads at once.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochfw.data import Dataset
from stochfw.objectives import Objective

_VALUES = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def objectives(draw):
    """A random sparse dataset (rows may be empty) bound to either loss."""
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["logistic", "nlls"]))
    indptr, indices = [0], []
    for _ in range(n):
        cols = draw(st.sets(st.integers(0, d - 1), max_size=d))
        indices.extend(sorted(cols))
        indptr.append(len(indices))
    values = draw(st.lists(_VALUES, min_size=len(indices), max_size=len(indices)))
    low = -1.0 if kind == "logistic" else 0.0
    labels = draw(st.lists(st.sampled_from([low, 1.0]), min_size=n, max_size=n))
    ds = Dataset(
        indptr=np.asarray(indptr, dtype=np.int64),
        indices=np.asarray(indices, dtype=np.int64),
        values=np.asarray(values, dtype=np.float64),
        labels=np.asarray(labels, dtype=np.float64),
        d=d,
    )
    return Objective(kind, ds)


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


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_margins_and_scatter_match_scipy_bit_for_bit(data):
    obj = data.draw(objectives())
    S = data.draw(batches(obj.n))
    w = data.draw(vectors(obj.d))
    c = data.draw(vectors(len(S)))
    B = obj.batch(S)
    XS = obj.X[S]
    assert np.array_equal(B.margins(w), np.asarray(XS @ w).ravel())
    assert np.array_equal(B.scatter(c), np.asarray(XS.T @ c).ravel())
    assert np.array_equal(B.y, obj.y[S])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_grad_batch_is_mean_of_grad_sample(data):
    obj = data.draw(objectives())
    S = data.draw(batches(obj.n))
    w = data.draw(vectors(obj.d))
    expect = np.mean([obj.grad_sample(int(i), w) for i in S], axis=0)
    assert np.max(np.abs(obj.grad_batch(S, w) - expect)) <= 1e-15


def test_all_empty_rows_give_float_zeros():
    ds = Dataset(
        indptr=np.zeros(4, dtype=np.int64),
        indices=np.zeros(0, dtype=np.int64),
        values=np.zeros(0),
        labels=np.array([-1.0, 1.0, 1.0]),
        d=2,
    )
    B = Objective("logistic", ds).batch([2, 0, 2])
    for out, size in ((B.margins(np.ones(2)), 3), (B.scatter(np.ones(3)), 2)):
        assert out.dtype == np.float64
        assert np.array_equal(out, np.zeros(size))


def test_batch_rejects_bad_indices(bc_logistic):
    for S in ([bc_logistic.n], [-1], [0, bc_logistic.n + 5]):
        with pytest.raises(IndexError):
            bc_logistic.batch(S)
    with pytest.raises(ValueError):
        bc_logistic.batch([[0, 1]])


def test_one_objective_serves_many_threads(mushrooms_scale_logistic):
    # The CLI's pool threads share one Objective; the kernel keeps no scratch
    # state on it, so interleaved batches must not disturb each other.
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
