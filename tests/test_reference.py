import math

import numpy as np
import pytest

from stochfw.constraints import ConstraintSet, lmo
from stochfw.reference import (
    enumerate_batches,
    expected_estimator_update,
    finite_diff_grad,
    lmo_by_enumeration,
)

from conftest import tiny_objective


def test_enumeration_matches_closed_form_lmo():
    rng = np.random.default_rng(21)
    for kind in ("l1_ball", "simplex", "linf_box"):
        cset = ConstraintSet(kind, 2.0)
        for _ in range(300):
            g = rng.normal(size=5)
            assert np.array_equal(lmo_by_enumeration(cset, g), lmo(cset, g))


def test_enumeration_tie_breaks():
    cset = ConstraintSet("l1_ball", 1.5)
    assert np.array_equal(lmo_by_enumeration(cset, np.zeros(3)), [1.5, 0, 0])
    one_d = ConstraintSet("l1_ball", 2.0)
    assert np.array_equal(lmo_by_enumeration(one_d, np.array([-1.0])), [2.0])


def test_enumeration_budget():
    cset = ConstraintSet("linf_box", 1.0)
    with pytest.raises(ValueError):
        lmo_by_enumeration(cset, np.zeros(11))
    with pytest.raises(ValueError):
        enumerate_batches(9, 2)
    with pytest.raises(ValueError):
        enumerate_batches(6, 5)


def test_enumerate_batches_counts():
    assert len(enumerate_batches(6, 2)) == 36


def test_finite_diff_exact_on_linear_function():
    a = np.array([1.0, -2.0, 0.5])
    fd = finite_diff_grad(lambda w: float(a @ w), np.zeros(3), h=1e-3)
    assert fd == pytest.approx(a, rel=1e-10)


def test_finite_diff_flags_oversized_step():
    # softplus has curvature; h = 1 is far too coarse at this tolerance
    fn = lambda w: math.log1p(math.exp(w[0]))
    w = np.array([0.5])
    exact = 1.0 / (1.0 + math.exp(-0.5))
    good = finite_diff_grad(fn, w, h=1e-5)[0]
    coarse = finite_diff_grad(fn, w, h=1.0)[0]
    assert abs(good - exact) / exact <= 1e-5
    assert abs(coarse - exact) / exact > 1e-5


def test_finite_diff_rejects_bad_step():
    with pytest.raises(ValueError):
        finite_diff_grad(lambda w: 0.0, np.zeros(2), h=0.0)


def test_full_size_batch_expectation_is_deterministic():
    obj = tiny_objective(n=4, d=3, seed=1)
    rng = np.random.default_rng(2)
    x_old = rng.normal(size=3)
    x_new = x_old + 0.1 * rng.normal(size=3)
    g0 = rng.normal(size=3)
    # b = n over all 4^4 batches, batch branch only: the mean of the batch
    # means is the full mean, so it equals the deterministic update
    expect = expected_estimator_update(
        "sarah", obj, {"g": g0}, x_new, x_old, b=4, p=0.0,
    )
    det = g0 + obj.grad_full(x_new) - obj.grad_full(x_old)
    assert np.max(np.abs(expect - det)) <= 1e-12


def test_oracle_is_deterministic():
    obj = tiny_objective(n=5, d=3, seed=3)
    rng = np.random.default_rng(4)
    x_old = rng.normal(size=3)
    x_new = x_old + 0.05
    g0 = rng.normal(size=3)
    a = expected_estimator_update("sarah", obj, {"g": g0}, x_new, x_old,
                                  b=2, p=0.4)
    b = expected_estimator_update("sarah", obj, {"g": g0}, x_new, x_old,
                                  b=2, p=0.4)
    assert np.array_equal(a, b)
