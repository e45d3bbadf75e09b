import numpy as np
import pytest

from stochfw.constraints import ConstraintSet, lmo
from stochfw.data import parse_libsvm
from stochfw.metrics import Trace, TraceRow, fw_gap, min_gap_so_far, relative_suboptimality
from stochfw.objectives import Objective

from conftest import tiny_objective


def trace_from_values(f_values, gaps=None):
    t = Trace()
    gaps = gaps or [None] * len(f_values)
    for k, (f, g) in enumerate(zip(f_values, gaps)):
        t.append(TraceRow(k=k, sfo=k, lmo=k, f=f, gap=g, wall_ns=0))
    return t


def test_fw_gap_hand_value():
    # single sample y=1, x=(-2, 4): grad f(0) = -y x / 2 = (1, -2)
    obj = Objective("logistic", parse_libsvm("+1 1:-2 2:4\n"))
    cset = ConstraintSet("l1_ball", 1.0, dim=2)
    y0 = np.zeros(2)
    g = obj.grad_full(y0)
    assert g == pytest.approx([1.0, -2.0], abs=1e-15)
    # gap at the origin equals r * ||grad||_inf
    assert fw_gap(obj, cset, y0) == pytest.approx(2.0, rel=1e-14)


def test_fw_gap_zero_at_stationary_point():
    # two opposing samples cancel: grad f(0) = 0
    obj = Objective("logistic", parse_libsvm("+1 1:1\n-1 1:1\n"))
    cset = ConstraintSet("l1_ball", 1.0, dim=1)
    assert fw_gap(obj, cset, np.zeros(1)) == 0.0


def test_fw_gap_nonnegative_on_random_feasible_points():
    obj = tiny_objective(n=8, d=5, seed=3)
    cset = ConstraintSet("l1_ball", 2.0, dim=obj.d)
    rng = np.random.default_rng(0)
    for _ in range(200):
        y = rng.uniform(-1, 1, size=obj.d)
        y *= min(1.0, 2.0 / np.sum(np.abs(y)))  # project-ish into the ball
        assert fw_gap(obj, cset, y) >= 0.0


def test_fw_gap_matches_l1_closed_form():
    obj = tiny_objective(n=8, d=5, seed=4)
    r = 3.0
    cset = ConstraintSet("l1_ball", r, dim=obj.d)
    rng = np.random.default_rng(1)
    for _ in range(100):
        y = rng.uniform(-0.5, 0.5, size=obj.d)
        g = obj.grad_full(y)
        closed = float(g @ y) + r * float(np.max(np.abs(g)))
        assert abs(fw_gap(obj, cset, y) - closed) <= 1e-10


def test_fw_gap_consistent_with_lmo():
    obj = tiny_objective(n=8, d=5, seed=5)
    cset = ConstraintSet("simplex", 1.0, dim=obj.d)
    y = np.full(obj.d, 1.0 / obj.d)
    g = obj.grad_full(y)
    s = lmo(cset, g)
    assert fw_gap(obj, cset, y) == pytest.approx(float(g @ (y - s)), abs=1e-15)


def test_fw_gap_clamps_only_rounding_below_zero():
    # y = (2, 0) lies outside the unit l1 ball and grad = (-c, 0) picks the
    # vertex (1, 0), so gap = -c exactly; a given gradient needs no objective
    cset = ConstraintSet("l1_ball", 1.0, dim=2)
    y = np.array([2.0, 0.0])
    for c in (1e-12, 1e-13, 5e-324):
        assert fw_gap(None, cset, y, grad=np.array([-c, 0.0])) == 0.0
    for c in (np.nextafter(1e-12, 1.0), 1e-9):
        assert fw_gap(None, cset, y, grad=np.array([-c, 0.0])) == -c
    assert np.isnan(fw_gap(None, cset, y, grad=np.array([np.inf, 0.0])))


def test_relative_suboptimality_basic():
    t = trace_from_values([4.0, 3.0, 2.0])
    assert np.array_equal(relative_suboptimality(t, 2.0), [1.0, 0.5, 0.0])


def test_relative_suboptimality_constant_trace():
    t = trace_from_values([1.5, 1.5, 1.5])
    assert np.array_equal(relative_suboptimality(t, 1.5), [0.0, 0.0, 0.0])


def test_relative_suboptimality_bad_reference():
    t = trace_from_values([4.0, 3.0, 2.0])
    with pytest.raises(ValueError):
        relative_suboptimality(t, 2.5)
    with pytest.raises(ValueError, match="empty trace"):
        relative_suboptimality(Trace(), 0.0)


def test_relative_suboptimality_in_unit_interval():
    rng = np.random.default_rng(2)
    values = rng.uniform(1.0, 5.0, size=50)
    t = trace_from_values(list(values))
    rel = relative_suboptimality(t, 0.5)
    assert np.all((rel >= 0.0) & (rel <= 1.0))


def test_min_gap_so_far():
    t = trace_from_values([0, 0, 0], gaps=[3.0, 1.0, 2.0])
    assert np.array_equal(min_gap_so_far(t), [3.0, 1.0, 1.0])
    t_single = trace_from_values([0], gaps=[5.0])
    assert np.array_equal(min_gap_so_far(t_single), [5.0])
    with pytest.raises(ValueError):
        min_gap_so_far(trace_from_values([0, 1]))


def test_trace_append_enforces_monotonicity():
    t = Trace()
    t.append(TraceRow(k=0, sfo=5, lmo=1, f=1.0, gap=None, wall_ns=0))
    with pytest.raises(ValueError):
        t.append(TraceRow(k=0, sfo=6, lmo=2, f=1.0, gap=None, wall_ns=0))
    with pytest.raises(ValueError):
        t.append(TraceRow(k=1, sfo=4, lmo=2, f=1.0, gap=None, wall_ns=0))
