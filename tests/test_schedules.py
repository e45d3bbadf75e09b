import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochfw.estimators import EstimatorConfig
from stochfw.schedules import default_batch, default_params, eta


def test_theorem1_hand_values():
    assert eta("theorem1", 4, 10, p=0.5) == 0.25
    assert eta("theorem1", 5, 10, p=0.5) == 2.0 / 8.0
    assert eta("theorem1", 9, 10, p=0.5) == 2.0 / 12.0


def test_theorem1_small_horizon_is_flat():
    # K = 4 <= 2/p
    assert [eta("theorem1", k, 4, p=0.5) for k in range(4)] == [0.25] * 4


def test_classic_fw_values():
    assert eta("classic_fw", 0, 10) == 1.0
    assert eta("classic_fw", 2, 10) == 0.5


def test_sqrt_k_is_flat():
    assert all(eta("sqrt_k", k, 100) == 0.1 for k in range(100))


def test_theorem3_hand_values():
    rule = {"K": 100, "b": 10, "n": 50}  # 4n/b = 20 < K, k0 = 50
    assert eta("theorem3", 0, **rule) == 10.0 / 200.0
    assert eta("theorem3", 49, **rule) == 0.05
    assert eta("theorem3", 50, **rule) == 2.0 / 40.0
    assert eta("theorem3", 99, **rule) == 2.0 / (40.0 + 49.0)


@st.composite
def plateau_rules(draw):
    """(kind, K, rule parameters) of a theorem1 or theorem3 run."""
    kind = draw(st.sampled_from(["theorem1", "theorem3"]))
    K = draw(st.integers(1, 3000))
    if kind == "theorem1":
        # subnormals too; only a p whose half rounds to 0 is rejected
        p = draw(st.floats(0.0, 1.0, exclude_min=True).filter(lambda p: p / 2.0 > 0.0))
        return kind, K, {"p": p}
    n = draw(st.integers(1, 10**6))
    return kind, K, {"b": draw(st.integers(1, n)), "n": n}


def check_plateau_schedule(kind, K, params):
    values = np.array([eta(kind, k, K, **params) for k in range(K)])
    assert np.all(values > 0)
    assert np.all(values <= 1.0)
    assert np.all(np.diff(values) <= 0)
    plateau = params["p"] / 2.0 if kind == "theorem1" else (params["b"] / params["n"]) / 4.0
    k0 = -(-K // 2)
    for k in (k0 - 1, k0):
        if k < K:
            assert values[k] == plateau


@pytest.mark.parametrize(
    "s",
    [
        ("theorem1", 1000, {"p": 0.02}),
        ("theorem1", 7, {"p": 0.9}),
        ("theorem3", 1000, {"b": 7, "n": 683}),
        ("theorem3", 12, {"b": 5, "n": 5}),
    ],
)
def test_plateau_schedules_non_increasing_in_unit_interval(s):
    check_plateau_schedule(*s)


@given(rule=plateau_rules())
@settings(max_examples=200, deadline=None)
def test_plateau_schedules_property(rule):
    check_plateau_schedule(*rule)


def test_continuity_at_switch_index():
    for kind, params, plateau in [
        ("theorem1", {"p": 0.037}, 0.037 / 2),
        ("theorem3", {"b": 7, "n": 683}, (7 / 683) / 4),
    ]:
        K = 1000
        k0 = -(-K // 2)
        assert eta(kind, k0, K, **params) == plateau
        assert eta(kind, k0 - 1, K, **params) == plateau


def test_eta_range_checks():
    with pytest.raises(ValueError):
        eta("classic_fw", -1, 5)
    with pytest.raises(ValueError):
        eta("classic_fw", 5, 5)


def test_p_whose_half_underflows_is_rejected():
    # the smallest subnormal halves to 0.0, which would be a zero step
    with pytest.raises(ValueError, match="p/2 > 0"):
        eta("theorem1", 0, 10, p=5e-324)
    with pytest.raises(ValueError, match="p/2 > 0"):
        EstimatorConfig(kind="sarah", p=5e-324)
    assert eta("theorem1", 0, 10, p=1e-323) == 5e-324
    EstimatorConfig(kind="sarah", p=1e-323)


def test_default_params_hand_values():
    p, lam = default_params("sarah", 1000, 10)
    assert p == pytest.approx(20.0 / 1020.0, rel=1e-15)
    assert lam is None
    p2, lam2 = default_params("saga_sarah", 1000, 10)
    assert p2 is None
    assert lam2 == pytest.approx(0.005, abs=0)


def test_default_params_full_batch():
    p, _ = default_params("sarah", 50, 50)
    assert p == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_default_params_rejects_bad_batch():
    with pytest.raises(ValueError):
        default_params("sarah", 10, 11)
    with pytest.raises(ValueError):
        default_params("sarah", 10, 0)


def test_default_batch():
    assert default_batch(683) == 7
    assert default_batch(1) == 1
    assert default_batch(22696) == 227


def test_schedule_validation():
    with pytest.raises(ValueError):
        eta("theorem1", 0, 10, p=0.0)
    with pytest.raises(ValueError):
        eta("theorem1", 0, 10, p=1.5)
    with pytest.raises(ValueError):
        eta("theorem1", 0, 10)
    with pytest.raises(ValueError):
        eta("theorem3", 0, 10, b=5, n=4)
    with pytest.raises(ValueError):
        eta("theorem3", 0, 10, b=5)
    with pytest.raises(ValueError):
        eta("bogus", 0, 10)
