import numpy as np
import pytest

from stochfw.schedules import Schedule, default_batch, default_params, eta


def test_theorem1_hand_values():
    s = Schedule.theorem1(10, p=0.5)
    assert eta(s, 4) == 0.25
    assert eta(s, 5) == 2.0 / 8.0
    assert eta(s, 9) == 2.0 / 12.0


def test_theorem1_small_horizon_is_flat():
    s = Schedule.theorem1(4, p=0.5)  # K <= 2/p
    assert [eta(s, k) for k in range(4)] == [0.25] * 4


def test_classic_fw_values():
    s = Schedule.classic_fw(10)
    assert eta(s, 0) == 1.0
    assert eta(s, 2) == 0.5


def test_sqrt_k_is_flat():
    s = Schedule.sqrt_k(100)
    assert all(eta(s, k) == 0.1 for k in range(100))


def test_theorem3_hand_values():
    s = Schedule.theorem3(K=100, b=10, n=50)  # 4n/b = 20 < K, k0 = 50
    assert eta(s, 0) == 10.0 / 200.0
    assert eta(s, 49) == 0.05
    assert eta(s, 50) == 2.0 / 40.0
    assert eta(s, 99) == 2.0 / (40.0 + 49.0)


@pytest.mark.parametrize(
    "s",
    [
        Schedule.theorem1(1000, p=0.02),
        Schedule.theorem1(7, p=0.9),
        Schedule.theorem3(1000, b=7, n=683),
        Schedule.theorem3(12, b=5, n=5),
    ],
)
def test_plateau_schedules_non_increasing_in_unit_interval(s):
    values = np.array([eta(s, k) for k in range(s.K)])
    assert np.all(values > 0)
    assert np.all(values <= 1.0)
    assert np.all(np.diff(values) <= 0)
    assert np.all(values <= values[0])


def test_continuity_at_switch_index():
    for s, plateau in [
        (Schedule.theorem1(1000, p=0.037), 0.037 / 2),
        (Schedule.theorem3(1000, b=7, n=683), (7 / 683) / 4),
    ]:
        k0 = -(-s.K // 2)
        assert eta(s, k0) == plateau
        assert eta(s, k0 - 1) == plateau


def test_eta_range_checks():
    s = Schedule.classic_fw(5)
    with pytest.raises(ValueError):
        eta(s, -1)
    with pytest.raises(ValueError):
        eta(s, 5)


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
        Schedule.theorem1(10, p=0.0)
    with pytest.raises(ValueError):
        Schedule.theorem1(10, p=1.5)
    with pytest.raises(ValueError):
        Schedule.theorem3(10, b=5, n=4)
    with pytest.raises(ValueError):
        Schedule(kind="bogus", K=10)
