import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochfw.data import normalize_labels, parse_libsvm
from stochfw.objectives import Objective
from stochfw.reference import finite_diff_grad

from conftest import separable_libsvm_text, tiny_objective


def single_sample_objective(kind, label, feats):
    feat_str = " ".join(f"{j + 1}:{v:.17g}" for j, v in enumerate(feats))
    ds = parse_libsvm(f"{label} {feat_str}\n")
    return Objective(kind, ds)


def test_logistic_loss_at_zero_is_log2(bc_logistic):
    w = np.zeros(bc_logistic.d)
    assert bc_logistic.loss_full(w) == pytest.approx(math.log(2.0), abs=1e-15)


def test_nlls_loss_at_zero_is_quarter(bc_nlls):
    w = np.zeros(bc_nlls.d)
    assert bc_nlls.loss_full(w) == pytest.approx(0.25, abs=1e-15)


def test_logistic_single_sample_hand_value():
    # y=1, x=e_1, w=e_1: loss = log(1 + e^{-1})
    obj = single_sample_objective("logistic", 1, [1.0])
    w = np.array([1.0])
    assert obj.loss_full(w) == pytest.approx(math.log1p(math.exp(-1.0)), rel=1e-14)
    assert obj.loss_full(w) == pytest.approx(0.313262, abs=1e-6)


# t = +-m 2^e for every binade e of a float64, subnormals included
_BINADE_FLOATS = st.builds(lambda sign, m, e: sign * math.ldexp(m, e),
                           st.sampled_from([-1.0, 1.0]),
                           st.floats(1.0, 2.0, exclude_max=True),
                           st.integers(-1074, 1023))
_SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          _BINADE_FLOATS, _SPECIAL_FLOATS),
                min_size=1, max_size=64))
@example([1.0, 30.0, 710.0, -745.2, 1e300])
def test_logistic_losses_are_logaddexp_within_2_ulps(t):
    # _terms(z, y) makes t = -y z; y = -1 makes t = z exactly
    t = np.array(t)
    obj = tiny_objective("logistic")
    got = obj._losses(obj._terms(t, -np.ones_like(t)))
    with np.errstate(invalid="ignore"):  # logaddexp flags a nan input
        want = np.logaddexp(0.0, t)
    special = ~np.isfinite(t) | (t == 0.0)
    np.testing.assert_array_equal(got[special], want[special])  # nan matches nan
    # both are >= 0 and finite here, so their bit patterns order like the floats
    ulps = np.abs(got[~special].view(np.int64) - want[~special].view(np.int64))
    assert ulps.max(initial=0) <= 2, (t[~special], got[~special], want[~special])


def test_logistic_losses_keep_the_bits_of_the_written_out_expression():
    # the in-place form of log1p(exp(-|t|)) + max(t, 0) against the expression
    # with a temporary per step, on t spanning both tails and both zeros
    t = np.concatenate([np.linspace(-800.0, 800.0, 64_001), [0.0, -0.0, 5e-324, -5e-324]])
    obj = tiny_objective("logistic")
    got = obj._losses(obj._terms(t, -np.ones_like(t)))
    want = np.log1p(np.exp(-np.abs(t))) + np.maximum(t, 0.0)
    assert got.tobytes() == want.tobytes()


def test_logistic_grad_at_zero():
    obj = single_sample_objective("logistic", 1, [1.0])
    g = obj.grad_batch([0], np.zeros(1))
    assert g == pytest.approx([-0.5], abs=1e-15)


def test_nlls_grad_at_zero_matches_finite_difference():
    # y=0, x=e_1, w=0: d/dw (y - 1/(1+e^w))^2 = 2*(0-1/2)*(1/4) = -0.25
    obj = single_sample_objective("nlls", 0, [1.0])
    w = np.zeros(1)
    g = obj.grad_batch([0], w)
    fd = finite_diff_grad(lambda v: obj.loss_sample(0, v), w)
    assert g == pytest.approx(fd, rel=1e-7)
    assert g == pytest.approx([-0.25], abs=1e-12)


@pytest.mark.parametrize("kind", ["logistic", "nlls"])
def test_sample_gradient_matches_finite_differences(kind):
    text = separable_libsvm_text(40, 6, seed=17)
    ds = normalize_labels(parse_libsvm(text), kind)
    obj = Objective(kind, ds)
    rng = np.random.default_rng(123)
    for _ in range(100):
        i = int(rng.integers(0, obj.n))
        w = rng.uniform(-1.0, 1.0, size=obj.d)
        g = obj.grad_batch([i], w)
        fd = finite_diff_grad(lambda v: obj.loss_sample(i, v), w, h=1e-5)
        rel = np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-10)
        assert rel <= 1e-5


def test_grad_batch_duplicates_count_with_multiplicity(bc_logistic):
    rng = np.random.default_rng(0)
    w = rng.normal(size=bc_logistic.d)
    i = 17
    g_dup = bc_logistic.grad_batch([i, i], w)
    assert g_dup == pytest.approx(bc_logistic.grad_batch([i], w), abs=1e-15)


def test_grad_batch_full_is_grad_full(bc_logistic):
    rng = np.random.default_rng(1)
    w = rng.normal(size=bc_logistic.d)
    g1 = bc_logistic.grad_batch(np.arange(bc_logistic.n), w)
    g2 = bc_logistic.grad_full(w)
    assert np.max(np.abs(g1 - g2)) <= 1e-12


def test_grad_batch_is_mean_of_samples():
    obj = tiny_objective(n=8, d=5)
    rng = np.random.default_rng(2)
    w = rng.normal(size=obj.d)
    S = rng.integers(0, obj.n, size=6)
    expect = np.mean([obj.grad_batch([i], w) for i in S], axis=0)
    assert np.max(np.abs(obj.grad_batch(S, w) - expect)) <= 1e-12


def test_grad_full_is_mean_of_samples():
    for kind in ("logistic", "nlls"):
        obj = tiny_objective(kind=kind, n=30, d=5, seed=9)
        rng = np.random.default_rng(4)
        w = rng.normal(size=obj.d)
        expect = np.mean([obj.grad_batch([i], w) for i in range(obj.n)], axis=0)
        assert np.max(np.abs(obj.grad_full(w) - expect)) <= 1e-12


def test_single_sample_grad_full():
    obj = tiny_objective(n=1, d=3)
    w = np.array([0.3, -0.2, 0.5])
    assert obj.grad_full(w) == pytest.approx(obj.grad_batch([0], w), abs=0)


def test_logistic_grad_full_at_zero_closed_form(bc_logistic):
    # grad f(0) = -(1/2n) sum y_i x_i
    X = bc_logistic.dataset.to_csr()
    expect = -np.asarray(X.T @ bc_logistic.y).ravel() / (2.0 * bc_logistic.n)
    got = bc_logistic.grad_full(np.zeros(bc_logistic.d))
    assert np.max(np.abs(got - expect)) <= 1e-15


def test_loss_is_finite_for_extreme_w(bc_logistic, bc_nlls):
    w = np.full(bc_logistic.d, 1e6)
    assert np.isfinite(bc_logistic.loss_full(w))
    assert np.isfinite(bc_logistic.loss_full(-w))
    assert np.isfinite(bc_nlls.loss_full(np.full(bc_nlls.d, 1e8)))


def test_smoothness_logistic_single_basis_vector():
    obj = single_sample_objective("logistic", 1, [1.0])
    info = obj.smoothness()
    assert info.L_i == pytest.approx([0.25], abs=0)
    assert info.L_tilde == pytest.approx(0.25, abs=0)


def test_smoothness_zero_rows_give_zero():
    # an all-zero row contributes L_i = 0 (explicit zero-valued feature)
    ds = parse_libsvm("+1 1:0\n-1 1:1\n")
    obj = Objective("logistic", ds)
    info = obj.smoothness()
    assert info.L_i[0] == 0.0
    assert info.L_i[1] == 0.25


def test_smoothness_l_tilde_is_rms_of_l_i(bc_logistic, bc_nlls):
    for obj in (bc_logistic, bc_nlls):
        info = obj.smoothness()
        assert info.L_tilde == pytest.approx(
            float(np.sqrt(np.mean(info.L_i**2))), rel=1e-15
        )


def test_nlls_curvature_constant_is_a_valid_bound():
    # |d^2/dt^2 (y - s(t))^2| with s(t) = 1/(1+e^t) stays below 0.3
    t = np.linspace(-30, 30, 20001)
    s = 1.0 / (1.0 + np.exp(t))
    sp = -s * (1 - s)
    spp = s * (1 - s) * (1 - 2 * s)
    for y in np.linspace(0.0, 1.0, 21):
        g2 = 2 * sp**2 - 2 * (y - s) * spp
        assert np.max(np.abs(g2)) <= 0.3


def test_objective_rejects_unnormalized_labels():
    ds = parse_libsvm("2 1:1\n4 1:2\n")
    with pytest.raises(ValueError):
        Objective("logistic", ds)
    with pytest.raises(ValueError):
        Objective("nlls", ds)


def test_objective_input_validation(bc_logistic):
    with pytest.raises(ValueError, match="unknown loss kind 'hinge'"):
        Objective("hinge", bc_logistic.dataset)
    with pytest.raises(IndexError):
        bc_logistic.grad_batch([bc_logistic.n], np.zeros(bc_logistic.d))
    with pytest.raises(ValueError):
        bc_logistic.grad_batch([], np.zeros(bc_logistic.d))
    with pytest.raises(ValueError):
        bc_logistic.loss_full(np.zeros(bc_logistic.d + 1))
    with pytest.raises(ValueError):
        bc_logistic.loss_full(np.full(bc_logistic.d, np.nan))
