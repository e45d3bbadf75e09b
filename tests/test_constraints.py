import numpy as np
import pytest

from stochfw.constraints import ConstraintSet, _lmo, contains, diameter, lmo
from stochfw.reference import lmo_by_enumeration, vertex_matrix


def test_lmo_l1_example():
    cset = ConstraintSet("l1_ball", 1.0)
    s = lmo(cset, np.array([3.0, -1.0, 2.0]))
    assert np.array_equal(s, [-1.0, 0.0, 0.0])
    assert np.array_equal(s, lmo_by_enumeration(cset, np.array([3.0, -1.0, 2.0])))


def test_lmo_l1_zero_gradient_tie_break():
    cset = ConstraintSet("l1_ball", 2.5)
    s = lmo(cset, np.zeros(4))
    assert np.array_equal(s, [2.5, 0.0, 0.0, 0.0])


def test_lmo_simplex_example():
    cset = ConstraintSet("simplex", 1.0)
    s = lmo(cset, np.array([0.2, -0.5, 0.1]))
    assert np.array_equal(s, [0.0, 1.0, 0.0])
    assert np.array_equal(s, lmo_by_enumeration(cset, np.array([0.2, -0.5, 0.1])))


def test_lmo_linf_box():
    cset = ConstraintSet("linf_box", 2.0)
    s = lmo(cset, np.array([1.0, -3.0, 0.0]))
    assert np.array_equal(s, [-2.0, 2.0, 2.0])  # zero component -> +r tie-break


@pytest.mark.parametrize("kind", ["l1_ball", "simplex", "linf_box"])
def test_lmo_matches_enumeration_on_random_gradients(kind):
    cset = ConstraintSet(kind, 1.5)
    rng = np.random.default_rng(77)
    for _ in range(1000):
        d = int(rng.integers(1, 11))
        # a normal vector, and an (m, d) block of integers in [-2, 2] whose
        # rows hold ties, zeros and all-zero rows
        block = rng.integers(-2, 3, size=(int(rng.integers(1, 5)), d)).astype(np.float64)
        for g in (rng.normal(size=d), block):
            s_fast, picks = _lmo(cset, g)
            assert s_fast.shape == g.shape
            assert np.array_equal(lmo(cset, g), s_fast)
            if picks is None:  # the box at d > 1 has only dense vertices
                assert kind == "linf_box" and d > 1
                picks = [None] * len(np.atleast_2d(g))
            for g_t, s_t, pick in zip(np.atleast_2d(g), np.atleast_2d(s_fast), picks,
                                      strict=True):
                assert np.array_equal(s_t, lmo_by_enumeration(cset, g_t))
                # the pick is (i, s_i) of a vertex whose one nonzero is s_i,
                # the box at d = 1 included, and None for any other
                (nz,) = s_t.nonzero()
                assert pick == ((nz.item(), s_t.item(nz.item())) if len(nz) == 1 else None)
                # fast solution is at least as good as every enumerated vertex
                scores = vertex_matrix(cset, d) @ g_t
                assert g_t @ s_t <= scores.min() + 1e-12


@pytest.mark.parametrize("kind", ["l1_ball", "simplex", "linf_box"])
def test_lmo_output_is_feasible(kind):
    cset = ConstraintSet(kind, 3.0)
    rng = np.random.default_rng(5)
    for _ in range(100):
        s = lmo(cset, rng.normal(size=6))
        assert contains(cset, s, 1e-12)


@pytest.mark.parametrize("kind", ["l1_ball", "simplex", "linf_box"])
def test_lmo_positive_scaling_invariance(kind):
    cset = ConstraintSet(kind, 2.0)
    rng = np.random.default_rng(9)
    for _ in range(50):
        g = rng.normal(size=5)
        s = lmo(cset, g)
        for c in (1e-6, 0.5, 3.0, 1e6):
            assert np.array_equal(lmo(cset, c * g), s)


def test_contains_examples():
    l1 = ConstraintSet("l1_ball", 1.0)
    assert contains(l1, np.array([0.5, -0.5]), 0.0)
    assert not contains(l1, np.array([1.0001, 0.0]), 1e-9)
    simplex = ConstraintSet("simplex", 1.0)
    assert contains(simplex, np.array([0.5, 0.5]), 0.0)
    assert not contains(simplex, np.array([0.6, 0.6]), 1e-9)
    assert not contains(simplex, np.array([-0.1, 1.1]), 1e-9)
    box = ConstraintSet("linf_box", 1.0)
    assert contains(box, np.array([1.0, -1.0]), 0.0)
    assert not contains(box, np.array([1.1, 0.0]), 1e-9)


def test_diameter_values():
    assert diameter(ConstraintSet("l1_ball", 2000.0)) == 4000.0
    assert diameter(ConstraintSet("simplex", 1.0)) == pytest.approx(np.sqrt(2.0))
    assert diameter(ConstraintSet("linf_box", 1.0, dim=4)) == pytest.approx(4.0)


def test_diameter_matches_vertex_enumeration():
    for kind, dim in (("l1_ball", 5), ("simplex", 5), ("linf_box", 4)):
        cset = ConstraintSet(kind, 1.7, dim=dim)
        V = vertex_matrix(cset, dim)
        pairwise = np.linalg.norm(V[:, None, :] - V[None, :, :], axis=-1)
        assert diameter(cset) == pytest.approx(pairwise.max(), rel=1e-12)


def test_constraint_validation():
    with pytest.raises(ValueError):
        ConstraintSet("l2_ball", 1.0)
    for radius in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            ConstraintSet("l1_ball", radius)
    with pytest.raises(ValueError):
        diameter(ConstraintSet("linf_box", 1.0))  # needs dim
    cset = ConstraintSet("l1_ball", 1.0, dim=3)
    with pytest.raises(ValueError):
        lmo(cset, np.zeros(4))  # dimension mismatch
    with pytest.raises(ValueError):
        lmo(cset, np.array([np.nan, 0.0, 0.0]))
    with pytest.raises(ValueError, match="vector or an"):
        lmo(cset, np.zeros((1, 1, 3)))
    with pytest.raises(ValueError, match="tol"):
        contains(cset, np.zeros(3), -1e-9)


@pytest.mark.parametrize("dim,message", [
    (2.5, "dim must be an integer"), (3.0, "dim must be an integer"),
    (True, "dim must be an integer"), (np.float64(3.0), "dim must be an integer"),
    (0, "dim must be >= 1"), (-2, "dim must be >= 1"), (np.int64(0), "dim must be >= 1"),
], ids=["2.5", "3.0", "True", "float64", "0", "-2", "int64-0"])
def test_dim_must_be_a_positive_integer(dim, message):
    with pytest.raises(ValueError, match=message):
        ConstraintSet("linf_box", 1.0, dim=dim)
    assert diameter(ConstraintSet("linf_box", 1.0, dim=np.int32(4))) == 4.0
