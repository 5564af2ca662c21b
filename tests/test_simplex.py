import numpy as np
import pytest

from bisochan.errors import DimensionMismatchError
from simplex_oracle import lp_feasibility


def test_single_pinned_variable():
    res = lp_feasibility([[1.0]], [1.0], bounds=[(0.0, 1.0)])
    assert res.feasible
    np.testing.assert_allclose(res.x, [1.0], atol=1e-12)


def test_bounded_infeasible():
    res = lp_feasibility([[1.0, 1.0]], [2.0], bounds=[(0.0, 0.5), (0.0, 0.5)])
    assert not res.feasible
    assert res.residual > 0.5


def test_unbounded_infeasible_has_farkas_certificate():
    # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    res = lp_feasibility(A, b)
    assert not res.feasible
    y = res.certificate
    assert y is not None
    assert np.all(y @ A <= 1e-9)
    assert y @ b > 1e-9


def test_random_feasible_systems_recover_solutions():
    rng = np.random.default_rng(21)
    for _ in range(20):
        m, n = 4, 7
        A = rng.uniform(-1, 1, size=(m, n))
        x_true = rng.uniform(0, 1, size=n)
        b = A @ x_true
        res = lp_feasibility(A, b)
        assert res.feasible
        np.testing.assert_allclose(A @ res.x, b, atol=1e-8)
        assert np.all(res.x >= -1e-12)


def test_redundant_rows_are_fine():
    A = np.array([[1.0, 1.0], [2.0, 2.0]])
    b = np.array([1.0, 2.0])
    res = lp_feasibility(A, b)
    assert res.feasible
    np.testing.assert_allclose(A @ res.x, b, atol=1e-10)


def test_lower_bound_shift():
    res = lp_feasibility([[1.0, 0.0], [0.0, 1.0]], [0.7, 0.9], bounds=[(0.5, 1.0), (0.5, 1.0)])
    assert res.feasible
    np.testing.assert_allclose(res.x, [0.7, 0.9], atol=1e-12)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        lp_feasibility([[1.0, 2.0]], [1.0, 2.0])
    with pytest.raises(DimensionMismatchError):
        lp_feasibility([[1.0, 2.0]], [1.0], bounds=[(0.0, None)])
