"""Tests for the dense O(n^3) reference implementations."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import structsolve as ss

from _schur import dense_schur_complement


def test_gepp_identity():
    f = ss.dense_gepp_factor(np.eye(3))
    assert f.perm.idx.tolist() == [0, 1, 2]
    assert_allclose(f.L, np.eye(3))
    assert_allclose(f.U, np.eye(3))


def test_gepp_single_swap():
    f = ss.dense_gepp_factor(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert f.pivots == [1, 1]
    assert np.array_equal(f.perm.idx, [1, 0])
    assert_allclose(f.L, np.eye(2))
    assert_allclose(f.U, np.eye(2))


def test_gepp_reconstruction_random():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    f = ss.dense_gepp_factor(A)
    err = np.linalg.norm(A[f.perm.idx] - f.L @ f.U)
    assert err <= 1e-13 * np.linalg.norm(A)
    assert np.abs(f.L).max() <= 1.0


def test_gepp_singular_raises():
    with pytest.raises(ss.SingularMatrixError):
        ss.dense_gepp_factor(np.ones((3, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)],
                         ids=["nan", "inf", "-inf", "nan-imag"])
def test_oracle_refuses_a_matrix_that_is_not_finite(bad):
    # NaN used to come out as NaN factors, inf as "singular at step 0"
    A = np.array([[bad, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="^matrix must be finite$"):
        ss.dense_gepp_factor(A)
    with pytest.raises(ValueError, match="^matrix must be finite$"):
        ss.dense_solve(A, np.ones(2))
    with pytest.raises(ValueError, match="^matrix must be finite$"):
        ss.cond_estimate(A)


@pytest.mark.parametrize("b", [[np.nan, 1.0], [1.0, np.inf], [[1.0, 0.0], [0.0, -np.inf]]],
                         ids=["nan", "inf", "matrix-rhs"])
def test_dense_solve_refuses_a_right_hand_side_that_is_not_finite(b):
    with pytest.raises(ValueError, match="^right-hand side must be finite$"):
        ss.dense_solve(np.eye(2), b)


def test_dense_solve_identity_and_permutation():
    b = np.array([3.0, 1.0, 2.0])
    assert_allclose(ss.dense_solve(np.eye(3), b), b)
    P = np.eye(3)[[2, 0, 1]]
    # P x = b  =>  x = P^T b
    assert_allclose(ss.dense_solve(P, b), P.T @ b, atol=1e-15)


def test_dense_solve_constructed_solution():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((6, 6)) + np.eye(6) * 3.0
    x_hat = rng.standard_normal(6)
    x = ss.dense_solve(A, A @ x_hat)
    assert np.linalg.norm(x - x_hat) <= 1e-12 * np.linalg.norm(x_hat)


def test_dense_solve_matrix_rhs():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((5, 5)) + np.eye(5) * 2.0
    X = ss.dense_solve(A, np.eye(5))
    assert np.linalg.norm(A @ X - np.eye(5)) <= 1e-12


def test_schur_complement_zero_steps():
    A = np.arange(9.0).reshape(3, 3)
    assert_allclose(dense_schur_complement(A, 0), A)


def test_schur_complement_two_by_two():
    out = dense_schur_complement(np.array([[2.0, 1.0], [1.0, 2.0]]), 1)
    assert_allclose(out, [[1.5]])


def test_schur_complement_matches_block_formula():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((6, 6)) + np.eye(6) * 4.0
    k = 3
    block = A[k:, k:] - A[k:, :k] @ np.linalg.inv(A[:k, :k]) @ A[:k, k:]
    got = dense_schur_complement(A, k)
    assert np.linalg.norm(got - block) <= 1e-12 * np.linalg.norm(block)


def test_schur_complement_zero_pivot_raises():
    with pytest.raises(ss.SingularMatrixError):
        dense_schur_complement(np.array([[0.0, 1.0], [1.0, 0.0]]), 1)


def test_cond_estimate_identity():
    assert ss.cond_estimate(np.eye(4)) == pytest.approx(4.0, rel=1e-14)


def test_cond_estimate_diagonal_closed_form():
    got = ss.cond_estimate(np.diag([1.0, 1e-3]))
    expected = np.sqrt(1 + 1e-6) * np.sqrt(1 + 1e6)
    assert got == pytest.approx(expected, rel=1e-12)


def test_cond_estimate_lower_bound():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((7, 7))
    assert ss.cond_estimate(A) >= 7.0


def test_dense_toeplitz_identity_and_generic():
    a = np.zeros(7)
    a[3] = 1.0
    assert_allclose(ss.dense_toeplitz(ss.ToeplitzCoeffs(a=a)), np.eye(4))
    c = ss.ToeplitzCoeffs(a=np.array([5.0, 7.0, 11.0]))
    assert_allclose(ss.dense_toeplitz(c), [[7.0, 5.0], [11.0, 7.0]])


def test_dense_toeplitz_coefficient_round_trip():
    c = ss.random_toeplitz(6, seed=5)
    T = ss.dense_toeplitz(c)
    rebuilt = np.concatenate([T[0, ::-1], T[1:, 0]])
    assert np.array_equal(rebuilt, c.a)


def test_gepp_residual_budget():
    eps = np.finfo(float).eps
    rng = np.random.default_rng(6)
    for n in (4, 8, 16):
        A = rng.standard_normal((n, n))
        f = ss.dense_gepp_factor(A)
        resid = np.linalg.norm(A[f.perm.idx] - f.L @ f.U) / np.linalg.norm(A)
        assert resid <= 10 * n * n * eps


@pytest.mark.parametrize("b", [1.0, np.ones((2, 2, 1))], ids=["scalar", "3-d"])
def test_dense_solve_refuses_a_right_hand_side_of_another_shape(b):
    # a 0-d b used to raise IndexError from b.shape[0]
    with pytest.raises(ValueError, match=r"b must have shape \(n,\) or \(n, m\), got shape"):
        ss.dense_solve(np.eye(2), b)
