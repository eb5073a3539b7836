"""Tests for the Toeplitz generators, DFT conversion, and solve pipeline."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import structsolve as ss


def _identity_coeffs(n):
    a = np.zeros(2 * n - 1)
    a[n - 1] = 1.0
    return ss.ToeplitzCoeffs(a=a)


def _shift_matrices(n):
    # independent construction of the cyclic shifts Z_1 and Z_-1
    z1 = np.zeros((n, n))
    zm1 = np.zeros((n, n))
    for i in range(1, n):
        z1[i, i - 1] = 1.0
        zm1[i, i - 1] = 1.0
    z1[0, n - 1] = 1.0
    zm1[0, n - 1] = -1.0
    return z1, zm1


def test_generators_identity_toeplitz():
    gen = ss.toeplitz_generators(_identity_coeffs(4))
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    assert_allclose(gen.phi[:, 0], e1)
    assert_allclose(gen.phi[:, 1], e1)
    assert_allclose(gen.psi[0], [0.0, 0.0, 0.0, 1.0])
    assert_allclose(gen.psi[1], [0.0, 0.0, 0.0, 1.0])


def test_generators_adversarial_phi_is_double_e1():
    coeffs = ss.adversarial_toeplitz(ss.AdversarialSpec(n=8, delta=1e-3))
    gen = ss.toeplitz_generators(coeffs)
    e1 = np.zeros(8)
    e1[0] = 1.0
    assert_allclose(gen.phi[:, 0], e1, atol=1e-16)
    assert_allclose(gen.phi[:, 1], e1, atol=1e-16)


def test_generators_satisfy_displacement_equation():
    coeffs = ss.random_toeplitz(8, seed=1)
    T = ss.dense_toeplitz(coeffs)
    gen = ss.toeplitz_generators(coeffs)
    z1, zm1 = _shift_matrices(8)
    resid = z1 @ T - T @ zm1 - gen.phi @ gen.psi
    assert np.linalg.norm(resid) <= 1e-13 * np.linalg.norm(T)


@pytest.mark.parametrize("strategy", ["none", "partial", "row1col1"])
def test_order_one_solve(strategy):
    # the 1x1 matrix [2+i]: Z_1 = [1] and Z_-1 = [-1], so its displacement
    # is 2 a_0, and (2+i) x = 4+2i has x = 2
    coeffs = ss.ToeplitzCoeffs(a=np.array([2.0 + 1.0j]))
    gen = ss.toeplitz_generators(coeffs)
    assert_allclose(gen.phi @ gen.psi, [[4.0 + 2.0j]], rtol=0, atol=1e-15)
    assert_allclose(ss.toeplitz_displacement(coeffs), gen.phi @ gen.psi, rtol=0, atol=1e-15)
    x = ss.toeplitz_solve(ss.toeplitz_factor(coeffs, strategy), [4.0 + 2.0j])
    assert x.shape == (1,)
    assert abs(x[0] - 2.0) <= 4 * np.finfo(float).eps


def test_to_cauchy_first_generator_column_is_flat():
    coeffs = ss.adversarial_toeplitz(ss.AdversarialSpec(n=8, delta=1e-2))
    gen_c, _ = ss.to_cauchy_generators(ss.toeplitz_generators(coeffs))
    assert_allclose(gen_c.phi[:, 0], np.full(8, 1 / np.sqrt(8)), atol=1e-14)


def test_to_cauchy_materialization_matches_dense_transform():
    n = 8
    coeffs = ss.random_toeplitz(n, seed=2)
    gen_c, nodes = ss.to_cauchy_generators(ss.toeplitz_generators(coeffs))
    T = ss.dense_toeplitz(coeffs)
    F = ss.DftPlan.create(n).matrix()
    d = ss.scaling_D(n)
    expected = F @ T @ np.diag(np.conj(d)) @ F.conj().T
    got = ss.materialize_cauchy(gen_c, nodes)
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


def test_to_cauchy_cancellation_column_sum():
    # the adversarial psi first column sums to delta/sqrt(n) exactly (up to
    # roundoff); with the unitary F normalization the raw delta appears
    # scaled by 1/sqrt(n)
    delta = 1e-4
    coeffs = ss.adversarial_toeplitz(ss.AdversarialSpec(n=8, delta=delta))
    gen_c, _ = ss.to_cauchy_generators(ss.toeplitz_generators(coeffs))
    colsum = gen_c.psi[0, 0] + gen_c.psi[1, 0]
    assert abs(abs(colsum) - delta / np.sqrt(8)) <= 1e-15


def test_factor_identity_toeplitz_backward_error():
    coeffs = _identity_coeffs(6)
    f = ss.toeplitz_factor(coeffs)
    assert ss.backward_error_toeplitz(coeffs, f).abs_err <= 1e-13


def test_factor_random_reconstruction():
    coeffs = ss.random_toeplitz(8, seed=3)
    f = ss.toeplitz_factor(coeffs)
    gen_c, nodes = ss.to_cauchy_generators(ss.toeplitz_generators(coeffs))
    R = ss.materialize_cauchy(gen_c, nodes)
    err = np.linalg.norm(f.inner.reconstruct() - R)
    assert err <= 1e-11 * np.linalg.norm(f.inner.L) * np.linalg.norm(f.inner.U)


def test_factor_adversarial_partial_pivoting_is_unstable():
    # the Tx=1 experiment at delta=1e-6: the residual left by ordinary
    # partial pivoting is driven by generator growth, far above roundoff
    coeffs = ss.adversarial_toeplitz(ss.AdversarialSpec(n=8, delta=1e-6))
    T = ss.dense_toeplitz(coeffs)
    b = T @ np.ones(8, dtype=complex)
    f = ss.toeplitz_factor(coeffs, "partial")
    x = ss.toeplitz_solve(f, b)
    residual = np.linalg.norm(T @ x - b) / np.linalg.norm(b)
    assert residual >= 1e-11


def test_solve_identity():
    coeffs = _identity_coeffs(5)
    f = ss.toeplitz_factor(coeffs)
    b = np.array([1.0, -2.0, 3.0, 0.5, 0.0])
    assert np.linalg.norm(ss.toeplitz_solve(f, b) - b) <= 1e-13


def test_solve_constructed_solution():
    coeffs = ss.random_toeplitz(8, seed=5)
    T = ss.dense_toeplitz(coeffs)
    assert ss.cond_estimate(T) <= 1e3
    x_hat = np.linspace(-1.0, 1.0, 8) + 0j
    b = T @ x_hat
    x = ss.toeplitz_solve(ss.toeplitz_factor(coeffs), b)
    assert np.linalg.norm(x - x_hat) <= 1e-10 * np.linalg.norm(x_hat)
    assert np.abs(x.imag).max() <= 1e-12


def test_solve_all_ones_experiment_input_runs():
    coeffs = ss.adversarial_toeplitz(ss.AdversarialSpec(n=8, delta=1e-3))
    f = ss.toeplitz_factor(coeffs, "row1col1")
    x = ss.toeplitz_solve(f, np.ones(8))
    assert np.all(np.isfinite(x))


@pytest.mark.parametrize("strategy", ["none", "partial", "row1col1"])
def test_solve_several_right_hand_sides_matches_one_at_a_time(strategy):
    n = 65
    coeffs = ss.random_toeplitz(n, seed=65)
    B = np.random.default_rng(0).uniform(-1.0, 1.0, (n, 3))
    f = ss.toeplitz_factor(coeffs, strategy)
    X = ss.toeplitz_solve(f, B)
    assert X.shape == (n, 3)
    for j in range(3):
        x = ss.toeplitz_solve(f, B[:, j])
        assert_allclose(X[:, j], x, rtol=0, atol=1e-13 * np.abs(x).max())
    T = ss.dense_toeplitz(coeffs)
    assert np.linalg.norm(T @ X - B) <= 1e-10 * np.linalg.norm(B)


def test_solve_rejects_wrong_length():
    f = ss.toeplitz_factor(ss.random_toeplitz(4, seed=0))
    with pytest.raises(ValueError):
        ss.toeplitz_solve(f, np.ones(5))


def test_displacement_identity_toeplitz():
    coeffs = _identity_coeffs(4)
    gen = ss.toeplitz_generators(coeffs)
    assert_allclose(ss.toeplitz_displacement(coeffs), gen.phi @ gen.psi, atol=1e-16)


def test_displacement_matches_generators_random():
    coeffs = ss.random_toeplitz(9, seed=6)
    gen = ss.toeplitz_generators(coeffs)
    disp = ss.toeplitz_displacement(coeffs)
    assert np.linalg.norm(disp - gen.phi @ gen.psi) <= 1e-13 * np.linalg.norm(disp)


def test_displacement_zero_coeffs():
    coeffs = ss.ToeplitzCoeffs(a=np.zeros(9))
    assert np.all(ss.toeplitz_displacement(coeffs) == 0.0)


@pytest.mark.parametrize("n", [2, 3, 8, 16, 33, 64])
def test_transform_consistency_across_orders(n):
    coeffs = ss.random_toeplitz(n, seed=n)
    gen_c, nodes = ss.to_cauchy_generators(ss.toeplitz_generators(coeffs))
    T = ss.dense_toeplitz(coeffs)
    F = ss.DftPlan.create(n).matrix()
    expected = F @ T @ np.diag(np.conj(ss.scaling_D(n))) @ F.conj().T
    got = ss.materialize_cauchy(gen_c, nodes)
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


def test_solve_error_within_conditioning_budget():
    eps = np.finfo(float).eps
    for seed in range(5):
        n = 8
        coeffs = ss.random_toeplitz(n, seed=100 + seed)
        T = ss.dense_toeplitz(coeffs)
        cond = ss.cond_estimate(T)
        if cond > 1e6:
            continue
        b = np.arange(1.0, n + 1.0)
        x = ss.toeplitz_solve(ss.toeplitz_factor(coeffs), b)
        x_dense = ss.dense_solve(T, b)
        err = np.linalg.norm(x - x_dense) / np.linalg.norm(x_dense)
        assert err <= 10 * cond * n * eps


def test_displacement_rank_at_most_two():
    for seed in (0, 1, 2):
        disp = ss.toeplitz_displacement(ss.random_toeplitz(12, seed=seed))
        sv = np.linalg.svd(disp, compute_uv=False)
        assert np.sum(sv > 1e-12 * sv[0]) <= 2


def test_unitary_invariance_of_transform_frame():
    rng = np.random.default_rng(8)
    n = 10
    E = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    F = ss.DftPlan.create(n).matrix()
    d = ss.scaling_D(n)
    moved = F.conj().T @ E @ F * d[None, :]
    assert abs(np.linalg.norm(moved) - np.linalg.norm(E)) <= 1e-13 * np.linalg.norm(E)
