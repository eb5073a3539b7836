"""Tests for generator-based elimination: recovery, updates, factorization."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import structsolve as ss
from structsolve.oracle import DenseFactorization, _substitute


def _ones_cauchy(t, s):
    n = len(t)
    gen = ss.GeneratorPair(phi=np.ones((n, 1)), psi=np.ones((1, n)))
    return gen, ss.CauchyNodes(t=t, s=s)


# With no pivoting, step k of gko_factor writes the recovered step-k column
# as L[k:, k] * u_kk and the recovered row as U[k, k:], and the trailing
# block of L U is the Schur complement its generator updates represent.


def test_recover_column_direct_formula():
    gen, nodes = _ones_cauchy([4.0, 5.0], [1.0, 2.0])
    f = ss.gko_factor(gen, nodes, "none")
    assert_allclose(f.L[:, 0] * f.U[0, 0], [1 / 3, 1 / 4], rtol=1e-15)
    assert_allclose(f.U[0], [1 / 3, 1 / 2], rtol=1e-15)


def test_recover_first_column_and_row_match_materialization():
    gen, nodes = ss.random_cauchy_type(6, 3, seed=2)
    R = ss.materialize_cauchy(gen, nodes)
    f = ss.gko_factor(gen, nodes, "none")
    assert_allclose(f.L[:, 0] * f.U[0, 0], R[:, 0], rtol=1e-14)
    assert_allclose(f.U[0], R[0, :], rtol=1e-14)


def test_recover_row_transposition_symmetry():
    # R^T is Cauchy-type with generators (psi^T, phi^T) on nodes (-s, -t):
    # factoring those generators reconstructs R^T, and without pivoting the
    # first column it recovers is the first row of R
    gen, nodes = ss.random_cauchy_type(5, 2, seed=33)
    swapped = ss.GeneratorPair(phi=gen.psi.T, psi=gen.phi.T)
    flipped = ss.CauchyNodes(t=-nodes.s, s=-nodes.t)
    R = ss.materialize_cauchy(gen, nodes)
    for strategy in ("none", "partial", "row1col1"):
        ft = ss.gko_factor(swapped, flipped, strategy)
        assert np.linalg.norm(ft.reconstruct() - R.T) <= 1e-13 * np.linalg.norm(R)
    ft = ss.gko_factor(swapped, flipped, "none")
    f = ss.gko_factor(gen, nodes, "none")
    assert_allclose(ft.L[:, 0] * ft.U[0, 0], f.U[0], rtol=1e-14)


def test_recover_row_matches_toeplitz_derived_dense_row():
    coeffs = ss.random_toeplitz(8, seed=4)
    gen, nodes = ss.to_cauchy_generators(ss.toeplitz_generators(coeffs))
    R = ss.materialize_cauchy(gen, nodes)
    assert_allclose(ss.gko_factor(gen, nodes, "none").U[0], R[0], rtol=1e-12)


def _trailing(f, m):
    """The block the generators represent after m unpivoted update steps."""
    return (f.L[:, m:] @ f.U[m:, :])[m:, m:]


def test_schur_update_reproduces_dense_schur_complement():
    gen, nodes = _ones_cauchy([4.0, 5.0, 6.0, 7.0], [1.0, 2.0, 2.5, 3.0])
    R = ss.materialize_cauchy(gen, nodes)
    got = _trailing(ss.gko_factor(gen, nodes, "none"), 1)
    expected = ss.dense_schur_complement(R, 1)
    assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)


def test_recover_column_after_one_step_matches_dense():
    gen, nodes = ss.random_cauchy_type(4, 2, seed=8)
    R = ss.materialize_cauchy(gen, nodes)
    f = ss.gko_factor(gen, nodes, "none")
    expected = ss.dense_schur_complement(R, 1)[:, 0]
    assert_allclose(f.L[1:, 1] * f.U[1, 1], expected, rtol=1e-11, atol=1e-14)


def test_schur_update_zero_multipliers_leave_phi():
    # a first column that is zero below the pivot gives zero multipliers, so
    # the update leaves phi alone and the step-1 complement is R[1:, 1:]
    gen, nodes = ss.random_cauchy_type(5, 2, seed=9)
    phi = gen.phi.copy()
    phi[1:, 0] = 0.0
    psi = gen.psi.copy()
    psi[:, 0] = [1.0, 0.0]
    gen = ss.GeneratorPair(phi=phi, psi=psi)
    R = ss.materialize_cauchy(gen, nodes)
    f = ss.gko_factor(gen, nodes, "none")
    assert np.all(f.L[1:, 0] == 0)
    assert np.linalg.norm(_trailing(f, 1) - R[1:, 1:]) <= 1e-13 * np.linalg.norm(R)


def test_two_schur_updates_match_two_step_dense_complement():
    gen, nodes = ss.random_cauchy_type(6, 2, seed=10)
    R = ss.materialize_cauchy(gen, nodes)
    got = _trailing(ss.gko_factor(gen, nodes, "none"), 2)
    expected = ss.dense_schur_complement(R, 2)
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


def test_schur_update_rejects_zero_pivot():
    # an exactly zero r_00 on a nonsingular matrix: only pivoting gets past it
    gen, nodes = ss.random_cauchy_type(3, 2, seed=1)
    psi = gen.psi.copy()
    psi[:, 0] = [gen.phi[0, 1], -gen.phi[0, 0]]
    gen = ss.GeneratorPair(phi=gen.phi, psi=psi)
    with pytest.raises(ss.SingularMatrixError):
        ss.gko_factor(gen, nodes, "none")
    R = ss.materialize_cauchy(gen, nodes)
    f = ss.gko_factor(gen, nodes, "partial")
    assert np.linalg.norm(f.reconstruct() - R) <= 1e-12 * np.linalg.norm(R)


def test_gko_factor_order_one():
    gen, nodes = _ones_cauchy([2.0], [0.0])
    f = ss.gko_factor(gen, nodes, "partial")
    assert_allclose(f.L, [[1.0]])
    assert_allclose(f.U, [[0.5]])
    assert f.row_perm.is_identity() and f.col_perm.is_identity()


def test_gko_factor_matches_dense_gepp():
    gen, nodes = ss.random_cauchy_type(8, 1, seed=5)
    R = ss.materialize_cauchy(gen, nodes)
    f = ss.gko_factor(gen, nodes, "partial")
    dense = ss.dense_gepp_factor(R)
    assert f.trace.pivot_index.tolist() == dense.pivots
    assert np.array_equal(f.row_perm.idx, dense.perm.idx)
    rec = f.reconstruct()
    assert np.linalg.norm(rec - R) <= 1e-12 * np.linalg.norm(R)


def test_gko_factor_cancellation_growth_shows_in_trace():
    gen, nodes = ss.cancellation_cauchy(8, f_norm=1e-8, seed=3)
    f = ss.gko_factor(gen, nodes, "partial")
    assert f.trace.v_col_max[0] >= 1e6


@pytest.mark.parametrize("strategy", ["none", "partial", "row1col1"])
def test_factorization_identity_all_strategies(strategy):
    for n, seed in ((3, 0), (16, 1), (64, 2)):
        gen, nodes = ss.random_cauchy_type(n, alpha=2, seed=seed)
        R = ss.materialize_cauchy(gen, nodes)
        f = ss.gko_factor(gen, nodes, strategy)
        err = np.linalg.norm(f.reconstruct() - R)
        assert err <= 1e-10 * np.linalg.norm(f.L) * np.linalg.norm(f.U)
        # the documented reconstruction identity R = P^T L U P'^T as matrices
        rec = f.row_perm.matrix().T @ f.L @ f.U @ f.col_perm.matrix().T
        assert np.linalg.norm(rec - R) <= 1e-10 * np.linalg.norm(R)


def test_partial_pivot_maximality():
    gen, nodes = ss.random_cauchy_type(12, 3, seed=6)
    f = ss.gko_factor(gen, nodes, "partial")
    assert np.abs(f.L).max() <= 1.0 + 1e-14
    # every pivot dominates its recovered column: the trailing product of the
    # computed factors reproduces the reduced matrices
    for k in range(f.n):
        reduced = (f.L[:, k:] @ f.U[k:, :])[k:, k:]
        assert f.trace.pivot_magnitude[k] >= np.abs(reduced[:, 0]).max() * (1 - 1e-10)


def test_row1_col1_pivot_dominance():
    # replay the recorded interchanges on a dense copy and check each pivot
    # dominates the first row and column it was chosen from
    for gen, nodes in (
        ss.cancellation_cauchy(8, f_norm=1e-6, seed=12),
        ss.to_cauchy_generators(
            ss.toeplitz_generators(
                ss.adversarial_toeplitz(ss.AdversarialSpec(n=8, delta=1e-6))
            )
        ),
    ):
        f = ss.gko_factor(gen, nodes, "row1col1")
        M = ss.materialize_cauchy(gen, nodes).copy()
        for k in range(f.n):
            cand = max(np.abs(M[k:, k]).max(), np.abs(M[k, k:]).max())
            target = int(f.trace.pivot_index[k])
            if f.trace.pivot_is_col[k]:
                M[:, [k, target]] = M[:, [target, k]]
            else:
                M[[k, target], :] = M[[target, k], :]
            assert f.trace.pivot_magnitude[k] >= cand * (1 - 1e-8)
            assert abs(M[k, k]) >= cand * (1 - 1e-8)
            M[k + 1 :, k:] -= np.outer(M[k + 1 :, k] / M[k, k], M[k, k:])


def _dense_row1col1(A):
    # independent dense implementation of the row-1/column-1 decision rule
    A = A.astype(complex).copy()
    n = A.shape[0]
    pivots = []
    L = np.eye(n, dtype=complex)
    U = np.zeros((n, n), dtype=complex)
    prow = np.arange(n)
    for k in range(n):
        q = k + int(np.argmax(np.abs(A[k:, k])))
        p = k + int(np.argmax(np.abs(A[k, k:])))
        if abs(A[k, p]) > abs(A[q, k]):
            A[:, [k, p]] = A[:, [p, k]]
            U[:k, [k, p]] = U[:k, [p, k]]
            pivots.append(("col", p))
        else:
            A[[k, q], :] = A[[q, k], :]
            L[[k, q], :k] = L[[q, k], :k]
            prow[[k, q]] = prow[[q, k]]
            pivots.append(("row", q))
        L[k + 1 :, k] = A[k + 1 :, k] / A[k, k]
        U[k, k:] = A[k, k:]
        A[k + 1 :, k:] -= np.outer(L[k + 1 :, k], A[k, k:])
    return prow, L, U, pivots


def test_row1_col1_matches_dense_replay_of_the_rule():
    for i in range(25):
        shape_rng = np.random.default_rng(77_000 + i)
        n = int(shape_rng.integers(2, 13))
        alpha = int(shape_rng.integers(1, 5))
        gen, nodes = ss.random_cauchy_type(n, alpha, seed=88_000 + i)
        R = ss.materialize_cauchy(gen, nodes)
        f = ss.gko_factor(gen, nodes, "row1col1", hat_ratios=False)
        prow, L, U, pivots = _dense_row1col1(R)
        got = [
            ("col" if c else "row", int(ix))
            for c, ix in zip(f.trace.pivot_is_col, f.trace.pivot_index)
        ]
        assert got == pivots, f"instance {i}"
        assert np.array_equal(f.row_perm.idx, prow)
        assert np.linalg.norm(f.L - L) <= 1e-10 * max(np.linalg.norm(L), 1)
        assert np.linalg.norm(f.U - U) <= 1e-10 * max(np.linalg.norm(U), 1)


def test_row1_col1_uses_column_interchange_on_adversarial_family():
    # the transformed adversarial matrix has a uniformly tiny first column
    # and an O(1) first row, so the very first pivot must be a column swap
    coeffs = ss.adversarial_toeplitz(ss.AdversarialSpec(n=8, delta=1e-6))
    gen, nodes = ss.to_cauchy_generators(ss.toeplitz_generators(coeffs))
    f = ss.gko_factor(gen, nodes, "row1col1")
    assert f.trace.pivot_is_col[0]
    assert not f.col_perm.is_identity()


def test_strategy_none_keeps_identity_permutations():
    gen, nodes = _ones_cauchy([10.0, 20.0, 30.0], [0.0, 1.0, 2.0])
    f = ss.gko_factor(gen, nodes, "none")
    assert f.row_perm.is_identity()
    assert f.col_perm.is_identity()
    R = ss.materialize_cauchy(gen, nodes)
    assert np.linalg.norm(f.reconstruct() - R) <= 1e-12 * np.linalg.norm(R)


def test_pivot_tie_resolves_to_smallest_index_and_runs_are_bit_identical():
    gen, nodes = _ones_cauchy([1.0, -1.0], [0.0, 5.0])
    f1 = ss.gko_factor(gen, nodes, "partial")
    assert f1.trace.pivot_index[0] == 0  # |1/1| == |-1/1| tie; first wins
    f2 = ss.gko_factor(gen, nodes, "partial")
    assert f1.L.tobytes() == f2.L.tobytes()
    assert f1.U.tobytes() == f2.U.tobytes()
    assert np.array_equal(f1.trace.pivot_index, f2.trace.pivot_index)


@pytest.mark.parametrize("strategy", ["none", "partial", "row1col1"])
def test_singular_generators_raise(strategy):
    n = 4
    a = np.linspace(0.5, 1.0, n)
    gen = ss.GeneratorPair(phi=np.stack([a, a], axis=1), psi=np.stack([a, -a], axis=0))
    _, nodes = ss.random_cauchy_type(n, 1, seed=0)
    with pytest.raises(ss.SingularMatrixError):
        ss.gko_factor(gen, nodes, strategy)


def test_solve_with_identity_factors():
    f = ss.gko_factor(*_ones_cauchy([2.0], [0.0]), "none")
    f.L[0, 0] = 1.0
    f.U[0, 0] = 1.0
    assert_allclose(ss.solve_with_factors(f, [7.0]), [7.0])


def test_solve_constructed_solution():
    gen, nodes = ss.random_cauchy_type(8, 2, seed=18)
    R = ss.materialize_cauchy(gen, nodes)
    assert ss.cond_estimate(R) <= 1e3
    x_hat = np.linspace(1.0, 2.0, 8) + 0j
    b = R @ x_hat
    f = ss.gko_factor(gen, nodes, "partial")
    x = ss.solve_with_factors(f, b)
    assert np.linalg.norm(x - x_hat) <= 1e-10 * np.linalg.norm(x_hat)


def test_solve_agrees_with_dense_oracle():
    gen, nodes = ss.random_cauchy_type(8, 2, seed=19)
    R = ss.materialize_cauchy(gen, nodes)
    b = np.arange(1.0, 9.0)
    x, _ = ss.cauchy_solve(gen, nodes, b, "partial")
    x_dense = ss.dense_solve(R, b)
    assert np.linalg.norm(x - x_dense) <= 1e-10 * np.linalg.norm(x_dense)


def test_solve_zero_diagonal_raises():
    f = ss.gko_factor(*ss.random_cauchy_type(3, 1, seed=2), "partial")
    f.U[1, 1] = 0.0
    with pytest.raises(ss.SingularMatrixError):
        ss.solve_with_factors(f, np.ones(3))


@pytest.mark.parametrize("strategy", ["none", "partial", "row1col1"])
@pytest.mark.parametrize("n", [1, 31, 32, 33, 65, 100])
def test_blocked_solve_across_block_edges(n, strategy):
    gen, nodes = ss.random_cauchy_type(n, 2, seed=n)
    R = ss.materialize_cauchy(gen, nodes)
    b = R @ (np.linspace(1.0, 2.0, n) + 0.5j)
    f = ss.gko_factor(gen, nodes, strategy)
    x = ss.solve_with_factors(f, b)
    # without pivoting |l_ij| grows, and the residual with it
    tol = 1e-10 if strategy == "none" else 1e-13
    assert np.linalg.norm(R @ x - b) <= tol * np.linalg.norm(b)
    x_dense = ss.dense_solve(R, b)
    assert np.linalg.norm(x - x_dense) <= 1e-10 * np.linalg.norm(x_dense)
    # row-by-row substitution on the same factors, by the oracle's loop
    same_factors = DenseFactorization(perm=f.row_perm, L=f.L, U=f.U, pivots=[])
    x_rows = _substitute(same_factors, b)[f.col_perm.idx]
    assert np.linalg.norm(x - x_rows) <= 1e-12 * np.linalg.norm(x_rows)


@pytest.mark.parametrize("strategy", ["none", "partial", "row1col1"])
def test_solve_several_right_hand_sides_matches_one_at_a_time(strategy):
    n = 65
    gen, nodes = ss.random_cauchy_type(n, 2, seed=7)
    f = ss.gko_factor(gen, nodes, strategy)
    B = np.random.default_rng(1).uniform(-1.0, 1.0, (n, 3))
    X = ss.solve_with_factors(f, B)
    assert X.shape == (n, 3)
    for j in range(3):
        x = ss.solve_with_factors(f, B[:, j])
        assert_allclose(X[:, j], x, rtol=0, atol=1e-13 * np.abs(x).max())


@pytest.mark.parametrize("k", [40, 99], ids=["middle-block", "last-block"])
def test_solve_zero_diagonal_in_later_block_raises(k):
    f = ss.gko_factor(*ss.random_cauchy_type(100, 2, seed=3), "partial")
    f.U[k, k] = 0.0
    with pytest.raises(ss.SingularMatrixError, match="zero diagonal"):
        ss.solve_with_factors(f, np.ones(100))
    with pytest.raises(ss.SingularMatrixError, match="zero diagonal"):
        ss.solve_with_factors(f, np.ones((100, 2)))


def test_cauchy_solve_order_one():
    gen, nodes = _ones_cauchy([3.0], [1.0])
    x, trace = ss.cauchy_solve(gen, nodes, [1.0], "partial")
    assert_allclose(x, [2.0])
    assert trace.n == 1


def test_cauchy_solve_matches_toeplitz_pipeline():
    n = 8
    coeffs = ss.random_toeplitz(n, seed=9)
    b = np.arange(1.0, n + 1.0)
    x_t = ss.toeplitz_solve(ss.toeplitz_factor(coeffs), b)
    gen, nodes = ss.to_cauchy_generators(ss.toeplitz_generators(coeffs))
    plan = ss.DftPlan.create(n)
    y, _ = ss.cauchy_solve(gen, nodes, ss.apply_F(plan, b.astype(complex)))
    x_c = np.conj(ss.scaling_D(n)) * ss.apply_F_inv(plan, y)
    assert_allclose(x_t, x_c, atol=1e-13)


def test_generator_schur_commutation():
    # materialized generators after m update steps equal the dense Schur
    # complement of the pivoted matrix after m elimination steps
    for n, alpha, seed in ((8, 2, 0), (16, 4, 1)):
        gen, nodes = ss.random_cauchy_type(n, alpha, seed=seed)
        R = ss.materialize_cauchy(gen, nodes)
        f = ss.gko_factor(gen, nodes, "partial")
        PR = R[f.row_perm.idx]
        for m in (1, n // 2):
            expected = ss.dense_schur_complement(PR, m)
            got = (f.L[:, m:] @ f.U[m:, :])[m:, m:]
            assert np.linalg.norm(got - expected) <= 1e-11 * np.linalg.norm(expected)


def test_hat_ratio_auto_skips_large_orders():
    gen, nodes = ss.random_cauchy_type(300, 1, seed=0)
    f = ss.gko_factor(gen, nodes, "partial")
    assert not f.trace.hat_ratios_computed
    assert np.all(np.isnan(f.trace.hat_ratio))
    f2 = ss.gko_factor(*ss.random_cauchy_type(8, 1, seed=0), "partial")
    assert f2.trace.hat_ratios_computed
