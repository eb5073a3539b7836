"""Tests for generator-based elimination: recovery, updates, factorization."""

import dataclasses
import re
import subprocess

import numpy as np
import pytest
from numpy.testing import assert_allclose

import structsolve as ss
from structsolve import cauchy_gko
from structsolve.oracle import DenseFactorization, _substitute

# rows per diagonal block of the blocked triangular solves
B = cauchy_gko._SUB_BLOCK


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
    # max|v_kk| is 7.8e8 and g1 1.6e9 here, against 7.8e2 and 1.6e3 at f_norm 1e-2
    gen, nodes = ss.cancellation_cauchy(8, f_norm=1e-8, seed=3)
    f = ss.gko_factor(gen, nodes, "partial")
    assert np.abs(f.trace.v_kk).max() >= 1e8
    assert ss.growth_report(f.trace, f, nodes).g1 >= 1e9


@pytest.mark.parametrize("strategy", ["none", "partial", "row1col1"])
def test_gko_factor_cancelled_entry_leaves_factors_finite(strategy):
    # phi row [1, 1] against psi column [1, -1]: the step-0 column has an
    # exactly zero numerator below the pivot, so its V entry is degenerate;
    # it must not poison the factors or the hatted norms
    phi = np.array([[2.0, 0.0], [1.0, 1.0], [1.0, 0.5]])
    psi = np.array([[1.0, 1.0, 1.0], [-1.0, 0.5, 2.0]])
    gen = ss.GeneratorPair(phi=phi, psi=psi)
    nodes = ss.CauchyNodes(t=[1.0, 2.0, 3.0], s=[0.5, 1.5, 2.5])
    assert np.isinf(ss.v_matrix(gen)[1, 0])
    f = ss.gko_factor(gen, nodes, strategy)
    assert f.trace.pivot_index[0] == 0
    assert np.all(np.isfinite(f.L)) and np.all(np.isfinite(f.U))
    assert np.all(np.isfinite(f.trace.hat_l_col)) and np.all(np.isfinite(f.trace.hat_u_row))
    R = ss.materialize_cauchy(gen, nodes)
    assert np.linalg.norm(f.reconstruct() - R) <= 1e-14 * np.linalg.norm(R)


def _v_ratio_reference(num, den):
    out = np.empty(den.shape, dtype=complex)
    for i in np.ndindex(den.shape):
        out[i] = np.inf if abs(den[i]) < 1e-300 else complex(num[i]) / complex(den[i])
    return out


@pytest.mark.parametrize(
    "den",
    [
        [2.0, -1j, 3.0 + 4.0j, 1e-300],
        [2.0, -1j, 3.0 + 4.0j, 1e-301j],
        [2.0, 0.0, 3.0 + 4.0j, 1.0],
        [[1.0, -2.0], [4.0, 5e-301 + 5e-301j]],
        [[1.0, -2.0], [0.5j, 4.0]],
        np.zeros(0),
    ],
    ids=["floor", "sub-floor", "zero", "2d-sub-floor", "2d", "empty"],
)
def test_v_ratio_matches_elementwise_reference(den):
    from structsolve.diagnostics import _v_ratio

    den = np.asarray(den, dtype=complex)
    num = np.arange(1.0, den.size + 1.0).reshape(den.shape)
    got = _v_ratio(num, den)
    assert got.shape == den.shape and got.dtype == complex
    assert_allclose(got, _v_ratio_reference(num, den), rtol=1e-15, atol=0)


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
    x = ss.solve_with_factors(ss.gko_factor(gen, nodes, "partial"), b)
    x_dense = ss.dense_solve(R, b)
    assert np.linalg.norm(x - x_dense) <= 1e-10 * np.linalg.norm(x_dense)


def test_solve_zero_diagonal_raises():
    f = ss.gko_factor(*ss.random_cauchy_type(3, 1, seed=2), "partial")
    f.U[1, 1] = 0.0
    with pytest.raises(ss.SingularMatrixError):
        ss.solve_with_factors(f, np.ones(3))


# the block edges, plus orders that end inside a block
@pytest.mark.parametrize("strategy", ["none", "partial", "row1col1"])
@pytest.mark.parametrize(
    "n", sorted({1, B - 1, B, B + 1, 2 * B + 1, 3 * B + 4} | {31, 32, 33, 65, 100})
)
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


@pytest.mark.parametrize("strategy", ["none", "partial", "row1col1"])
def test_solve_fortran_ordered_rhs_wider_than_a_block(strategy):
    n, m = 2 * B + 1, 70
    assert m > B
    gen, nodes = ss.random_cauchy_type(n, 2, seed=8)
    f = ss.gko_factor(gen, nodes, strategy)
    rng = np.random.default_rng(2)
    rhs = np.asfortranarray(rng.uniform(-1.0, 1.0, (n, m)) + 1j * rng.uniform(-1.0, 1.0, (n, m)))
    assert not rhs.flags.c_contiguous
    X = ss.solve_with_factors(f, rhs)
    assert X.shape == (n, m)
    for j in range(m):
        x = ss.solve_with_factors(f, rhs[:, j])
        assert_allclose(X[:, j], x, rtol=0, atol=1e-13 * np.abs(x).max())


@pytest.mark.parametrize("shape", [(40, 2, 3), ()], ids=["3-d", "scalar"])
def test_solve_rejects_rhs_that_is_not_one_or_two_dimensional(shape):
    f = ss.gko_factor(*ss.random_cauchy_type(40, 2, seed=5), "partial")
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        ss.solve_with_factors(f, np.ones(shape))


@pytest.mark.parametrize("factor", ["L", "U"])
@pytest.mark.parametrize("delta", [-1, 1], ids=["narrow", "wide"])
def test_solve_rejects_factors_that_are_not_square(factor, delta):
    f = ss.gko_factor(*ss.random_cauchy_type(6, 2, seed=5), "partial")
    square = getattr(f, factor)
    wrong = square[:, :delta] if delta < 0 else np.hstack([square, square[:, :delta]])
    with pytest.raises(ValueError, match=r"L and U must be \(6, 6\)"):
        ss.solve_with_factors(dataclasses.replace(f, **{factor: wrong}), np.ones(6))


@pytest.mark.parametrize("perm", ["row_perm", "col_perm"])
def test_solve_rejects_permutations_of_another_order(perm):
    f = ss.gko_factor(*ss.random_cauchy_type(6, 2, seed=5), "partial")
    short = dataclasses.replace(f, **{perm: ss.Permutation.identity(5)})
    with pytest.raises(ValueError, match="permutations must be order 6"):
        ss.solve_with_factors(short, np.ones(6))


def test_solve_reads_replaced_factors_by_value():
    n = B + 5
    f = ss.gko_factor(*ss.random_cauchy_type(n, 2, seed=6), "row1col1")
    b = np.linspace(1.0, 2.0, n) + 0.25j
    fortran = dataclasses.replace(f, L=np.asfortranarray(f.L), U=np.asfortranarray(f.U))
    assert not fortran.L.flags.c_contiguous and not fortran.U.flags.c_contiguous
    assert ss.solve_with_factors(fortran, b).tobytes() == ss.solve_with_factors(f, b).tobytes()
    single = dataclasses.replace(f, L=f.L.astype(np.complex64), U=f.U.astype(np.complex64))
    widened = dataclasses.replace(f, L=single.L.astype(complex), U=single.U.astype(complex))
    x = ss.solve_with_factors(single, b)
    assert x.tobytes() == ss.solve_with_factors(widened, b).tobytes()
    x_ref = ss.solve_with_factors(f, b)
    assert np.linalg.norm(x - x_ref) <= 1e-4 * np.linalg.norm(x_ref)


@pytest.mark.parametrize("shape", [(5,), (5, 2)], ids=["one-rhs", "two-rhs"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, np.nan)])
def test_solve_rejects_non_finite_rhs(shape, bad):
    f = ss.gko_factor(*ss.random_cauchy_type(5, 2, seed=4), "partial")
    b = np.ones(shape, dtype=complex)
    b[3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        ss.solve_with_factors(f, b)


@pytest.mark.parametrize("k", [B + 8, 3 * B + 3], ids=["middle-block", "last-block"])
def test_solve_zero_diagonal_in_later_block_raises(k, monkeypatch):
    n = 3 * B + 4
    f = ss.gko_factor(*ss.random_cauchy_type(n, 2, seed=3), "partial")
    f.U[k, k] = 0.0

    def unreachable(*args):
        raise AssertionError("the block solve ran on a U with a zero diagonal")

    monkeypatch.setattr(cauchy_gko, "_solve_block", unreachable)
    with pytest.raises(ss.SingularMatrixError, match="zero diagonal"):
        ss.solve_with_factors(f, np.ones(n))
    with pytest.raises(ss.SingularMatrixError, match="zero diagonal"):
        ss.solve_with_factors(f, np.ones((n, 2)))


def test_cauchy_solve_order_one():
    gen, nodes = _ones_cauchy([3.0], [1.0])
    f = ss.gko_factor(gen, nodes, "partial")
    x = ss.solve_with_factors(f, [1.0])
    assert_allclose(x, [2.0])
    assert f.trace.n == 1


def test_cauchy_solve_matches_toeplitz_pipeline():
    n = 8
    coeffs = ss.random_toeplitz(n, seed=9)
    b = np.arange(1.0, n + 1.0)
    x_t = ss.toeplitz_solve(ss.toeplitz_factor(coeffs), b)
    gen, nodes = ss.to_cauchy_generators(ss.toeplitz_generators(coeffs))
    plan = ss.DftPlan.create(n)
    f = ss.gko_factor(gen, nodes)
    y = ss.solve_with_factors(f, ss.apply_F(plan, b.astype(complex)))
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


@pytest.mark.parametrize("value", ["false", "off", "AUTO", ""])
def test_hat_ratios_rejects_strings_other_than_auto(value):
    gen, nodes = ss.random_cauchy_type(8, 1, seed=0)
    with pytest.raises(ValueError, match="hat_ratios"):
        ss.gko_factor(gen, nodes, "partial", hat_ratios=value)
    with pytest.raises(ValueError, match="hat_ratios"):
        ss.toeplitz_factor(ss.random_toeplitz(8, seed=8), "partial", hat_ratios=value)
    # booleans and numpy booleans keep their meaning
    for on in (True, False, np.True_, np.False_):
        f = ss.gko_factor(gen, nodes, "partial", hat_ratios=on)
        assert f.trace.hat_ratios_computed == bool(on)


@pytest.mark.parametrize("value", [None, True, 1], ids=["None", "True", "1"])
def test_pivot_strategy_accepts_only_a_strategy_or_its_name(value):
    # str(None).lower() is "none": a non-string must not pass for a name
    with pytest.raises(ValueError, match="unknown pivot strategy"):
        ss.PivotStrategy.coerce(value)
    with pytest.raises(ValueError, match="unknown pivot strategy"):
        ss.toeplitz_factor(ss.random_toeplitz(8, seed=1), value)
    assert ss.PivotStrategy.coerce("Partial") is ss.PivotStrategy.PARTIAL_ROW
    assert ss.PivotStrategy.coerce(ss.PivotStrategy.NONE) is ss.PivotStrategy.NONE


def _step_generators(gen, nodes, f):
    """Each step's generators and nodes, rebuilt from L, U and the permutations.

    With A[p][:, c] = L U, the step-k Schur complement of A[p][:, c] has
    generators phi_2 - L21 L11^-1 phi_1 and psi_2 - psi_1 U11^-1 U12 and
    nodes t[p][k:], s[c][k:].  Yields (phi_k, psi_k, t_k, s_k) for each k.
    """
    p, c = f.row_perm.idx, np.argsort(f.col_perm.idx)
    phi, t = gen.phi[p], nodes.t[p]
    psi, s = gen.psi[:, c], nodes.s[c]
    L, U = f.L, f.U
    for k in range(f.n):
        phi_k, psi_k = phi[k:], psi[:, k:]
        if k:
            phi_k = phi_k - L[k:, :k] @ np.linalg.solve(L[:k, :k], phi[:k])
            psi_k = psi_k - psi[:, :k] @ np.linalg.solve(U[:k, :k], U[:k, k:])
        yield phi_k, psi_k, t[k:], s[k:]


def _hat_ratios_from_factors(gen, nodes, f):
    """Step-k hatted norm ratios of the rebuilt step generators."""
    out = np.empty(f.n)
    for k, (phi_k, psi_k, t_k, s_k) in enumerate(_step_generators(gen, nodes, f)):
        gaps = t_k[:, None] - s_k[None, :]
        hatted = (np.abs(phi_k) @ np.abs(psi_k)) / np.abs(gaps)
        out[k] = np.linalg.norm(hatted) / np.linalg.norm((phi_k @ psi_k) / gaps)
    return out


@pytest.mark.parametrize("strategy", ["none", "partial", "row1col1"])
def test_hat_ratio_matches_dense_schur_complement_oracle(strategy):
    col_interchanges = 0
    for seed in range(6):
        gen, nodes = ss.random_cauchy_type(40, 3, seed=seed)
        f = ss.gko_factor(gen, nodes, strategy)
        assert f.trace.hat_ratios_computed
        assert_allclose(f.trace.hat_ratio, _hat_ratios_from_factors(gen, nodes, f), rtol=1e-9)
        col_interchanges += int(f.trace.pivot_is_col.sum())
    # the gap tables follow column interchanges as well as row interchanges
    assert (col_interchanges > 0) == (strategy == "row1col1")


# partial sums per row of the compiled hat ratio
HAT_LANES = 8


def _lane_hat_ratio(gen, nodes):
    """The step-0 hat ratio summed in the compiled kernel's order.

    Each term is formed as the kernel forms it, from real arrays with
    magnitudes sqrt(re^2 + im^2) and sums over the generators in generator
    order.  Column j of a row goes to partial sum j mod HAT_LANES, the
    partial sums of a row are added in lane order and the rows in row order.
    """

    def mag(z):
        return np.sqrt(z.real * z.real + z.imag * z.imag)

    phi, psi = gen.phi, gen.psi
    gap = nodes.t[:, None] - nodes.s[None, :]
    inv_gap = 1.0 / mag(gap)
    num = mag(phi[:, :1]) * mag(psi[:1])
    den_re = phi[:, :1].real * psi[:1].real - phi[:, :1].imag * psi[:1].imag
    den_im = phi[:, :1].real * psi[:1].imag + phi[:, :1].imag * psi[:1].real
    for m in range(1, gen.alpha):
        p, q = phi[:, m : m + 1], psi[m : m + 1]
        num = num + mag(p) * mag(q)
        den_re = den_re + (p.real * q.real - p.imag * q.imag)
        den_im = den_im + (p.real * q.imag + p.imag * q.real)
    a, b, c = num * inv_gap, den_re * inv_gap, den_im * inv_gap
    sums = []
    for terms in (a * a, b * b + c * c):
        lanes = np.zeros((gen.n, HAT_LANES))
        for lo in range(0, gen.n, HAT_LANES):
            width = min(HAT_LANES, gen.n - lo)
            lanes[:, :width] += terms[:, lo : lo + width]
        total = 0.0
        for row in lanes:
            row_sum = row[0]
            for lane in row[1:]:
                row_sum += lane
            total += row_sum
        sums.append(total)
    return np.sqrt(sums[0]) / np.sqrt(sums[1])


@pytest.mark.parametrize("alpha", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 7, 8, 9, 40])
def test_step_zero_hat_ratio_matches_lane_ordered_reference_bit_for_bit(n, alpha):
    # alpha 2 runs the kernel's constant-alpha copy of the row loop and the
    # others the generic one; n 1, 7, 8, 9 and 40 leave 1, 7, 0, 1 and 0
    # columns past the last full group of lanes
    rng = np.random.default_rng(100 * n + alpha)
    shape = (n, alpha)
    phi = rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)
    psi = rng.uniform(-1.0, 1.0, shape[::-1]) + 1j * rng.uniform(-1.0, 1.0, shape[::-1])
    gen = ss.GeneratorPair(phi=phi, psi=psi)
    nodes = ss.random_cauchy_type(n, 1, seed=n)[1]
    f = ss.gko_factor(gen, nodes, "partial", hat_ratios=True)
    assert f.trace.hat_ratio[0].tobytes() == np.float64(_lane_hat_ratio(gen, nodes)).tobytes()


@pytest.mark.parametrize("strategy", ["none", "partial", "row1col1"])
@pytest.mark.parametrize("alpha", [1, 2, 3, 4])
def test_hat_ratios_change_nothing_but_the_hat_ratio(strategy, alpha):
    # the hat ratio's work space follows the gap table in one allocation;
    # writing past either would show in the factors or the trace
    gen, nodes = ss.random_cauchy_type(37, alpha, seed=alpha)
    on = ss.gko_factor(gen, nodes, strategy, hat_ratios=True)
    off = ss.gko_factor(gen, nodes, strategy, hat_ratios=False)
    for name in ("L", "U", "norm_L", "norm_U"):
        assert np.asarray(getattr(on, name)).tobytes() == np.asarray(getattr(off, name)).tobytes()
    assert np.array_equal(on.row_perm.idx, off.row_perm.idx)
    assert np.array_equal(on.col_perm.idx, off.col_perm.idx)
    for fld in dataclasses.fields(on.trace):
        if fld.name not in ("hat_ratio", "hat_ratios_computed"):
            assert getattr(on.trace, fld.name).tobytes() == getattr(off.trace, fld.name).tobytes()
    assert np.all(np.isfinite(on.trace.hat_ratio)) and np.all(np.isnan(off.trace.hat_ratio))


def _step_statistics_from_factors(gen, nodes, f):
    """Every per-step trace statistic of the rebuilt step generators.

    Each step's first column and row are recovered from its generators, and
    the pivot, v_kk and hatted norms follow from their definitions.
    """
    names = ("pivot_magnitude", "v_kk", "hat_l_col", "hat_u_row")
    out = {name: np.empty(f.n, dtype=complex if name == "v_kk" else float) for name in names}
    for k, (phi_k, psi_k, t_k, s_k) in enumerate(_step_generators(gen, nodes, f)):
        col_den = phi_k @ psi_k[:, 0]
        col_num = np.abs(phi_k) @ np.abs(psi_k[:, 0])
        row_num = np.abs(phi_k[0]) @ np.abs(psi_k)
        u_kk = col_den[0] / (t_k[0] - s_k[0])
        v_kk = col_num[0] / col_den[0]
        out["pivot_magnitude"][k] = abs(u_kk)
        out["v_kk"][k] = v_kk
        # |v_jk l_jk| = col_num_j / (|t_j - s_k| |u_kk|), |v_kj u_kj| = row_num_j / |t_k - s_j|
        hat_l = col_num[1:] / (np.abs(t_k[1:] - s_k[0]) * abs(u_kk))
        out["hat_l_col"][k] = np.sqrt(abs(v_kk) ** 2 + np.sum(hat_l**2))
        out["hat_u_row"][k] = np.linalg.norm(row_num / np.abs(t_k[0] - s_k))
    return out


@pytest.mark.parametrize("strategy", ["none", "partial", "row1col1"])
def test_step_statistics_match_dense_schur_complement_oracle(strategy):
    for seed in range(6):
        gen, nodes = ss.random_cauchy_type(40, 3, seed=seed)
        f = ss.gko_factor(gen, nodes, strategy, hat_ratios=False)
        for name, expected in _step_statistics_from_factors(gen, nodes, f).items():
            assert_allclose(getattr(f.trace, name), expected, rtol=1e-9, err_msg=f"{name}, seed {seed}")


def test_stored_norms_match_the_factors():
    adversarial = ss.to_cauchy_generators(
        ss.toeplitz_generators(ss.adversarial_toeplitz(ss.AdversarialSpec(n=64, delta=1e-6)))
    )
    row_swaps = col_swaps = 0
    for gen, nodes in (ss.random_cauchy_type(60, 3, seed=4), adversarial):
        for strategy in ("none", "partial", "row1col1"):
            f = ss.gko_factor(gen, nodes, strategy)
            assert_allclose(f.norm_L, np.linalg.norm(f.L), rtol=1e-12)
            assert_allclose(f.norm_U, np.linalg.norm(f.U), rtol=1e-12)
            swapped = f.trace.pivot_index != np.arange(f.n)
            row_swaps += int((swapped & ~f.trace.pivot_is_col).sum())
            col_swaps += int((swapped & f.trace.pivot_is_col).sum())
    assert row_swaps > 0 and col_swaps > 0


def test_step_zero_row_is_numpys_complex_quotient_bit_for_bit():
    # under "none", U's row 0 is the recovered step-0 row, psi_j phi_0 over
    # t_0 - s_j.  The gaps cover real- and imaginary-major divisors,
    # |re| = |im| ties and zero parts of either sign, and so do the
    # numerators, also over the gaps with a zero part.
    gaps = np.array([
        2 + 1j, 1 + 2j, -3 + 0.5j, 0.25 - 4j,
        1 + 1j, -2 + 2j, 0.5 - 0.5j, -1.5 - 1.5j,
        complex(0.0, 1.5), complex(-0.0, -2.0), complex(3.0, 0.0), complex(-1.0, -0.0),
        complex(0.0, -0.75), complex(2.5, -0.0), complex(-0.0, 0.5),
    ])
    n = gaps.size
    rng = np.random.default_rng(5)
    psi = rng.uniform(-2.0, 2.0, n) + 1j * rng.uniform(-2.0, 2.0, n)
    # numerators (+0, -1.25), (+0, -0.5), (+0, 1.25) and (+0, 2) over the
    # gaps with a zero real part give quotients with a zero imaginary part
    # whose sign depends on every operand's
    psi[[1, 5, 8, 9, 10, 11, 12, 13, 14]] = [
        complex(0.0, 1.25), complex(-0.0, 0.5), complex(-0.0, -1.25), complex(0.0, -0.5),
        complex(-2.0, 0.0), complex(-2.0, -0.0), complex(0.0, 1.25), complex(0.75, -0.0),
        complex(0.0, 2.0),
    ]
    phi = np.concatenate([[complex(1.0, 0.0)], rng.uniform(1.0, 2.0, n - 1)])
    # (-0) - (-g) is g for every part g, zeros of either sign included
    t = np.concatenate([[complex(-0.0, -0.0)], 100.0 + np.arange(1, n)])
    gen = ss.GeneratorPair(phi=phi[:, None], psi=psi[None, :])
    nodes = ss.CauchyNodes(t=t, s=-gaps)
    assert (nodes.t[0] - nodes.s).tobytes() == gaps.tobytes()
    f = ss.gko_factor(gen, nodes, "none", hat_ratios=False)
    # the numerator psi_j phi_0 as the kernel forms it, from real products
    q = phi[0]
    num = np.empty(n, dtype=complex)
    num.real = psi.real * q.real - psi.imag * q.imag
    num.imag = psi.real * q.imag + psi.imag * q.real
    assert f.U[0].tobytes() == (num / gaps).tobytes()


@pytest.mark.parametrize("exponent", [-600, 500])
@pytest.mark.parametrize("strategy", ["none", "partial", "row1col1"])
def test_generators_scaled_past_the_quick_magnitude_range_keep_the_factors(strategy, exponent):
    # scaled by 2^-600 (phi only) the squares of the recovered entries
    # underflow; scaled by 2^500 (phi and psi) they overflow.  Either way the
    # magnitudes come from hypot, so the pivots, L, v_kk and the hatted L
    # norms, which are ratios, are those of the unscaled generators, and U and
    # the pivot magnitudes are scaled by the same power of two exactly.
    def ldexp(z, e):
        z = np.asarray(z, dtype=complex)
        out = np.empty_like(z)
        out.real, out.imag = np.ldexp(z.real, e), np.ldexp(z.imag, e)
        return out

    gen, nodes = ss.random_cauchy_type(37, 2, seed=11)
    phi_exp, psi_exp = (exponent, 0) if exponent < 0 else (exponent, exponent)
    scaled = ss.GeneratorPair(phi=ldexp(gen.phi, phi_exp), psi=ldexp(gen.psi, psi_exp))
    f = ss.gko_factor(gen, nodes, strategy, hat_ratios=False)
    g = ss.gko_factor(scaled, nodes, strategy, hat_ratios=False)
    assert np.array_equal(g.trace.pivot_index, f.trace.pivot_index)
    assert np.array_equal(g.trace.pivot_is_col, f.trace.pivot_is_col)
    assert g.L.tobytes() == f.L.tobytes()
    assert g.U.tobytes() == ldexp(f.U, phi_exp + psi_exp).tobytes()
    assert g.trace.v_kk.tobytes() == f.trace.v_kk.tobytes()
    assert g.trace.hat_l_col.tobytes() == f.trace.hat_l_col.tobytes()
    scaled_mag = np.ldexp(f.trace.pivot_magnitude, phi_exp + psi_exp)
    assert g.trace.pivot_magnitude.tobytes() == scaled_mag.tobytes()


@pytest.mark.parametrize("n", [7, 8, 9, 15, 16, 17])
@pytest.mark.parametrize("strategy", ["partial", "row1col1"])
def test_equal_candidates_in_different_lanes_pivot_on_the_smallest_index(n, strategy):
    # step 0 of the ones Cauchy matrix 1 / (t_i - s_j): the largest column
    # entries, |1 / 0.5| = 2 exactly, sit at rows 3 and n - 1 and, for
    # n > 12, at 9, in an earlier lane than row 3, and 11, in the same lane
    # (entry j goes to lane (j - 1) mod 8).  The row holds entries of the
    # same magnitude at the same columns, so row1col1 sees a
    # row-versus-column tie as well.  Either way the pivot is row 3.
    ties = sorted({3, n - 1} | ({9, 11} if n > 12 else set()))
    near = [0.5, -0.5j, -0.5, 0.5j]
    t = 10.0 + np.arange(n, dtype=complex)
    s = -10.0 - np.arange(n, dtype=complex)
    t[0], s[0] = 3.0, 0.0
    for i, g in zip(ties, near):
        t[i] = g  # t_i - s_0 = g
        s[i] = 3.0 - g  # t_0 - s_i = g
    gen, nodes = _ones_cauchy(t, s)
    f = ss.gko_factor(gen, nodes, strategy, hat_ratios=False)
    assert f.trace.pivot_index[0] == 3 and not f.trace.pivot_is_col[0]
    assert f.trace.pivot_magnitude[0] == 2.0


@pytest.mark.parametrize("upper", [False, True], ids=["unit-lower", "upper"])
@pytest.mark.parametrize("m", [1, 3])
def test_block_solve_substitutes_through_one_diagonal_block(upper, m):
    rng = np.random.default_rng(9)
    n, lo, b = 9, 2, 5
    T = rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
    X = rng.uniform(-1.0, 1.0, (b, m)) + 1j * rng.uniform(-1.0, 1.0, (b, m))
    block = T[lo : lo + b, lo : lo + b]
    block = np.triu(block) if upper else np.tril(block, -1) + np.eye(b)
    expected = np.linalg.solve(block, X)
    # the unit-lower solve must not read the diagonal it assumes
    T[lo : lo + b, lo : lo + b] = block + (0 if upper else 7 * np.eye(b))
    cauchy_gko._solve_block(b, m, int(upper), T[lo:, lo:].ctypes.data, n, X.ctypes.data)
    assert_allclose(X, expected, rtol=1e-12)


def test_kernel_loader_builds_into_an_empty_cache(tmp_path, monkeypatch):
    eliminate, solve_block = cauchy_gko._load_kernel(cache_dir=tmp_path)
    built = [path.name for path in tmp_path.iterdir()]
    assert len(built) == 1 and built[0].startswith("_gko_kernel-") and built[0].endswith(".so")
    n = 2 * B + 3
    gen, nodes = ss.random_cauchy_type(n, 2, seed=3)
    b = np.linspace(-1.0, 1.0, 2 * n).reshape(n, 2)
    expected = ss.gko_factor(gen, nodes, "row1col1")
    x_expected = ss.solve_with_factors(expected, b)
    monkeypatch.setattr(cauchy_gko, "_kernel", eliminate)
    monkeypatch.setattr(cauchy_gko, "_solve_block", solve_block)
    got = ss.gko_factor(gen, nodes, "row1col1")
    assert got.L.tobytes() == expected.L.tobytes()
    assert got.U.tobytes() == expected.U.tobytes()
    assert np.array_equal(got.row_perm.idx, expected.row_perm.idx)
    assert np.array_equal(got.col_perm.idx, expected.col_perm.idx)
    assert ss.solve_with_factors(got, b).tobytes() == x_expected.tobytes()


def test_kernel_built_for_the_base_isa_gives_the_same_bits(tmp_path, monkeypatch):
    # -DKERNEL_CLONES= compiles the step and the hat ratio once, for the base
    # instruction set; where the default build dispatches to AVX2 copies,
    # this runs the other copies' code on the same inputs.  n = 9 leaves one
    # entry past a chunk of lanes at step 0; n = 300 runs without hat ratios.
    eliminate, _ = cauchy_gko._load_kernel(
        cache_dir=tmp_path, flags=cauchy_gko._KERNEL_FLAGS + ("-DKERNEL_CLONES=",)
    )
    adversarial = ss.to_cauchy_generators(
        ss.toeplitz_generators(ss.adversarial_toeplitz(ss.AdversarialSpec(n=64, delta=1e-6)))
    )
    inputs = [adversarial, ss.cancellation_cauchy(61, 1e-6, 3)]
    inputs += [ss.random_cauchy_type(45, alpha, seed=alpha) for alpha in (1, 3, 4)]
    inputs += [ss.random_cauchy_type(9, 2, seed=9)]
    inputs += [ss.to_cauchy_generators(ss.toeplitz_generators(ss.random_toeplitz(300, seed=300)))]
    strategies = ("none", "partial", "row1col1")
    cases = [(gen, nodes, strategy) for gen, nodes in inputs for strategy in strategies]
    expected = [ss.gko_factor(gen, nodes, strategy) for gen, nodes, strategy in cases]
    monkeypatch.setattr(cauchy_gko, "_kernel", eliminate)

    def bits(x):
        return np.asarray(x).tobytes()

    for (gen, nodes, strategy), f in zip(cases, expected):
        got = ss.gko_factor(gen, nodes, strategy)
        for name in ("L", "U", "norm_L", "norm_U"):
            assert bits(getattr(got, name)) == bits(getattr(f, name)), (name, strategy)
        for name in (fld.name for fld in dataclasses.fields(f.trace)):
            assert bits(getattr(got.trace, name)) == bits(getattr(f.trace, name)), (name, strategy)


def test_kernel_source_is_warning_free_pedantic_c99():
    # the compiler the loader builds the kernel with
    flags = ["-fsyntax-only", "-Wall", "-Wextra", "-pedantic", "-std=c99", "-Werror"]
    checked = subprocess.run(
        ["cc", *flags, str(cauchy_gko._KERNEL_SOURCE)], capture_output=True, text=True
    )
    assert checked.returncode == 0, checked.stderr


@pytest.mark.parametrize("compiler", ["no-such-cc", "false"], ids=["missing", "failing"])
def test_kernel_loader_without_a_working_compiler_raises_import_error(tmp_path, compiler):
    from structsolve import cauchy_gko

    with pytest.raises(ImportError) as info:
        cauchy_gko._load_kernel(cache_dir=tmp_path, compiler=compiler)
    assert compiler in str(info.value)
    assert str(cauchy_gko._KERNEL_SOURCE) in str(info.value)
    assert list(tmp_path.iterdir()) == []
