"""Tests for the unitary DFT wrapper and the transform node geometry."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import structsolve as ss


def _direct_dft_matrix(n):
    # independent O(n^2) oracle for F
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(2j * np.pi * j * k / n) / np.sqrt(n)


def test_apply_F_order_one_is_identity():
    plan = ss.DftPlan.create(1)
    assert_allclose(ss.apply_F(plan, [3.0 - 2.0j]), [3.0 - 2.0j])
    assert_allclose(ss.apply_F_inv(plan, [3.0 - 2.0j]), [3.0 - 2.0j])


def test_apply_F_first_basis_vector():
    plan = ss.DftPlan.create(4)
    out = ss.apply_F(plan, np.array([1.0, 0.0, 0.0, 0.0]))
    assert_allclose(out, 0.5 * np.ones(4), atol=1e-15)


def test_apply_F_matches_direct_summation():
    rng = np.random.default_rng(11)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    plan = ss.DftPlan.create(8)
    assert_allclose(ss.apply_F(plan, v), _direct_dft_matrix(8) @ v, atol=1e-13)


def test_apply_F_inv_matches_conjugate_transpose_oracle():
    rng = np.random.default_rng(12)
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    plan = ss.DftPlan.create(16)
    expected = _direct_dft_matrix(16).conj().T @ v
    assert_allclose(ss.apply_F_inv(plan, v), expected, atol=1e-13)


def test_round_trip_and_unitarity():
    rng = np.random.default_rng(13)
    for n in (1, 2, 7, 32):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        plan = ss.DftPlan.create(n)
        fv = ss.apply_F(plan, v)
        assert np.linalg.norm(ss.apply_F_inv(plan, fv) - v) <= 1e-13 * np.linalg.norm(v)
        assert abs(np.linalg.norm(fv) - np.linalg.norm(v)) <= 1e-13 * np.linalg.norm(v)


def test_plan_matrix_is_unitary_and_matches_direct():
    plan = ss.DftPlan.create(12)
    F = ss.apply_F(plan, np.eye(12))
    assert_allclose(F, _direct_dft_matrix(12), atol=1e-14)
    assert_allclose(F @ F.conj().T, np.eye(12), atol=1e-13)


def test_length_mismatch_raises():
    plan = ss.DftPlan.create(4)
    with pytest.raises(ValueError):
        ss.apply_F(plan, np.ones(5))
    with pytest.raises(ValueError):
        ss.apply_F_inv(plan, np.ones(3))


def test_plan_order_must_be_an_integer():
    assert ss.DftPlan.create(np.int64(4)).n == 4
    assert type(ss.DftPlan.create(np.int64(4)).n) is int
    for bad in (2.5, 4.0, "4"):
        with pytest.raises(ValueError, match="integer"):
            ss.DftPlan.create(bad)
    with pytest.raises(ValueError, match="positive"):
        ss.DftPlan.create(0)
    for order_fn in (ss.scaling_D, ss.toeplitz_cauchy_nodes):
        with pytest.raises(ValueError, match="integer"):
            order_fn(2.5)


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize(
    "order_fn",
    [ss.DftPlan.create, ss.scaling_D, ss.toeplitz_cauchy_nodes],
    ids=["DftPlan.create", "scaling_D", "toeplitz_cauchy_nodes"],
)
def test_order_refuses_a_bool(order_fn, flag):
    # operator.index takes True for 1 and False for 0
    with pytest.raises(ValueError, match=f"integer, got {flag}"):
        order_fn(flag)


def test_zero_dimensional_input_raises():
    plan = ss.DftPlan.create(4)
    for apply in (ss.apply_F, ss.apply_F_inv):
        with pytest.raises(ValueError, match=r"shape \(\)"):
            apply(plan, 3.0)


def test_toeplitz_cauchy_nodes_order_two():
    nodes = ss.toeplitz_cauchy_nodes(2)
    assert_allclose(nodes.t, [1.0, -1.0], atol=1e-15)
    assert_allclose(nodes.s, [1j, -1j], atol=1e-15)


def test_toeplitz_cauchy_nodes_are_cached_and_read_only():
    nodes = ss.toeplitz_cauchy_nodes(12)
    assert ss.toeplitz_cauchy_nodes(12) is nodes
    assert ss.toeplitz_cauchy_nodes(13) is not nodes
    for v in (nodes.t, nodes.s):
        with pytest.raises(ValueError, match="read-only"):
            v[0] = 0.0
    # gko_factor permutes its own copies, never the cached nodes
    gen, _ = ss.to_cauchy_generators(ss.toeplitz_generators(ss.random_toeplitz(12, seed=1)))
    t, s = nodes.t.copy(), nodes.s.copy()
    f = ss.gko_factor(gen, nodes, "row1col1")
    identity = np.arange(12)
    assert not (
        np.array_equal(f.row_perm.idx, identity) and np.array_equal(f.col_perm.idx, identity)
    )
    assert np.array_equal(nodes.t, t) and np.array_equal(nodes.s, s)


@pytest.mark.parametrize("n", [2, 3, 8, 17, 64])
def test_node_gap_geometry(n):
    # the closest t/s pair sits one half-step apart on the circle, so the
    # smallest gap is the chord 2 sin(pi/2n); the largest chord reaches 2
    # exactly when n is odd (an s node antipodal to a t node), else stays
    # strictly below
    nodes = ss.toeplitz_cauchy_nodes(n)
    gaps = np.abs(nodes.gaps())
    assert gaps.min() == pytest.approx(2.0 * np.sin(np.pi / (2 * n)), rel=1e-12)
    if n % 2 == 0:
        assert gaps.max() < 2.0
    else:
        assert gaps.max() <= 2.0


def test_node_spread_bound_order_eight():
    nodes = ss.toeplitz_cauchy_nodes(8)
    gaps = np.abs(nodes.gaps())
    ratio = gaps.max() / gaps.min()
    assert ratio < 2 * 8 / np.pi
    assert ratio < 5.093


def test_node_interleaving_all_orders():
    for n in range(1, 129):
        nodes = ss.toeplitz_cauchy_nodes(n)
        ang_t = np.sort(np.mod(np.angle(nodes.t), 2 * np.pi))
        ang_s = np.sort(np.mod(np.angle(nodes.s), 2 * np.pi))
        # after sorting all angles together, labels must alternate t,s,t,s,..
        labels = np.array(["t"] * n + ["s"] * n)
        order = np.argsort(np.concatenate([ang_t, ang_s]), kind="stable")
        seq = labels[order]
        assert all(seq[2 * i] == "t" and seq[2 * i + 1] == "s" for i in range(n))


def test_scaling_D_values():
    assert_allclose(ss.scaling_D(1), [1.0])
    assert_allclose(ss.scaling_D(2), [1.0, 1j], atol=1e-16)
    d = ss.scaling_D(23)
    assert np.all(np.abs(np.abs(d) - 1.0) <= 1e-15)
