"""Tests for the adversarial and randomized instance constructors."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import structsolve as ss


def test_adversarial_exact_coefficients():
    coeffs = ss.adversarial_toeplitz(ss.AdversarialSpec(n=8, delta=1e-3))
    s8, c8 = np.sin(np.pi / 8), np.cos(np.pi / 8)
    # a_k sits at a[k + n - 1], as dense_toeplitz reads it
    a = coeffs.a
    assert a[0 + 7] == 1.0
    assert a[3 + 7] == -s8
    assert a[7 + 7] == c8 + 5e-4
    assert a[-5 + 7] == s8
    assert a[-1 + 7] == -(c8 + 5e-4)
    nonzero = {k for k in range(-7, 8) if a[k + 7] != 0.0}
    assert nonzero == {0, 3, 7, -5, -1}


def test_adversarial_is_real_toeplitz():
    coeffs = ss.adversarial_toeplitz(ss.AdversarialSpec(n=12, delta=1e-2))
    assert np.all(coeffs.a.imag == 0.0)
    T = ss.dense_toeplitz(coeffs)
    assert np.all(T.imag == 0.0)
    for k in range(-11, 12):
        assert np.all(np.diag(T, -k) == coeffs.a[k + 11])


def test_adversarial_spec_validation():
    with pytest.raises(ValueError):
        ss.AdversarialSpec(n=7, delta=1e-2)
    with pytest.raises(ValueError):
        ss.AdversarialSpec(n=2, delta=1e-2)
    with pytest.raises(ValueError):
        ss.AdversarialSpec(n=8, delta=0.0)
    with pytest.raises(ValueError):
        ss.AdversarialSpec(n=8, delta=2.0)


@pytest.mark.parametrize(
    "n, message",
    [
        (8.0, "order must be an integer, got 8.0"),
        (True, "order must be an integer, got True"),
        (np.float64(8), "order must be an integer, got "),
        (7, "order must be even and at least 4, got 7"),
        (2, "order must be even and at least 4, got 2"),
        (0, "order must be even and at least 4, got 0"),
    ],
    ids=["float", "bool", "numpy-float", "odd", "small", "zero"],
)
def test_adversarial_spec_refuses_an_order_that_is_not_an_even_integer(n, message):
    # a float used to pass here and fail inside adversarial_toeplitz
    with pytest.raises(ValueError, match=message):
        ss.AdversarialSpec(n=n, delta=0.1)


def test_adversarial_spec_keeps_an_integer_order_as_int():
    spec = ss.AdversarialSpec(n=np.int64(8), delta=0.1)
    assert type(spec.n) is int
    assert np.array_equal(ss.adversarial_toeplitz(spec).a,
                          ss.adversarial_toeplitz(ss.AdversarialSpec(8, 0.1)).a)


def test_adversarial_cancellation_magnitude():
    coeffs = ss.adversarial_toeplitz(ss.AdversarialSpec(n=8, delta=1e-3))
    gen_c, _ = ss.to_cauchy_generators(ss.toeplitz_generators(coeffs))
    colsum = gen_c.psi[:, 0].sum()
    assert abs(abs(colsum) - 1e-3 / np.sqrt(8)) <= 1e-14


def test_adversarial_v_scaling_with_delta():
    # first-column V magnitude scales like 1/delta across the sweep
    prev = None
    for k in range(2, 7):
        coeffs = ss.adversarial_toeplitz(ss.AdversarialSpec(n=8, delta=10.0**-k))
        gen_c, _ = ss.to_cauchy_generators(ss.toeplitz_generators(coeffs))
        vmax = np.abs(ss.v_matrix(gen_c)[:, 0]).max()
        if prev is not None:
            assert vmax >= 5.0 * prev  # a decade of 1/delta: expect ~10x
        prev = vmax


def test_cancellation_no_cancellation_regime():
    gen, nodes = ss.cancellation_cauchy(8, f_norm=1.0, seed=0)
    V = np.abs(ss.v_matrix(gen))
    assert V.max() <= 50.0
    f = ss.gko_factor(gen, nodes, "partial")
    assert ss.backward_error_cauchy(gen, nodes, f).rel_err <= 1e-12


def test_cancellation_deep_regime_v_floor():
    gen, _ = ss.cancellation_cauchy(8, f_norm=1e-8, seed=2)
    assert np.abs(ss.v_matrix(gen)).min() >= 1e6


def test_cancellation_norms_and_structure():
    gen, _ = ss.cancellation_cauchy(10, f_norm=1e-4, seed=3)
    a = gen.phi[:, 0]
    f = gen.phi[:, 1] - a
    assert np.linalg.norm(a) == pytest.approx(1.0, rel=1e-14)
    assert np.linalg.norm(f) == pytest.approx(1e-4, rel=1e-14)
    assert_allclose(gen.psi[0], a)
    assert_allclose(gen.psi[1], -a)


def test_cancellation_well_conditioned_independent_of_f_norm():
    conds = []
    for f_norm in (1.0, 1e-4, 1e-8):
        gen, nodes = ss.cancellation_cauchy(8, f_norm=f_norm, seed=42)
        conds.append(ss.cond_estimate(ss.materialize_cauchy(gen, nodes)))
    assert max(conds) <= 1e4
    assert max(conds) / min(conds) <= 10.0


def test_cancellation_validation():
    with pytest.raises(ValueError):
        ss.cancellation_cauchy(1, 1e-2, 0)
    with pytest.raises(ValueError):
        ss.cancellation_cauchy(8, 0.0, 0)


def test_random_toeplitz_reproducible_and_seeded():
    c1 = ss.random_toeplitz(8, seed=5)
    c2 = ss.random_toeplitz(8, seed=5)
    c3 = ss.random_toeplitz(8, seed=6)
    assert np.array_equal(c1.a, c2.a)
    assert not np.array_equal(c1.a, c3.a)
    assert np.all(np.abs(c1.a) <= 1.0)


def test_random_toeplitz_displacement_rank():
    disp = ss.toeplitz_displacement(ss.random_toeplitz(8, seed=7))
    sv = np.linalg.svd(disp, compute_uv=False)
    assert np.sum(sv > 1e-12 * sv[0]) <= 2


def test_random_cauchy_rank_one_v_is_flat():
    gen, _ = ss.random_cauchy_type(8, 1, seed=8)
    assert_allclose(np.abs(ss.v_matrix(gen)), np.ones((8, 8)), atol=1e-15)


def test_random_cauchy_reproducible():
    g1, n1 = ss.random_cauchy_type(8, 3, seed=9)
    g2, n2 = ss.random_cauchy_type(8, 3, seed=9)
    assert np.array_equal(g1.phi, g2.phi)
    assert np.array_equal(g1.psi, g2.psi)
    assert np.array_equal(n1.t, n2.t)
    assert np.array_equal(n1.s, n2.s)


def test_random_cauchy_node_separation():
    for n in (2, 8, 64):
        _, nodes = ss.random_cauchy_type(n, 2, seed=n)
        gaps = np.abs(nodes.gaps())
        assert gaps.min() >= 0.5 / n


def test_random_cauchy_factorization_accuracy():
    gen, nodes = ss.random_cauchy_type(16, 2, seed=10)
    f = ss.gko_factor(gen, nodes, "partial")
    assert ss.backward_error_cauchy(gen, nodes, f).rel_err <= 1e-12


def test_random_cauchy_validation():
    with pytest.raises(ValueError):
        ss.random_cauchy_type(0, 1, 0)
    with pytest.raises(ValueError):
        ss.random_cauchy_type(8, 5, 0)


@pytest.mark.parametrize(
    "n, message",
    [
        (8.0, "order must be an integer, got 8.0"),
        (True, "order must be an integer, got True"),
        (1, "order must be at least 2"),
    ],
    ids=["float", "bool", "one"],
)
def test_cancellation_cauchy_refuses_an_order_that_is_not_an_integer(n, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ss.cancellation_cauchy(n, 1e-2, 0)


@pytest.mark.parametrize(
    "n, message",
    [
        (8.0, "order must be an integer, got 8.0"),
        (True, "order must be an integer, got True"),
        (1, "order must be at least 2"),
    ],
    ids=["float", "bool", "one"],
)
def test_random_toeplitz_refuses_an_order_that_is_not_an_integer(n, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ss.random_toeplitz(n, 1)


@pytest.mark.parametrize(
    "n, alpha, message",
    [
        (8.0, 1, "order must be an integer, got 8.0"),
        (True, 1, "order must be an integer, got True"),
        (0, 1, "order must be positive"),
        (4, 2.0, "displacement rank must be an integer, got 2.0"),
        (4, False, "displacement rank must be an integer, got False"),
        (4, 0, r"displacement rank must be in 1\.\.4, got 0"),
        (4, 5, r"displacement rank must be in 1\.\.4, got 5"),
    ],
    ids=["float-n", "bool-n", "zero-n", "float-alpha", "bool-alpha", "zero-alpha", "big-alpha"],
)
def test_random_cauchy_type_refuses_an_order_or_rank_that_is_not_an_integer(n, alpha, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ss.random_cauchy_type(n, alpha, 1)

