"""Tests for the shared domain types and Cauchy materialization."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import structsolve as ss


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        ss.Permutation(np.array([0, 0, 2]))


def test_materialize_single_entry():
    gen = ss.GeneratorPair(phi=np.ones((1, 1)), psi=np.ones((1, 1)))
    nodes = ss.CauchyNodes(t=[2.0], s=[0.0])
    assert_allclose(ss.materialize_cauchy(gen, nodes), [[0.5]])


def test_materialize_ordinary_cauchy():
    n = 3
    gen = ss.GeneratorPair(phi=np.ones((n, 1)), psi=np.ones((1, n)))
    t = np.array([4.0, 5.0, 6.0])
    s = np.array([1.0, 2.0, 3.0])
    expected = 1.0 / (t[:, None] - s[None, :])
    got = ss.materialize_cauchy(gen, ss.CauchyNodes(t=t, s=s))
    assert_allclose(got, expected, rtol=1e-15)


def _dense_unitary_dft(n):
    # independent of structsolve.dft: direct exponential evaluation
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(2j * np.pi * j * k / n) / np.sqrt(n)


def test_materialize_matches_dense_transform_of_toeplitz():
    n = 8
    coeffs = ss.random_toeplitz(n, seed=21)
    gen, nodes = ss.to_cauchy_generators(ss.toeplitz_generators(coeffs))
    T = ss.dense_toeplitz(coeffs)
    F = _dense_unitary_dft(n)
    d = np.exp(1j * np.pi * np.arange(n) / n)
    expected = F @ T @ np.diag(np.conj(d)) @ F.conj().T
    got = ss.materialize_cauchy(gen, nodes)
    assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)


def test_materialize_is_bilinear_in_generators():
    rng = np.random.default_rng(3)
    n, alpha = 6, 2
    _, nodes = ss.random_cauchy_type(n, alpha, seed=14)
    phi1, phi2 = rng.standard_normal((2, n, alpha))
    psi = rng.standard_normal((alpha, n))
    a, b = 0.7, -1.3
    combo = ss.materialize_cauchy(
        ss.GeneratorPair(phi=a * phi1 + b * phi2, psi=psi), nodes
    )
    parts = a * ss.materialize_cauchy(
        ss.GeneratorPair(phi=phi1, psi=psi), nodes
    ) + b * ss.materialize_cauchy(ss.GeneratorPair(phi=phi2, psi=psi), nodes)
    assert np.linalg.norm(combo - parts) <= 1e-14 * np.linalg.norm(parts)


@pytest.mark.parametrize("n", [2, 8, 64])
def test_materialized_matrix_satisfies_sylvester_equation(n):
    gen, nodes = ss.random_cauchy_type(n, alpha=2, seed=n)
    R = ss.materialize_cauchy(gen, nodes)
    disp = np.diag(nodes.t) @ R - R @ np.diag(nodes.s)
    rhs = gen.phi @ gen.psi
    assert np.linalg.norm(disp - rhs) <= 1e-13 * np.linalg.norm(rhs)


def test_nodes_reject_exact_collision():
    with pytest.raises(ss.NodeCollisionError):
        ss.CauchyNodes(t=[1.0, 2.0], s=[2.0, 3.0])


@pytest.mark.parametrize(
    "t, s",
    [
        ([np.nan, 1.0], [0.5, 2.0]),
        ([1.0, 2.0], [0.5, np.inf]),
        ([1.0, 2.0], [complex(0.0, np.nan), 3.0]),
    ],
    ids=["nan-t", "inf-s", "nan-imag-s"],
)
def test_nodes_reject_non_finite(t, s):
    with pytest.raises(ValueError, match="finite"):
        ss.CauchyNodes(t=t, s=s)


@pytest.mark.parametrize(
    "bad", [np.nan, np.inf, complex(1.0, np.nan)], ids=["nan", "inf", "nan-imag"]
)
def test_toeplitz_coeffs_reject_non_finite(bad):
    a = np.ones(15, dtype=complex)
    a[3] = bad
    with pytest.raises(ValueError, match="finite"):
        ss.ToeplitzCoeffs(a=a)


def test_nodes_reject_near_collision():
    with pytest.raises(ss.NodeCollisionError):
        ss.CauchyNodes(t=[1.0, 2.0], s=[1.0 + 1e-16, 5.0])


def test_nodes_accept_separated():
    nodes = ss.CauchyNodes(t=[1.0, 2.0], s=[0.0, 0.5])
    assert nodes.n == 2


def test_generator_pair_shape_validation():
    with pytest.raises(ValueError):
        ss.GeneratorPair(phi=np.ones((3, 2)), psi=np.ones((3, 3)))
    with pytest.raises(ValueError):
        ss.GeneratorPair(phi=np.ones((3, 2)), psi=np.ones((2, 4)))


def test_toeplitz_coeffs_validation_and_diag():
    with pytest.raises(ValueError):
        ss.ToeplitzCoeffs(a=np.ones(4))
    c = ss.ToeplitzCoeffs(a=np.arange(5.0))
    assert c.n == 3
    assert c.diag(0) == 2.0
    assert c.diag(-2) == 0.0
    assert c.diag(2) == 4.0
    with pytest.raises(IndexError):
        c.diag(3)
