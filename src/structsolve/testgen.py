"""Constructors for adversarial and randomized test instances.

The adversarial Toeplitz family concentrates generator cancellation in the
first column of the transformed Cauchy-type matrix: the derived psi column
sums to delta/sqrt(n), so the V-matrix first column has magnitude O(1/delta)
and ordinary partial pivoting cannot see the danger.  The Cauchy
cancellation family makes *every* V entry large at once.

All constructors are deterministic given their seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CauchyNodes, GeneratorPair, ToeplitzCoeffs, _order

__all__ = [
    "AdversarialSpec",
    "adversarial_toeplitz",
    "cancellation_cauchy",
    "random_toeplitz",
    "random_cauchy_type",
]


@dataclass(frozen=True)
class AdversarialSpec:
    """Order and cancellation depth of an adversarial Toeplitz instance."""

    n: int
    delta: float

    def __post_init__(self):
        message = f"order must be even and at least 4, got {self.n}"
        n = _order(self.n, 4, message)
        if n % 2 != 0:
            raise ValueError(message)
        object.__setattr__(self, "n", n)
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"delta must lie in (0, 1], got {self.delta}")


def adversarial_toeplitz(spec: AdversarialSpec) -> ToeplitzCoeffs:
    """Real order-n Toeplitz coefficients with tunable generator cancellation.

    a_0 = 1; the only other nonzero upper coefficients are
    a_{n/2-1} = -sin(pi/n) and a_{n-1} = cos(pi/n) + delta/2, and the lower
    coefficients are the anti-symmetric completion a_{i-n} = -a_i.  This
    keeps the {Z_1, Z_-1}-generator phi equal to [e_1, e_1] while the
    transformed psi first column sums to delta/sqrt(n).
    """
    n = spec.n
    a = np.zeros(2 * n - 1, dtype=complex)
    off = n - 1
    a[off] = 1.0
    a[n // 2 - 1 + off] = -np.sin(np.pi / n)
    a[n - 1 + off] = np.cos(np.pi / n) + spec.delta / 2.0
    i = np.arange(1, n)
    a[i - n + off] = -a[i + off]
    return ToeplitzCoeffs(a=a)


def _interleaved_nodes(n: int, rng: np.random.Generator) -> CauchyNodes:
    # t at even and s at odd multiples of 1/n on [0, 2), jittered by up to
    # 0.2/n each, so min |t_i - s_j| >= 0.6/n and b_max/b_min stays moderate
    h = 1.0 / n
    k = np.arange(n)
    t = 2 * k * h + rng.uniform(-0.2 * h, 0.2 * h, n)
    s = (2 * k + 1) * h + rng.uniform(-0.2 * h, 0.2 * h, n)
    return CauchyNodes(t=t, s=s)


def _signed_magnitudes(n: int, rng: np.random.Generator) -> np.ndarray:
    # component magnitudes bounded away from zero keep the materialized
    # matrix well-conditioned (its rows/columns scale by these entries)
    return rng.uniform(0.5, 1.0, n) * rng.choice([-1.0, 1.0], n)


def cancellation_cauchy(n: int, f_norm: float, seed: int):
    """Cauchy-type generators with total cancellation: phi psi = -f a^T.

    phi = [a, a+f] and psi has rows (a, -a) with ||a|| = 1, ||f|| = f_norm,
    so every entry of |phi||psi| is O(1) while phi psi is O(f_norm): the
    V-matrix is uniformly O(1/f_norm) yet the materialized matrix itself is
    well-conditioned.  Returns ``(GeneratorPair, CauchyNodes)``.
    """
    n = _order(n, 2, "order must be at least 2")
    if not 0.0 < f_norm <= 1.0:
        raise ValueError(f"f_norm must lie in (0, 1], got {f_norm}")
    rng = np.random.default_rng(seed)
    a = _signed_magnitudes(n, rng)
    a = a / np.linalg.norm(a)
    f = _signed_magnitudes(n, rng)
    f = f_norm * f / np.linalg.norm(f)
    phi = np.stack([a, a + f], axis=1)
    psi = np.stack([a, -a], axis=0)
    return GeneratorPair(phi=phi, psi=psi), _interleaved_nodes(n, rng)


def random_toeplitz(n: int, seed: int) -> ToeplitzCoeffs:
    """Order-n Toeplitz coefficients i.i.d. uniform on [-1, 1]."""
    n = _order(n, 2, "order must be at least 2")
    rng = np.random.default_rng(seed)
    return ToeplitzCoeffs(a=rng.uniform(-1.0, 1.0, 2 * n - 1))


def random_cauchy_type(n: int, alpha: int, seed: int):
    """Random rank-alpha Cauchy-type instance with well-separated nodes."""
    n = _order(n, 1, "order must be positive")
    message = f"displacement rank must be in 1..4, got {alpha}"
    alpha = _order(alpha, 1, message, name="displacement rank")
    if alpha > 4:
        raise ValueError(message)
    rng = np.random.default_rng(seed)
    nodes = _interleaved_nodes(n, rng)
    phi = rng.uniform(-1.0, 1.0, (n, alpha))
    psi = rng.uniform(-1.0, 1.0, (alpha, n))
    return GeneratorPair(phi=phi, psi=psi), nodes
