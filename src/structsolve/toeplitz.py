"""The Toeplitz pipeline: generators, DFT conversion to Cauchy form, solve.

A Toeplitz matrix cannot be pivoted without destroying its structure, but
R = F T D^{-1} F* is Cauchy-type, and row (or column) interchanges on R only
permute its displacement nodes.  Factoring R as P^T L U P'^T therefore gives

    T = F* P^T L U P'^T F D,

from which a linear system in T is solved with two transforms and two
triangular substitutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cauchy_gko import GKOFactorization, PivotStrategy, gko_factor, solve_with_factors
from .core import GeneratorPair, ToeplitzCoeffs
from .dft import DftPlan, apply_F, apply_F_inv, scaling_D, toeplitz_cauchy_nodes

__all__ = [
    "ToeplitzFactorization",
    "toeplitz_generators",
    "to_cauchy_generators",
    "toeplitz_factor",
    "toeplitz_solve",
    "toeplitz_displacement",
]


@dataclass
class ToeplitzFactorization:
    """Factorization T = F* P^T L U P'^T F D of an order-n Toeplitz matrix."""

    inner: GKOFactorization
    plan: DftPlan
    d: np.ndarray

    @property
    def n(self) -> int:
        return self.plan.n


def toeplitz_generators(c: ToeplitzCoeffs) -> GeneratorPair:
    """{Z_1, Z_-1}-generators of the Toeplitz matrix with coefficients ``c``.

    phi column 0 is e_1 and column 1 is (a_0, a_{1-n}+a_1, .., a_{-1}+a_{n-1});
    psi row 0 is (a_{n-1}-a_{-1}, .., a_1-a_{1-n}, a_0) and row 1 is e_n.
    The displacement rank is 2.
    """
    n = c.n
    a = c.a
    off = n - 1  # a_k lives at a[k + off]
    phi = np.zeros((n, 2), dtype=complex)
    psi = np.zeros((2, n), dtype=complex)
    phi[0, 0] = 1.0
    phi[0, 1] = a[off]
    i = np.arange(1, n)
    phi[1:, 1] = a[i - n + off] + a[i + off]
    j = np.arange(1, n)
    psi[0, :-1] = a[n - j + off] - a[-j + off]
    psi[0, -1] = a[off]
    psi[1, -1] = 1.0
    return GeneratorPair(phi=phi, psi=psi)


def to_cauchy_generators(gen: GeneratorPair):
    """Convert {Z_1, Z_-1}-generators to Cauchy-type generators via the DFT.

    Returns ``(gen_c, nodes)`` with phi_C = F Omega and psi_C* = F D Gamma*,
    the generator transform accompanying R = F T D^{-1} F*.
    """
    return _to_cauchy(gen, DftPlan.create(gen.n), scaling_D(gen.n))


def _to_cauchy(gen: GeneratorPair, plan: DftPlan, d: np.ndarray):
    phi_c = apply_F(plan, gen.phi)
    psi_c = apply_F(plan, d[:, None] * gen.psi.conj().T).conj().T
    return GeneratorPair(phi=phi_c, psi=psi_c), toeplitz_cauchy_nodes(gen.n)


def toeplitz_factor(
    c: ToeplitzCoeffs, strategy=PivotStrategy.PARTIAL_ROW, hat_ratios="auto"
) -> ToeplitzFactorization:
    """Build generators, transform to Cauchy form, and run the GKO factorization."""
    plan, d = DftPlan.create(c.n), scaling_D(c.n)
    gen_c, nodes = _to_cauchy(toeplitz_generators(c), plan, d)
    inner = gko_factor(gen_c, nodes, strategy, hat_ratios=hat_ratios)
    return ToeplitzFactorization(inner=inner, plan=plan, d=d)


def toeplitz_solve(f: ToeplitzFactorization, b) -> np.ndarray:
    """Solve T x = b from the factorization T = F* P^T L U P'^T F D.

    ``b`` is one right-hand side of shape (n,) or several as the columns of
    an (n, m) array.  The result is complex; for real systems its imaginary
    part is rounding-level and is left to the caller to drop.
    """
    b = np.asarray(b, dtype=complex)
    if b.shape[0] != f.n:
        raise ValueError(f"factorization is order {f.n}, b has length {b.shape[0]}")
    y = solve_with_factors(f.inner, apply_F(f.plan, b))
    # x = D^* F^* y; D is unit-modulus so its inverse is the conjugate
    d_inv = np.conj(f.d) if b.ndim == 1 else np.conj(f.d)[:, None]
    return d_inv * apply_F_inv(f.plan, y)


def toeplitz_displacement(c: ToeplitzCoeffs) -> np.ndarray:
    """Dense displacement Z_1 T - T Z_-1 (rank at most 2), for testing."""
    n = c.n
    i = np.arange(n)
    T = c.a[(i[:, None] - i[None, :]) + n - 1]
    # Z_1 T cycles the rows down (last row wraps to the top with sign +1);
    # T Z_-1 shifts the columns left with the first column wrapping negated.
    zt = np.roll(T, 1, axis=0)
    tz = np.empty_like(T)
    tz[:, :-1] = T[:, 1:]
    tz[:, -1] = -T[:, 0]
    return zt - tz
