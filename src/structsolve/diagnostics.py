"""Measured growth factors, backward errors, and displacement recovery.

These routines quantify what the factorization traces record: the V-matrix
of elementwise generator cancellation, the growth factors g1/g2/g3 that
multiply the ||L|| ||U|| backward-error bound, and the actual backward
errors of computed factorizations at both the Cauchy and Toeplitz levels.

All bound formulas set the analysis' unspecified small constants to one, so
they are "unit-constant bounds": their growth across an experiment is
meaningful, their absolute validity is not asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cauchy_gko import GKOFactorization, GrowthTrace, _v_ratio
from .core import (
    EPS,
    CauchyNodes,
    GeneratorPair,
    ToeplitzCoeffs,
    _gap_extrema,
    materialize_cauchy,
)
from .oracle import dense_solve, dense_toeplitz
from .toeplitz import ToeplitzFactorization

__all__ = [
    "GrowthReport",
    "BackwardErrorReport",
    "v_matrix",
    "growth_report",
    "backward_error_cauchy",
    "backward_error_toeplitz",
    "recover_from_displacement",
    "solve_quality",
]


@dataclass
class GrowthReport:
    """Generator growth factors and unit-constant backward-error bounds.

    g1 sums the three ratio terms (reported individually as ``hatL_ratio``,
    ``hatU_ratio`` and ``v_kk_norm``); g2 is the largest per-step hatted norm
    ratio over steps 2..n, and g3 = max(g1, g2).
    """

    g1: float
    g2: float
    g3: float
    v_kk_norm: float
    hatL_ratio: float
    hatU_ratio: float
    b_max: float
    b_min: float
    bound_cauchy: float
    bound_toeplitz: float

    @property
    def bmax_over_bmin(self) -> float:
        return self.b_max / self.b_min

    def to_dict(self) -> dict:
        return {
            "g1": self.g1,
            "g2": self.g2,
            "g3": self.g3,
            "v_kk_norm": self.v_kk_norm,
            "hatL_ratio": self.hatL_ratio,
            "hatU_ratio": self.hatU_ratio,
            "b_max": self.b_max,
            "b_min": self.b_min,
            "bmax_over_bmin": self.bmax_over_bmin,
            "bound_cauchy": self.bound_cauchy,
            "bound_toeplitz": self.bound_toeplitz,
        }


@dataclass
class BackwardErrorReport:
    """Factorization and solve errors; fields not applicable are NaN."""

    abs_err: float = np.nan
    rel_err: float = np.nan
    residual: float = np.nan
    forward_err: float = np.nan

    def to_dict(self) -> dict:
        return {
            "abs_err": self.abs_err,
            "rel_err": self.rel_err,
            "residual": self.residual,
            "forward_err": self.forward_err,
        }


def v_matrix(gen: GeneratorPair) -> np.ndarray:
    """Elementwise cancellation ratio V with |phi||psi| = V o (phi psi).

    v_ij = (sum_m |phi_im| |psi_mj|) / (sum_m phi_im psi_mj).  Unit-modulus
    entries mean no cancellation; displacement rank 1 always gives that,
    leaving only a phase.  Entries whose denominator underflows
    |.| < 1e-300 are flagged as +inf rather than raising.
    """
    return _v_ratio(np.abs(gen.phi) @ np.abs(gen.psi), gen.phi @ gen.psi)


def growth_report(
    trace: GrowthTrace, f: GKOFactorization, nodes: CauchyNodes
) -> GrowthReport:
    """Assemble the growth factors and bounds from a factorization trace.

    g2 needs the per-step hatted norm ratios; when the factorization skipped
    them (large n), g2 and every quantity derived from it are NaN.
    """
    n = f.n
    norm_l = np.linalg.norm(f.L)
    norm_u = np.linalg.norm(f.U)
    hat_l = float(np.sqrt(np.sum(trace.hat_l_col**2)))
    hat_u = float(np.sqrt(np.sum(trace.hat_u_row**2)))
    hatL_ratio = hat_l / norm_l
    hatU_ratio = hat_u / norm_u
    # operator norm of diag{v_kk}: the constant that bounds ||L diag U||
    v_kk_norm = float(np.max(np.abs(trace.v_kk)))
    g1 = hatL_ratio + hatU_ratio + v_kk_norm

    if not trace.hat_ratios_computed:
        g2 = np.nan
    elif n < 2:
        g2 = 0.0
    else:
        g2 = float(np.max(trace.hat_ratio[1:]))
    g3 = max(g1, g2) if not np.isnan(g2) else np.nan

    gap_min, gap_max = _gap_extrema(nodes.t, nodes.s)
    b_max = float(1.0 / gap_min)
    b_min = float(1.0 / gap_max)

    lu = norm_l * norm_u
    bound_cauchy = EPS * (b_max / b_min * g1 + n * g2) * lu
    bound_toeplitz = EPS * g3 * n * lu
    return GrowthReport(
        g1=g1,
        g2=g2,
        g3=g3,
        v_kk_norm=v_kk_norm,
        hatL_ratio=hatL_ratio,
        hatU_ratio=hatU_ratio,
        b_max=b_max,
        b_min=b_min,
        bound_cauchy=float(bound_cauchy),
        bound_toeplitz=float(bound_toeplitz),
    )


def backward_error_cauchy(
    gen: GeneratorPair, nodes: CauchyNodes, f: GKOFactorization
) -> BackwardErrorReport:
    """|| P^T L U P'^T - R ||_F against the densely materialized matrix."""
    R = materialize_cauchy(gen, nodes)
    abs_err = float(np.linalg.norm(f.reconstruct() - R))
    return BackwardErrorReport(abs_err=abs_err, rel_err=abs_err / float(np.linalg.norm(R)))


def backward_error_toeplitz(
    c: ToeplitzCoeffs, f: ToeplitzFactorization
) -> BackwardErrorReport:
    """|| F* (P^T L U P'^T) F D - T ||_F for the Toeplitz pipeline."""
    T = dense_toeplitz(c)
    F = f.plan.matrix()
    rec = F.conj().T @ f.inner.reconstruct() @ F * f.d[None, :]
    abs_err = float(np.linalg.norm(rec - T))
    return BackwardErrorReport(abs_err=abs_err, rel_err=abs_err / float(np.linalg.norm(T)))


def recover_from_displacement(b) -> np.ndarray:
    """Invert the {Z_1, Z_-1} displacement: find A with Z_1 A - A Z_-1 = B.

    Entry (i, j) is half the difference of two "wrapped diagonal sums" of B:
    the diagonal through B starting below-left of (i, j), summed from column
    j to the last column, minus the same diagonal summed over columns before
    j, wrapping row indices modulo n.  The displacement operator traverses
    that closed diagonal loop twice, whence the factor one half.
    """
    B = np.asarray(b, dtype=complex)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError(f"need a square matrix, got shape {B.shape}")
    n = B.shape[0]
    idx = np.arange(n)
    # diag[m, c] = B[(m + c) mod n, c]: the m-th wrapped diagonal, by column
    diagonals = B[(idx[:, None] + idx[None, :]) % n, idx[None, :]]
    before = np.hstack(
        [np.zeros((n, 1), dtype=complex), np.cumsum(diagonals, axis=1)[:, :-1]]
    )
    totals = before[:, -1] + diagonals[:, -1]
    i, j = np.meshgrid(idx, idx, indexing="ij")
    m = (i - j + 1) % n
    return 0.5 * (totals[m] - 2.0 * before[m, j])


def solve_quality(c: ToeplitzCoeffs, b, x_tilde) -> BackwardErrorReport:
    """Residual and oracle-relative forward error of a computed solution."""
    b = np.asarray(b, dtype=complex)
    x_tilde = np.asarray(x_tilde, dtype=complex)
    T = dense_toeplitz(c)
    if b.shape[0] != c.n or x_tilde.shape[0] != c.n:
        raise ValueError("size mismatch between coefficients, b, and x")
    residual = float(np.linalg.norm(T @ x_tilde - b) / np.linalg.norm(b))
    x_oracle = dense_solve(T, b)
    forward = float(
        np.linalg.norm(x_tilde - x_oracle) / np.linalg.norm(x_oracle)
    )
    return BackwardErrorReport(residual=residual, forward_err=forward)
