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

from dataclasses import asdict, dataclass

import numpy as np

from .cauchy_gko import GKOFactorization, GrowthTrace, _add_lu_product
from .core import (
    EPS,
    CauchyNodes,
    GeneratorPair,
    SingularMatrixError,
    ToeplitzCoeffs,
    _cauchy_matrix,
    _ldexp,
    _part_exponent,
    dense_toeplitz,
)
from .dft import apply_F, apply_F_inv
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
    bmax_over_bmin: float
    bound_cauchy: float
    bound_toeplitz: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class BackwardErrorReport:
    """Factorization and solve errors; fields not applicable are NaN.

    ``forward_err`` is ||x - x_ref|| / ||x_ref|| for the solution x_ref that
    LAPACK's GE/PP (``np.linalg.solve``) computes from the dense matrix.
    """

    abs_err: float = np.nan
    rel_err: float = np.nan
    residual: float = np.nan
    forward_err: float = np.nan

    def to_dict(self) -> dict:
        return asdict(self)


def _check_orders(n: int, **orders: int) -> None:
    """Raise ValueError unless each named input is of the factorization's order n.

    Without the check numpy would broadcast an order-1 input against an
    order-n factorization and return a number.
    """
    for name, m in orders.items():
        if m != n:
            raise ValueError(f"factorization is order {n}, {name} order {m}")


def _v_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Elementwise |phi||psi| / (phi psi), +inf where the quotient is not finite.

    The kernel's v_kk follows the same rule.  A zero denominator or an
    overflowing quotient is flagged, not warned about.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        v = num / den
    v[~np.isfinite(v)] = np.inf
    return v


def v_matrix(gen: GeneratorPair) -> np.ndarray:
    """Elementwise cancellation ratio V with |phi||psi| = V o (phi psi).

    v_ij = (sum_m |phi_im| |psi_mj|) / (sum_m phi_im psi_mj).  Unit-modulus
    entries mean no cancellation; displacement rank 1 always gives that,
    leaving only a phase.  Entries whose quotient is not finite (a zero
    denominator, or a quotient past the float range) are +inf.  V does not
    change when phi or psi is scaled, and neither does this function: it
    scales each of phi and psi by the power of two that brings its largest
    real or imaginary part into [0.5, 1), which is exact, so the products
    neither under- nor overflow for the generators' scale alone.
    """
    phi, psi = (_ldexp(g, -_part_exponent(g)) for g in (gen.phi, gen.psi))
    return _v_ratio(np.abs(phi) @ np.abs(psi), phi @ psi)


def growth_report(
    trace: GrowthTrace, f: GKOFactorization, nodes: CauchyNodes
) -> GrowthReport:
    """Assemble the growth factors and bounds from a factorization trace.

    ``trace`` must be ``f.trace``, the trace f holds, or ``ValueError``: g1
    adds f's hatted ratios to the trace's v_kk.  g2 needs the per-step
    hatted norm ratios; when the factorization skipped them (large n), g2
    and every quantity derived from it are NaN.  At n = 1 there is no step
    2, and g2 is 0.
    """
    n = f.n
    if trace is not f.trace:
        raise ValueError("trace must be f.trace, the trace of the factorization f")
    _check_orders(n, nodes=nodes.n)
    # operator norm of diag{v_kk}: the constant that bounds ||L diag U||
    v_kk_norm = float(np.max(np.abs(trace.v_kk)))
    g1 = f.hatL_ratio + f.hatU_ratio + v_kk_norm

    # np.max propagates a NaN, so g2 is NaN where the ratios were skipped,
    # and with no step 2 (n = 1) it is the initial 0
    g2 = float(np.max(trace.hat_ratio[1:], initial=0.0))
    g3 = max(g1, g2) if not np.isnan(g2) else np.nan

    gap_min, gap_max = nodes.gap_extrema
    b_max = float(1.0 / gap_min)
    b_min = float(1.0 / gap_max)

    bmax_over_bmin = b_max / b_min
    lu = f.norm_L * f.norm_U
    bound_cauchy = EPS * (bmax_over_bmin * g1 + n * g2) * lu
    bound_toeplitz = EPS * g3 * n * lu
    return GrowthReport(
        g1=g1,
        g2=g2,
        g3=g3,
        v_kk_norm=v_kk_norm,
        hatL_ratio=f.hatL_ratio,
        hatU_ratio=f.hatU_ratio,
        b_max=b_max,
        b_min=b_min,
        bmax_over_bmin=bmax_over_bmin,
        bound_cauchy=float(bound_cauchy),
        bound_toeplitz=float(bound_toeplitz),
    )


def backward_error_cauchy(
    gen: GeneratorPair, nodes: CauchyNodes, f: GKOFactorization
) -> BackwardErrorReport:
    """|| P^T L U P'^T - R ||_F against the densely materialized matrix.

    Measured as || L U - P R P' ||_F: P R P' is R in elimination order,
    materialized from the permuted generators and nodes, and L U is added
    into its negation straight from ``f.LU``.  That one n x n array is all
    the measurement holds beyond the factorization.
    """
    _check_orders(f.n, generators=gen.n, nodes=nodes.n)
    rows, cols = f.row_perm.idx, np.argsort(f.col_perm.idx)
    A = _cauchy_matrix(gen.phi[rows], gen.psi[:, cols], nodes.t[rows], nodes.s[cols])
    return _lu_error(f, A, _norm(A))


def backward_error_toeplitz(
    c: ToeplitzCoeffs, f: ToeplitzFactorization
) -> BackwardErrorReport:
    """|| F* P^T L U P'^T F D - T ||_F for the Toeplitz pipeline.

    F and D are unitary, so this is || P^T L U P'^T - F T D* F* ||_F, and
    it is measured as ``backward_error_cauchy`` measures its own: L U
    against F T D* F* in elimination order.  T is transformed by two FFT
    passes, F from the left, then F* from the right as F* applied to the
    transpose, for F is symmetric; two n x n arrays are held while a pass
    runs, one otherwise.
    """
    _check_orders(f.n, coefficients=c.n)
    T = dense_toeplitz(c)
    t_norm = _norm(T)
    left = apply_F(f.plan, T)
    del T
    left *= np.conj(f.d)
    right = apply_F_inv(f.plan, left.T)
    del left
    inner = f.inner
    A = right.T[np.ix_(inner.row_perm.idx, np.argsort(inner.col_perm.idx))]
    del right
    return _lu_error(inner, A, t_norm)


def _lu_error(f: GKOFactorization, A: np.ndarray, ref_norm: float) -> BackwardErrorReport:
    """Frobenius distance of L U from A, absolute and relative to ``ref_norm``.

    A is overwritten.  Both norms are ``_norm``'s and ``_relative`` divides
    them, so a matrix scaled far past the square-root range keeps its
    relative error.
    """
    np.negative(A, out=A)
    _add_lu_product(f.LU, A)
    abs_err = _norm(A)
    return BackwardErrorReport(abs_err=abs_err, rel_err=_relative(abs_err, ref_norm))


def recover_from_displacement(b) -> np.ndarray:
    """Invert the {Z_1, Z_-1} displacement: find A with Z_1 A - A Z_-1 = B.

    Entry (i, j) is half the difference of two "wrapped diagonal sums" of B:
    the diagonal through B starting below-left of (i, j), summed from column
    j to the last column, minus the same diagonal summed over columns before
    j, wrapping row indices modulo n.  The displacement operator traverses
    that closed diagonal loop twice, whence the factor one half.  B must be
    square and finite, or ``ValueError``.
    """
    B = np.asarray(b, dtype=complex)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError(f"need a square matrix, got shape {B.shape}")
    if not np.isfinite(B).all():
        raise ValueError("displacement B must be finite")
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


def _relative(err, ref) -> float:
    """err / ref for norms; against a zero ref, 0 for no error, NaN for a NaN
    error and inf otherwise."""
    err, ref = float(err), float(ref)
    if ref == 0.0:
        return err if np.isnan(err) or err == 0.0 else np.inf
    return err / ref


def _norm(v) -> float:
    """2-norm of v, taken as 2^e ||v 2^-e|| when the plain ``np.linalg.norm``
    under- or overflows, 2^e being the power of two just above v's largest
    real or imaginary part.

    Squares of entries below about 1e-154 underflow, so a vector of 1e-300
    entries would have norm 0; LAPACK's ``dnrm2`` scales by the largest
    magnitude for the same reason.  A power of two scales exactly, so v
    scaled by 2^k has the norm of v scaled by 2^k, bit for bit, wherever
    the plain norm of v is in range, and a relative error keeps its bits.
    The rescaled norm is taken only when the plain one is 0, subnormal or
    inf and v is finite and not zero, so any other norm keeps its bits.
    """
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    e = _part_exponent(v) if norm < np.finfo(float).tiny or norm == np.inf else 0
    # e is 0 also for a zero or a non-finite v, and scaling by 2^0 changes nothing
    return norm if e == 0 else float(np.ldexp(np.linalg.norm(_ldexp(v, -e)), e))


def _solve_errors(A: np.ndarray, b, x_tilde) -> BackwardErrorReport:
    """Residual ||A x - b|| / ||b|| and forward error against LAPACK's GE/PP.

    The reference solution is ``np.linalg.solve(A, b)``.  When LAPACK meets
    an exactly zero pivot, or its solution is not finite, the system is
    singular to working precision and ``SingularMatrixError`` is raised.
    For b = 0 both errors are 0 when x is exactly zero, NaN when x has a NaN
    entry, and inf otherwise, however small x is.  b and x must have the
    same shape: a column against a vector would broadcast to a matrix and
    give a wrong number, so it raises ``ValueError``.

    b and x are first scaled by 2^-e, e as ``solve_with_factors`` takes it
    from b, so a b near the float limit overflows neither the residual nor
    the reference solve.  A power of two scales exactly, and each relative
    error has the bits of the unscaled one wherever that is in range.
    """
    if np.shape(b) != np.shape(x_tilde):
        raise ValueError(
            f"b has shape {np.shape(b)} and x shape {np.shape(x_tilde)}: they must match"
        )
    scale = 2.0 ** -_part_exponent(b, clamp=True)
    b, x_tilde = b * scale, x_tilde * scale
    residual = _relative(_norm(A @ x_tilde - b), _norm(b))
    try:
        x_ref = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"reference solve failed: {exc}") from exc
    if not np.all(np.isfinite(x_ref)):
        raise SingularMatrixError("reference solve has non-finite entries")
    forward = _relative(_norm(x_tilde - x_ref), _norm(x_ref))
    return BackwardErrorReport(residual=residual, forward_err=forward)


def solve_quality(c: ToeplitzCoeffs, b, x_tilde) -> BackwardErrorReport:
    """Residual and forward error of a computed solution of T x = b.

    b is one right-hand side of shape (n,) or several as the columns of an
    (n, m) array, and x has b's shape; otherwise ``ValueError``.  The
    forward error is measured against LAPACK's GE/PP solution of the dense
    T (``np.linalg.solve``), O(n^3) at BLAS speed; a T singular to working
    precision raises ``SingularMatrixError``.
    """
    b = np.asarray(b, dtype=complex)
    x_tilde = np.asarray(x_tilde, dtype=complex)
    if b.ndim not in (1, 2) or b.shape[0] != c.n:
        raise ValueError(f"b must have shape ({c.n},) or ({c.n}, m), got shape {b.shape}")
    return _solve_errors(dense_toeplitz(c), b, x_tilde)
