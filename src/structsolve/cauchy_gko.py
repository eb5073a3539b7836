"""Structured Gaussian elimination on Cauchy-type generators.

The factorization never forms the dense matrix: at step k the first column
and row of the reduced matrix are recovered from the current generators,
one column of L and row of U are written, and the generators are updated to
represent the Schur complement.  Pivoting permutes nodes and generator rows
(and, for the row-1/column-1 strategy, nodes and generator columns), which
is exactly what makes this work where a Toeplitz matrix could not be pivoted
directly.

Total cost is O(alpha n^2) plus, optionally, an O(n^3) growth diagnostic
(the per-step hatted norm ratio) that is only switched on at small orders.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import EPS, CauchyNodes, GeneratorPair, Permutation, SingularMatrixError

__all__ = [
    "PivotStrategy",
    "GrowthTrace",
    "GKOFactorization",
    "gko_factor",
    "solve_with_factors",
    "cauchy_solve",
]

#: |denominator| below this counts as a degenerate (flagged-infinite) V entry
V_DEGENERATE_FLOOR = 1e-300

#: orders above which the O(n^3) hatted-ratio diagnostic is skipped on "auto"
HAT_RATIO_AUTO_LIMIT = 256

# Rows per diagonal block of the triangular substitutions.  Each block costs
# one BLAS product against the part already solved and one LAPACK LU solve of
# the diagonal block, so a solve makes 2n/32 Python iterations instead of 2n.
# LU with partial pivoting leaves an upper-triangular block as it is; on a
# unit-lower block it may interchange rows, which keeps the block solve
# backward stable.  That happens where |l_ij| > 1 (no pivoting, or a column
# interchange under row-1/column-1) and, since LAPACK compares |Re| + |Im|,
# even for complex |l_ij| <= 1.
_SUB_BLOCK = 32


class PivotStrategy(enum.Enum):
    NONE = "none"
    PARTIAL_ROW = "partial_row"
    ROW1_COL1 = "row1_col1"

    @classmethod
    def coerce(cls, value) -> "PivotStrategy":
        if isinstance(value, cls):
            return value
        aliases = {
            "none": cls.NONE,
            "partial": cls.PARTIAL_ROW,
            "partial_row": cls.PARTIAL_ROW,
            "row1col1": cls.ROW1_COL1,
            "row1_col1": cls.ROW1_COL1,
        }
        try:
            return aliases[str(value).lower()]
        except KeyError:
            raise ValueError(f"unknown pivot strategy {value!r}") from None


@dataclass
class GrowthTrace:
    """Per-elimination-step record of generator-growth quantities.

    ``hat_ratio[k]`` is ||V(k) o R_k||_F / ||R_k||_F, the step-k hatted norm
    ratio feeding the g2 growth factor (NaN where not computed).  The
    ``hat_l_col`` / ``hat_u_row`` entries are the norms of the step-k column
    of L and row of U weighted elementwise by the step-k V column and row:
    summed in quadrature over k they give ||Lhat|| and ||Uhat|| without ever
    storing a V matrix.
    """

    pivot_index: np.ndarray
    pivot_is_col: np.ndarray
    pivot_magnitude: np.ndarray
    v_col_max: np.ndarray
    v_row_max: np.ndarray
    v_kk: np.ndarray
    hat_ratio: np.ndarray
    hat_l_col: np.ndarray
    hat_u_row: np.ndarray
    hat_ratios_computed: bool

    @property
    def n(self) -> int:
        return self.pivot_index.size

    @property
    def degenerate(self) -> bool:
        """True when any recorded V statistic overflowed to infinity."""
        stats = np.concatenate(
            [self.v_col_max, self.v_row_max, np.abs(self.v_kk)]
        )
        return not bool(np.all(np.isfinite(stats)))


@dataclass
class GKOFactorization:
    """P^T L U P'^T factorization of a Cauchy-type matrix.

    ``row_perm`` is P and ``col_perm`` is P' (identity unless the
    row-1/column-1 strategy performed column interchanges), both as
    row-selection permutations, so the source matrix is recovered as
    ``row_perm.matrix().T @ L @ U @ col_perm.matrix().T``.
    """

    row_perm: Permutation
    col_perm: Permutation
    L: np.ndarray
    U: np.ndarray
    trace: GrowthTrace

    @property
    def n(self) -> int:
        return self.L.shape[0]

    def reconstruct(self) -> np.ndarray:
        """Dense P^T L U P'^T, the matrix this factorization represents."""
        n = self.n
        out = np.empty((n, n), dtype=complex)
        cidx = np.argsort(self.col_perm.idx)
        out[np.ix_(self.row_perm.idx, cidx)] = self.L @ self.U
        return out


def _column_parts(phi, psi, t, s, k):
    """Numerators phi_j psi_k and gaps t_j - s_k of the step-k column, j >= k.

    The column is their quotient; the numerators are also the V-column
    denominators and the gaps weight the hatted L column, so one recovery
    serves all three.
    """
    return phi[k:] @ psi[:, k], t[k:] - s[k]


def _recover_row(phi, psi, t, s, k, head, out):
    """Write the step-k row of the reduced matrix, k..n-1, into ``out``.

    Entry 0 is set to ``head``: the diagonal is the column's, so only
    k+1..n-1 is recovered.  BLAS may round an entry differently when its
    slice starts elsewhere, so this operand shape is part of what keeps the
    factors reproducible.
    """
    out[0] = head
    np.divide(phi[k] @ psi[:, k + 1 :], t[k] - s[k + 1 :], out=out[1:])
    return out


def _schur_update_inplace(phi, psi, l_tail, u_tail, u_kk, k):
    # the Schur-complement generator recursion:
    #   psi_j <- psi_j - psi_k u_kj / u_kk,   phi_j <- phi_j - l_jk phi_k
    # for j > k; later steps never read generator k again
    psi[:, k + 1 :] -= psi[:, k, None] * (u_tail / u_kk)
    phi[k + 1 :] -= l_tail[:, None] * phi[k]


def _v_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Elementwise |phi||psi| / (phi psi); degenerate denominators go to inf."""
    mag = np.abs(den)
    if mag.min(initial=np.inf) >= V_DEGENERATE_FLOOR:
        return num / den
    out = np.full(den.shape, np.inf + 0j, dtype=complex)
    ok = mag >= V_DEGENERATE_FLOOR
    out[ok] = num[ok] / den[ok]
    return out


def _hat_ratio_work(t, s):
    """Per-factorization state of ``_hat_ratio`` at the initial node order.

    The gaps |t_i - s_j|, their reciprocals (each stored twice, against the
    real and imaginary parts of a complex entry) and two n^2 step buffers:
    about 48 n^2 bytes.  Interchanges must move the gap rows and columns with
    the nodes.  numpy divides a complex entry by a real c as a * (1/c), so
    multiplying by the stored reciprocal rounds exactly as that division did.
    """
    gaps = np.abs(t[:, None] - s[None, :])
    inv_gaps = np.empty(gaps.shape + (2,))
    np.divide(1.0, gaps, out=inv_gaps[..., 0])
    inv_gaps[..., 1] = inv_gaps[..., 0]
    return gaps, inv_gaps, np.empty(gaps.size), np.empty(gaps.size, dtype=complex)


def _hat_ratio(phi, psi, k, work) -> float:
    gaps, inv_gaps, num_buf, den_buf = work
    m = phi.shape[0] - k
    # contiguous m x m views of the buffers: np.linalg.norm then reads the
    # same layout as a freshly allocated array, so it sums in the same order
    num = np.matmul(np.abs(phi[k:]), np.abs(psi[:, k:]), out=num_buf[: m * m].reshape(m, m))
    den = np.matmul(phi[k:], psi[:, k:], out=den_buf[: m * m].reshape(m, m))
    num /= gaps[k:, k:]
    den_parts = den.view(float).reshape(m, m, 2)
    den_parts *= inv_gaps[k:, k:]
    denom_norm = np.linalg.norm(den)
    if denom_norm == 0.0:
        return np.nan
    return float(np.linalg.norm(num) / denom_norm)


def gko_factor(
    gen: GeneratorPair,
    nodes: CauchyNodes,
    strategy=PivotStrategy.PARTIAL_ROW,
    hat_ratios="auto",
) -> GKOFactorization:
    """Factor a Cauchy-type matrix given by generators as P^T L U P'^T.

    Parameters
    ----------
    gen, nodes :
        Generators and displacement nodes of the matrix to factor.
    strategy :
        ``PivotStrategy`` (or its string name).  ``PARTIAL_ROW`` brings the
        largest first-column entry to the pivot; ``ROW1_COL1`` examines the
        first row as well and performs a column interchange when the row
        maximum wins strictly.  Ties resolve to the smallest index, and a
        row-versus-column tie prefers the row interchange.
    hat_ratios :
        Whether to record the O(n^2)-per-step hatted norm ratio in the
        trace; "auto" enables it for n <= 256.  When on, the factorization
        holds the node gaps, their reciprocals and two n^2 step buffers,
        about 48 n^2 bytes (3.1 MB at n = 256, 50 MB at n = 1024); the
        ratios are bit-identical to dividing fresh per-step arrays.

    Raises
    ------
    SingularMatrixError
        When the selected pivot magnitude is at most n*eps times the largest
        candidate examined at that step.
    """
    strategy = PivotStrategy.coerce(strategy)
    n = gen.n
    if nodes.n != n:
        raise ValueError(f"generators are order {n}, nodes are order {nodes.n}")
    if hat_ratios == "auto":
        hat_ratios = n <= HAT_RATIO_AUTO_LIMIT

    phi = gen.phi.copy()
    psi = gen.psi.copy()
    t = nodes.t.copy()
    s = nodes.s.copy()
    # interchanges move only the finished columns 0..k-1 of L, so the unit
    # diagonal can be written up front
    L = np.eye(n, dtype=complex)
    U = np.zeros((n, n), dtype=complex)
    pidx = np.arange(n)
    cidx = np.arange(n)

    piv_index = np.zeros(n, dtype=np.intp)
    piv_is_col = np.zeros(n, dtype=bool)
    piv_mag = np.zeros(n)
    v_col_max = np.zeros(n)
    v_row_max = np.zeros(n)
    v_kk = np.zeros(n, dtype=complex)
    hat_ratio = np.full(n, np.nan)
    hat_work = _hat_ratio_work(t, s) if hat_ratios else ()
    # arrays whose rows follow the nodes t and whose columns follow s
    node_tables = hat_work[:2]
    hat_l = np.zeros(n)
    hat_u = np.zeros(n)

    for k in range(n):
        if hat_ratios:
            hat_ratio[k] = _hat_ratio(phi, psi, k, hat_work)

        cnum, cgap = _column_parts(phi, psi, t, s, k)
        col = cnum / cgap
        col_mag = np.abs(col)
        q = int(col_mag.argmax())
        cand_max = col_mag[q]
        axis, p = 0, k
        if strategy is not PivotStrategy.NONE:
            p = k + q
        if strategy is PivotStrategy.ROW1_COL1:
            # the diagonal entry belongs to both candidate sets; reuse the
            # column's value bitwise so a duplicate recovery cannot break the
            # row-preferred tie rule by one ulp
            row = _recover_row(phi, psi, t, s, k, col[0], U[k, k:])
            row_mag = np.abs(row)
            q_row = int(row_mag.argmax())
            cand_max = max(cand_max, row_mag[q_row])
            if abs(row[q_row]) > abs(col[p - k]):
                axis, p = 1, k + q_row

        # a column interchange on R is a row interchange on R^T, whose nodes
        # are (-s, -t) and generators (psi^T, phi^T): swapping rows of the
        # transposed views of s, psi, the finished rows of U and the node
        # tables is the same block as a row interchange.  The column's
        # numerators and gaps move with its entries.
        if p != k:
            if axis == 0:
                node, perm, own = t, pidx, (col, cnum, cgap)
                moved = (phi, L[:, :k], *node_tables)
            else:
                node, perm, own = s, cidx, (row,)
                moved = (psi.T, U.T[:, :k], *(a.swapaxes(0, 1) for a in node_tables))
            node[k], node[p] = node[p], node[k]
            perm[k], perm[p] = perm[p], perm[k]
            # basic indexing: an index-array swap costs more than the copy
            for rows in moved:
                swap = rows[k].copy()
                rows[k] = rows[p]
                rows[p] = swap
            for vec in own:
                vec[0], vec[p - k] = vec[p - k], vec[0]
        if axis == 0:
            u_kk = col[0]
            row = _recover_row(phi, psi, t, s, k, u_kk, U[k, k:])
        else:
            u_kk = row[0]
            cnum, cgap = _column_parts(phi, psi, t, s, k)
            col = cnum / cgap
            col[0] = u_kk
        piv_index[k] = p
        piv_is_col[k] = axis == 1

        piv_mag[k] = abs(u_kk)
        if piv_mag[k] <= n * EPS * cand_max:
            raise SingularMatrixError(
                f"singular at step {k}: pivot {piv_mag[k]:.3e} below "
                f"{n}*eps*{cand_max:.3e}"
            )

        # V statistics at the (pivoted) step-k generators, before the update
        num_col = np.abs(phi[k:]) @ np.abs(psi[:, k])
        num_row = np.abs(phi[k]) @ np.abs(psi[:, k:])
        vcol = _v_ratio(num_col, cnum)
        vrow = _v_ratio(num_row, phi[k] @ psi[:, k:])
        v_col_max[k] = np.abs(vcol).max()
        v_row_max[k] = np.abs(vrow).max()
        v_kk[k] = vcol[0]

        l_tail = col[1:] / u_kk
        L[k + 1 :, k] = l_tail

        # |v_jk l_jk| = num_col_j / (|t_j - s_k| |u_kk|) and |v_kj u_kj| =
        # num_row_j / |t_k - s_j|: the V denominator cancels against the
        # recovered entry, so degenerate ratios never reach these norms
        gap_col = np.abs(cgap[1:])
        hat_l[k] = np.sqrt(
            abs(v_kk[k]) ** 2
            + ((num_col[1:] / (gap_col * abs(u_kk))) ** 2).sum()
        )
        # sqrt(y . y) is what np.linalg.norm computes for a real vector
        hat_row = num_row / np.abs(t[k] - s[k:])
        hat_u[k] = np.sqrt(hat_row.dot(hat_row))

        _schur_update_inplace(phi, psi, l_tail, row[1:], u_kk, k)

    trace = GrowthTrace(
        pivot_index=piv_index,
        pivot_is_col=piv_is_col,
        pivot_magnitude=piv_mag,
        v_col_max=v_col_max,
        v_row_max=v_row_max,
        v_kk=v_kk,
        hat_ratio=hat_ratio,
        hat_l_col=hat_l,
        hat_u_row=hat_u,
        hat_ratios_computed=bool(hat_ratios),
    )
    return GKOFactorization(
        row_perm=Permutation(pidx),
        col_perm=Permutation(np.argsort(cidx)),
        L=L,
        U=U,
        trace=trace,
    )


def _forward_sub(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    z = b.astype(complex)
    for lo in range(0, L.shape[0], _SUB_BLOCK):
        hi = lo + _SUB_BLOCK
        z[lo:hi] -= L[lo:hi, :lo] @ z[:lo]
        z[lo:hi] = np.linalg.solve(L[lo:hi, lo:hi], z[lo:hi])
    return z


def _back_sub(U: np.ndarray, b: np.ndarray) -> np.ndarray:
    diag = np.abs(np.diag(U))
    if np.any(diag == 0.0):
        raise SingularMatrixError("zero diagonal in U")
    z = b.astype(complex)
    for lo in reversed(range(0, U.shape[0], _SUB_BLOCK)):
        hi = lo + _SUB_BLOCK
        z[lo:hi] -= U[lo:hi, hi:] @ z[hi:]
        z[lo:hi] = np.linalg.solve(U[lo:hi, lo:hi], z[lo:hi])
    return z


def solve_with_factors(f: GKOFactorization, b) -> np.ndarray:
    """Solve (P^T L U P'^T) x = b by permute, substitute twice, permute.

    ``b`` is one right-hand side of shape (n,) or several as the columns of
    an (n, m) array.  Both substitutions run over 32-row diagonal blocks.
    """
    b = np.asarray(b, dtype=complex)
    if b.shape[0] != f.n:
        raise ValueError(f"factorization is order {f.n}, b has length {b.shape[0]}")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side b has non-finite entries")
    z = _forward_sub(f.L, b[f.row_perm.idx])
    z = _back_sub(f.U, z)
    return z[f.col_perm.idx]


def cauchy_solve(
    gen: GeneratorPair, nodes: CauchyNodes, b, strategy=PivotStrategy.PARTIAL_ROW
):
    """Factor a Cauchy-type system and solve it; returns (x, trace)."""
    f = gko_factor(gen, nodes, strategy)
    return solve_with_factors(f, b), f.trace
