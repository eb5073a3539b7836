"""Dense O(n^3) GE/PP references: ground truth in the tests, and the
sweep's ``cond`` column (:func:`cond_estimate`).

Deliberately shares no code with the generator-based elimination in
``cauchy_gko``: these routines accumulate the full matrix at every step, so
agreement between the two paths is meaningful evidence.  The dense Toeplitz
and Cauchy-type matrices themselves come from ``core``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EPS, Permutation, SingularMatrixError

__all__ = [
    "DenseFactorization",
    "dense_gepp_factor",
    "dense_solve",
    "cond_estimate",
]


@dataclass
class DenseFactorization:
    """P A = L U with row pivoting; ``pivots[k]`` is the row index (in the
    working ordering) chosen at step k."""

    perm: Permutation
    L: np.ndarray
    U: np.ndarray
    pivots: list

    @property
    def n(self) -> int:
        return self.L.shape[0]


def dense_gepp_factor(a) -> DenseFactorization:
    """Textbook Gaussian elimination with partial pivoting of a finite matrix.

    The pivot is the largest-modulus entry of the current column, smallest
    index on ties (numpy argmax order).
    """
    A = np.array(a, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"need a square matrix, got shape {A.shape}")
    # NaN would run through as NaN factors, inf stop as a false singularity
    if not np.isfinite(A).all():
        raise ValueError("matrix must be finite")
    n = A.shape[0]
    L = np.eye(n, dtype=complex)
    pidx = np.arange(n)
    pivots = []
    for k in range(n):
        q = k + int(np.argmax(np.abs(A[k:, k])))
        pivots.append(q)
        cand = abs(A[q, k])
        if cand <= n * EPS * np.abs(A[k:, k]).max():
            raise SingularMatrixError(f"singular at elimination step {k}")
        if q != k:
            A[[k, q], k:] = A[[q, k], k:]
            L[[k, q], :k] = L[[q, k], :k]
            pidx[[k, q]] = pidx[[q, k]]
        L[k + 1 :, k] = A[k + 1 :, k] / A[k, k]
        A[k + 1 :, k:] -= np.outer(L[k + 1 :, k], A[k, k:])
        A[k + 1 :, k] = 0.0
    return DenseFactorization(perm=Permutation(pidx), L=L, U=np.triu(A), pivots=pivots)


def _substitute(f: DenseFactorization, b: np.ndarray) -> np.ndarray:
    z = b[f.perm.idx].astype(complex)
    n = f.n
    for i in range(n):
        z[i] -= f.L[i, :i] @ z[:i]
    for i in range(n - 1, -1, -1):
        z[i] -= f.U[i, i + 1 :] @ z[i + 1 :]
        z[i] /= f.U[i, i]
    return z


def dense_solve(a, b) -> np.ndarray:
    """Solve a dense square system by GE/PP and substitution.

    ``b`` may be a vector or a matrix of stacked right-hand-side columns,
    and nothing else.  Like the matrix, it must be finite.
    """
    b = np.asarray(b, dtype=complex)
    if b.ndim not in (1, 2):
        raise ValueError(f"b must have shape (n,) or (n, m), got shape {b.shape}")
    if not np.isfinite(b).all():
        raise ValueError("right-hand side must be finite")
    f = dense_gepp_factor(a)
    if b.shape[0] != f.n:
        raise ValueError(f"matrix is order {f.n}, b has length {b.shape[0]}")
    return _substitute(f, b)


def cond_estimate(a) -> float:
    """Frobenius condition number ||A||_F ||A^{-1}||_F.

    The inverse comes from GE/PP applied to the identity columns.  This
    overestimates the spectral condition number by at most a factor n, which
    is all the growth experiments need.
    """
    A = np.asarray(a, dtype=complex)
    inv = dense_solve(A, np.eye(A.shape[0], dtype=complex))
    return float(np.linalg.norm(A) * np.linalg.norm(inv))
