"""Dense matrices and residuals built from raw arrays, independently of structsolve.

These are the benchmark's correctness oracle, so they take plain numpy
arrays (the Toeplitz diagonals, or generators and nodes) and call nothing
in the package under test.
"""

from __future__ import annotations

import numpy as np


def toeplitz_matrix(a: np.ndarray) -> np.ndarray:
    """Order-n Toeplitz matrix with entry (i, j) = a[i - j + n - 1]."""
    n = (a.size + 1) // 2
    i = np.arange(n)
    return a[i[:, None] - i[None, :] + n - 1]


def cauchy_matrix(phi, psi, t, s) -> np.ndarray:
    """Cauchy-type matrix with entries phi_i psi_j / (t_i - s_j)."""
    return (phi @ psi) / np.subtract.outer(t, s)


def relative_residuals(A: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """||A x - b|| / ||b|| per column (a scalar for vector x and b)."""
    return np.linalg.norm(A @ x - b, axis=0) / np.linalg.norm(b, axis=0)
