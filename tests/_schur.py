"""Dense Schur complement: the reference the tests hold the generator
updates to.  It eliminates on the full matrix and shares no code with
``cauchy_gko``."""

import numpy as np

from structsolve import SingularMatrixError


def dense_schur_complement(a, k: int) -> np.ndarray:
    """Trailing (n-k) x (n-k) block after k unpivoted elimination steps.

    Equals A22 - A21 A11^{-1} A12 for the leading k x k block A11, which must
    be nonsingular (no pivoting is performed; a zero pivot raises).
    """
    A = np.array(a, dtype=complex)
    n = A.shape[0]
    if not 0 <= k <= n:
        raise ValueError(f"step count {k} out of range for order {n}")
    for step in range(k):
        piv = A[step, step]
        if piv == 0:
            raise SingularMatrixError(f"zero pivot at unpivoted step {step}")
        A[step + 1 :, step:] -= np.outer(A[step + 1 :, step] / piv, A[step, step:])
    return A[k:, k:]
