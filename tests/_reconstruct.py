"""Dense reconstructions of computed factorizations: the references the tests
hold the factors and the backward errors to.  Each builds L and U and
multiplies them densely, sharing no code with the blocked product of
``diagnostics``."""

import numpy as np

from structsolve import GKOFactorization, ToeplitzFactorization, apply_F, apply_F_inv


def reconstruct(f: GKOFactorization) -> np.ndarray:
    """Dense P^T L U P'^T, the matrix the factorization represents."""
    product = f.L @ f.U
    out = np.empty_like(product)
    out[np.ix_(f.row_perm.idx, np.argsort(f.col_perm.idx))] = product
    return out


def reconstruct_toeplitz(f: ToeplitzFactorization) -> np.ndarray:
    """Dense F* M F D for M = ``reconstruct(f.inner)``.  F is symmetric, so
    the transforms give (F* M) F = (F (F* M)^T)^T."""
    right = apply_F(f.plan, apply_F_inv(f.plan, reconstruct(f.inner)).T)
    right *= f.d[:, None]
    return right.T
