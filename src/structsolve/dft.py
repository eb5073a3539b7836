"""Unitary DFT and the diagonal scalings of the Toeplitz-to-Cauchy transform.

The transform kernel used throughout is

    F = (1/sqrt(n)) [ exp(2 pi i (k-1)(j-1) / n) ],

the *positive-exponent* unitary DFT, so ``F @ v`` equals ``sqrt(n) * ifft(v)``
in numpy's convention and F* = F^{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import CauchyNodes, _order

__all__ = ["DftPlan", "apply_F", "apply_F_inv", "toeplitz_cauchy_nodes", "scaling_D"]


@dataclass(frozen=True)
class DftPlan:
    """Order of the unitary transforms :func:`apply_F` and :func:`apply_F_inv`.

    The transforms run as FFTs, so the plan holds nothing but ``n``; a dense
    F, where one is wanted, is ``apply_F(plan, np.eye(n))``.
    """

    n: int

    @classmethod
    def create(cls, n: int) -> "DftPlan":
        return cls(n=_order(n))


def _check_len(plan: DftPlan, v) -> np.ndarray:
    arr = np.asarray(v, dtype=complex)
    if arr.ndim == 0:
        raise ValueError(
            f"input needs a leading axis of length {plan.n}, got shape {arr.shape}"
        )
    if arr.shape[0] != plan.n:
        raise ValueError(f"plan is order {plan.n}, input has length {arr.shape[0]}")
    return arr


def apply_F(plan: DftPlan, v) -> np.ndarray:
    """F @ v with unitary 1/sqrt(n) normalization.

    Works columnwise when ``v`` is a matrix.
    """
    out = np.fft.ifft(_check_len(plan, v), axis=0)
    out *= np.sqrt(plan.n)
    return out


def apply_F_inv(plan: DftPlan, v) -> np.ndarray:
    """F* @ v, the inverse of :func:`apply_F` (F is unitary)."""
    out = np.fft.fft(_check_len(plan, v), axis=0)
    out /= np.sqrt(plan.n)
    return out


@lru_cache(maxsize=8)
def toeplitz_cauchy_nodes(n: int) -> CauchyNodes:
    """Displacement nodes of the Toeplitz-derived Cauchy-type matrix.

    t_k = exp(2 pi i k / n) are the n-th roots of unity and
    s_k = exp(pi i (2k+1) / n) the n-th roots of -1 (k = 0..n-1); each s sits
    on the unit circle halfway between two neighbouring t's.

    The nodes of the last eight orders are cached, so one order's O(n^2)
    collision check runs once; the returned ``t`` and ``s`` are read-only.
    """
    n = _order(n)
    k = np.arange(n)
    t = np.exp(2j * np.pi * k / n)
    s = np.exp(1j * np.pi * (2 * k + 1) / n)
    t.flags.writeable = False
    s.flags.writeable = False
    return CauchyNodes(t=t, s=s)


def scaling_D(n: int) -> np.ndarray:
    """Unit-modulus diagonal d_k = exp(pi i k / n), k = 0..n-1."""
    n = _order(n)
    return np.exp(1j * np.pi * np.arange(n) / n)
