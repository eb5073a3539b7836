"""Shared domain types for displacement-structured solvers.

Everything is stored dense and complex128, even when the data happens to be
real: the simplicity is worth the memory even at orders in the thousands
(at n = 2048, L and U together take 134 MB).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NodeCollisionError",
    "SingularMatrixError",
    "GeneratorPair",
    "CauchyNodes",
    "ToeplitzCoeffs",
    "Permutation",
    "materialize_cauchy",
]

#: relative node separation below which a Cauchy node pair is rejected
NODE_COLLISION_RTOL = 1e-14

#: machine epsilon of float64, the unit of every n*eps threshold and bound
EPS = float(np.finfo(float).eps)

# rows of |t_i - s_j| held at once by _gap_extrema: 256 rows at n = 2048 take
# about 17 MB of temporaries where the whole matrix takes about 100 MB
_GAP_BLOCK_ROWS = 256


class NodeCollisionError(ValueError):
    """Some t_i is (numerically) equal to some s_j, so entries of the
    Cauchy-type matrix cannot be recovered from its generators."""


class SingularMatrixError(np.linalg.LinAlgError):
    """Elimination met a pivot too small to divide by."""


def _as_complex_vector(v, name="vector"):
    arr = np.asarray(v, dtype=complex)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def _as_complex_matrix(m, name="matrix"):
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {arr.shape}")
    return arr


def _gap_extrema(t: np.ndarray, s: np.ndarray) -> tuple[float, float]:
    """min and max of |t_i - s_j| without forming the n-by-n gap matrix."""
    lo, hi = np.inf, 0.0
    for r in range(0, t.size, _GAP_BLOCK_ROWS):
        block = np.abs(t[r : r + _GAP_BLOCK_ROWS, None] - s[None, :])
        lo = min(lo, block.min())
        hi = max(hi, block.max())
    return float(lo), float(hi)


@dataclass(frozen=True)
class GeneratorPair:
    """Rectangular generators (phi, psi) of a displacement equation.

    ``phi`` is n-by-alpha, ``psi`` is alpha-by-n, and the displacement of the
    represented matrix equals ``phi @ psi``.  The displacement rank ``alpha``
    is small for structured matrices (2 for Toeplitz, 1 for plain Cauchy).
    """

    phi: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        phi = _as_complex_matrix(self.phi, "phi")
        psi = _as_complex_matrix(self.psi, "psi")
        if phi.shape[1] != psi.shape[0]:
            raise ValueError(
                f"phi has {phi.shape[1]} columns but psi has {psi.shape[0]} rows"
            )
        if phi.shape[1] < 1:
            raise ValueError("displacement rank must be at least 1")
        if phi.shape[0] != psi.shape[1]:
            raise ValueError(
                f"phi is for order {phi.shape[0]} but psi is for order {psi.shape[1]}"
            )
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "psi", psi)

    @property
    def n(self) -> int:
        return self.phi.shape[0]

    @property
    def alpha(self) -> int:
        return self.phi.shape[1]


@dataclass(frozen=True)
class CauchyNodes:
    """Node vectors t, s defining the diagonal displacement operators.

    Construction rejects non-finite nodes and node collisions: if
    ``min |t_i - s_j|`` falls below ``1e-14 * max(|t|, |s|, 1)`` the
    represented matrix has entries that are not recoverable from generators,
    and such inputs are refused outright.
    """

    t: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        t = _as_complex_vector(self.t, "t")
        s = _as_complex_vector(self.s, "s")
        if t.shape != s.shape:
            raise ValueError(f"t has length {t.size} but s has length {s.size}")
        if t.size == 0:
            raise ValueError("node vectors must be nonempty")
        if not (np.isfinite(t).all() and np.isfinite(s).all()):
            raise ValueError("node vectors must be finite")
        scale = max(np.abs(t).max(), np.abs(s).max(), 1.0)
        gap, _ = _gap_extrema(t, s)
        if gap < NODE_COLLISION_RTOL * scale:
            raise NodeCollisionError(
                f"node collision: min |t_i - s_j| = {gap:.3e} "
                f"below {NODE_COLLISION_RTOL:.0e} * {scale:.3e}"
            )
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "s", s)

    @property
    def n(self) -> int:
        return self.t.size

    def gaps(self) -> np.ndarray:
        """The n-by-n matrix of differences t_i - s_j."""
        return self.t[:, None] - self.s[None, :]


@dataclass(frozen=True)
class ToeplitzCoeffs:
    """Diagonal values a_{1-n} .. a_{n-1} of an order-n Toeplitz matrix.

    ``a`` is stored as a flat length-(2n-1) vector; the matrix entry (i, j)
    (0-based) is ``a[i - j + n - 1]``, so the first column reads
    ``a_0 .. a_{n-1}`` top to bottom and the first row reads
    ``a_0, a_{-1}, .., a_{1-n}`` left to right.
    """

    a: np.ndarray

    def __post_init__(self):
        a = _as_complex_vector(self.a, "a")
        if a.size % 2 != 1:
            raise ValueError(f"need 2n-1 coefficients, got {a.size}")
        if not np.isfinite(a).all():
            raise ValueError("Toeplitz coefficients must be finite")
        object.__setattr__(self, "a", a)

    @property
    def n(self) -> int:
        return (self.a.size + 1) // 2

    def diag(self, k: int):
        """Coefficient a_k for k in [1-n, n-1] (k>0 is below the diagonal)."""
        n = self.n
        if not -n < k < n:
            raise IndexError(f"diagonal index {k} out of range for order {n}")
        return self.a[k + n - 1]


@dataclass(frozen=True)
class Permutation:
    """Index-vector permutation that selects rows ``idx`` of a matrix.

    As a matrix, P = I[idx] (rows of the identity), so that
    ``m[p.idx] == P @ m`` and ``m[p.idx][p.inverse().idx] == m``.
    """

    idx: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.idx, dtype=np.intp)
        if idx.ndim != 1:
            raise ValueError("permutation index must be one-dimensional")
        if not np.array_equal(np.sort(idx), np.arange(idx.size)):
            raise ValueError("permutation index is not a bijection on 0..n-1")
        object.__setattr__(self, "idx", idx)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(n))

    @property
    def n(self) -> int:
        return self.idx.size

    def inverse(self) -> "Permutation":
        return Permutation(np.argsort(self.idx))

    def matrix(self) -> np.ndarray:
        return np.eye(self.n, dtype=complex)[self.idx]

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.idx, np.arange(self.n)))


def materialize_cauchy(gen: GeneratorPair, nodes: CauchyNodes) -> np.ndarray:
    """Dense Cauchy-type matrix with entries phi_i psi_j / (t_i - s_j)."""
    if gen.n != nodes.n:
        raise ValueError(f"generators are order {gen.n}, nodes are order {nodes.n}")
    return (gen.phi @ gen.psi) / nodes.gaps()
