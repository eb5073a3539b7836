"""Shared domain types for displacement-structured solvers.

Everything is stored dense and complex128, even when the data happens to be
real: the simplicity is worth the memory even at orders in the thousands
(at n = 2048, the packed LU factors take 67 MB).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NodeCollisionError",
    "SingularMatrixError",
    "GeneratorPair",
    "CauchyNodes",
    "ToeplitzCoeffs",
    "Permutation",
    "materialize_cauchy",
    "dense_toeplitz",
]

#: relative node separation below which a Cauchy node pair is rejected
NODE_COLLISION_RTOL = 1e-14

#: machine epsilon of float64, the unit of every n*eps threshold and bound
EPS = float(np.finfo(float).eps)

# rows of |t_i - s_j| held at once by _gap_extrema: 256 rows at n = 2048 take
# about 17 MB of temporaries where the whole matrix takes about 100 MB
_GAP_BLOCK_ROWS = 256

# rows of t_i - s_j formed at once by _cauchy_matrix: at n = 256 the chunk
# is a quarter of the matrix it divides
_DIVIDE_BLOCK_ROWS = 64


class NodeCollisionError(ValueError):
    """Some t_i is (numerically) equal to some s_j, so entries of the
    Cauchy-type matrix cannot be recovered from its generators."""


class SingularMatrixError(np.linalg.LinAlgError):
    """Elimination met a pivot too small to divide by."""


def _as_complex(v, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(v, dtype=complex)
    if arr.ndim != ndim:
        dims = ("one", "two")[ndim - 1]
        raise ValueError(f"{name} must be {dims}-dimensional, got shape {arr.shape}")
    return arr


def _part_exponent(v, clamp: bool = False) -> int:
    """The exponent e with 2^(e-1) <= m < 2^e, m the largest real or imaginary
    part of v (not |v|, which can overflow); 0 where m is 0 or not finite.
    ``clamp`` keeps e within [-1021, 1021], where 2.0**e and 2.0**-e are normal."""
    v = np.asarray(v)
    top = max(np.abs(v.real).max(initial=0.0), np.abs(v.imag).max(initial=0.0))
    # math.frexp gives (top, 0) for a zero, inf or NaN top
    e = math.frexp(top)[1]
    return min(max(e, -1021), 1021) if clamp else e


def _ldexp(v, e: int) -> np.ndarray:
    """v times 2^e as a new array, by np.ldexp on each part: exact where it
    stays normal, signed zeros kept, and a subnormal v scales where 2.0**-e
    itself would overflow.  A real v stays real, so its norm keeps its bits."""
    v = np.asarray(v)
    if not np.iscomplexobj(v):
        return np.ldexp(v, e)
    out = np.empty_like(v)
    out.real, out.imag = np.ldexp(v.real, e), np.ldexp(v.imag, e)
    return out


def _check_same_order(gen, nodes) -> None:
    if gen.n != nodes.n:
        raise ValueError(f"generators are order {gen.n}, nodes are order {nodes.n}")


def _order(n, minimum: int = 1, message: str | None = None, name: str = "order") -> int:
    """n as a Python int, refusing what is not an integer or is below ``minimum``.

    Any integer type passes through ``operator.index`` (``np.int64``
    included); a float such as 2.5 is refused rather than truncated, and a
    bool, which ``operator.index`` takes for 0 or 1, is refused too.  An
    integer below ``minimum`` raises ``message``, by default "<name> must be
    positive, got <n>".
    """
    if isinstance(n, bool):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {n!r}") from None
    if n < minimum:
        raise ValueError(message or f"{name} must be positive, got {n}")
    return n


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
    Construction rejects non-finite entries.
    """

    phi: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        phi = _as_complex(self.phi, "phi", 2)
        psi = _as_complex(self.psi, "psi", 2)
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
        if not (np.isfinite(phi).all() and np.isfinite(psi).all()):
            raise ValueError("generators must be finite")
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
    ``min |t_i - s_j|`` is at most ``1e-14 * max(|t|, |s|)`` the
    represented matrix has entries that are not recoverable from generators,
    and such inputs are refused outright.  ``gap_extrema`` keeps the
    ``(min, max)`` of ``|t_i - s_j|`` that this check computes.
    """

    t: np.ndarray
    s: np.ndarray
    gap_extrema: tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = _as_complex(self.t, "t", 1)
        s = _as_complex(self.s, "s", 1)
        if t.shape != s.shape:
            raise ValueError(f"t has length {t.size} but s has length {s.size}")
        if t.size == 0:
            raise ValueError("node vectors must be nonempty")
        if not (np.isfinite(t).all() and np.isfinite(s).all()):
            raise ValueError("node vectors must be finite")
        # relative, so that scaling both node vectors scales nothing else;
        # <= keeps all-zero nodes a collision
        scale = max(np.abs(t).max(), np.abs(s).max())
        gap_min, gap_max = _gap_extrema(t, s)
        if gap_min <= NODE_COLLISION_RTOL * scale:
            raise NodeCollisionError(
                f"node collision: min |t_i - s_j| = {gap_min:.3e} "
                f"at most {NODE_COLLISION_RTOL:.0e} * {scale:.3e}"
            )
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "gap_extrema", (gap_min, gap_max))

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
        a = _as_complex(self.a, "a", 1)
        if a.size % 2 != 1:
            raise ValueError(f"need 2n-1 coefficients, got {a.size}")
        if not np.isfinite(a).all():
            raise ValueError("Toeplitz coefficients must be finite")
        object.__setattr__(self, "a", a)

    @property
    def n(self) -> int:
        return (self.a.size + 1) // 2


@dataclass(frozen=True)
class Permutation:
    """Index-vector permutation that selects rows ``idx`` of a matrix.

    As a matrix, P = I[idx] (rows of the identity), so that
    ``m[p.idx] == P @ m`` and ``m[p.idx][np.argsort(p.idx)] == m``.
    """

    idx: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.idx)
        # a cast would truncate floats and read booleans as 0 and 1
        if idx.dtype.kind not in "iu":
            raise ValueError(f"permutation index must be integers, got dtype {idx.dtype}")
        if idx.ndim != 1:
            raise ValueError("permutation index must be one-dimensional")
        idx = idx.astype(np.intp, copy=False)
        if not np.array_equal(np.sort(idx), np.arange(idx.size)):
            raise ValueError("permutation index is not a bijection on 0..n-1")
        object.__setattr__(self, "idx", idx)

    @property
    def n(self) -> int:
        return self.idx.size


def materialize_cauchy(gen: GeneratorPair, nodes: CauchyNodes) -> np.ndarray:
    """Dense Cauchy-type matrix with entries phi_i psi_j / (t_i - s_j)."""
    _check_same_order(gen, nodes)
    return _cauchy_matrix(gen.phi, gen.psi, nodes.t, nodes.s)


def _cauchy_matrix(phi, psi, t, s) -> np.ndarray:
    """phi psi / (t_i - s_j) as a new array, divided in place in row chunks.

    Each entry is phi_i psi_j divided by the gap t_i - s_j, as in
    ``(phi @ psi) / nodes.gaps()``, but the gaps are formed
    ``_DIVIDE_BLOCK_ROWS`` rows at a time, so the one n x n array is the
    result: the whole quotient took three.
    """
    R = phi @ psi
    for lo in range(0, t.size, _DIVIDE_BLOCK_ROWS):
        hi = lo + _DIVIDE_BLOCK_ROWS
        R[lo:hi] /= t[lo:hi, None] - s[None, :]
    return R


def dense_toeplitz(c: ToeplitzCoeffs) -> np.ndarray:
    """Materialize the order-n Toeplitz matrix t_{ij} = a_{i-j}."""
    n = c.n
    i = np.arange(n)
    return c.a[(i[:, None] - i[None, :]) + n - 1]
