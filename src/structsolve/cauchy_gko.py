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
The elimination loop and the diagonal blocks of the triangular solves are
plain C (``_gko_kernel.c``), compiled with the system C compiler on first
import and cached in ``__pycache__``.
"""

from __future__ import annotations

import ctypes
import enum
import hashlib
import os
import platform
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (EPS, CauchyNodes, GeneratorPair, Permutation, SingularMatrixError,
                   _check_same_order, _part_exponent)

__all__ = [
    "PivotStrategy",
    "GrowthTrace",
    "GKOFactorization",
    "gko_factor",
    "solve_with_factors",
]

#: orders above which the O(n^3) hatted-ratio diagnostic is skipped on "auto"
HAT_RATIO_AUTO_LIMIT = 256

# Rows per diagonal block of the triangular substitutions.  Each block costs
# one BLAS product against the part already solved, which numpy may thread,
# and one compiled substitution through the diagonal block, so a solve makes
# 2n/64 Python iterations instead of 2n.  Blocks of 32 or 128 rows made a
# solve about 10% slower at n = 1024 and 2048, blocks of 16 or 256 about 40%.
_SUB_BLOCK = 64
#: the strictly lower triangle of a diagonal block
_STRICT_LOWER = np.tri(_SUB_BLOCK, _SUB_BLOCK, -1, dtype=bool)


class PivotStrategy(enum.Enum):
    """A pivoting strategy; its value is its one name, in and out."""

    NONE = "none"
    PARTIAL_ROW = "partial"
    ROW1_COL1 = "row1col1"

    @classmethod
    def coerce(cls, value) -> "PivotStrategy":
        # a strategy, or its value in any case; only a string is lowered, as
        # str(None) would be "none"
        try:
            return cls(value.lower() if isinstance(value, str) else value)
        except ValueError:
            raise ValueError(f"unknown pivot strategy {value!r}") from None


@dataclass
class GrowthTrace:
    """Per-elimination-step record of generator-growth quantities.

    It holds what the growth report, the CLI or the benchmark reads, step by
    step.  ``v_kk[k]`` is the step-k V entry on the diagonal,
    |phi_k||psi_k| / (phi_k psi_k), and +inf where that quotient is not
    finite; its largest magnitude is a term of g1.
    ``hat_ratio[k]`` is ||V(k) o R_k||_F / ||R_k||_F, the step-k hatted norm
    ratio feeding the g2 growth factor, and NaN where it was not computed.
    """

    pivot_index: np.ndarray
    pivot_is_col: np.ndarray
    pivot_magnitude: np.ndarray
    v_kk: np.ndarray
    hat_ratio: np.ndarray

    @property
    def n(self) -> int:
        return self.pivot_index.size


@dataclass
class GKOFactorization:
    """P^T L U P'^T factorization of a Cauchy-type matrix.

    ``row_perm`` is P and ``col_perm`` is P' (identity unless the
    row-1/column-1 strategy performed column interchanges), both as
    row-selection permutations (P = I[row_perm.idx]), so the factored
    matrix is P^T L U P'^T.  ``LU`` holds both factors in one n x n array,
    as LAPACK's xGETRF stores them: L strictly below the diagonal, its unit
    diagonal implied, and U on and above it.  ``norm_L`` and ``norm_U`` are
    the Frobenius norms of L and U, and ``hatL_ratio`` and ``hatU_ratio``
    the ratios ||Lhat||_F / ||L||_F and ||Uhat||_F / ||U||_F, Lhat and Uhat
    being the factors weighted entrywise by the V entries of the step that
    wrote them (|v_jk l_jk| and |v_kj u_kj|), all accumulated during
    elimination; no V matrix is ever stored, and the ratios stay finite
    where ||Uhat||_F would overflow.
    """

    row_perm: Permutation
    col_perm: Permutation
    LU: np.ndarray
    trace: GrowthTrace
    norm_L: float
    norm_U: float
    hatL_ratio: float
    hatU_ratio: float

    @property
    def n(self) -> int:
        return self.LU.shape[0]

    @property
    def L(self) -> np.ndarray:
        """Unit lower triangular L, a new read-only array built from ``LU``."""
        return self._triangle(upper=False)

    @property
    def U(self) -> np.ndarray:
        """Upper triangular U, a new read-only array built from ``LU``."""
        return self._triangle(upper=True)

    def _triangle(self, upper: bool) -> np.ndarray:
        """U, or L with its unit diagonal, as a new read-only array built from ``LU``.

        The factor is written one block of _SUB_BLOCK rows at a time: the
        columns left of the diagonal block (right of it for L) are zeroed
        in one slice, the others copied from LU in one, and the other
        triangle of the diagonal block is masked.  Building a factor
        allocates nothing but the factor: np.tril and np.triu allocate an
        n x n mask besides, 4 MB at n = 2048.  Slicing one row at a time
        took 2 to 3 times as long at n = 256 and 1.3 to 1.5 times at
        n = 2048.
        """
        LU, n = self.LU, self.n
        T = np.empty((n, n), dtype=complex)
        mask = _STRICT_LOWER if upper else _STRICT_LOWER.T
        for lo in range(0, n, _SUB_BLOCK):
            hi = min(lo + _SUB_BLOCK, n)
            cut = lo if upper else hi
            T[lo:hi, :cut] = 0.0 if upper else LU[lo:hi, :cut]
            T[lo:hi, cut:] = LU[lo:hi, cut:] if upper else 0.0
            T[lo:hi, lo:hi][mask[: hi - lo, : hi - lo]] = 0.0
        if not upper:
            np.fill_diagonal(T, 1.0)
        T.flags.writeable = False
        return T


_KERNEL_SOURCE = Path(__file__).with_name("_gko_kernel.c")
# no -ffast-math, -march=native or -fcx-limited-range: each changes rounding
# or overflow, and a library cached for one machine must run on its twin.
# -fno-math-errno changes no value: sqrt no longer sets errno, which nothing
# reads, and without it GCC keeps every loop that takes a square root
# scalar.  -fno-trapping-math is not needed: the kernel selects its operands
# before it computes, so GCC if-converts the quotients without it.  The
# AVX-512F and AVX2 copies of the kernel (target_clones in the source) are
# safe where -march=native is not: the dynamic loader picks each only on a
# CPU with that extension, the base-ISA copies run everywhere else, and all
# compute in the order the source fixes, without FMA, so they give the same
# bits.  -ffp-contract=off alone does not rule FMA out: the AVX-512F
# target enables fused multiply-adds (the AVX2 target alone does not), and
# GCC can fuse a vectorised complex product in an AVX-512F copy even so, so
# the tests and CI check every build's code for FMA with objdump
_KERNEL_FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno")
# the kernel holds this many columns of L in an n-row panel (16 n _L_PANEL
# bytes) and copies them into L row by row when the panel is full: written
# straight into L, each entry of a column would land on its own page, and
# each flush touches one page per row of L.  With the vectorised step the
# flush is a quarter of a factorization at width 8.  gko_factor on
# random_toeplitz(n, seed=n), partial, CPU-time medians of 9-15 alternating
# calls on a 2-vCPU x86-64 VM: widths 8, 16, 32 took 120-127, 108-114,
# 105-107 ms at n = 2048 and 24.5, 22.2, 20.7 ms at n = 1024, with
# bit-identical L.  Width 32 won every toeplitz-large benchmark pair, 4
# against each other width: p50 went from 0.137 s at width 8 to 0.127 s,
# and from 0.124 s at width 16 to 0.111 s; peak_mb from 135.1 and 135.4 MB
# to 135.9 MB
_L_PANEL = 32
_STRATEGY_CODES = {
    PivotStrategy.NONE: 0,
    PivotStrategy.PARTIAL_ROW: 1,
    PivotStrategy.ROW1_COL1: 2,
}


# dtypes of the kernel's array arguments, in order: phi, psi^T, t, s, LU;
# pidx, cidx, pivot_index, pivot_is_col; pivot_magnitude, v_kk; hat_ratio
# and its work; the L panel, complex and real work space, and the norms
_KERNEL_ARRAYS = (
    (complex,) * 5
    + (np.intp, np.intp, np.intp, np.bool_)
    + (float, complex)
    + (float, float)
    + (complex, complex, float, float)
)


def _address(array: np.ndarray, dtype) -> int:
    if array.dtype != dtype or not (array.flags.c_contiguous and array.flags.writeable):
        raise TypeError(f"kernel arrays must be writeable, C-contiguous {np.dtype(dtype)}")
    # a plain address: numpy's ctypes pointer objects form a reference cycle
    # that lives until the cycle collector runs (CPython issue 12836)
    return array.ctypes.data


def _load_kernel(cache_dir=_KERNEL_SOURCE.parent / "__pycache__", compiler="cc",
                 flags=_KERNEL_FLAGS):
    """Compile ``_gko_kernel.c`` once per source version and load it.

    Returns its two entry points, ``gko_eliminate`` and ``tri_block_solve``.

    The library is cached as ``_gko_kernel-<sha256>.so`` in ``cache_dir``,
    keyed on the source, the flags and the machine type.  It is compiled to a
    temporary name and moved into place, so concurrent imports are safe.
    Raises ImportError when the compiler is missing or fails.
    """
    cache_dir = Path(cache_dir)
    source = _KERNEL_SOURCE.read_bytes()
    key = hashlib.sha256(
        source + " ".join(flags).encode() + platform.machine().encode()
    ).hexdigest()
    lib = cache_dir / f"_gko_kernel-{key}.so"
    if not lib.exists():
        cache_dir.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix="_gko_kernel-", suffix=".tmp")
        os.close(fd)
        try:
            try:
                built = subprocess.run(
                    [compiler, *flags, "-o", tmp, str(_KERNEL_SOURCE), "-lm"],
                    capture_output=True,
                    text=True,
                )
            except OSError as exc:
                raise ImportError(
                    f"cannot compile {_KERNEL_SOURCE}: C compiler {compiler!r} not found ({exc})"
                ) from exc
            if built.returncode != 0:
                raise ImportError(
                    f"C compiler {compiler!r} failed on {_KERNEL_SOURCE}:\n{built.stderr}"
                )
            os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    library = ctypes.CDLL(str(lib))
    size, flag, real, address = ctypes.c_ssize_t, ctypes.c_int, ctypes.c_double, ctypes.c_void_p
    eliminate = library.gko_eliminate
    # n, alpha, strategy, hat, eps, L panel width, then the arrays
    eliminate.argtypes = [size, size, flag, flag, real, size]
    eliminate.argtypes += [address] * len(_KERNEL_ARRAYS)
    eliminate.restype = size
    solve_block = library.tri_block_solve
    # block rows, right-hand sides, upper, block, row stride, right-hand sides
    solve_block.argtypes = [size, size, flag, address, size, address]
    solve_block.restype = None
    return eliminate, solve_block


_kernel, _solve_block = _load_kernel()


def gko_factor(
    gen: GeneratorPair,
    nodes: CauchyNodes,
    strategy=PivotStrategy.PARTIAL_ROW,
    hat_ratios="auto",
) -> GKOFactorization:
    """Factor a Cauchy-type matrix given by generators as P^T L U P'^T.

    Every elimination step runs in one compiled loop (``_gko_kernel.c``).
    L and U share one n x n array, ``LU`` (16 n^2 bytes, 67 MB at n = 2048),
    zeroed once and written by the loop only where a factor has an entry.
    Besides it and copies of the generators and nodes, the loop works in an
    n-row panel of ``_L_PANEL`` columns of L, 16 n ``_L_PANEL`` bytes (1 MB
    at n = 2048), and 32 n + 16 alpha bytes: one recovered column, the
    magnitudes of the recovered column and row, and those of the pivot's
    generator rows.  The loop also returns ``norm_L``, ``norm_U``,
    ``hatL_ratio`` and ``hatU_ratio`` finished: it sums the squares of U's
    entries, and of the hatted ones, times a power of two it picks from R's
    first column and row, so that no square under- or overflows where the
    entry does not, divides the scale out of ||U||_F's root and takes each
    ratio as the quotient of its two roots.

    Parameters
    ----------
    gen, nodes :
        Generators and displacement nodes of the matrix to factor.
    strategy :
        ``PivotStrategy`` or its value, "none", "partial" or "row1col1".
        ``PARTIAL_ROW`` brings the largest first-column entry to the pivot;
        ``ROW1_COL1`` examines the first row as well and performs a column
        interchange when the row maximum wins strictly.  Ties resolve to the
        smallest index, and a row-versus-column tie prefers the row
        interchange.
    hat_ratios :
        Whether to record the O(n^2)-per-step hatted norm ratio in the
        trace: a bool (numpy's included), or "auto", which enables it for
        n <= 256; anything else raises ``ValueError``.  When off,
        ``trace.hat_ratio`` is NaN throughout, and so is the g2 that
        ``growth_report`` reads from it.  When on, the factorization holds
        the reciprocal node gaps 1/|t_i - s_j| and a split copy of psi's
        columns, 8 n^2 + 24 alpha n bytes (0.5 MB at n = 256, 8.4 MB at
        n = 1024).

    Raises
    ------
    SingularMatrixError
        At the first step whose pivot magnitude is at most n*eps times the
        largest candidate examined there, or is subnormal (the generators'
        scale took the elimination below the normal range); the loop stops
        there.
    ValueError
        When the generators and nodes differ in order, ``hat_ratios`` is
        neither a bool nor "auto", or the step the loop stops at has a pivot
        or a largest candidate that is inf or NaN: entries of the matrix
        overflow the float64 range.
    """
    strategy = PivotStrategy.coerce(strategy)
    _check_same_order(gen, nodes)
    n, alpha = gen.n, gen.alpha
    if isinstance(hat_ratios, str) and hat_ratios == "auto":
        hat_ratios = n <= HAT_RATIO_AUTO_LIMIT
    # None, a number or another string would be read for its truth value and
    # switch the O(n^3) ratio off or on unasked
    elif not isinstance(hat_ratios, (bool, np.bool_)):
        raise ValueError(f"hat_ratios must be a bool or 'auto', got {hat_ratios!r}")

    # the kernel updates copies; psi is held transposed so that each of its
    # columns, like each row of phi, is contiguous
    phi = np.array(gen.phi, dtype=complex, order="C")
    psi_t = np.array(gen.psi.T, dtype=complex, order="C")
    t = np.array(nodes.t, dtype=complex)
    s = np.array(nodes.s, dtype=complex)
    LU = np.zeros((n, n), dtype=complex)
    pidx = np.arange(n)
    cidx = np.arange(n)
    trace = GrowthTrace(
        pivot_index=np.zeros(n, dtype=np.intp),
        pivot_is_col=np.zeros(n, dtype=bool),
        pivot_magnitude=np.zeros(n),
        v_kk=np.zeros(n, dtype=complex),
        hat_ratio=np.full(n, np.nan),
    )
    # the reciprocal node gaps, then the hat ratio's copy of psi's columns
    hat_work = np.empty(n * n + 3 * alpha * n if hat_ratios else 0)
    panel = np.empty(n * _L_PANEL, dtype=complex)
    work_c = np.empty(n, dtype=complex)
    work_r = np.empty(2 * n + 2 * alpha)
    norms = np.zeros(5)
    arrays = (
        phi, psi_t, t, s, LU,
        pidx, cidx, trace.pivot_index, trace.pivot_is_col,
        trace.pivot_magnitude, trace.v_kk,
        trace.hat_ratio, hat_work,
        panel, work_c, work_r, norms,
    )
    failed = _kernel(
        n, alpha, _STRATEGY_CODES[strategy], int(bool(hat_ratios)), EPS, _L_PANEL,
        *map(_address, arrays, _KERNEL_ARRAYS),
    )
    if failed >= 0:
        pivot, candidate = trace.pivot_magnitude[failed], norms[4]
        if not (np.isfinite(pivot) and np.isfinite(candidate)):
            raise ValueError(
                f"the matrix overflows the float64 range at step {failed} (pivot "
                f"{pivot:.3e}, largest candidate {candidate:.3e}); scale the generators down"
            )
        raise SingularMatrixError(
            f"singular at step {failed}: pivot {pivot:.3e} below {n}*eps*{candidate:.3e}"
            if pivot <= n * EPS * candidate
            # else the kernel stopped on a subnormal pivot
            else f"pivot {pivot:.3e} at step {failed} is below the normal range"
        )
    return GKOFactorization(
        row_perm=Permutation(pidx),
        col_perm=Permutation(np.argsort(cidx)),
        LU=LU,
        trace=trace,
        norm_L=float(norms[0]),
        norm_U=float(norms[1]),
        hatL_ratio=float(norms[2]),
        hatU_ratio=float(norms[3]),
    )


def _substitute(T: np.ndarray, z: np.ndarray, upper: bool) -> None:
    """Overwrite z with T^-1 z, T taken as its unit lower or its upper triangle.

    The lower substitution reads only the entries of T below the diagonal and
    the upper one only those on and above it, so T may hold both factors.  T
    is a C-contiguous complex (n, n) array and z a C-contiguous complex
    (n,) or (n, m) array, blocks of ``_SUB_BLOCK`` rows taken first to last
    (lower) or last to first (upper).
    """
    n = T.shape[0]
    m = z.size // n
    blocks = range(0, n, _SUB_BLOCK)
    t_base, z_base = T.ctypes.data, z.ctypes.data
    for lo in reversed(blocks) if upper else blocks:
        hi = min(lo + _SUB_BLOCK, n)
        z[lo:hi] -= T[lo:hi, hi:] @ z[hi:] if upper else T[lo:hi, :lo] @ z[:lo]
        _solve_block(
            hi - lo, m, int(upper), t_base + (lo * n + lo) * T.itemsize, n,
            z_base + lo * m * z.itemsize,
        )


def _add_lu_product(LU: np.ndarray, A: np.ndarray) -> None:
    """Add L U into the complex (n, n) array A, L and U read from the packed ``LU``.

    L U is the sum over blocks of ``_SUB_BLOCK`` columns of L of
    L[lo:, lo:hi] U[lo:hi, lo:], the only part of each block's product that
    is not zero, so A gains it in chunks of ``_SUB_BLOCK`` rows: about n^3/3
    complex multiply-adds, where the dense L @ U takes n^3.  Only the two
    diagonal blocks are masked, L's to its unit lower triangle and U's to
    its upper one; the rest is read from ``LU`` in place.  Besides A, the
    work is two ``_SUB_BLOCK`` x n arrays, U's block row and one chunk's
    product, so no factor and no n x n product is built.

    Each chunk's product is added to whole rows of A, the product's columns
    before lo held at zero: numpy adds two C-contiguous arrays without a
    buffer, where an add into the strided A[r:end, lo:] allocates its
    iterator's buffers (385 KB to add a 64 x 200 chunk of 205 KB).  Adding
    a zero changes no entry of A (only a -0.0 becomes +0.0), so A's norm
    keeps its bits.
    """
    n = LU.shape[0]
    panel = np.empty((_SUB_BLOCK, n), dtype=complex)
    product = np.zeros((_SUB_BLOCK, n), dtype=complex)
    for lo in range(0, n, _SUB_BLOCK):
        hi = min(lo + _SUB_BLOCK, n)
        mask = _STRICT_LOWER[: hi - lo, : hi - lo]
        L = np.where(mask, LU[lo:hi, lo:hi], 0.0)
        np.fill_diagonal(L, 1.0)
        U = panel[: hi - lo, : n - lo]
        U[...] = LU[lo:hi, lo:]
        U[:, : hi - lo][mask] = 0.0
        for r in range(lo, n, _SUB_BLOCK):
            end = min(r + _SUB_BLOCK, n)
            np.matmul(L if r == lo else LU[r:end, lo:hi], U, out=product[: end - r, lo:])
            A[r:end] += product[: end - r]
        # the next block's products start at column hi
        product[:, lo:hi] = 0.0


def _solve_scaled(n: int, b, solve) -> np.ndarray:
    """``solve`` applied to b scaled by a power of two, its result scaled back.

    ``b`` must be one right-hand side of shape (n,) or several as the
    columns of an (n, m) array, with finite entries.  ``solve`` gets b as a
    new complex array times 2^-e, e the exponent of its largest real or
    imaginary part kept within [-1021, 1021], and returns a new array that
    is scaled back in place.  So b's own scale cannot overflow the solve,
    and as a power of two scales exactly, x has the bits of the unscaled
    solve wherever that stays in range.

    Raises
    ------
    ValueError
        When b has another shape, length or a non-finite entry, or when x
        is not finite once scaled back: the solution overflows.
    """
    b = np.asarray(b, dtype=complex)
    if b.ndim not in (1, 2):
        raise ValueError(f"b must have shape (n,) or (n, m), got shape {b.shape}")
    if b.shape[0] != n:
        raise ValueError(f"factorization is order {n}, b has length {b.shape[0]}")
    # checked before the solve: a Toeplitz transform would warn on an inf
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side b has non-finite entries")
    exponent = _part_exponent(b, clamp=True)
    x = solve(b * 2.0**-exponent)
    with np.errstate(over="ignore"):
        x *= 2.0**exponent
    if not np.all(np.isfinite(x)):
        raise ValueError("the solution overflows: an entry of x is past the float64 range")
    return x


def _permute_substitute(f: GKOFactorization, b: np.ndarray) -> np.ndarray:
    """P'^T U^-1 L^-1 P b, a new array, for a checked complex b."""
    n = f.n
    # the compiled block solve reads the factors through raw pointers
    LU = np.ascontiguousarray(f.LU, dtype=complex)
    if LU.shape != (n, n):
        raise ValueError(f"LU must be ({n}, {n}), got {LU.shape}")
    if f.row_perm.n != n or f.col_perm.n != n:
        raise ValueError(
            f"permutations must be order {n}, got {f.row_perm.n} and {f.col_perm.n}"
        )
    if np.any(np.diag(LU) == 0.0):
        raise SingularMatrixError("zero diagonal in U")
    # fancy indexing copies b, so z may be overwritten
    z = np.ascontiguousarray(b[f.row_perm.idx])
    _substitute(LU, z, upper=False)
    _substitute(LU, z, upper=True)
    return z[f.col_perm.idx]


def solve_with_factors(f: GKOFactorization, b) -> np.ndarray:
    """Solve (P^T L U P'^T) x = b by permute, substitute twice, permute.

    ``b`` is one right-hand side of shape (n,) or several as the columns of
    an (n, m) array.  Both substitutions run over 64-row diagonal blocks:
    a BLAS product against the part already solved, then a compiled
    substitution through the block.  They run on b scaled by a power of
    two near 1 / max|b|, and x is scaled back, so a large finite b solves
    wherever x itself is in range; ``ValueError`` when it is not, or when b
    is of another shape or not finite.
    """
    return _solve_scaled(f.n, b, lambda z: _permute_substitute(f, z))
