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

from .core import EPS, CauchyNodes, GeneratorPair, Permutation, SingularMatrixError

__all__ = [
    "PivotStrategy",
    "GrowthTrace",
    "GKOFactorization",
    "gko_factor",
    "solve_with_factors",
]

#: |denominator| below this counts as a degenerate (flagged-infinite) V entry;
#: the kernel applies it to v_kk, ``diagnostics.v_matrix`` to every entry
V_DEGENERATE_FLOOR = 1e-300

#: orders above which the O(n^3) hatted-ratio diagnostic is skipped on "auto"
HAT_RATIO_AUTO_LIMIT = 256

# Rows per diagonal block of the triangular substitutions.  Each block costs
# one BLAS product against the part already solved, which numpy may thread,
# and one compiled substitution through the diagonal block, so a solve makes
# 2n/64 Python iterations instead of 2n.  Blocks of 32 or 128 rows made a
# solve about 10% slower at n = 1024 and 2048, blocks of 16 or 256 about 40%.
_SUB_BLOCK = 64


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
        # str(None) would be "none": only a strategy or its name is accepted
        if isinstance(value, str) and value.lower() in aliases:
            return aliases[value.lower()]
        raise ValueError(f"unknown pivot strategy {value!r}")


@dataclass
class GrowthTrace:
    """Per-elimination-step record of generator-growth quantities.

    It holds what ``growth_report`` reads.  ``v_kk[k]`` is the step-k V entry
    on the diagonal, |phi_k||psi_k| / (phi_k psi_k), and +inf where
    |phi_k psi_k| is below ``V_DEGENERATE_FLOOR``; its largest magnitude is a
    term of g1.  ``hat_ratio[k]`` is ||V(k) o R_k||_F / ||R_k||_F, the step-k
    hatted norm ratio feeding the g2 growth factor (NaN where not computed).
    The ``hat_l_col`` / ``hat_u_row`` entries are the norms of the step-k
    column of L and row of U weighted elementwise by the step-k V column and
    row: summed in quadrature over k they give ||Lhat|| and ||Uhat|| without
    ever storing a V matrix.
    """

    pivot_index: np.ndarray
    pivot_is_col: np.ndarray
    pivot_magnitude: np.ndarray
    v_kk: np.ndarray
    hat_ratio: np.ndarray
    hat_l_col: np.ndarray
    hat_u_row: np.ndarray
    hat_ratios_computed: bool

    @property
    def n(self) -> int:
        return self.pivot_index.size


@dataclass
class GKOFactorization:
    """P^T L U P'^T factorization of a Cauchy-type matrix.

    ``row_perm`` is P and ``col_perm`` is P' (identity unless the
    row-1/column-1 strategy performed column interchanges), both as
    row-selection permutations, so the source matrix is recovered as
    ``row_perm.matrix().T @ L @ U @ col_perm.matrix().T``.  ``norm_L`` and
    ``norm_U`` are the Frobenius norms of L and U, accumulated during
    elimination.
    """

    row_perm: Permutation
    col_perm: Permutation
    L: np.ndarray
    U: np.ndarray
    trace: GrowthTrace
    norm_L: float
    norm_U: float

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


_KERNEL_SOURCE = Path(__file__).with_name("_gko_kernel.c")
# no -ffast-math, -march=native or -fcx-limited-range: each changes rounding
# or overflow, and a library cached for one machine must run on its twin.
# -fno-math-errno changes no value: sqrt no longer sets errno, which nothing
# reads, and without it GCC keeps every loop that takes a square root
# scalar.  -fno-trapping-math is not needed: the kernel selects its operands
# before it computes, so GCC if-converts the quotients without it.  The AVX2
# copies of the kernel (target_clones in the source) are safe where
# -march=native is not: the dynamic loader picks them only on a CPU with
# AVX2, the base-ISA copies run everywhere else, and both compute in the
# order the source fixes, without FMA, so they give the same bits
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


# dtypes of the kernel's array arguments, in order: phi, psi^T, t, s, L, U;
# pidx, cidx, pivot_index, pivot_is_col; pivot_magnitude, v_kk; hat_ratio,
# hat_l_col, hat_u_row, the hat ratio's work; the L panel, complex and real
# work space, and the norm sums
_KERNEL_ARRAYS = (
    (complex,) * 6
    + (np.intp, np.intp, np.intp, np.bool_)
    + (float, complex)
    + (float, float, float, float)
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
    # n, alpha, strategy, hat, eps, V floor, L panel width, then the arrays
    eliminate.argtypes = [size, size, flag, flag, real, real, size]
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
    Besides L and U (32 n^2 bytes) and copies of the generators and nodes,
    the loop works in an n-row panel of ``_L_PANEL`` columns of L, 16 n
    ``_L_PANEL`` bytes (1 MB at n = 2048), and 32 n + 16 alpha bytes: one
    recovered column, the magnitudes of the recovered column and row, and
    those of the pivot's generator rows.

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
        trace; "auto" enables it for n <= 256, and any other string raises
        ``ValueError``.  When on, the factorization holds the reciprocal node
        gaps 1/|t_i - s_j| and a split copy of psi's columns, 8 n^2 + 24
        alpha n bytes (0.5 MB at n = 256, 8.4 MB at n = 1024).

    Raises
    ------
    SingularMatrixError
        When the selected pivot magnitude is at most n*eps times the largest
        candidate examined at that step.
    ValueError
        When the generators and nodes differ in order, or ``hat_ratios`` is a
        string other than "auto".
    """
    strategy = PivotStrategy.coerce(strategy)
    n, alpha = gen.n, gen.alpha
    if nodes.n != n:
        raise ValueError(f"generators are order {n}, nodes are order {nodes.n}")
    if isinstance(hat_ratios, str):
        # any other string would read as true and switch the O(n^3) ratio on
        if hat_ratios != "auto":
            raise ValueError(f"hat_ratios must be a bool or 'auto', got {hat_ratios!r}")
        hat_ratios = n <= HAT_RATIO_AUTO_LIMIT

    # the kernel updates copies; psi is held transposed so that each of its
    # columns, like each row of phi, is contiguous
    phi = np.array(gen.phi, dtype=complex, order="C")
    psi_t = np.array(gen.psi.T, dtype=complex, order="C")
    t = np.array(nodes.t, dtype=complex)
    s = np.array(nodes.s, dtype=complex)
    # interchanges move only the finished columns 0..k-1 of L, so the unit
    # diagonal can be written up front
    L = np.eye(n, dtype=complex)
    U = np.zeros((n, n), dtype=complex)
    pidx = np.arange(n)
    cidx = np.arange(n)
    trace = GrowthTrace(
        pivot_index=np.zeros(n, dtype=np.intp),
        pivot_is_col=np.zeros(n, dtype=bool),
        pivot_magnitude=np.zeros(n),
        v_kk=np.zeros(n, dtype=complex),
        hat_ratio=np.full(n, np.nan),
        hat_l_col=np.zeros(n),
        hat_u_row=np.zeros(n),
        hat_ratios_computed=bool(hat_ratios),
    )
    # the reciprocal node gaps, then the hat ratio's copy of psi's columns
    hat_work = np.empty(n * n + 3 * alpha * n if hat_ratios else 0)
    panel = np.empty(n * _L_PANEL, dtype=complex)
    work_c = np.empty(n, dtype=complex)
    work_r = np.empty(2 * n + 2 * alpha)
    sums = np.zeros(3)
    arrays = (
        phi, psi_t, t, s, L, U,
        pidx, cidx, trace.pivot_index, trace.pivot_is_col,
        trace.pivot_magnitude, trace.v_kk,
        trace.hat_ratio, trace.hat_l_col, trace.hat_u_row, hat_work,
        panel, work_c, work_r, sums,
    )
    failed = _kernel(
        n, alpha, _STRATEGY_CODES[strategy], int(bool(hat_ratios)), EPS, V_DEGENERATE_FLOOR,
        _L_PANEL, *map(_address, arrays, _KERNEL_ARRAYS),
    )
    if failed >= 0:
        raise SingularMatrixError(
            f"singular at step {failed}: pivot {trace.pivot_magnitude[failed]:.3e} "
            f"below {n}*eps*{sums[2]:.3e}"
        )
    return GKOFactorization(
        row_perm=Permutation(pidx),
        col_perm=Permutation(np.argsort(cidx)),
        L=L,
        U=U,
        trace=trace,
        norm_L=float(np.sqrt(n + sums[0])),
        norm_U=float(np.sqrt(sums[1])),
    )


def _substitute(T: np.ndarray, z: np.ndarray, upper: bool) -> None:
    """Overwrite z with T^-1 z, for T unit lower or upper triangular.

    T is a C-contiguous complex (n, n) array and z a C-contiguous complex
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


def solve_with_factors(f: GKOFactorization, b) -> np.ndarray:
    """Solve (P^T L U P'^T) x = b by permute, substitute twice, permute.

    ``b`` is one right-hand side of shape (n,) or several as the columns of
    an (n, m) array.  Both substitutions run over 64-row diagonal blocks:
    a BLAS product against the part already solved, then a compiled
    substitution through the block.
    """
    n = f.n
    b = np.asarray(b, dtype=complex)
    if b.ndim not in (1, 2):
        raise ValueError(f"b must have shape (n,) or (n, m), got shape {b.shape}")
    if b.shape[0] != n:
        raise ValueError(f"factorization is order {n}, b has length {b.shape[0]}")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side b has non-finite entries")
    # the compiled block solve reads the factors through raw pointers
    L = np.ascontiguousarray(f.L, dtype=complex)
    U = np.ascontiguousarray(f.U, dtype=complex)
    if L.shape != (n, n) or U.shape != (n, n):
        raise ValueError(f"L and U must be ({n}, {n}), got {L.shape} and {U.shape}")
    if f.row_perm.n != n or f.col_perm.n != n:
        raise ValueError(
            f"permutations must be order {n}, got {f.row_perm.n} and {f.col_perm.n}"
        )
    if np.any(np.diag(U) == 0.0):
        raise SingularMatrixError("zero diagonal in U")
    # fancy indexing copies b, so z may be overwritten
    z = np.ascontiguousarray(b[f.row_perm.idx])
    _substitute(L, z, upper=False)
    _substitute(U, z, upper=True)
    return z[f.col_perm.idx]
