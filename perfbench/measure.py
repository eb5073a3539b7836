"""Closed-loop timed runs, the traced run, and the metrics taken from them.

One client runs the cells of a workload in turn, each operation starting
when the previous one has finished.  Only calls into structsolve are timed;
the benchmark's residual checks run after the timed loop.
"""

from __future__ import annotations

import hashlib
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field, replace
from itertools import count

import numpy as np

from structsolve import random_toeplitz, toeplitz_factor, toeplitz_solve

from . import dense
from .spans import Tracer, module_self_times, self_times
from .workloads import Cell, Unit, Workload, check_unit, factor, inner, solve

END_TO_END = {
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_ops_per_s": "1/s",
    "accurate_frac": "fraction",
    "residual_max_digits": "digits",
    "peak_mb": "MB",
    "setup_s": "s",
}

MODULES = ("toeplitz", "dft", "cauchy_gko", "diagnostics")

#: per-layer time metrics: the spans whose time, summed within an operation,
#: makes the metric (median over the operations that make those calls)
LAYER_CALLS = {
    "toeplitz.generators_s": ("toeplitz.toeplitz_generators",),
    "toeplitz.to_cauchy_s": ("toeplitz.to_cauchy_generators",),
    "dft.plan_s": ("dft.DftPlan.create", "dft.scaling_D"),
    "dft.transform_s": ("dft.apply_F", "dft.apply_F_inv"),
    "cauchy_gko.factor_s": ("cauchy_gko.gko_factor",),
    "cauchy_gko.substitute_s": ("cauchy_gko.solve_with_factors",),
    "diagnostics.growth_report_s": ("diagnostics.growth_report",),
}

PER_LAYER = {
    **{name: "s" for name in LAYER_CALLS},
    "diagnostics.self_s": "s",
    **{f"{m}.share": "fraction" for m in MODULES},
    "cauchy_gko.hat_ratio_steps": "count",
    "cauchy_gko.row_interchanges": "count",
    "cauchy_gko.col_interchanges": "count",
    "cauchy_gko.lu_mb": "MB",
    "cauchy_gko.singular_frac": "fraction",
    "diagnostics.bound_nan_frac": "fraction",
    "oracle.lapack_solve_s": "s",
    "oracle.speedup_vs_lapack": "ratio",
    "oracle.crossover_n": "n",
    "trace.overhead_frac": "fraction",
    "trace.uncovered_frac": "fraction",
}

#: orders scanned for the LAPACK crossover; twice the last one means "not reached"
CROSSOVER_GRID = (256, 512, 1024, 2048)


@dataclass
class Window:
    units: list[Unit]
    busy: float
    wall: float
    split_units: list[Unit] = field(default_factory=list)
    tracer: Tracer | None = None
    mismatches: list[str] = field(default_factory=list)

    @property
    def ops(self):
        return [op for u in self.units for op in u.ops]


#: input generation plus warm-up is repeated this many times; setup_s uses the median
SETUP_REPS = 3


def setup(workload: Workload, seed: int) -> tuple[list[Cell], list[float], list[str]]:
    """Generate the inputs and warm up ``SETUP_REPS`` times; the last set is used.

    Returns the cells, the time of each repetition and each set's digest.
    """
    times, digests = [], []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        cells = workload.cells(seed)
        for idx in workload.warmup:
            workload.run(cells[idx], idx, None, count(), check=False, columns=1)
        times.append(time.perf_counter() - t)
        digests.append(inputs_digest(cells))
    return cells, times, digests


def import_time(src) -> float:
    """Time of ``import structsolve`` in a fresh interpreter, measured there."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import structsolve; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                         text=True, check=True, timeout=60)
    return float(out.stdout)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    return np.array_equal(np.ascontiguousarray(a).view(np.uint8),
                          np.ascontiguousarray(b).view(np.uint8))


def compare_paths(cell: Cell, plain: Unit, split: Unit) -> list[str]:
    """Differences between the composed and the split pipeline on one cell."""
    fp, fs = plain.raw_factor, split.raw_factor
    if (fp is None) != (fs is None):
        return [f"{cell.label}: factorization failed on one path only"]
    out = []
    if fp is not None:
        gp, gs = inner(fp), inner(fs)
        pairs = {
            "L": (gp.L, gs.L),
            "U": (gp.U, gs.U),
            "row_perm": (gp.row_perm.idx, gs.row_perm.idx),
            "col_perm": (gp.col_perm.idx, gs.col_perm.idx),
            "pivot_index": (gp.trace.pivot_index, gs.trace.pivot_index),
            "pivot_is_col": (gp.trace.pivot_is_col, gs.trace.pivot_is_col),
        }
        out += [f"{cell.label}: {k} differs" for k, (a, b) in pairs.items() if not _same_bits(a, b)]
    for j, (xp, xs) in enumerate(zip(plain.raw_x, split.raw_x)):
        if (xp is None) != (xs is None) or (xp is not None and not _same_bits(xp, xs)):
            out.append(f"{cell.label}: x[{j}] differs")
    return out


def _strip(unit: Unit) -> Unit:
    return replace(unit, raw_factor=None, raw_x=[])


def run_window(workload: Workload, cells: list[Cell], seconds: float, traced: bool) -> Window:
    """Run cells in a closed loop until about ``seconds`` of program time.

    The run stops at a group boundary (``workload.stride`` cells) once the
    busy time plus half a group would pass ``seconds``.  With ``traced``,
    every cell runs on both paths, the order alternating, and the results
    must be bit-identical.  The composed path's answers are checked once the
    loop has ended.
    """
    op_ids = count()
    tracer = Tracer() if traced else None
    win = Window([], 0.0, 0.0, tracer=tracer)
    start = time.perf_counter()
    i = 0
    while True:
        if i and i % workload.stride == 0:
            per_group = win.busy / (i // workload.stride)
            if win.busy + per_group / 2 >= seconds:
                break
        idx = i % len(cells)
        cell = cells[idx]
        if traced:
            split_first = (i + i // len(cells)) % 2 == 1
            order = (tracer, None) if split_first else (None, tracer)
            first, second = (workload.run(cell, idx, tr, op_ids, check=False) for tr in order)
            plain, split = (second, first) if split_first else (first, second)
            win.mismatches += compare_paths(cell, plain, split)
            win.split_units.append(_strip(split))
            win.busy += split.busy
        else:
            plain = workload.run(cell, idx, None, op_ids, check=False)
        win.units.append(replace(plain, raw_factor=None))
        win.busy += plain.busy
        i += 1
    win.wall = time.perf_counter() - start
    # the answers are checked after the loop: the check's dense products wake
    # the BLAS threads, whose spinning would slow the next timed operations
    win.units = [_strip(check_unit(cells[u.ops[0].cell], u)) for u in win.units]
    return win


def pivot_digest(units: list[Unit], cells: list[Cell]) -> tuple[str, list[str]]:
    """Digest of each cell's first pivot sequence, and every repeat that differs."""
    first: dict[int, bytes] = {}
    repeats = []
    for u in units:
        if u.factor is None:
            continue
        sig = u.factor.pivot_index.tobytes() + u.factor.pivot_is_col.tobytes()
        if first.setdefault(u.factor.cell, sig) != sig:
            repeats.append(f"{cells[u.factor.cell].label}: pivots differ on a repeat")
    h = hashlib.sha256()
    for key in sorted(first):
        h.update(cells[key].label.encode())
        h.update(first[key])
    return h.hexdigest()[:16], repeats


def inputs_digest(cells: list[Cell]) -> str:
    """Digest of every generated input array, to show the seed fixes them."""
    h = hashlib.sha256()
    for c in cells:
        h.update(c.label.encode())
        arrays = [c.b, c.nodes.t, c.nodes.s]
        arrays += [c.coeffs.a] if c.coeffs is not None else [c.gen.phi, c.gen.psi]
        for a in arrays:
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its level.

    With ten samples or fewer there is no such percentile and the maximum is
    reported at level 100.
    """
    s = sorted(latencies)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


#: consecutive operations per segment of a long run, for ``segmented_tail``
TAIL_SEGMENT = 200


def segmented_tail(latencies: list[float]) -> tuple[float, float, int]:
    """Median over consecutive segments of ``TAIL_SEGMENT`` or more operations
    of each segment's ``tail``, with the median level and the segment count.

    A run with fewer than two segments' worth of operations is one segment.
    A single extreme order statistic over the whole run follows the
    machine's slowest stretch from run to run; a median over segments does
    not.
    """
    k = max(1, len(latencies) // TAIL_SEGMENT)
    bounds = [len(latencies) * i // k for i in range(k + 1)]
    tails = [tail(latencies[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    return (statistics.median(t[0] for t in tails),
            statistics.median(t[1] for t in tails), k)


def peak_mb(workload: Workload, cells: list[Cell]) -> float:
    """Peak traced allocation of one operation (for many-rhs: a factorization
    with its growth report and one solve), in a pass apart from the timed one."""
    peaks = []
    for idx in workload.peak:
        tracemalloc.start()
        try:
            workload.run(cells[idx], idx, None, count(), check=False, columns=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return max(peaks) / 1e6


def end_to_end(win: Window, setup_s: float, peak: float) -> tuple[dict, dict]:
    ops = win.ops
    latencies = [o.latency for o in ops]
    tail_s, level, segments = segmented_tail(latencies)
    residuals = [o.residual for o in ops if np.isfinite(o.residual)]
    metrics = {
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_s,
        "throughput_ops_per_s": len(ops) / win.busy,
        "accurate_frac": sum(o.status == "accurate" for o in ops) / len(ops),
        # -log10 of the largest relative residual: steadier across seeds than
        # the residual itself, whose size follows each random instance
        "residual_max_digits": -np.log10(max(residuals, default=float("inf"))),
        "peak_mb": peak,
        "setup_s": setup_s,
    }
    detail = {"tail_percentile": level, "tail_segments": segments,
              "busy_s": win.busy, "wall_s": win.wall}
    return metrics, detail


def _per_op(spans, names) -> list[float]:
    totals: dict[int, float] = {}
    for s in spans:
        if s.name in names:
            totals[s.op] = totals.get(s.op, 0.0) + s.duration
    return list(totals.values())


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def per_layer(win: Window) -> tuple[dict, dict]:
    spans = win.tracer.spans
    root_total = sum(s.duration for s in spans if s.parent is None)
    by_module = module_self_times(spans)
    diag_self: dict[int, float] = {}
    for s, own in zip(spans, self_times(spans)):
        if s.module == "diagnostics":
            diag_self[s.op] = diag_self.get(s.op, 0.0) + own
    factors = [u.factor for u in win.split_units if u.factor is not None]
    gko = [s for s in spans if s.name == "cauchy_gko.gko_factor"]
    traced = [o.latency for u in win.split_units for o in u.ops]
    plain = [o.latency for o in win.ops]
    metrics = {name: _median(_per_op(spans, calls)) for name, calls in LAYER_CALLS.items()}
    metrics["diagnostics.self_s"] = _median(list(diag_self.values()))
    metrics.update({f"{m}.share": by_module.get(m, 0.0) / root_total for m in MODULES})
    metrics.update({
        "cauchy_gko.hat_ratio_steps": _median([f.hat_steps for f in factors]),
        "cauchy_gko.row_interchanges": _mean(f.row_swaps for f in factors),
        "cauchy_gko.col_interchanges": _mean(f.col_swaps for f in factors),
        "cauchy_gko.lu_mb": _median([f.lu_mb for f in factors]),
        "cauchy_gko.singular_frac": _mean(s.error == "SingularMatrixError" for s in gko),
        "diagnostics.bound_nan_frac": _mean(f.bound_nan for f in factors),
        "trace.overhead_frac": _median(traced) / _median(plain) - 1.0,
        "trace.uncovered_frac": by_module.get("uncovered", 0.0) / root_total,
    })
    detail = {
        "module_self_s": by_module,
        "root_s": root_total,
        "spans": len(spans),
        "calls_median_s": {
            name: _median(_per_op(spans, (name,)))
            for name in sorted({s.name for s in spans if s.parent is not None})
        },
    }
    return metrics, detail


def _time(fn, *args) -> tuple[float, object]:
    t = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t, out


def lapack_reference(workload: Workload, cells: list[Cell]) -> tuple[dict, list]:
    """``np.linalg.solve`` on the dense system of some cells, against factor+solve."""
    rows = []
    for idx in workload.oracle:
        cell = cells[idx]
        A = cell.dense()
        b = cell.b if cell.b.ndim == 1 else cell.b[:, 0]
        lapack, _ = _time(np.linalg.solve, A, b)
        fast, _ = _time(lambda: solve(cell, factor(cell, None), b, None))
        rows.append({"cell": cell.label, "lapack_s": lapack, "fast_s": fast})
    metrics = {
        "oracle.lapack_solve_s": statistics.median(r["lapack_s"] for r in rows),
        "oracle.speedup_vs_lapack": statistics.median(r["lapack_s"] / r["fast_s"] for r in rows),
    }
    return metrics, rows


def crossover(seed: int) -> tuple[dict, list]:
    """Smallest grid order where ``toeplitz_factor`` + ``toeplitz_solve`` beats LAPACK."""
    rng = np.random.default_rng(seed)
    rows = []
    for n in CROSSOVER_GRID:
        c = random_toeplitz(n, int(rng.integers(2**31)))
        A = dense.toeplitz_matrix(c.a)
        b = A @ rng.uniform(0.5, 1.5, n)
        fast, _ = _time(lambda: toeplitz_solve(toeplitz_factor(c), b))
        lapack, _ = _time(np.linalg.solve, A, b)
        rows.append({"n": n, "fast_s": fast, "lapack_s": lapack})
    n_cross = next((r["n"] for r in rows if r["fast_s"] < r["lapack_s"]), 2 * CROSSOVER_GRID[-1])
    return {"oracle.crossover_n": n_cross}, rows
