"""Workload inputs, made from the seed, and the operations run on them.

Inputs are generated before timing, with ``structsolve.testgen`` and numpy
RNG.  Every right-hand side is b = A x_true for a positive random x_true,
like the ones vector of the paper's delta sweep: the relative residual
||A x - b|| / ||b|| then measures the solver, not the condition number of A
(with a random b it would sit near eps * cond(A) for any backward-stable
solver, and the adversarial family has cond(A) ~ 1/delta).

A workload is a list of cells (instance, pivot strategy) that the benchmark
cycles through in a closed loop.  Running a cell gives one ``Unit``: the
operations it completed, its factorization statistics and its busy time.
The untraced path calls the composed ``toeplitz_factor``/``toeplitz_solve``
as a user would; the traced path makes the same public calls one by one,
each inside a span, and must give bit-identical results.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from structsolve import (
    AdversarialSpec,
    DftPlan,
    ToeplitzFactorization,
    adversarial_toeplitz,
    apply_F,
    apply_F_inv,
    backward_error_cauchy,
    backward_error_toeplitz,
    cancellation_cauchy,
    gko_factor,
    growth_report,
    random_cauchy_type,
    random_toeplitz,
    scaling_D,
    solve_quality,
    solve_with_factors,
    to_cauchy_generators,
    toeplitz_cauchy_nodes,
    toeplitz_factor,
    toeplitz_generators,
    toeplitz_solve,
)

from . import dense
from .spans import call

#: an answer is accurate when its independent relative residual is at most this
RESIDUAL_LIMIT = 1e-10
#: ceiling for the cells where the paper predicts growth (see ``Cell``)
UNSTABLE_CEILING = 1e-4
STRATEGIES = ("partial", "row1col1")


@dataclass
class Cell:
    """One instance with one pivot strategy.

    ``nodes`` are the Cauchy nodes of the eliminated matrix: given for a
    Cauchy-type instance, those of the transformed matrix for a Toeplitz
    one.  ``known_unstable`` marks the cells where the paper predicts
    residuals above the limit (partial pivoting on the adversarial Toeplitz
    family with delta <= 1e-8; the cancellation Cauchy family with
    f_norm <= 1e-6, which row-1/column-1 pivoting does not repair).  Their
    residual must stay below ``UNSTABLE_CEILING``; they count against
    ``accurate_frac`` but are not failures.
    """

    label: str
    strategy: str
    b: np.ndarray
    nodes: object
    coeffs: object = None
    gen: object = None
    known_unstable: bool = False

    @property
    def n(self) -> int:
        return self.b.shape[0]

    def dense(self) -> np.ndarray:
        if self.coeffs is not None:
            return dense.toeplitz_matrix(self.coeffs.a)
        return dense.cauchy_matrix(self.gen.phi, self.gen.psi, self.nodes.t, self.nodes.s)


@dataclass
class OpRecord:
    cell: int
    op: int
    latency: float
    residual: float
    # "accurate", "unstable" (known_unstable, under the ceiling), "failed",
    # or "unchecked" until ``check_unit``; the traced path's stay unchecked,
    # their answers must equal the checked ones
    status: str
    error: str | None


@dataclass
class FactorRecord:
    cell: int
    pivot_index: np.ndarray
    pivot_is_col: np.ndarray
    hat_steps: int
    row_swaps: int
    col_swaps: int
    lu_mb: float
    bound_nan: bool


@dataclass
class Unit:
    ops: list[OpRecord]
    factor: FactorRecord | None
    busy: float
    # raw results for the bit-identity check; the caller drops them
    raw_factor: object = None
    raw_x: list = field(default_factory=list)


def _rhs(rng: np.random.Generator, A: np.ndarray, k: int | None = None) -> np.ndarray:
    shape = A.shape[0] if k is None else (A.shape[0], k)
    return A @ rng.uniform(0.5, 1.5, shape)


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def _random_toeplitz_cells(rng, n: int, pool: int, k: int | None) -> list[Cell]:
    nodes = toeplitz_cauchy_nodes(n)
    cells = []
    for i in range(pool):
        c = random_toeplitz(n, _seed(rng))
        b = _rhs(rng, dense.toeplitz_matrix(c.a), k)
        cells += [Cell(f"random_toeplitz[{i}] {s}", s, b, nodes, coeffs=c) for s in STRATEGIES]
    return cells


def _diagnosed_cells(rng, n: int) -> list[Cell]:
    cells = []
    nodes = toeplitz_cauchy_nodes(n)
    for delta in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
        c = adversarial_toeplitz(AdversarialSpec(n=n, delta=delta))
        b = _rhs(rng, dense.toeplitz_matrix(c.a))
        cells += [
            Cell(f"adversarial delta={delta:g} {s}", s, b, nodes, coeffs=c,
                 known_unstable=s == "partial" and delta <= 1e-8)
            for s in STRATEGIES
        ]
    families = [(f"cancellation f_norm={f:g}", cancellation_cauchy(n, f, _seed(rng)), f <= 1e-6)
                for f in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)]
    families.append(("random_cauchy alpha=4", random_cauchy_type(n, 4, _seed(rng)), False))
    for name, (gen, cnodes), unstable in families:
        b = _rhs(rng, dense.cauchy_matrix(gen.phi, gen.psi, cnodes.t, cnodes.s))
        cells += [Cell(f"{name} {s}", s, b, cnodes, gen=gen, known_unstable=unstable)
                  for s in STRATEGIES]
    return cells


# -- the public calls, composed (untraced) or one by one inside spans --------


def factor(cell: Cell, tr):
    if cell.coeffs is None:
        return call(tr, "cauchy_gko.gko_factor", gko_factor, cell.gen, cell.nodes, cell.strategy)
    if tr is None:
        return toeplitz_factor(cell.coeffs, cell.strategy)
    with tr.span("toeplitz.toeplitz_factor"):
        gen = tr.call("toeplitz.toeplitz_generators", toeplitz_generators, cell.coeffs)
        gen_c, nodes = tr.call("toeplitz.to_cauchy_generators", to_cauchy_generators, gen)
        gko = tr.call("cauchy_gko.gko_factor", gko_factor, gen_c, nodes, cell.strategy)
        plan = tr.call("dft.DftPlan.create", DftPlan.create, cell.n)
        d = tr.call("dft.scaling_D", scaling_D, cell.n)
        return ToeplitzFactorization(inner=gko, plan=plan, d=d)


def solve(cell: Cell, f, b, tr):
    if cell.coeffs is None:
        return call(tr, "cauchy_gko.solve_with_factors", solve_with_factors, f, b)
    if tr is None:
        return toeplitz_solve(f, b)
    with tr.span("toeplitz.toeplitz_solve"):
        y = tr.call("dft.apply_F", apply_F, f.plan, np.asarray(b, dtype=complex))
        y = tr.call("cauchy_gko.solve_with_factors", solve_with_factors, f.inner, y)
        return np.conj(f.d) * tr.call("dft.apply_F_inv", apply_F_inv, f.plan, y)


def inner(f):
    return f.inner if isinstance(f, ToeplitzFactorization) else f


def _diagnose(cell: Cell, f, b, x, tr, full: bool):
    gko = inner(f)
    report = call(tr, "diagnostics.growth_report", growth_report, gko.trace, gko, cell.nodes)
    if full and cell.coeffs is not None:
        call(tr, "diagnostics.solve_quality", solve_quality, cell.coeffs, b, x)
        call(tr, "diagnostics.backward_error_toeplitz", backward_error_toeplitz, cell.coeffs, f)
    elif full:
        call(tr, "diagnostics.backward_error_cauchy", backward_error_cauchy, cell.gen, cell.nodes, f)
    return report


def _root(tr, name: str, op: int):
    return nullcontext() if tr is None else tr.root(name, op)


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


# -- checking ---------------------------------------------------------------


def classify(residual: float, known_unstable: bool, error: str | None) -> tuple[str, str | None]:
    """Sort one answer into accurate / unstable / failed."""
    if error is not None:
        return "failed", error
    if not np.isfinite(residual):
        return "failed", "non-finite solution"
    if residual <= RESIDUAL_LIMIT:
        return "accurate", None
    if known_unstable and residual <= UNSTABLE_CEILING:
        return "unstable", None
    return "failed", f"residual {residual:.3e} above the limit"


def _check(cell: Cell, idx: int, ids: list, xs: list, errors: list, latencies: list,
           check: bool) -> list[OpRecord]:
    """Classify the answers of one unit against the independent dense residual."""
    if not check:
        return [OpRecord(idx, op, lat, np.nan, "unchecked", err)
                for op, err, lat in zip(ids, errors, latencies)]
    residuals = [np.nan] * len(xs)
    done = [j for j, x in enumerate(xs) if x is not None]
    if done:
        X = np.stack([xs[j] for j in done], axis=-1)
        B = cell.b if cell.b.ndim == 2 else cell.b[:, None]
        with np.errstate(all="ignore"):
            r = dense.relative_residuals(cell.dense(), X, B[:, done])
        for j, value in zip(done, np.atleast_1d(r)):
            residuals[j] = float(value)
    out = []
    for op, res, err, lat in zip(ids, residuals, errors, latencies):
        status, err = classify(res, cell.known_unstable, err)
        out.append(OpRecord(idx, op, lat, res, status, err))
    return out


def check_unit(cell: Cell, unit: Unit) -> Unit:
    """The unit with its unchecked answers classified; needs ``unit.raw_x``."""
    ops = unit.ops
    records = _check(cell, ops[0].cell, [o.op for o in ops], unit.raw_x,
                     [o.error for o in ops], [o.latency for o in ops], check=True)
    return replace(unit, ops=records)


def factor_record(idx: int, f, report) -> FactorRecord:
    gko = inner(f)
    t = gko.trace
    moved = t.pivot_index != np.arange(gko.n)
    bound_nan = report is not None and bool(
        np.isnan(report.bound_cauchy) or np.isnan(report.bound_toeplitz)
    )
    return FactorRecord(
        cell=idx,
        pivot_index=t.pivot_index.copy(),
        pivot_is_col=t.pivot_is_col.copy(),
        hat_steps=int(np.isfinite(t.hat_ratio).sum()),
        row_swaps=int(np.sum(moved & ~t.pivot_is_col)),
        col_swaps=int(np.sum(moved & t.pivot_is_col)),
        lu_mb=(gko.L.nbytes + gko.U.nbytes) / 1e6,
        bound_nan=bound_nan,
    )


# -- one unit of each workload ---------------------------------------------


def run_full(cell: Cell, idx: int, tr, op_ids, check: bool, full: bool) -> Unit:
    """Factor, solve one right-hand side and report: one operation."""
    op = next(op_ids)
    f = x = report = error = None
    t0 = time.perf_counter()
    try:
        with _root(tr, "op", op):
            f = factor(cell, tr)
            x = solve(cell, f, cell.b, tr)
            report = _diagnose(cell, f, cell.b, x, tr, full)
    except Exception as exc:  # a failed operation is recorded, the run goes on
        error = _error(exc)
    busy = time.perf_counter() - t0
    records = _check(cell, idx, [op], [x], [error], [busy], check)
    frec = factor_record(idx, f, report) if f is not None else None
    return Unit(records, frec, busy, f, [x])


def run_batch(cell: Cell, idx: int, tr, op_ids, check: bool, columns: int | None = None) -> Unit:
    """Factor once and report growth, then solve the batch's right-hand
    sides one at a time, each after the previous answer; one operation per
    right-hand side."""
    f = report = error = None
    t0 = time.perf_counter()
    try:
        with _root(tr, "batch", next(op_ids)):
            f = factor(cell, tr)
            report = _diagnose(cell, f, None, None, tr, full=False)
    except Exception as exc:  # the batch's operations all fail, the run goes on
        error = _error(exc)
    busy = time.perf_counter() - t0
    ids, xs, errors, latencies = [], [], [], []
    for j in range(cell.b.shape[1] if columns is None else columns):
        op = next(op_ids)
        x, err, t = None, error, time.perf_counter()
        if f is not None:
            try:
                with _root(tr, "op", op):
                    x = solve(cell, f, cell.b[:, j], tr)
            except Exception as exc:  # recorded as a failed operation
                err = _error(exc)
        lat = time.perf_counter() - t
        busy += lat
        ids.append(op)
        xs.append(x)
        errors.append(err)
        latencies.append(lat)
    records = _check(cell, idx, ids, xs, errors, latencies, check)
    frec = factor_record(idx, f, report) if f is not None else None
    return Unit(records, frec, busy, f, xs)


RHS_PER_BATCH = 128


@dataclass(frozen=True)
class Workload:
    """How to build a workload's cells and run one of them.

    ``stride`` cells make a balanced group (both strategies, or a whole
    round of the stress families); a run stops only at a group boundary so
    that every run measures the same mix.  ``warmup``, ``peak`` and
    ``oracle`` list the cells used for set-up, the memory pass and the
    LAPACK reference.
    """

    name: str
    make: Callable[[np.random.Generator], list[Cell]]
    batch: bool
    full: bool
    stride: int
    warmup: tuple[int, ...]
    peak: tuple[int, ...]
    oracle: tuple[int, ...]

    def cells(self, seed: int) -> list[Cell]:
        return self.make(np.random.default_rng(seed))

    def run(self, cell: Cell, idx: int, tr, op_ids, check: bool = True,
            columns: int | None = None) -> Unit:
        if self.batch:
            return run_batch(cell, idx, tr, op_ids, check, columns)
        return run_full(cell, idx, tr, op_ids, check, self.full)


WORKLOADS = {
    w.name: w
    for w in (
        # GKO elimination does most of the work; L+U take 134 MB
        Workload(
            "toeplitz-large",
            lambda rng: _random_toeplitz_cells(rng, 2048, pool=4, k=None),
            batch=False, full=False, stride=2, warmup=(0,), peak=(0,), oracle=(0, 1),
        ),
        # one factorization read by many solves: substitution does most of the work
        Workload(
            "many-rhs",
            lambda rng: _random_toeplitz_cells(rng, 1024, pool=3, k=RHS_PER_BATCH),
            batch=True, full=False, stride=2, warmup=(0,), peak=(0, 1), oracle=(0, 1),
        ),
        # the paper's stress families with the full report: the O(n^3) hat
        # ratio and dense diagnostics dominate, and the weak stability of
        # partial pivoting shows as residuals above the limit
        Workload(
            "diagnosed-small",
            lambda rng: _diagnosed_cells(rng, 256),
            batch=False, full=True, stride=24, warmup=(0, 12), peak=(0, 12), oracle=(0, 1, 12, 13),
        ),
    )
}
