"""The delta-sweep experiment: factor and solve adversarial systems across
a range of cancellation depths, recording accuracy and growth per strategy.

The right-hand side is b = T @ 1, the classic T x = 1 experiment with the
all-ones vector as the *known exact solution*.  The adversarial matrices
are near-singular by construction (their smallest singular value scales
with delta), and solving against a right-hand side with a large component
in the left near-null space, as a random one has, would drown every
strategy in the same ||x||-driven rounding floor; pinning the exact
solution keeps ||x|| = sqrt(n) and lets the stable and unstable pivoting
strategies actually separate.
"""

from __future__ import annotations

import io
import numbers
from dataclasses import dataclass

import numpy as np

from .cauchy_gko import PivotStrategy
from .core import SingularMatrixError, _order, dense_toeplitz
from .dft import toeplitz_cauchy_nodes
from .diagnostics import backward_error_toeplitz, growth_report, solve_quality
from .oracle import cond_estimate
from .testgen import AdversarialSpec, adversarial_toeplitz
from .toeplitz import toeplitz_factor, toeplitz_solve

__all__ = ["SweepConfig", "SweepRecord", "SweepResult", "run_sweep", "records_to_csv"]

#: the delta exponents k (delta = 10^-k) whose errors the summary regresses
REGRESSION_EXPONENTS = (2, 6)

CSV_COLUMNS = (
    "delta",
    "strategy",
    "forward_err",
    "residual",
    "cond",
    "g1",
    "g2",
    "g3",
    "bmax_over_bmin",
    "backward_err",
)


def _items(value, name: str) -> tuple:
    """The items of a config field, refusing what is not iterable."""
    try:
        items = iter(value)
    except TypeError:
        raise ValueError(f"{name} must be a sequence, got {value!r}") from None
    return tuple(items)


@dataclass(frozen=True)
class SweepConfig:
    """Sweep parameters; defaults follow the order-8, k = 2..16 experiment.

    The right-hand side is always b = T @ 1 (see the module docstring).
    A config is one hashable value: tuples of distinct int exponents and of
    distinct ``PivotStrategy`` members.
    """

    n: int = 8
    delta_exponents: tuple = tuple(range(2, 17))
    strategies: tuple = (PivotStrategy.PARTIAL_ROW, PivotStrategy.ROW1_COL1)

    def __post_init__(self):
        message = "sweep order must be even and at least 4"
        n = _order(self.n, 4, message)
        if n % 2 != 0:
            raise ValueError(message)
        object.__setattr__(self, "n", n)
        exponents = _items(self.delta_exponents, "delta exponents")
        if not exponents:
            raise ValueError("delta exponents must not be empty")
        # the summary files each record under its integer k: 2.5 would be k = 2
        if not all(isinstance(k, numbers.Integral) for k in exponents):
            raise ValueError(f"delta exponents must be integers, got {exponents!r}")
        exponents = tuple(map(int, exponents))
        if any(k <= 0 for k in exponents):
            raise ValueError("delta exponents must be positive")
        # delta = 10^-k is 0 from k = 324 on; capped, a huge k cannot
        # overflow the conversion to float
        if any(10.0 ** -min(k, 400) == 0.0 for k in exponents):
            raise ValueError("delta exponents must be at most 323: delta = 10^-k rounds to 0")
        # a repeated k runs its cells twice and fits the summary's slope
        # through two points at one k
        if len(set(exponents)) != len(exponents):
            raise ValueError(f"delta exponents must not repeat, got {exponents}")
        object.__setattr__(self, "delta_exponents", exponents)
        # a string would run one strategy per character
        if isinstance(self.strategies, str):
            raise ValueError(f"strategies must be a sequence, not the string {self.strategies!r}")
        strategies = tuple(map(PivotStrategy.coerce, _items(self.strategies, "strategies")))
        if not strategies:
            raise ValueError("strategies must not be empty")
        # a member and its value, or two cases of one value, coerce to one member
        if len(set(strategies)) != len(strategies):
            names = ", ".join(s.value for s in strategies)
            raise ValueError(f"strategies must not repeat, got {names}")
        object.__setattr__(self, "strategies", strategies)


@dataclass
class SweepRecord:
    delta: float
    strategy: str
    forward_err: float = np.nan
    residual: float = np.nan
    cond: float = np.nan
    g1: float = np.nan
    g2: float = np.nan
    g3: float = np.nan
    bmax_over_bmin: float = np.nan
    backward_err: float = np.nan
    ok: bool = True
    error: str = ""

    def csv_row(self) -> str:
        vals = [repr(float(getattr(self, c))) for c in CSV_COLUMNS if c != "strategy"]
        vals.insert(1, self.strategy)
        return ",".join(vals)

    def to_dict(self) -> dict:
        d = {c: getattr(self, c) for c in CSV_COLUMNS}
        d["ok"] = self.ok
        if self.error:
            d["error"] = self.error
        return d


@dataclass
class SweepResult:
    records: list
    summary: dict

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.records)


def _slope(ks, vals) -> float:
    ks = np.asarray(ks, dtype=float)
    vals = np.asarray(vals, dtype=float)
    keep = np.isfinite(vals) & (vals > 0)
    if keep.sum() < 2:
        return np.nan
    return float(np.polyfit(ks[keep], np.log10(vals[keep]), 1)[0])


def run_sweep(config: SweepConfig) -> SweepResult:
    """Run the sweep and return records plus regression-slope summary.

    Records appear in delta-major, strategy-minor order and failures are
    recorded as rows (ok=False) without aborting the remaining cells.  The
    summary regresses log10 of forward error and residual against the delta
    exponent k (delta = 10^-k) over ``REGRESSION_EXPONENTS``; since
    log10(1/delta) = k these are the log-log slopes versus 1/delta.
    """
    records = []
    nodes = toeplitz_cauchy_nodes(config.n)
    for kexp in config.delta_exponents:
        delta = 10.0 ** (-kexp)
        coeffs = adversarial_toeplitz(AdversarialSpec(n=config.n, delta=delta))
        T = dense_toeplitz(coeffs)
        b = T @ np.ones(config.n, dtype=complex)
        cond = cond_estimate(T)
        for strategy in config.strategies:
            rec = SweepRecord(delta=delta, strategy=strategy.value, cond=cond)
            try:
                f = toeplitz_factor(coeffs, strategy)
                x = toeplitz_solve(f, b)
                quality = solve_quality(coeffs, b, x)
                growth = growth_report(f.inner.trace, f.inner, nodes)
                rec.forward_err = quality.forward_err
                rec.residual = quality.residual
                rec.g1 = growth.g1
                rec.g2 = growth.g2
                rec.g3 = growth.g3
                rec.bmax_over_bmin = growth.bmax_over_bmin
                rec.backward_err = backward_error_toeplitz(coeffs, f).rel_err
            except (SingularMatrixError, np.linalg.LinAlgError) as exc:
                rec.ok = False
                rec.error = str(exc)
            records.append(rec)

    lo, hi = REGRESSION_EXPONENTS
    window = [k for k in config.delta_exponents if lo <= k <= hi]
    summary = {"regression_exponents": list(window), "strategies": {}}
    for strategy in config.strategies:
        by_k = {
            int(round(-np.log10(r.delta))): r
            for r in records
            if r.strategy == strategy.value and r.ok
        }
        ks = [k for k in window if k in by_k]
        summary["strategies"][strategy.value] = {
            "slope_forward_err": _slope(ks, [by_k[k].forward_err for k in ks]),
            "slope_residual": _slope(ks, [by_k[k].residual for k in ks]),
            "max_residual_in_window": (
                max(by_k[k].residual for k in ks) if ks else np.nan
            ),
        }
    return SweepResult(records=records, summary=summary)


def records_to_csv(records) -> str:
    """Fixed-header CSV body; float fields use repr so identical runs are
    byte-identical."""
    out = io.StringIO()
    out.write(",".join(CSV_COLUMNS) + "\n")
    for rec in records:
        out.write(rec.csv_row() + "\n")
    return out.getvalue()
