"""Self-tests of the benchmark: inputs, metric names, failure handling, spans."""

from __future__ import annotations

import json
import re
import sys
from itertools import count
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from structsolve import ToeplitzCoeffs, toeplitz_cauchy_nodes  # noqa: E402

from perfbench import measure  # noqa: E402
from perfbench.spans import Span, Tracer, module_self_times, self_times  # noqa: E402
from perfbench.workloads import WORKLOADS, Cell, check_unit, classify  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("name", ["diagnosed-small", "many-rhs"])
def test_same_seed_same_inputs(name):
    w = WORKLOADS[name]
    assert measure.inputs_digest(w.cells(5)) == measure.inputs_digest(w.cells(5))
    assert measure.inputs_digest(w.cells(5)) != measure.inputs_digest(w.cells(6))


def test_metric_names_and_units_match_benchmark_json():
    names = [*measure.END_TO_END, *measure.PER_LAYER, *WORKLOADS]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names), names
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == measure.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == measure.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _zero_cell(n: int, k: int | None) -> Cell:
    c = ToeplitzCoeffs(a=np.zeros(2 * n - 1))
    b = np.zeros(n) if k is None else np.zeros((n, k))
    return Cell("all-zero", "partial", b, toeplitz_cauchy_nodes(n), coeffs=c)


@pytest.mark.parametrize("name,k", [("toeplitz-large", None), ("many-rhs", 3)])
def test_all_zero_toeplitz_counts_as_failed(name, k):
    unit = WORKLOADS[name].run(_zero_cell(16, k), 0, None, count())
    assert len(unit.ops) == (k or 1)
    assert all(op.status == "failed" and "Singular" in op.error for op in unit.ops)


def test_unchecked_unit_is_classified_by_check_unit():
    cell = _zero_cell(16, 3)
    unit = WORKLOADS["many-rhs"].run(cell, 0, None, count(), check=False)
    assert all(op.status == "unchecked" for op in unit.ops)
    checked = check_unit(cell, unit)
    assert all(op.status == "failed" and "Singular" in op.error for op in checked.ops)


def test_classify():
    assert classify(1e-12, False, None) == ("accurate", None)
    assert classify(1e-6, True, None) == ("unstable", None)
    assert classify(1e-6, False, None)[0] == "failed"
    assert classify(1e-3, True, None)[0] == "failed"
    assert classify(np.nan, False, None)[0] == "failed"


def test_self_time_on_hand_built_tree():
    spans = [
        Span("op", 0.0, 10.0, None, 0),
        Span("dft.apply_F", 1.0, 4.0, 0, 0),
        Span("dft.inner", 2.0, 3.0, 1, 0),
        Span("cauchy_gko.gko_factor", 3.0, 6.0, 0, 0),  # overlaps its sibling
        Span("diagnostics.growth_report", 8.0, 12.0, 0, 0),  # runs past its parent
    ]
    # root: 10 minus the union [1, 6] + [8, 10]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])
    assert module_self_times(spans) == pytest.approx(
        {"uncovered": 3.0, "dft": 3.0, "cauchy_gko": 3.0, "diagnostics": 4.0}
    )


def test_tracer_nests_spans_and_records_errors():
    tr = Tracer()
    with pytest.raises(ZeroDivisionError):
        with tr.root("op", 7):
            tr.call("dft.apply_F", abs, -1)
            tr.call("cauchy_gko.gko_factor", lambda: 1 / 0)
    root, first, second = tr.spans
    assert (root.parent, first.parent, second.parent) == (None, 0, 0)
    assert {s.op for s in tr.spans} == {7}
    assert (root.error, first.error, second.error) == ("ZeroDivisionError", None, "ZeroDivisionError")
    assert all(s.end >= s.start for s in tr.spans)


def test_tail_has_ten_samples_beyond():
    values = list(range(100))
    value, level = measure.tail(values)
    assert sum(v > value for v in values) == 10
    assert level == pytest.approx(90.0)
    assert measure.tail([3.0, 1.0]) == (3.0, 100.0)


def test_segmented_tail_is_median_of_segment_tails():
    lat = [float(i % 200) for i in range(1000)]  # five segments of 0..199
    lat[5] = 1e9  # one extreme sample moves one segment's tail, not the median
    assert measure.segmented_tail(lat) == (189.0, pytest.approx(95.0), 5)
    assert measure.segmented_tail(lat[:300]) == (*measure.tail(lat[:300]), 1)

