"""Benchmark of the structsolve pipeline: one workload, one seed, one run.

    python3 perfbench/run.py --workload toeplitz-large --seed 1 --seconds 20 --trace 0

Run it from the repository root.  It imports structsolve from ``src/``.
The last line of standard output is the result, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of the traced run with
``--trace 1``.  The line before it is a report with the environment, sample
counts, digests and breakdowns; the report and the spans are also written to
``perfbench/out/``.  The exit code is 1 when a correctness check fails and 2
when the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: imports of structsolve timed per run: this process's own, then fresh ones
IMPORT_REPS = 3


def _environment(threads: str, args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.25 has no dict mode
        blas = "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "structsolve" / "__init__.py").is_file():
        print(f"perfbench: no structsolve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # cap the BLAS pool at nproc before numpy is imported
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    t0 = time.perf_counter()
    import structsolve  # noqa: F401  (numpy comes with it)

    import_s = time.perf_counter() - t0

    from perfbench import measure
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    cells, setup_times, input_digests = measure.setup(workload, args.seed)
    win = measure.run_window(workload, cells, args.seconds, traced=bool(args.trace))
    import_times = [import_s]
    if not args.trace:
        # set up again after the timed loop, so that the medians in setup_s
        # sample the machine at both ends of the run
        _, more_times, more_digests = measure.setup(workload, args.seed)
        setup_times += more_times
        input_digests += more_digests
        import_times += [measure.import_time(ROOT / "src") for _ in range(IMPORT_REPS - 1)]
    digest, repeats = measure.pivot_digest(win.units, cells)
    ops = win.ops
    failures = [f"{cells[o.cell].label}: {o.error}" for o in ops if o.status == "failed"]
    problems = failures + repeats + win.mismatches
    if len(set(input_digests)) != 1:
        problems.append("the same seed generated different inputs")

    report = {
        "environment": _environment(threads, args),
        "import_reps_s": import_times,
        "setup_reps_s": setup_times,
        "inputs_digest": sorted(set(input_digests)),
        "pivot_digest": digest,
        "cells": len(cells),
        "samples": len(ops),
        "status": {s: sum(o.status == s for o in ops) for s in ("accurate", "unstable", "failed")},
        "inaccurate_cells": sorted({cells[o.cell].label for o in ops if o.status != "accurate"}),
        "problems": problems[:20],
    }
    if args.trace:
        metrics, report["trace"] = measure.per_layer(win)
        report["trace"]["split_bit_identical"] = not win.mismatches
        oracle, report["lapack"] = measure.lapack_reference(workload, cells)
        cross, report["crossover"] = measure.crossover(args.seed)
        metrics.update(oracle)
        metrics.update(cross)
        units = measure.PER_LAYER
        win.tracer.write_jsonl(_out(args, "spans.jsonl"))
    else:
        setup_s = statistics.median(import_times) + statistics.median(setup_times)
        metrics, report["run"] = measure.end_to_end(win, setup_s, measure.peak_mb(workload, cells))
        units = measure.END_TO_END

    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    report["result"] = result
    _out(args, "report.json").write_text(json.dumps(report, indent=1) + "\n")
    print("report " + json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _out(args, suffix: str) -> Path:
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    return out / f"{args.workload}-seed{args.seed}-trace{args.trace}-{suffix}"


if __name__ == "__main__":
    sys.exit(main())
