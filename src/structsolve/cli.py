"""Command-line front end: solve single systems, inspect factorizations and
growth, and run the delta-sweep experiments.

System file format (JSON): either

    {"toeplitz": {"n": 4, "a": [...2n-1 coefficients...]}, "b": [...]}

or

    {"cauchy": {"t": [...], "s": [...], "phi": [[...]], "psi": [[...]]},
     "b": [...]}

where every number is either a real scalar or an [re, im] pair.  ``b`` is
required by ``solve`` and optional elsewhere.

``--strategy`` and the output name a strategy by its ``PivotStrategy``
value: ``none``, ``partial`` or ``row1col1``.  ``factor`` writes the packed
``GKOFactorization.LU`` as ``"LU"``: L strictly below the diagonal (its unit
diagonal implied) and U on and above it, as LAPACK's xGETRF stores them.

Exit codes: 0 success, 2 malformed input or an ``--out`` path that cannot
be written, 3 singular system, 4 node collision.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .cauchy_gko import PivotStrategy, gko_factor, solve_with_factors
from .core import (
    CauchyNodes,
    GeneratorPair,
    NodeCollisionError,
    SingularMatrixError,
    ToeplitzCoeffs,
    materialize_cauchy,
)
from .diagnostics import (
    _solve_errors,
    backward_error_cauchy,
    backward_error_toeplitz,
    growth_report,
    solve_quality,
)
from .sweep import SweepConfig, records_to_csv, run_sweep
from .toeplitz import (
    to_cauchy_generators,
    toeplitz_factor,
    toeplitz_generators,
    toeplitz_solve,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SINGULAR = 3
EXIT_COLLISION = 4


class InputError(ValueError):
    pass


def _is_number(x) -> bool:
    # a JSON true or false loads as a bool, which is an int subclass
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _scalar(x):
    if _is_number(x):
        return complex(x)
    if isinstance(x, (list, tuple)) and len(x) == 2 and all(map(_is_number, x)):
        return complex(x[0], x[1])
    raise InputError(f"expected a number or [re, im] pair, got {x!r}")


def _vector(data, name):
    if not isinstance(data, list) or not data:
        raise InputError(f"{name!r} must be a nonempty list")
    return np.array([_scalar(x) for x in data])


def _matrix(data, name):
    if not isinstance(data, list) or not data or not isinstance(data[0], list):
        raise InputError(f"{name!r} must be a list of rows")
    rows = [_vector(r, name) for r in data]
    if len({r.size for r in rows}) != 1:
        raise InputError(f"rows of {name!r} have inconsistent lengths")
    return np.stack(rows)


def _encode(obj):
    if isinstance(obj, complex):
        return [_encode(obj.real), _encode(obj.imag)]
    if isinstance(obj, np.ndarray):
        # a non-finite entry takes the recursion, which writes it as a string
        if np.iscomplexobj(obj) and np.isfinite(obj).all():
            return np.stack((obj.real, obj.imag), -1).tolist()
        return [_encode(x) for x in obj.tolist()]
    if isinstance(obj, list):
        return [_encode(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _encode(v) for k, v in obj.items()}
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def _load_system(path):
    """Returns (kind, payload, b) with payload ready for factoring."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read system file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("top-level JSON value must be an object")
    b = _vector(doc["b"], "b") if "b" in doc else None
    if "toeplitz" in doc:
        spec = doc["toeplitz"]
        if not isinstance(spec, dict):
            raise InputError("'toeplitz' must be an object")
        a = _vector(spec.get("a"), "a")
        try:
            coeffs = ToeplitzCoeffs(a=a)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        if "n" in spec and spec["n"] != coeffs.n:
            raise InputError(
                f"declared n={spec['n']} but {a.size} coefficients imply n={coeffs.n}"
            )
        kind, payload, n = "toeplitz", coeffs, coeffs.n
    elif "cauchy" in doc:
        spec = doc["cauchy"]
        if not isinstance(spec, dict):
            raise InputError("'cauchy' must be an object")
        try:
            nodes = CauchyNodes(t=_vector(spec.get("t"), "t"), s=_vector(spec.get("s"), "s"))
            gen = GeneratorPair(
                phi=_matrix(spec.get("phi"), "phi"), psi=_matrix(spec.get("psi"), "psi")
            )
        except NodeCollisionError:
            raise
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        if gen.n != nodes.n:
            raise InputError(f"generators order {gen.n} but nodes order {nodes.n}")
        kind, payload, n = "cauchy", (gen, nodes), nodes.n
    else:
        raise InputError("system file needs a 'toeplitz' or 'cauchy' entry")
    if b is not None and b.size != n:
        raise InputError(f"'b' has length {b.size} but the system is order {n}")
    return kind, payload, b


def _write(payload: str, out_path):
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            raise InputError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(payload)


def _or_input_error(fn, *args):
    # the library raises ValueError on a non-finite b, on a solution past
    # the float64 range, on Toeplitz generators that overflow it and on a
    # matrix whose entries overflow it in elimination; its
    # singular and collision errors are ValueErrors with exit codes of their own
    try:
        return fn(*args)
    except (SingularMatrixError, NodeCollisionError):
        raise
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _cmd_solve(args) -> int:
    kind, payload, b = _load_system(args.input)
    if b is None:
        raise InputError("'solve' needs a right-hand side 'b' in the system file")
    strategy = PivotStrategy.coerce(args.strategy)
    if kind == "toeplitz":
        f = _or_input_error(toeplitz_factor, payload, strategy)
        x = _or_input_error(toeplitz_solve, f, b)
        report = solve_quality(payload, b, x)
    else:
        gen, nodes = payload
        f = _or_input_error(gko_factor, gen, nodes, strategy)
        x = _or_input_error(solve_with_factors, f, b)
        report = _solve_errors(materialize_cauchy(gen, nodes), b, x)
    doc = {"x": _encode(x), "report": _encode(report.to_dict())}
    _write(json.dumps(doc, indent=2) + "\n", args.out)
    return EXIT_OK


def _factor_any(kind, payload, strategy):
    """(gen, nodes, f, toeplitz): the Cauchy-type generators, nodes and
    factorization, and the ``ToeplitzFactorization`` holding f, or None."""
    if kind == "toeplitz":
        toeplitz = _or_input_error(toeplitz_factor, payload, strategy)
        gen, nodes = to_cauchy_generators(toeplitz_generators(payload))
        return gen, nodes, toeplitz.inner, toeplitz
    gen, nodes = payload
    return gen, nodes, _or_input_error(gko_factor, gen, nodes, strategy), None


def _cmd_factor(args) -> int:
    kind, payload, _ = _load_system(args.input)
    strategy = PivotStrategy.coerce(args.strategy)
    gen, nodes, f, toeplitz = _factor_any(kind, payload, strategy)
    errors = {"reconstruction": backward_error_cauchy(gen, nodes, f)}
    if toeplitz is not None:
        errors["toeplitz_backward"] = backward_error_toeplitz(payload, toeplitz)
    doc = {
        "n": f.n,
        "strategy": strategy.value,
        "row_perm": f.row_perm.idx.tolist(),
        "col_perm": f.col_perm.idx.tolist(),
        "pivot_index": f.trace.pivot_index.tolist(),
        "pivot_is_col": f.trace.pivot_is_col.tolist(),
        "pivot_magnitude": f.trace.pivot_magnitude.tolist(),
        "LU": _encode(f.LU),
    }
    doc.update((key, _encode(err.to_dict())) for key, err in errors.items())
    _write(json.dumps(doc, indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_growth(args) -> int:
    kind, payload, _ = _load_system(args.input)
    strategy = PivotStrategy.coerce(args.strategy)
    _, nodes, f, _ = _factor_any(kind, payload, strategy)
    report = growth_report(f.trace, f, nodes)
    _write(json.dumps(_encode(report.to_dict()), indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    try:
        config = SweepConfig(
            n=args.n,
            delta_exponents=tuple(range(args.delta_exp_min, args.delta_exp_max + 1)),
            strategies=tuple(args.strategy or SweepConfig.strategies),
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    result = run_sweep(config)
    if args.format == "csv":
        _write(records_to_csv(result.records), args.out)
    else:
        doc = {
            "records": [_encode(r.to_dict()) for r in result.records],
            "summary": _encode(result.summary),
        }
        _write(json.dumps(doc, indent=2) + "\n", args.out)
    return EXIT_OK if result.all_ok else EXIT_SINGULAR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="structsolve",
        description="Fast structured solvers for Cauchy-type and Toeplitz systems "
        "with growth diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    strategies = [s.value for s in PivotStrategy]

    def add_common(p, needs_input=True):
        if needs_input:
            p.add_argument("input", help="system JSON file")
        p.add_argument(
            "--strategy",
            choices=strategies,
            default=PivotStrategy.PARTIAL_ROW.value,
            help="pivoting strategy (default: %(default)s)",
        )
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p_solve = sub.add_parser("solve", help="factor and solve one system")
    add_common(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_factor = sub.add_parser("factor", help="emit the P^T L U P'^T factorization")
    add_common(p_factor)
    p_factor.set_defaults(func=_cmd_factor)

    p_growth = sub.add_parser("growth", help="emit the generator-growth report")
    add_common(p_growth)
    p_growth.set_defaults(func=_cmd_growth)

    p_sweep = sub.add_parser("sweep", help="run the adversarial delta sweep")
    ks = SweepConfig.delta_exponents
    p_sweep.add_argument("--n", type=int, default=SweepConfig.n,
                         help="matrix order (even, default %(default)s)")
    p_sweep.add_argument("--delta-exp-min", type=int, default=min(ks))
    p_sweep.add_argument("--delta-exp-max", type=int, default=max(ks))
    p_sweep.add_argument(
        "--strategy",
        action="append",
        choices=strategies,
        help="strategy to sweep; repeatable (default: "
        + " and ".join(s.value for s in SweepConfig.strategies) + ")",
    )
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"structsolve: input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NodeCollisionError as exc:
        print(f"structsolve: node collision: {exc}", file=sys.stderr)
        return EXIT_COLLISION
    except SingularMatrixError as exc:
        print(f"structsolve: singular system: {exc}", file=sys.stderr)
        return EXIT_SINGULAR


if __name__ == "__main__":
    sys.exit(main())
