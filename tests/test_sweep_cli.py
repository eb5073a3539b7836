"""Tests for the sweep engine and the command-line interface."""

import json
import re

import numpy as np
import pytest

import structsolve as ss
from structsolve import cli
from structsolve.sweep import CSV_COLUMNS, SweepRecord


def _small_config(**kw):
    defaults = dict(n=8, delta_exponents=(2, 3, 4))
    defaults.update(kw)
    return ss.SweepConfig(**defaults)


def test_sweep_record_ordering_and_strategies():
    result = ss.run_sweep(_small_config())
    keys = [(r.delta, r.strategy) for r in result.records]
    expected = [
        (10.0**-k, s.value)
        for k in (2, 3, 4)
        for s in (ss.PivotStrategy.PARTIAL_ROW, ss.PivotStrategy.ROW1_COL1)
    ]
    assert keys == expected
    assert result.all_ok


def test_sweep_csv_header_and_determinism():
    r1 = ss.run_sweep(_small_config())
    r2 = ss.run_sweep(_small_config())
    csv1 = ss.records_to_csv(r1.records)
    csv2 = ss.records_to_csv(r2.records)
    assert csv1 == csv2
    header = csv1.splitlines()[0]
    assert header == "delta,strategy,forward_err,residual,cond,g1,g2,g3,bmax_over_bmin,backward_err"
    assert len(csv1.splitlines()) == 1 + len(r1.records)


def test_sweep_failed_record_renders_nan_row():
    rec = SweepRecord(delta=1e-2, strategy="partial", ok=False, error="boom")
    row = rec.csv_row().split(",")
    assert row[1] == "partial"
    assert row[2] == "nan"
    assert len(row) == len(CSV_COLUMNS)


def test_sweep_summary_slopes_partial_vs_modified():
    result = ss.run_sweep(_small_config(delta_exponents=tuple(range(2, 7))))
    s = result.summary["strategies"]
    assert 1.5 <= s["partial"]["slope_forward_err"] <= 2.5
    assert 0.5 <= s["partial"]["slope_residual"] <= 1.5
    assert s["row1col1"]["max_residual_in_window"] <= 1e-13


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        ss.SweepConfig(n=7)
    with pytest.raises(ValueError):
        ss.SweepConfig(delta_exponents=(0, 1))
    with pytest.raises(ValueError, match="empty"):
        ss.SweepConfig(delta_exponents=())
    # 10^-2.5 would be filed under k = 2 in the summary's regression
    for exponents in ((2, 2.5, 3, 4, 5, 6), (2.0, 3.0)):
        with pytest.raises(ValueError, match="integers"):
            ss.SweepConfig(delta_exponents=exponents)
    exponents = ss.SweepConfig(delta_exponents=(np.int64(2), 3)).delta_exponents
    assert exponents == (2, 3) and all(type(k) is int for k in exponents)
    # a config is one hashable value, whatever iterable it was given; a
    # generator was consumed by the checks and left no exponent to run
    config = ss.SweepConfig(delta_exponents=[2, 3])
    assert config == ss.SweepConfig(delta_exponents=(k for k in (2, 3)))
    assert hash(config) == hash(ss.SweepConfig(delta_exponents=(2, 3)))
    # a repeated k would run its cells twice and fit the summary's slope
    # through two points at one k
    with pytest.raises(ValueError, match=re.escape("delta exponents must not repeat, got (2, 2)")):
        ss.SweepConfig(delta_exponents=(2, 2))
    # no strategy would run a sweep of zero records that reports all_ok
    for strategies in ((), iter(())):
        with pytest.raises(ValueError, match="strategies must not be empty"):
            ss.SweepConfig(strategies=strategies)
    # a string would be swept one character at a time
    message = "strategies must be a sequence, not the string 'partial'"
    with pytest.raises(ValueError, match=message):
        ss.SweepConfig(strategies="partial")
    # a strategy given twice, as a member and its value or in two cases,
    # would run each of its cells twice
    message = "strategies must not repeat, got partial, partial"
    for strategies in (("partial", ss.PivotStrategy.PARTIAL_ROW), ("partial", "PARTIAL")):
        with pytest.raises(ValueError, match=message):
            ss.SweepConfig(strategies=strategies)
    # a field that is not iterable is refused by name, not with a TypeError
    message = re.escape("strategies must be a sequence, got <PivotStrategy.PARTIAL_ROW: 'partial'>")
    with pytest.raises(ValueError, match=message):
        ss.SweepConfig(strategies=ss.PivotStrategy.PARTIAL_ROW)
    with pytest.raises(ValueError, match="^delta exponents must be a sequence, got 5$"):
        ss.SweepConfig(delta_exponents=5)


@pytest.mark.parametrize(
    "n, message",
    [
        (8.0, "order must be an integer, got 8.0"),
        (True, "order must be an integer, got True"),
        ("8", "order must be an integer, got '8'"),
        (5, "sweep order must be even and at least 4"),
        (2, "sweep order must be even and at least 4"),
        (0, "sweep order must be even and at least 4"),
    ],
    ids=["float", "bool", "str", "odd", "small", "zero"],
)
def test_sweep_config_refuses_an_order_that_is_not_an_even_integer(n, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ss.SweepConfig(n=n)


def test_sweep_config_keeps_an_integer_order_as_int():
    config = ss.SweepConfig(n=np.int64(8))
    assert type(config.n) is int and config.n == 8


def _write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _identity_toeplitz_doc(n, b):
    a = [0.0] * (2 * n - 1)
    a[n - 1] = 1.0
    return {"toeplitz": {"n": n, "a": a}, "b": b}


def test_cli_solve_identity(tmp_path, capsys):
    path = _write_json(tmp_path / "sys.json", _identity_toeplitz_doc(4, [1.0, 1.0, 1.0, 1.0]))
    assert cli.main(["solve", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    x = np.array([complex(re, im) for re, im in doc["x"]])
    assert np.linalg.norm(x - 1.0) <= 1e-13
    assert doc["report"]["residual"] <= 1e-13


def test_cli_solve_matches_dense_oracle(tmp_path, capsys):
    n = 8
    coeffs = ss.random_toeplitz(n, seed=17)
    T = ss.dense_toeplitz(coeffs)
    b = np.arange(1.0, n + 1.0)
    doc = {"toeplitz": {"n": n, "a": [[v.real, v.imag] for v in coeffs.a]},
           "b": list(b)}
    path = _write_json(tmp_path / "sys.json", doc)
    assert cli.main(["solve", path, "--strategy", "row1col1"]) == 0
    out = json.loads(capsys.readouterr().out)
    x = np.array([complex(re, im) for re, im in out["x"]])
    x_dense = ss.dense_solve(T, b)
    assert np.linalg.norm(x - x_dense) <= 1e-10 * np.linalg.norm(x_dense)


@pytest.mark.parametrize("strategy", ["partial", "row1col1"])
def test_cli_solve_zero_rhs_reports_zero_errors(tmp_path, capsys, strategy):
    doc = {"toeplitz": {"n": 2, "a": [0.5, 2, 0.25]}, "b": [0, 0]}
    path = _write_json(tmp_path / "zero.json", doc)
    assert cli.main(["solve", path, "--strategy", strategy]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["x"] == [[0.0, 0.0], [0.0, 0.0]]
    assert out["report"]["residual"] == 0.0
    assert out["report"]["forward_err"] == 0.0


def test_cli_solve_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["solve", str(path)]) == 2
    assert "input error" in capsys.readouterr().err


def test_cli_solve_missing_rhs(tmp_path, capsys):
    doc = _identity_toeplitz_doc(4, [1.0])
    del doc["b"]
    path = _write_json(tmp_path / "norhs.json", doc)
    assert cli.main(["solve", path]) == 2


def _cauchy_system_doc(gen, nodes, b):
    return {
        "cauchy": {
            "t": [[v.real, v.imag] for v in nodes.t],
            "s": [[v.real, v.imag] for v in nodes.s],
            "phi": [[[v.real, v.imag] for v in row] for row in gen.phi],
            "psi": [[[v.real, v.imag] for v in row] for row in gen.psi],
        },
        "b": b,
    }


def _cauchy_doc(b):
    return _cauchy_system_doc(*ss.random_cauchy_type(3, 1, seed=5), b)


_SYSTEM_DOCS = {"toeplitz": lambda b: _identity_toeplitz_doc(3, b), "cauchy": _cauchy_doc}


@pytest.mark.parametrize("kind", sorted(_SYSTEM_DOCS))
def test_cli_solve_rhs_of_wrong_length(tmp_path, capsys, kind):
    path = _write_json(tmp_path / "short.json", _SYSTEM_DOCS[kind]([1.0, 1.0]))
    assert cli.main(["solve", path]) == 2
    err = capsys.readouterr().err
    assert "input error: 'b' has length 2 but the system is order 3" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", sorted(_SYSTEM_DOCS))
def test_cli_solve_non_finite_rhs(tmp_path, capsys, kind):
    path = _write_json(tmp_path / "nan.json", _SYSTEM_DOCS[kind]([1.0, float("nan"), 1.0]))
    assert cli.main(["solve", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error: right-hand side b has non-finite entries" in captured.err


def test_cli_solve_with_a_solution_past_the_float64_range(tmp_path, capsys):
    # max |x| is about 2^1029; the solve used to warn and report a singular
    # system (exit 3)
    doc = {
        "cauchy": {"t": [1, 2, 3], "s": [-1, -2, -3], "phi": [[1], [1], [1]], "psi": [[1, 1, 1]]},
        "b": [1e308] * 3,
    }
    assert cli.main(["solve", _write_json(tmp_path / "large.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error: the solution overflows" in captured.err


@pytest.mark.parametrize(
    "doc",
    [
        {"toeplitz": {"a": [1, 4, True]}, "b": [1, 0]},
        {"toeplitz": {"a": [1, 4, 2]}, "b": [True, False]},
        {"toeplitz": {"a": [1, [4, False], 2]}, "b": [1, 0]},
    ],
    ids=["coefficient", "rhs", "pair-part"],
)
def test_cli_rejects_json_booleans_as_numbers(tmp_path, capsys, doc):
    # bool is a subclass of int, so true and false would read as 1 and 0
    path = _write_json(tmp_path / "bool.json", doc)
    assert cli.main(["solve", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error: expected a number or [re, im] pair, got" in captured.err


def test_cli_encode_non_finite_complex_like_float():
    assert cli._encode(complex(float("nan"), 1.0)) == ["nan", 1.0]
    assert cli._encode(np.array([complex(2.0, float("inf"))])) == [[2.0, "inf"]]
    assert cli._encode(float("-inf")) == "-inf"


def test_cli_encode_finite_complex_array_as_the_element_pairs():
    # the finite array takes numpy's path; its JSON keeps the bits of the
    # element-by-element encoding, signed zeros and subnormals included
    a = np.array([[complex(-0.0, -0.0), complex(5e-324, -1.5)], [1e308 + 0j, 1 / 3 - 2j]])
    pairs = [[[z.real, z.imag] for z in row] for row in a.tolist()]
    assert json.dumps(cli._encode(a)) == json.dumps(pairs)
    assert cli._encode(np.zeros((2, 0), dtype=complex)) == [[], []]


@pytest.mark.parametrize("command", ["solve", "factor", "growth"])
def test_cli_toeplitz_generators_that_overflow_are_an_input_error(tmp_path, capsys, command):
    # the coefficients are finite, but a_{-1} + a_1 in the generators is not
    path = _write_json(tmp_path / "big.json", {"toeplitz": {"a": [1e308] * 3}, "b": [1, 1]})
    assert cli.main([command, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "structsolve: input error: Toeplitz generators overflow the float64 range; "
        "scale the system down"
    ]


def test_cli_singular_exit_code(tmp_path, capsys):
    a = [0.5, 0.8, 1.0]
    doc = {
        "cauchy": {
            "t": [1.0, 2.0, 3.0],
            "s": [0.0, 0.5, 1.5],
            "phi": [[v, v] for v in a],
            "psi": [a, [-v for v in a]],
        },
        "b": [1.0, 1.0, 1.0],
    }
    path = _write_json(tmp_path / "singular.json", doc)
    assert cli.main(["solve", path]) == 3
    assert "singular" in capsys.readouterr().err


def test_cli_singular_reference_exit_code(tmp_path, capsys):
    # t_1 = t_2 and phi_1 - phi_2 = (0, 1e-20): the float64 R has two equal
    # rows, so LAPACK's reference solve is singular, while the generators
    # keep the 6e-20 Schur complement and the fast path factors
    doc = {
        "cauchy": {
            "t": [1.0, 1.0],
            "s": [0.0, 0.5],
            "phi": [[1.0, 1e-20], [1.0, 0.0]],
            "psi": [[1.0, 1.0], [1.0, -1.0]],
        },
        "b": [1.0, 1.0],
    }
    path = _write_json(tmp_path / "singular_reference.json", doc)
    assert cli.main(["solve", path]) == 3
    assert "reference solve" in capsys.readouterr().err


def test_cli_node_collision_exit_code(tmp_path, capsys):
    doc = {
        "cauchy": {
            "t": [1.0, 2.0],
            "s": [1.0, 3.0],
            "phi": [[1.0], [1.0]],
            "psi": [[1.0, 1.0]],
        },
        "b": [1.0, 1.0],
    }
    path = _write_json(tmp_path / "collide.json", doc)
    assert cli.main(["solve", path]) == 4
    assert "collision" in capsys.readouterr().err


def test_cli_growth_rank_one(tmp_path, capsys):
    gen, nodes = ss.random_cauchy_type(6, 1, seed=3)
    doc = {
        "cauchy": {
            "t": [[v.real, v.imag] for v in nodes.t],
            "s": [[v.real, v.imag] for v in nodes.s],
            "phi": [[[v.real, v.imag] for v in row] for row in gen.phi],
            "psi": [[[v.real, v.imag] for v in row] for row in gen.psi],
        }
    }
    path = _write_json(tmp_path / "gen.json", doc)
    assert cli.main(["growth", path]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert abs(rep["g2"] - 1.0) <= 1e-12


def test_cli_growth_cancellation_file(tmp_path, capsys):
    gen, nodes = ss.cancellation_cauchy(8, f_norm=1e-8, seed=4)
    doc = {
        "cauchy": {
            "t": [v.real for v in nodes.t],
            "s": [v.real for v in nodes.s],
            "phi": [[v.real for v in row] for row in gen.phi],
            "psi": [[v.real for v in row] for row in gen.psi],
        }
    }
    path = _write_json(tmp_path / "cancel.json", doc)
    assert cli.main(["growth", path]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["g3"] >= 1e6


def test_cli_growth_toeplitz_node_spread(tmp_path, capsys):
    coeffs = ss.random_toeplitz(8, seed=5)
    doc = {"toeplitz": {"n": 8, "a": [v.real for v in coeffs.a]}}
    path = _write_json(tmp_path / "toe.json", doc)
    assert cli.main(["growth", path]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["bmax_over_bmin"] < 5.094


def test_cli_factor_output(tmp_path):
    path = _write_json(
        tmp_path / "sys.json", _identity_toeplitz_doc(4, [1.0, 0.0, 0.0, 0.0])
    )
    out_path = tmp_path / "factor.json"
    assert cli.main(["factor", path, "--out", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["n"] == 4
    assert doc["reconstruction"]["rel_err"] <= 1e-12
    assert doc["strategy"] == "partial"
    assert len(doc["LU"]) == 4 and "L" not in doc and "U" not in doc
    assert sorted(doc["row_perm"]) == [0, 1, 2, 3]


@pytest.mark.parametrize("strategy", [s.value for s in ss.PivotStrategy])
def test_cli_factor_writes_the_packed_lu_under_the_strategy_value(tmp_path, strategy):
    # the one array the factorization holds, L strictly below the diagonal
    # and U on and above it, named by the spelling --strategy took
    gen, nodes = ss.random_cauchy_type(10, 2, seed=7)
    f = ss.gko_factor(gen, nodes, strategy)
    path = _write_json(tmp_path / "sys.json", _cauchy_system_doc(gen, nodes, [1.0] * 10))
    out_path = tmp_path / "factor.json"
    assert cli.main(["factor", path, "--strategy", strategy, "--out", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["strategy"] == strategy
    pairs = np.array(doc["LU"])
    LU = pairs[..., 0] + 1j * pairs[..., 1]
    assert np.array_equal(LU, f.LU)
    assert np.array_equal(np.tril(LU, -1) + np.eye(10), f.L)
    assert np.array_equal(np.triu(LU), f.U)


@pytest.mark.parametrize("kind", ["toeplitz", "cauchy"])
def test_cli_factor_backward_errors_match_library(tmp_path, kind):
    # CLI factor takes its errors from the library, bit for bit: both from a
    # Toeplitz file, the Cauchy-level one alone from a Cauchy file
    if kind == "toeplitz":
        coeffs = ss.random_toeplitz(12, seed=21)
        doc = {"toeplitz": {"n": 12, "a": [[v.real, v.imag] for v in coeffs.a]}}
        f = ss.toeplitz_factor(coeffs, "partial")
        gen_c, nodes = ss.to_cauchy_generators(ss.toeplitz_generators(coeffs))
        inner = f.inner
        expected = {"toeplitz_backward": ss.backward_error_toeplitz(coeffs, f)}
    else:
        gen_c, nodes = ss.random_cauchy_type(12, 3, seed=21)
        doc = _cauchy_system_doc(gen_c, nodes, [1.0] * 12)
        inner = ss.gko_factor(gen_c, nodes, "partial")
        expected = {}
    expected["reconstruction"] = ss.backward_error_cauchy(gen_c, nodes, inner)
    path = _write_json(tmp_path / f"{kind}.json", doc)
    out_path = tmp_path / "factor.json"
    assert cli.main(["factor", path, "--out", str(out_path)]) == 0
    out = json.loads(out_path.read_text())
    assert out["reconstruction"]["rel_err"] > 0.0
    errors = {key: out[key] for key in ("reconstruction", "toeplitz_backward") if key in out}
    assert errors == {key: cli._encode(err.to_dict()) for key, err in expected.items()}


def test_cli_on_cauchy_generators_scaled_far_down(tmp_path, capsys):
    # phi * 2^-600 puts R below the square-root range of the Frobenius norm:
    # factor reports the unscaled file's backward error, and every command
    # exits 0
    gen, nodes = ss.random_cauchy_type(6, 2, seed=3)
    scaled = ss.GeneratorPair(phi=gen.phi * 2.0**-600, psi=gen.psi)
    rel_errs = []
    for name, g in (("plain", gen), ("scaled", scaled)):
        path = _write_json(tmp_path / f"{name}.json", _cauchy_system_doc(g, nodes, [1.0] * 6))
        out_path = tmp_path / f"{name}-factor.json"
        assert cli.main(["factor", path, "--out", str(out_path)]) == 0
        rel_errs.append(json.loads(out_path.read_text())["reconstruction"]["rel_err"])
        assert cli.main(["growth", path]) == 0
        assert cli.main(["solve", path]) == 0
    assert rel_errs[1] == rel_errs[0]
    assert capsys.readouterr().err == ""


def test_cli_exits_singular_on_a_subnormal_pivot(tmp_path, capsys):
    # phi * 2^-1030 makes the first pivot subnormal and the later ones NaN
    gen, nodes = ss.random_cauchy_type(16, 2, seed=3)
    scaled = ss.GeneratorPair(phi=gen.phi * 2.0**-1030, psi=gen.psi)
    path = _write_json(tmp_path / "subnormal.json", _cauchy_system_doc(scaled, nodes, [1.0] * 16))
    for command in ("factor", "growth", "solve"):
        assert cli.main([command, path]) == 3, command
        assert "below the normal range" in capsys.readouterr().err


def _large_rhs_docs():
    # b near the float limit: A x - b and LAPACK's reference each overflowed
    # unscaled, and the report called the system singular
    toeplitz = {"toeplitz": {"n": 2, "a": [1.0, 2.0, 3.0]}, "b": [1e308, 1e308]}
    cauchy = _cauchy_system_doc(*ss.random_cauchy_type(4, 2, seed=0), [1e308] * 4)
    return {"toeplitz": toeplitz, "cauchy": cauchy}


@pytest.mark.parametrize("kind", ["toeplitz", "cauchy"])
def test_cli_solve_reports_on_a_right_hand_side_near_the_float_limit(tmp_path, capsys, kind):
    path = _write_json(tmp_path / "large.json", _large_rhs_docs()[kind])
    assert cli.main(["solve", path]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    report = json.loads(out.out)["report"]
    assert 0.0 < report["residual"] <= 1e-14
    assert 0.0 < report["forward_err"] <= 1e-12


@pytest.mark.parametrize("factor", [1e160, 2.0**600], ids=["1e160", "2^600"])
def test_cli_exits_on_input_error_where_entries_overflow(tmp_path, capsys, factor):
    # entries near 1e320: the elimination's first pivot is past the float
    # range, which is an input out of range, not a singular system
    gen, nodes = ss.random_cauchy_type(8, 2, seed=3)
    scaled = ss.GeneratorPair(phi=gen.phi * factor, psi=gen.psi * factor)
    path = _write_json(tmp_path / "huge.json", _cauchy_system_doc(scaled, nodes, [1.0] * 8))
    for command in ("factor", "growth", "solve"):
        assert cli.main([command, path]) == 2, command
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "overflows the float64 range at step 0" in err[0], command


def test_cli_sweep_csv_and_exit(tmp_path):
    out_path = tmp_path / "sweep.csv"
    code = cli.main(
        ["sweep", "--n", "8", "--delta-exp-min", "2", "--delta-exp-max", "4",
         "--out", str(out_path)]
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "delta,strategy,forward_err,residual,cond,g1,g2,g3,bmax_over_bmin,backward_err"
    assert len(lines) == 1 + 3 * 2


def test_cli_sweep_json(tmp_path):
    out_path = tmp_path / "sweep.json"
    code = cli.main(
        ["sweep", "--delta-exp-min", "2", "--delta-exp-max", "3",
         "--strategy", "partial", "--format", "json", "--out", str(out_path)]
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert len(doc["records"]) == 2
    assert list(doc["summary"]["strategies"]) == ["partial"]
    assert {r["strategy"] for r in doc["records"]} == {"partial"}


def test_cli_sweep_defaults_are_the_config_defaults(tmp_path):
    out_path = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--out", str(out_path)]) == 0
    assert out_path.read_text() == ss.records_to_csv(ss.run_sweep(ss.SweepConfig()).records)


def test_cli_sweep_byte_identical_runs(tmp_path):
    args = ["sweep", "--delta-exp-min", "2", "--delta-exp-max", "5"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(p1)]) == 0
    assert cli.main(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize(
    "args, message",
    [
        (["--n", "5"], "sweep order must be even and at least 4"),
        (["--delta-exp-min", "0"], "delta exponents must be positive"),
        (["--delta-exp-min", "5", "--delta-exp-max", "2"], "delta exponents must not be empty"),
        # delta = 10^-324 rounds to 0, which no adversarial matrix takes
        (["--n", "4", "--delta-exp-min", "322", "--delta-exp-max", "325"],
         "delta exponents must be at most 323"),
        (["--n", "4", "--delta-exp-min", "1" + "0" * 400, "--delta-exp-max", "1" + "0" * 400],
         "delta exponents must be at most 323"),
        (["--strategy", "partial", "--strategy", "partial"],
         "strategies must not repeat, got partial, partial"),
    ],
    ids=[
        "odd-order", "zero-exponent", "empty-range", "delta-rounds-to-zero", "huge-exponent",
        "repeated-strategy",
    ],
)
def test_cli_sweep_input_errors(tmp_path, capsys, args, message):
    out_path = tmp_path / "sweep.csv"
    assert cli.main(["sweep", *args, "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"structsolve: input error: {message}")
    assert not out_path.exists()


def test_cli_growth_above_the_hat_ratio_limit_writes_nan_for_g2(tmp_path, capsys):
    # order 257 is past the limit of hat_ratios="auto": g2 and everything
    # formed from it read NaN, and g1 stays finite
    coeffs = ss.random_toeplitz(257, seed=3)
    doc = {"toeplitz": {"n": 257, "a": [[v.real, v.imag] for v in coeffs.a]}}
    path = _write_json(tmp_path / "toe.json", doc)
    assert cli.main(["growth", path]) == 0
    rep = json.loads(capsys.readouterr().out)
    for name in ("g2", "g3", "bound_cauchy", "bound_toeplitz"):
        assert rep[name] == "nan", name
    assert isinstance(rep["g1"], float) and np.isfinite(rep["g1"])


@pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
@pytest.mark.parametrize(
    "args",
    [["solve", "SYS"], ["factor", "SYS"], ["growth", "SYS"],
     ["sweep", "--n", "4", "--delta-exp-min", "2", "--delta-exp-max", "2"]],
    ids=["solve", "factor", "growth", "sweep"],
)
def test_cli_unwritable_out_is_an_input_error(tmp_path, capsys, args, where):
    sys_path = _write_json(tmp_path / "sys.json", _identity_toeplitz_doc(4, [1.0] * 4))
    out = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
    argv = [sys_path if a == "SYS" else a for a in args] + ["--out", str(out)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"structsolve: input error: cannot write {out}: ")
