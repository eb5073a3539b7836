"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line (run ``pytest -s tests/test_acceptance.py`` to see them, or execute
this file directly for a standalone PASS/FAIL report)."""

import time

import numpy as np

import structsolve as ss

from _reconstruct import reconstruct
from _schur import dense_schur_complement


def _report(name):
    print(f"[acceptance] {name}: PASS")


def test_criterion_1_oracle_equivalence():
    """GKO with partial pivoting matches dense GE/PP on 100 seeded instances."""
    start = time.perf_counter()
    for i in range(100):
        shape_rng = np.random.default_rng(1000 + i)
        n = int(shape_rng.integers(2, 17))
        alpha = int(shape_rng.integers(1, 5))
        gen, nodes = ss.random_cauchy_type(n, alpha, seed=2000 + i)
        R = ss.materialize_cauchy(gen, nodes)
        f = ss.gko_factor(gen, nodes, "partial")
        dense = ss.dense_gepp_factor(R)
        assert f.trace.pivot_index.tolist() == dense.pivots, f"pivot mismatch at {i}"
        assert not np.any(f.trace.pivot_is_col)
        err = np.linalg.norm(reconstruct(f) - R) / np.linalg.norm(R)
        assert err <= 1e-11, f"reconstruction {err:.3e} at instance {i}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report("criterion 1 (oracle equivalence, 100 instances)")


def test_criterion_2_transform_identity():
    """Toeplitz-derived Cauchy generators materialize to F T D^-1 F*."""
    start = time.perf_counter()
    count = 0
    for n in (2, 4, 8, 16, 32):
        F = ss.apply_F(ss.DftPlan.create(n), np.eye(n))
        d_conj = np.conj(ss.scaling_D(n))
        for j in range(10):
            coeffs = ss.random_toeplitz(n, seed=93 + 17 * n + j)
            gen_c, nodes = ss.to_cauchy_generators(ss.toeplitz_generators(coeffs))
            T = ss.dense_toeplitz(coeffs)
            expected = F @ T @ np.diag(d_conj) @ F.conj().T
            err = np.linalg.norm(ss.materialize_cauchy(gen_c, nodes) - expected)
            assert err <= 1e-12 * np.linalg.norm(expected), f"n={n} seed {j}"
            count += 1
    assert count == 50
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report("criterion 2 (transform identity, 50 instances)")


def test_criterion_3_displacement_recovery_round_trip():
    """recover_from_displacement inverts Z_1 A - A Z_-1 entrywise."""
    done = 0
    for i in range(50):
        rng = np.random.default_rng(400 + i)
        n = int(rng.integers(1, 33))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        z1 = np.zeros((n, n))
        zm1 = np.zeros((n, n))
        for r in range(1, n):
            z1[r, r - 1] = 1.0
            zm1[r, r - 1] = 1.0
        z1[0, n - 1] = 1.0
        zm1[0, n - 1] = -1.0
        B = z1 @ A - A @ zm1
        err = np.abs(ss.recover_from_displacement(B) - A).max()
        assert err <= 1e-12, f"n={n}: {err:.3e}"
        done += 1
    assert done == 50
    _report("criterion 3 (displacement recovery round trip)")


def test_criterion_4_node_spread_bound():
    """b_max/b_min < 2n/pi for the transform nodes, every even n in [2, 128]."""
    for n in range(2, 129, 2):
        gaps = np.abs(ss.toeplitz_cauchy_nodes(n).gaps())
        assert gaps.max() / gaps.min() < 2 * n / np.pi, f"n={n}"
    _report("criterion 4 (node-spread bound)")


def _sweep(strategy):
    config = ss.SweepConfig(
        n=8,
        delta_exponents=tuple(range(2, 7)),
        strategies=(strategy,),
    )
    return ss.run_sweep(config)


def test_criterion_5_instability_reproduction():
    """Partial pivoting on the adversarial sweep: forward error grows
    quadratically and residual linearly in 1/delta."""
    result = _sweep(ss.PivotStrategy.PARTIAL_ROW)
    assert result.all_ok
    s = result.summary["strategies"]["partial"]
    assert 1.5 <= s["slope_forward_err"] <= 2.5, s
    assert 0.5 <= s["slope_residual"] <= 1.5, s
    _report(
        "criterion 5 (instability: fwd slope "
        f"{s['slope_forward_err']:.2f}, res slope {s['slope_residual']:.2f})"
    )


def test_criterion_6_stabilization():
    """Row-1/column-1 pivoting keeps every sweep residual at roundoff."""
    result = _sweep(ss.PivotStrategy.ROW1_COL1)
    assert result.all_ok
    s = result.summary["strategies"]["row1col1"]
    residuals = [r.residual for r in result.records]
    assert max(residuals) <= 1e-13, residuals
    assert s["slope_forward_err"] <= 1.5, s
    _report(
        "criterion 6 (stabilization: max residual "
        f"{max(residuals):.2e}, fwd slope {s['slope_forward_err']:.2f})"
    )


def test_criterion_7_generator_growth_detection():
    """Cancellation depth 10^-m shows up as V >= 0.1*10^m and g3 >= 10^(m-1)."""
    for m in (2, 4, 6, 8):
        gen, nodes = ss.cancellation_cauchy(8, f_norm=10.0**-m, seed=60 + m)
        v_min = np.abs(ss.v_matrix(gen)).min()
        assert v_min >= 0.1 * 10.0**m, f"m={m}: min V {v_min:.3e}"
        f = ss.gko_factor(gen, nodes, "partial")
        rep = ss.growth_report(f.trace, f, nodes)
        assert rep.g3 >= 10.0 ** (m - 1), f"m={m}: g3 {rep.g3:.3e}"
    _report("criterion 7 (generator-growth detection)")


def test_criterion_8_property_suite():
    """Cross-module invariants re-checked compactly in one place."""
    rng = np.random.default_rng(0)

    # unitarity
    plan = ss.DftPlan.create(16)
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    assert np.linalg.norm(ss.apply_F_inv(plan, ss.apply_F(plan, v)) - v) <= 1e-13
    assert abs(np.linalg.norm(ss.apply_F(plan, v)) - np.linalg.norm(v)) <= 1e-13

    # Schur/generator commutation
    gen, nodes = ss.random_cauchy_type(8, 3, seed=77)
    R = ss.materialize_cauchy(gen, nodes)
    f = ss.gko_factor(gen, nodes, "partial")
    expected = dense_schur_complement(R[f.row_perm.idx], 3)
    got = (f.L[:, 3:] @ f.U[3:, :])[3:, 3:]
    assert np.linalg.norm(got - expected) <= 1e-11 * np.linalg.norm(expected)

    # displacement rank <= 2
    disp = ss.toeplitz_displacement(ss.random_toeplitz(10, seed=78))
    sv = np.linalg.svd(disp, compute_uv=False)
    assert np.sum(sv > 1e-12 * sv[0]) <= 2

    # V flat for rank one
    gen1, _ = ss.random_cauchy_type(7, 1, seed=79)
    assert np.abs(np.abs(ss.v_matrix(gen1)) - 1.0).max() <= 1e-14

    # pivot maximality
    assert np.abs(f.L).max() <= 1.0 + 1e-14

    # deterministic tie-breaking
    tie_gen = ss.GeneratorPair(phi=np.ones((2, 1)), psi=np.ones((1, 2)))
    tie_nodes = ss.CauchyNodes(t=[1.0, -1.0], s=[0.0, 5.0])
    f1 = ss.gko_factor(tie_gen, tie_nodes, "partial")
    f2 = ss.gko_factor(tie_gen, tie_nodes, "partial")
    assert f1.trace.pivot_index[0] == 0
    assert f1.L.tobytes() == f2.L.tobytes() and f1.U.tobytes() == f2.U.tobytes()

    _report("criterion 8 (property suite)")


def _time_factor(n, reps):
    coeffs = ss.random_toeplitz(n, seed=n)
    best = np.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        ss.toeplitz_factor(coeffs, "partial", hat_ratios=False)
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_9_performance_scaling():
    """toeplitz_factor wall time scales sub-cubically from n=128 to n=512."""
    _time_factor(128, 1)  # warm the code paths
    t128 = _time_factor(128, 3)
    t512 = _time_factor(512, 3)
    ratio = t512 / t128
    assert ratio <= 25.0, f"time(512)/time(128) = {ratio:.1f}"
    _report(f"criterion 9 (performance: ratio {ratio:.1f} <= 25)")


if __name__ == "__main__":
    import sys

    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion") and callable(fn):
            try:
                fn()
            except AssertionError as exc:
                failures += 1
                print(f"[acceptance] {name}: FAIL ({exc})")
    sys.exit(1 if failures else 0)
