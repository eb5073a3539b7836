"""Tests for V-matrices, growth reports, backward errors, and displacement
recovery."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import structsolve as ss
from structsolve.core import EPS
from structsolve.diagnostics import _norm, _solve_errors

from _reconstruct import reconstruct, reconstruct_toeplitz


def test_v_matrix_rank_one_has_unit_modulus():
    gen, _ = ss.random_cauchy_type(6, 1, seed=0)
    V = ss.v_matrix(gen)
    assert_allclose(np.abs(V), np.ones((6, 6)), atol=1e-15)


def test_v_matrix_rank_one_positive_data_is_exactly_one():
    gen = ss.GeneratorPair(phi=np.full((4, 1), 0.5), psi=np.full((1, 4), 2.0))
    assert np.all(ss.v_matrix(gen) == 1.0)


def test_v_matrix_cancellation_generators_all_large():
    gen, _ = ss.cancellation_cauchy(8, f_norm=1e-8, seed=1)
    assert np.abs(ss.v_matrix(gen)).min() >= 1e6


def test_v_matrix_adversarial_first_column_large_middle_flat():
    coeffs = ss.adversarial_toeplitz(ss.AdversarialSpec(n=8, delta=1e-4))
    gen_c, _ = ss.to_cauchy_generators(ss.toeplitz_generators(coeffs))
    V = np.abs(ss.v_matrix(gen_c))
    assert V[:, 0].min() >= 1e2
    assert V[:, 1:-1].max() <= 10.0


@pytest.mark.parametrize("exponent", [600, -600])
def test_v_matrix_does_not_change_when_both_generators_are_scaled(exponent):
    # unscaled, phi psi at 2^1200 overflowed to inf and at 2^-1200
    # underflowed to 0, and every entry read +inf
    gen, _ = ss.random_cauchy_type(6, 2, seed=2)

    def scaled(z):
        out = np.empty_like(z)
        out.real, out.imag = np.ldexp(z.real, exponent), np.ldexp(z.imag, exponent)
        return out

    V = ss.v_matrix(ss.GeneratorPair(phi=scaled(gen.phi), psi=scaled(gen.psi)))
    assert V.tobytes() == ss.v_matrix(gen).tobytes()
    assert np.isfinite(V).all()


def test_v_matrix_flags_degenerate_entries_as_inf():
    phi = np.array([[1.0, 1.0], [1.0, 0.0]])
    psi = np.array([[1.0, 1.0], [-1.0, 0.5]])
    V = ss.v_matrix(ss.GeneratorPair(phi=phi, psi=psi))
    assert np.isinf(V[0, 0])  # 1*1 + 1*(-1) = 0 denominator
    assert np.isfinite(V[1, 1])


def test_growth_report_rank_one_baseline():
    gen, nodes = ss.random_cauchy_type(8, 1, seed=5)
    f = ss.gko_factor(gen, nodes, "partial")
    rep = ss.growth_report(f.trace, f, nodes)
    assert rep.g1 == pytest.approx(3.0, abs=1e-10)
    assert rep.g2 == pytest.approx(1.0, abs=1e-12)
    assert rep.g3 == pytest.approx(3.0, abs=1e-10)
    assert rep.hatL_ratio == pytest.approx(1.0, abs=1e-12)
    assert rep.hatU_ratio == pytest.approx(1.0, abs=1e-12)
    assert rep.v_kk_norm == pytest.approx(1.0, abs=1e-12)


def test_growth_report_toeplitz_nodes_spread():
    coeffs = ss.random_toeplitz(8, seed=6)
    f = ss.toeplitz_factor(coeffs)
    nodes = ss.toeplitz_cauchy_nodes(8)
    rep = ss.growth_report(f.inner.trace, f.inner, nodes)
    assert rep.bmax_over_bmin < 2 * 8 / np.pi


@pytest.mark.parametrize("kind", ["random", "toeplitz"])
def test_growth_report_node_spread_is_the_gap_extrema(kind):
    # b_max and b_min come from the extrema CauchyNodes kept at construction;
    # they must equal the reciprocals of the full gap matrix's extrema
    n = 300
    if kind == "random":
        gen, nodes = ss.random_cauchy_type(n, 2, seed=4)
    else:
        coeffs = ss.random_toeplitz(n, seed=4)
        gen, nodes = ss.to_cauchy_generators(ss.toeplitz_generators(coeffs))
    f = ss.gko_factor(gen, nodes, "partial")
    rep = ss.growth_report(f.trace, f, nodes)
    gaps = np.abs(nodes.gaps())
    assert rep.b_max == 1.0 / gaps.min()
    assert rep.b_min == 1.0 / gaps.max()


def test_growth_report_adversarial_growth():
    coeffs = ss.adversarial_toeplitz(ss.AdversarialSpec(n=8, delta=1e-4))
    f = ss.toeplitz_factor(coeffs, "partial")
    rep = ss.growth_report(f.inner.trace, f.inner, ss.toeplitz_cauchy_nodes(8))
    assert rep.g3 >= 1e2


def test_growth_report_nan_g2_when_ratios_skipped():
    gen, nodes = ss.random_cauchy_type(8, 1, seed=7)
    f = ss.gko_factor(gen, nodes, "partial", hat_ratios=False)
    rep = ss.growth_report(f.trace, f, nodes)
    assert np.isnan(rep.g2) and np.isnan(rep.g3)
    assert np.isfinite(rep.g1)


@pytest.mark.parametrize("hat_ratios", [True, False])
def test_growth_report_order_one_g2_is_zero(hat_ratios):
    # g2 is the largest hat ratio over steps 2..n, and at n = 1 there is no
    # step 2, whether the ratios were computed or not
    gen = ss.GeneratorPair(phi=np.ones((1, 1)), psi=np.ones((1, 1)))
    nodes = ss.CauchyNodes(t=[3.0], s=[1.0])
    f = ss.gko_factor(gen, nodes, "partial", hat_ratios=hat_ratios)
    rep = ss.growth_report(f.trace, f, nodes)
    assert rep.g2 == 0.0 and rep.g3 == rep.g1
    assert np.isfinite(rep.bound_cauchy) and np.isfinite(rep.bound_toeplitz)


def test_backward_error_cauchy_exact_dyadic_case():
    # R = [[4, 2], [2, 2]]: every elimination quantity is a dyadic rational,
    # so the computed factors reproduce R exactly
    gen = ss.GeneratorPair(
        phi=np.array([[4.0, 6.0], [4.0, 8.0]]), psi=np.eye(2)
    )
    nodes = ss.CauchyNodes(t=[1.0, 2.0], s=[0.0, -2.0])
    assert_allclose(
        ss.materialize_cauchy(gen, nodes), [[4.0, 2.0], [2.0, 2.0]], atol=0
    )
    f = ss.gko_factor(gen, nodes, "partial")
    rep = ss.backward_error_cauchy(gen, nodes, f)
    assert rep.abs_err <= 1e-15
    assert rep.rel_err <= 1e-15


def test_backward_error_cauchy_random_well_conditioned():
    gen, nodes = ss.random_cauchy_type(16, 2, seed=8)
    f = ss.gko_factor(gen, nodes, "partial")
    assert ss.backward_error_cauchy(gen, nodes, f).rel_err <= 1e-13


def test_backward_error_cauchy_cancellation_instability():
    eps = np.finfo(float).eps
    gen, nodes = ss.cancellation_cauchy(8, f_norm=1e-8, seed=9)
    f = ss.gko_factor(gen, nodes, "partial")
    assert ss.backward_error_cauchy(gen, nodes, f).rel_err >= 1e3 * eps


def test_backward_error_toeplitz_identity_and_random():
    a = np.zeros(11)
    a[5] = 1.0  # a_0 = 1: the order-6 identity
    ident = ss.ToeplitzCoeffs(a=a)
    assert ss.backward_error_toeplitz(ident, ss.toeplitz_factor(ident)).abs_err <= 1e-13
    coeffs = ss.random_toeplitz(8, seed=10)
    f = ss.toeplitz_factor(coeffs)
    assert ss.backward_error_toeplitz(coeffs, f).rel_err <= 1e-12


def _family(name, n):
    """Generators and nodes of a testgen family at order n, with the
    Toeplitz coefficients they come from (None for a Cauchy family)."""
    if name == "random_cauchy":
        return (*ss.random_cauchy_type(n, 4, seed=n), None)
    if name == "cancellation_cauchy":
        return (*ss.cancellation_cauchy(n, f_norm=1e-8, seed=n), None)
    if name == "random_toeplitz":
        coeffs = ss.random_toeplitz(n, seed=n)
    else:
        coeffs = ss.adversarial_toeplitz(ss.AdversarialSpec(n=n, delta=1e-8))
    return (*ss.to_cauchy_generators(ss.toeplitz_generators(coeffs)), coeffs)


@pytest.mark.parametrize("n", [8, 64, 256])
@pytest.mark.parametrize("strategy", ["none", "partial", "row1col1"])
@pytest.mark.parametrize(
    "family", ["random_cauchy", "cancellation_cauchy", "random_toeplitz", "adversarial_toeplitz"]
)
def test_backward_errors_match_the_dense_reconstruction(family, strategy, n):
    # the blocked product from LU against the dense P^T L U P'^T (and its
    # transform), the two measured against the same reference
    gen, nodes, coeffs = _family(family, n)
    f = ss.gko_factor(gen, nodes, strategy, hat_ratios=False)
    R = ss.materialize_cauchy(gen, nodes)
    dense = np.linalg.norm(reconstruct(f) - R) / np.linalg.norm(R)
    assert abs(ss.backward_error_cauchy(gen, nodes, f).rel_err - dense) <= n * EPS
    if coeffs is not None:
        ft = ss.toeplitz_factor(coeffs, strategy, hat_ratios=False)
        T = ss.dense_toeplitz(coeffs)
        dense = np.linalg.norm(reconstruct_toeplitz(ft) - T) / np.linalg.norm(T)
        assert abs(ss.backward_error_toeplitz(coeffs, ft).rel_err - dense) <= n * EPS


def _extra_peak_bytes(call) -> int:
    """Peak bytes that ``call()`` allocates beyond what is live when it starts."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_backward_errors_hold_one_work_array_beyond_their_inputs():
    # one n x n complex array of 16 n^2 bytes, the Toeplitz path two while
    # an FFT pass runs, and blocks of 64 rows; the dense reconstruction
    # held four and three.  The Cauchy path measures 1.69: A, two 64 x n
    # blocks of 0.25 each and a diagonal block's temporaries; adding each
    # product into A[r:end, lo:] took numpy's buffers on top, 1.94
    n = 256
    gen, nodes = ss.random_cauchy_type(n, 4, seed=1)
    f = ss.gko_factor(gen, nodes, "partial", hat_ratios=False)
    coeffs = ss.adversarial_toeplitz(ss.AdversarialSpec(n=n, delta=1e-8))
    ft = ss.toeplitz_factor(coeffs, "partial", hat_ratios=False)
    array = 16 * n * n
    assert _extra_peak_bytes(lambda: ss.backward_error_cauchy(gen, nodes, f)) <= 1.75 * array
    assert _extra_peak_bytes(lambda: ss.backward_error_toeplitz(coeffs, ft)) <= 2.3 * array


@pytest.mark.parametrize("m", [1, 4])
def test_backward_error_toeplitz_rejects_another_order(m):
    f = ss.toeplitz_factor(ss.random_toeplitz(8, seed=1))
    coeffs = ss.ToeplitzCoeffs(a=np.full(2 * m - 1, 5.0))
    with pytest.raises(ValueError, match=f"factorization is order 8, coefficients order {m}"):
        ss.backward_error_toeplitz(coeffs, f)


@pytest.mark.parametrize("m", [1, 4])
def test_backward_error_cauchy_rejects_another_order(m):
    gen, nodes = ss.random_cauchy_type(8, 2, seed=3)
    f = ss.gko_factor(gen, nodes, "partial")
    gen_m, nodes_m = ss.random_cauchy_type(m, 2, seed=4)
    with pytest.raises(ValueError, match=f"factorization is order 8, generators order {m}"):
        ss.backward_error_cauchy(gen_m, nodes_m, f)
    with pytest.raises(ValueError, match=f"factorization is order 8, nodes order {m}"):
        ss.backward_error_cauchy(gen, nodes_m, f)


@pytest.mark.parametrize("m", [1, 4])
def test_growth_report_rejects_another_order(m):
    gen, nodes = ss.random_cauchy_type(8, 2, seed=3)
    f = ss.gko_factor(gen, nodes, "partial")
    gen_m, nodes_m = ss.random_cauchy_type(m, 2, seed=4)
    with pytest.raises(ValueError, match=f"factorization is order 8, nodes order {m}"):
        ss.growth_report(f.trace, f, nodes_m)
    trace_m = ss.gko_factor(gen_m, nodes_m, "partial").trace
    with pytest.raises(ValueError, match="trace must be f.trace"):
        ss.growth_report(trace_m, f, nodes)


def test_growth_report_refuses_the_trace_of_another_factorization():
    # of one order, the two would mix f2's hatted ratios with f1's v_kk in g1
    f1 = ss.gko_factor(*ss.random_cauchy_type(8, 2, seed=1), "partial")
    gen, nodes = ss.random_cauchy_type(8, 2, seed=2)
    f2 = ss.gko_factor(gen, nodes, "partial")
    with pytest.raises(ValueError, match="trace must be f.trace"):
        ss.growth_report(f1.trace, f2, nodes)
    assert ss.growth_report(f2.trace, f2, nodes).g1 > 0.0


def test_backward_error_toeplitz_grows_with_cancellation():
    errs = []
    for k in (3, 4, 5):
        coeffs = ss.adversarial_toeplitz(ss.AdversarialSpec(n=8, delta=10.0**-k))
        f = ss.toeplitz_factor(coeffs, "partial")
        errs.append(ss.backward_error_toeplitz(coeffs, f).rel_err)
    assert errs[1] >= 3.0 * errs[0]
    assert errs[2] >= 3.0 * errs[1]


def test_backward_error_monotone_with_bound_across_sweep():
    # ordering property: measured error and unit-constant bound both grow
    # as delta shrinks
    prev_err, prev_bound = -np.inf, -np.inf
    for k in range(2, 7):
        coeffs = ss.adversarial_toeplitz(ss.AdversarialSpec(n=8, delta=10.0**-k))
        gen_c, nodes = ss.to_cauchy_generators(ss.toeplitz_generators(coeffs))
        f = ss.gko_factor(gen_c, nodes, "partial")
        err = ss.backward_error_cauchy(gen_c, nodes, f).rel_err
        bound = ss.growth_report(f.trace, f, nodes).bound_cauchy
        assert err >= prev_err and bound >= prev_bound
        prev_err, prev_bound = err, bound


def test_unitary_invariance_of_backward_errors():
    # the two error norms agree once the factorization error dominates the
    # rounding of the measurement transform itself
    coeffs = ss.adversarial_toeplitz(ss.AdversarialSpec(n=8, delta=1e-6))
    f = ss.toeplitz_factor(coeffs, "partial")
    gen_c, nodes = ss.to_cauchy_generators(ss.toeplitz_generators(coeffs))
    cauchy_abs = ss.backward_error_cauchy(gen_c, nodes, f.inner).abs_err
    toeplitz_abs = ss.backward_error_toeplitz(coeffs, f).abs_err
    assert cauchy_abs >= 1e-11  # instability makes E visible
    assert toeplitz_abs == pytest.approx(cauchy_abs, rel=1e-4)

    # at the roundoff floor both norms sit within measurement noise of the
    # matrix scale
    coeffs = ss.random_toeplitz(8, seed=11)
    f = ss.toeplitz_factor(coeffs)
    gen_c, nodes = ss.to_cauchy_generators(ss.toeplitz_generators(coeffs))
    cauchy_abs = ss.backward_error_cauchy(gen_c, nodes, f.inner).abs_err
    toeplitz_abs = ss.backward_error_toeplitz(coeffs, f).abs_err
    scale = np.linalg.norm(ss.dense_toeplitz(coeffs))
    assert abs(toeplitz_abs - cauchy_abs) <= 1e-12 * scale


def test_backward_error_cauchy_of_generators_scaled_far_down():
    # phi * 2^-600 puts every entry of R below the square-root range, where
    # the plain Frobenius norm of R is 0; the relative error keeps its bits
    gen, nodes = ss.random_cauchy_type(16, 2, seed=3)
    scaled = ss.GeneratorPair(phi=gen.phi * 2.0**-600, psi=gen.psi)
    ref = ss.backward_error_cauchy(gen, nodes, ss.gko_factor(gen, nodes, "partial"))
    rep = ss.backward_error_cauchy(scaled, nodes, ss.gko_factor(scaled, nodes, "partial"))
    assert rep.rel_err == ref.rel_err
    assert rep.abs_err == pytest.approx(ref.abs_err * 2.0**-600, rel=1e-14)


@pytest.mark.parametrize("e", [-600, 520], ids=["scaled-down", "scaled-up"])
def test_norm_past_the_square_root_range_scales_bit_for_bit(e):
    # the rescaled norm of v 2^e is the plain norm of v times 2^e, bit for
    # bit, so the relative error of data scaled by a power of two keeps its
    # bits
    for seed in range(20):
        z = np.random.default_rng(seed).standard_normal((50, 2)) @ [1.0, 1j]
        for v in (z, z.real):
            assert _norm(v * 2.0**e) == np.linalg.norm(v) * 2.0**e


@pytest.mark.parametrize("e", [-600, 520], ids=["scaled-down", "scaled-up"])
def test_backward_error_toeplitz_of_coefficients_scaled_past_the_norm_range(e):
    # at 2^-600 the plain norm of T is 0, at 2^520 its sum of squares
    # overflows; both would spoil the relative error
    coeffs = ss.random_toeplitz(16, seed=1)
    scaled = ss.ToeplitzCoeffs(a=coeffs.a * 2.0**e)
    ref = ss.backward_error_toeplitz(coeffs, ss.toeplitz_factor(coeffs)).rel_err
    rel = ss.backward_error_toeplitz(scaled, ss.toeplitz_factor(scaled)).rel_err
    assert abs(rel - ref) <= 4 * np.spacing(ref)


def _shift_matrices(n):
    z1 = np.zeros((n, n))
    zm1 = np.zeros((n, n))
    for i in range(1, n):
        z1[i, i - 1] = 1.0
        zm1[i, i - 1] = 1.0
    z1[0, n - 1] = 1.0
    zm1[0, n - 1] = -1.0
    return z1, zm1


@pytest.mark.parametrize("n", [1, 2, 3, 8, 32])
def test_recover_from_displacement_round_trip(n):
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    z1, zm1 = _shift_matrices(n)
    B = z1 @ A - A @ zm1
    assert np.abs(ss.recover_from_displacement(B) - A).max() <= 1e-13


def test_recover_from_displacement_zero():
    assert np.all(ss.recover_from_displacement(np.zeros((5, 5))) == 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_recover_from_displacement_refuses_a_displacement_that_is_not_finite(bad):
    # a NaN B used to come back as a NaN A, without a word
    with pytest.raises(ValueError, match="displacement B must be finite"):
        ss.recover_from_displacement(np.full((3, 3), bad))


def test_recover_from_displacement_order_one():
    # for n=1 the displacement operator is multiplication by 2
    out = ss.recover_from_displacement(np.array([[6.0]]))
    assert_allclose(out, [[3.0]])


def test_solve_quality_exact_oracle_solution():
    # the forward error is measured against LAPACK's GE/PP solution, so that
    # solution itself reads exactly zero
    coeffs = ss.random_toeplitz(6, seed=12)
    T = ss.dense_toeplitz(coeffs)
    b = np.arange(1.0, 7.0)
    x = np.linalg.solve(T, b)
    rep = ss.solve_quality(coeffs, b, x)
    assert rep.forward_err == 0.0
    assert rep.residual <= ss.cond_estimate(T) * np.finfo(float).eps * 10


@pytest.mark.parametrize(
    "coeffs",
    [ss.random_toeplitz(n, seed=n) for n in (8, 64, 256)]
    + [ss.adversarial_toeplitz(ss.AdversarialSpec(n=8, delta=d)) for d in (1e-2, 1e-6)],
    ids=["random-8", "random-64", "random-256", "adversarial-1e-2", "adversarial-1e-6"],
)
def test_solve_quality_forward_error_within_reference_gap(coeffs):
    # forward_err * ||x_l|| is ||x - x_l||, which differs from the textbook
    # oracle's ||x - x_o|| by at most ||x_l - x_o|| (triangle inequality)
    n = coeffs.n
    T = ss.dense_toeplitz(coeffs)
    b = np.random.default_rng(n).standard_normal(n) + 0j
    x = ss.toeplitz_solve(ss.toeplitz_factor(coeffs, "partial"), b)
    x_o = ss.dense_solve(T, b)
    x_l = np.linalg.solve(T, b)
    fe = ss.solve_quality(coeffs, b, x).forward_err
    gap = abs(fe * np.linalg.norm(x_l) - np.linalg.norm(x - x_o))
    assert gap <= np.linalg.norm(x_l - x_o) * (1 + 1e-12)


def test_solve_quality_singular_toeplitz_raises():
    # all-ones coefficients give the rank-one all-ones T
    coeffs = ss.ToeplitzCoeffs(a=np.ones(7))
    with pytest.raises(ss.SingularMatrixError, match="reference solve"):
        ss.solve_quality(coeffs, np.arange(1.0, 5.0), np.ones(4))


def test_solve_quality_non_finite_reference_raises():
    # subnormal entries: LAPACK factors T but its solution is not finite
    coeffs = ss.ToeplitzCoeffs(a=np.array([0.25, 1.0, 0.5]) * 1e-310)
    with pytest.raises(ss.SingularMatrixError, match="non-finite"):
        ss.solve_quality(coeffs, np.ones(2), np.ones(2))


def test_solve_quality_zero_solution():
    coeffs = ss.random_toeplitz(6, seed=13)
    rep = ss.solve_quality(coeffs, np.arange(1.0, 7.0), np.zeros(6))
    assert rep.residual == 1.0


def test_solve_quality_modified_pivoting_residuals_flat():
    # stabilized solutions across the adversarial sweep stay at roundoff
    # through delta = 1e-7
    for k in range(2, 8):
        coeffs = ss.adversarial_toeplitz(ss.AdversarialSpec(n=8, delta=10.0**-k))
        T = ss.dense_toeplitz(coeffs)
        b = T @ np.ones(8, dtype=complex)
        x = ss.toeplitz_solve(ss.toeplitz_factor(coeffs, "row1col1"), b)
        rep = ss.solve_quality(coeffs, b, x)
        assert rep.residual <= 1e-13, f"k={k}: {rep.residual:.3e}"


def test_solve_quality_zero_rhs_exact_zero_answer_reads_zero():
    coeffs = ss.random_toeplitz(4, seed=1)
    rep = ss.solve_quality(coeffs, np.zeros(4), np.zeros(4))
    assert rep.residual == 0.0 and rep.forward_err == 0.0


def test_solve_quality_zero_rhs_nonzero_answer_reads_infinite():
    # against b = 0 and x_ref = 0 no relative error is finite
    coeffs = ss.random_toeplitz(4, seed=1)
    rep = ss.solve_quality(coeffs, np.zeros(4), np.full(4, 1e-3))
    assert rep.residual == np.inf and rep.forward_err == np.inf


def test_solve_quality_zero_rhs_underflowing_answer_reads_infinite():
    # the squares of 1e-300 underflow, so a plain 2-norm of x reads 0
    coeffs = ss.random_toeplitz(4, seed=1)
    rep = ss.solve_quality(coeffs, np.zeros(4), np.full(4, 1e-300))
    assert rep.residual == np.inf and rep.forward_err == np.inf


def test_solve_quality_tiny_rhs_reads_the_errors_of_the_unscaled_system():
    # b scaled by 2^-996 (1.5e-300) scales its solution exactly; the errors,
    # whose vectors are subnormal, agree to the precision left to them
    coeffs = ss.random_toeplitz(4, seed=1)
    f = ss.toeplitz_factor(coeffs, "partial")
    b = ss.dense_toeplitz(coeffs) @ np.linspace(1.0, 2.0, 4)
    reps = [
        ss.solve_quality(coeffs, scale * b, ss.toeplitz_solve(f, scale * b))
        for scale in (1.0, 2.0**-996)
    ]
    assert reps[0].residual > 0.0 and reps[0].forward_err > 0.0
    assert_allclose(reps[1].residual, reps[0].residual, rtol=1e-3)
    assert_allclose(reps[1].forward_err, reps[0].forward_err, rtol=1e-3)


def test_solve_quality_of_a_right_hand_side_near_the_float_limit():
    # T = [[2, 1], [3, 2]]: T x - b and LAPACK's unscaled reference both
    # overflowed, and the report called the nonsingular T singular
    coeffs = ss.ToeplitzCoeffs(a=[1.0, 2.0, 3.0])
    b = np.array([1e308, 1e308])
    x = ss.toeplitz_solve(ss.toeplitz_factor(coeffs), b)
    report = ss.solve_quality(coeffs, b, x)
    assert 0.0 < report.residual <= 4 * EPS
    assert 0.0 < report.forward_err <= 8 * EPS
    # scaled by a power of two, the report keeps the bits of the scaled-down system
    small = ss.solve_quality(coeffs, b * 2.0**-1000, x * 2.0**-1000)
    assert (report.residual, report.forward_err) == (small.residual, small.forward_err)


@pytest.mark.parametrize("b", [np.zeros(4), np.ones(4)], ids=["zero_rhs", "nonzero_rhs"])
def test_solve_quality_nan_answer_reads_nan_whatever_the_rhs(b):
    # a NaN answer shows as NaN, against b = 0 as against any other b
    coeffs = ss.random_toeplitz(4, seed=1)
    x_tilde = np.array([1.0, np.nan, 0.0, 0.0])
    rep = ss.solve_quality(coeffs, b, x_tilde)
    assert np.isnan(rep.residual) and np.isnan(rep.forward_err)


@pytest.mark.parametrize("shape", [(), (4, 1, 1), (3,)], ids=["0-d", "3-d", "short"])
@pytest.mark.parametrize("which", ["b", "x"])
def test_solve_quality_refuses_b_or_x_of_another_shape(which, shape):
    # a 0-d b or x used to fail with IndexError on its shape[0]
    coeffs = ss.random_toeplitz(4, seed=1)
    args = {"b": np.ones(4), "x": np.ones(4)}
    args[which] = np.ones(shape)
    with pytest.raises(ValueError, match="shape"):
        ss.solve_quality(coeffs, args["b"], args["x"])


@pytest.mark.parametrize("column", ["x", "b"])
def test_solve_quality_refuses_a_column_against_a_vector(column):
    # (8, 1) - (8,) would broadcast to an 8 x 8 array and read a forward
    # error of order one for a solution correct to rounding
    coeffs = ss.random_toeplitz(8, seed=1)
    b = np.ones(8)
    x = ss.toeplitz_solve(ss.toeplitz_factor(coeffs, "partial"), b)
    assert ss.solve_quality(coeffs, b, x).forward_err <= 1e-13
    if column == "x":
        x = x[:, None]
    else:
        b = b[:, None]
    with pytest.raises(ValueError, match="shape"):
        ss.solve_quality(coeffs, b, x)


@pytest.mark.parametrize("column", ["x", "b"])
def test_solve_errors_refuses_a_column_against_a_vector(column):
    # the CLI's Cauchy solve report goes through _solve_errors directly
    gen, nodes = ss.random_cauchy_type(8, 2, seed=1)
    A = ss.materialize_cauchy(gen, nodes)
    b = np.ones(8)
    x = ss.solve_with_factors(ss.gko_factor(gen, nodes, "partial"), b)
    assert _solve_errors(A, b, x).forward_err <= 1e-13
    if column == "x":
        x = x[:, None]
    else:
        b = b[:, None]
    with pytest.raises(ValueError, match="shape"):
        _solve_errors(A, b, x)
