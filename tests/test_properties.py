"""Property tests of gko_factor over random inputs of order at most 24.

Every test is derandomized, so a run draws the same examples each time and
the suite stays deterministic.
"""

import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import structsolve as ss
from structsolve.core import EPS

from _reconstruct import reconstruct


def examples(count):
    """Settings of every test here: ``count`` examples, fixed, untimed."""
    return settings(max_examples=count, derandomize=True, deadline=None, database=None)

STRATEGIES = st.sampled_from(["none", "partial", "row1col1"])
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def instances(draw):
    """Generators and nodes of a random Cauchy-type or Toeplitz-derived matrix."""
    toeplitz = draw(st.booleans())
    n = draw(st.integers(2 if toeplitz else 1, 24))
    seed = draw(SEEDS)
    if not toeplitz:
        return ss.random_cauchy_type(n, draw(st.integers(1, 4)), seed=seed)
    gen = ss.toeplitz_generators(ss.random_toeplitz(n, seed=seed))
    return ss.to_cauchy_generators(gen)


def _failed_step(exc: ss.SingularMatrixError) -> int:
    return int(re.match(r"singular at step (\d+):", str(exc)).group(1))


@examples(80)
@given(instances(), STRATEGIES)
def test_reconstruction_within_the_unit_constant_bound(instance, strategy):
    gen, nodes = instance
    f = ss.gko_factor(gen, nodes, strategy)
    R = ss.materialize_cauchy(gen, nodes)
    err = np.linalg.norm(reconstruct(f) - R)
    assert err <= ss.growth_report(f.trace, f, nodes).bound_cauchy


@examples(80)
@given(instances(), STRATEGIES)
def test_permutations_replay_the_recorded_interchanges(instance, strategy):
    gen, nodes = instance
    f = ss.gko_factor(gen, nodes, strategy)
    n = f.n
    rows, cols = np.arange(n), np.arange(n)
    for k in range(n):
        p = int(f.trace.pivot_index[k])
        assert k <= p < n
        perm = cols if f.trace.pivot_is_col[k] else rows
        perm[[k, p]] = perm[[p, k]]
    assert np.array_equal(f.row_perm.idx, rows)
    assert np.array_equal(np.argsort(f.col_perm.idx), cols)
    if strategy != "row1col1":
        assert not f.trace.pivot_is_col.any()
    if strategy == "none":
        assert np.array_equal(f.trace.pivot_index, np.arange(n))


@examples(80)
@given(instances())
def test_partial_pivoting_bounds_the_multipliers(instance):
    f = ss.gko_factor(*instance, "partial")
    assert np.abs(f.L).max() <= 1.0 + 4 * EPS


@st.composite
def row_column_ties(draw):
    """phi = psi = 1 on nodes where |r_q0| = |r_0q'| = 1/d are the largest
    entries of the first column and row, exactly.

    Every node is a multiple of d = 2^e, so each gap is exact.  With
    ``row_wins`` the gap t_0 - s_q' shrinks by 2^-20 so the row entry wins.
    """
    n = draw(st.integers(2, 24))
    q = draw(st.integers(1, n - 1))
    q_col = draw(st.integers(1, n - 1))
    row_wins = draw(st.booleans())
    d = 2.0 ** draw(st.integers(-8, 8))
    far = 2.0**12 * d
    t = -far + d * (2.0 + np.arange(n))
    s = d * (2.0 + np.arange(n))
    t[0], s[0] = 0.0, -far
    t[q] = -far + d
    s[q_col] = d * (1.0 - 2.0**-20) if row_wins else d
    gen = ss.GeneratorPair(phi=np.ones((n, 1)), psi=np.ones((1, n)))
    return gen, ss.CauchyNodes(t=t, s=s), q, q_col, row_wins


@examples(60)
@given(row_column_ties())
def test_row_versus_column_tie_keeps_the_row(case):
    gen, nodes, q, q_col, row_wins = case
    f = ss.gko_factor(gen, nodes, "row1col1")
    assert bool(f.trace.pivot_is_col[0]) == row_wins
    assert f.trace.pivot_index[0] == (q_col if row_wins else q)
    assert ss.gko_factor(gen, nodes, "partial").trace.pivot_index[0] == q


@examples(80)
@given(
    n=st.integers(2, 24),
    seed=SEEDS,
    ratio=st.one_of(st.floats(0.25, 0.95), st.floats(1.05, 4.0)),
)
def test_singular_exactly_when_the_pivot_is_below_n_eps_candidates(n, seed, ratio):
    # without pivoting, step 0 takes r_00 = ratio * n eps * max_j |r_j0|
    gen, nodes = ss.random_cauchy_type(n, 1, seed=seed)
    column = ss.materialize_cauchy(gen, nodes)[:, 0]
    r00 = ratio * n * EPS * np.abs(column[1:]).max()
    phi = gen.phi.copy()
    phi[0, 0] = r00 * (nodes.t[0] - nodes.s[0]) / gen.psi[0, 0]
    try:
        ss.gko_factor(ss.GeneratorPair(phi=phi, psi=gen.psi), nodes, "none")
    except ss.SingularMatrixError as exc:
        assert (_failed_step(exc) == 0) == (ratio < 1)
    else:
        assert ratio > 1


@examples(60)
@given(instances(), st.integers(0, 23))
def test_exactly_zero_column_is_singular_for_every_strategy(instance, col):
    gen, nodes = instance
    col %= gen.n
    psi = gen.psi.copy()
    psi[:, col] = 0.0
    zeroed = ss.GeneratorPair(phi=gen.phi, psi=psi)
    steps = {}
    for strategy in ("none", "partial", "row1col1"):
        try:
            ss.gko_factor(zeroed, nodes, strategy)
        except ss.SingularMatrixError as exc:
            steps[strategy] = _failed_step(exc)
    assert set(steps) == {"none", "partial", "row1col1"}
    if col == 0:
        assert steps["partial"] == 0
