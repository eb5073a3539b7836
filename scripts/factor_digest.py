"""Print one SHA-256 digest per factorization of a fixed corpus.

Run from any directory; it imports structsolve from the ``src/`` next to
this script:

    python scripts/factor_digest.py > digests.txt

Running it in two checkouts and diffing the output shows whether a change
kept the factorizations bit-identical; ``scripts/digest_against.sh REV``
does that against a git revision.  Each line is ``<label> <strategy>
<pivot digest> <factors digest> <non-hat digest> <full digest>``.  The
pivot digest covers ``pivot_index``, ``pivot_is_col``, ``row_perm`` and
``col_perm``, so a change that keeps every pivot differs only in the other
three.  The factors digest covers L, U, ``row_perm``, ``col_perm`` and the
trace fields named in ``FACTOR_TRACE_FIELDS`` (``pivot_index``,
``pivot_is_col``, ``pivot_magnitude``, ``v_kk``): everything a step
computes entry by entry, so a change that only sums the hatted norms or
``norm_L`` and ``norm_U`` in another order keeps it and moves the last
two.  The full digest covers L, U, ``row_perm``, ``col_perm``, the
``GrowthTrace`` fields named in ``TRACE_FIELDS``, every ``growth_report``
field and ``v_matrix`` of the factored generators.  The trace fields are a
fixed list, not whatever the trace holds, so that a copy run in an older
checkout, whose trace has more fields, digests the same values as here.
The non-hat digest covers the same except ``hat_ratio`` and the four report
fields computed from it (g2, g3, ``bound_cauchy`` and ``bound_toeplitz``),
so a change that only rounds the hatted norm ratio differently differs only
in the full digest, and only on lines that computed hat ratios.  The corpus
is 149 instances under each of the strategies none, partial and row1col1
(447 factorizations):

- the 100 random Cauchy-type instances of acceptance criterion 1;
- the 25 random instances of the row-1/column-1 dense replay test;
- ``adversarial_toeplitz`` for n in {8, 64, 256} and delta in
  {1e-2, 1e-6, 1e-8, 1e-12};
- ``cancellation_cauchy`` for n in {8, 64, 256} and f_norm in
  {1e-2, 1e-6, 1e-10}, seed 3;
- ``random_toeplitz(n, seed=n)`` for n in {300, 1024, 2048}.

All of these use the default ``hat_ratios="auto"``, which skips the hatted
norm ratio above n = 256.  Three lines follow for ``random_toeplitz(300,
seed=300)`` with ``hat_ratios=True``, one per strategy.  Then follow 24
lines for 8 inputs that are singular or have an exactly zero (1, 1) entry,
under each strategy.  A factorization that raises ``SingularMatrixError``
prints the error message instead of the four digests.

The digests depend on the BLAS in use, so compare two checkouts only on
the same machine and numpy.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import structsolve as ss  # noqa: E402

STRATEGIES = ("none", "partial", "row1col1")


def corpus():
    """(label, generators, nodes) of the 149 instances, in a fixed order."""
    for i in range(100):
        shape_rng = np.random.default_rng(1000 + i)
        n = int(shape_rng.integers(2, 17))
        alpha = int(shape_rng.integers(1, 5))
        yield (f"criterion1[{i}]", *ss.random_cauchy_type(n, alpha, seed=2000 + i))
    for i in range(25):
        shape_rng = np.random.default_rng(77_000 + i)
        n = int(shape_rng.integers(2, 13))
        alpha = int(shape_rng.integers(1, 5))
        yield (f"replay[{i}]", *ss.random_cauchy_type(n, alpha, seed=88_000 + i))
    for n in (8, 64, 256):
        for delta in (1e-2, 1e-6, 1e-8, 1e-12):
            c = ss.adversarial_toeplitz(ss.AdversarialSpec(n=n, delta=delta))
            gen = ss.toeplitz_generators(c)
            yield (f"adversarial n={n} delta={delta:g}", *ss.to_cauchy_generators(gen))
    for n in (8, 64, 256):
        for f_norm in (1e-2, 1e-6, 1e-10):
            yield (f"cancellation n={n} f_norm={f_norm:g}", *ss.cancellation_cauchy(n, f_norm, 3))
    for n in (300, 1024, 2048):
        gen = ss.toeplitz_generators(ss.random_toeplitz(n, seed=n))
        yield (f"random_toeplitz n={n}", *ss.to_cauchy_generators(gen))


def hat_ratio_corpus():
    """The order-300 Toeplitz instance again, to factor with hat ratios on."""
    gen = ss.toeplitz_generators(ss.random_toeplitz(300, seed=300))
    yield ("random_toeplitz n=300 hat_ratios=True", *ss.to_cauchy_generators(gen))


def singular_corpus():
    """8 inputs: 2 rank-deficient, 6 with an exactly zero (1, 1) entry."""
    for n in (4, 64):
        a = np.linspace(0.5, 1.0, n)
        gen = ss.GeneratorPair(phi=np.stack([a, a], axis=1), psi=np.stack([a, -a], axis=0))
        yield f"rank-deficient n={n}", gen, ss.random_cauchy_type(n, 1, seed=0)[1]
    for n in (3, 8, 16, 64, 256, 1024):
        gen, nodes = ss.random_cauchy_type(n, 2, seed=1)
        psi = gen.psi.copy()
        psi[:, 0] = [gen.phi[0, 1], -gen.phi[0, 0]]
        yield f"zero r00 n={n}", ss.GeneratorPair(phi=gen.phi, psi=psi), nodes


def _update(h, value) -> None:
    if isinstance(value, ss.Permutation):
        value = value.idx
    h.update(np.ascontiguousarray(value).tobytes())


# the trace fields digested, in this order
TRACE_FIELDS = (
    "pivot_index",
    "pivot_is_col",
    "pivot_magnitude",
    "v_kk",
    "hat_ratio",
    "hat_l_col",
    "hat_u_row",
    "hat_ratios_computed",
)
# the trace fields of the factors digest, in this order
FACTOR_TRACE_FIELDS = ("pivot_index", "pivot_is_col", "pivot_magnitude", "v_kk")
# the trace field and report fields left out of the non-hat digest
HAT_TRACE_FIELD = "hat_ratio"
HAT_REPORT_FIELDS = ("g2", "g3", "bound_cauchy", "bound_toeplitz")


def digest(gen, nodes, strategy, hat_ratios) -> str:
    try:
        f = ss.gko_factor(gen, nodes, strategy, hat_ratios)
    except ss.SingularMatrixError as exc:
        return f"SingularMatrixError: {exc}"
    pivots = hashlib.sha256()
    for value in (f.trace.pivot_index, f.trace.pivot_is_col, f.row_perm, f.col_perm):
        _update(pivots, value)
    factors = hashlib.sha256()
    for value in (f.L, f.U, f.row_perm, f.col_perm):
        _update(factors, value)
    for name in FACTOR_TRACE_FIELDS:
        _update(factors, getattr(f.trace, name))
    # every value goes into the full digest, and all but the hat-ratio ones
    # into the non-hat digest as well, in the same order
    full, non_hat = hashlib.sha256(), hashlib.sha256()

    def add(value, from_hat_ratio=False) -> None:
        _update(full, value)
        if not from_hat_ratio:
            _update(non_hat, value)

    for value in (f.L, f.U, f.row_perm, f.col_perm):
        add(value)
    for name in TRACE_FIELDS:
        add(getattr(f.trace, name), name == HAT_TRACE_FIELD)
    for name, value in ss.growth_report(f.trace, f, nodes).to_dict().items():
        add(np.float64(value), name in HAT_REPORT_FIELDS)
    add(ss.v_matrix(gen))
    return f"{pivots.hexdigest()} {factors.hexdigest()} {non_hat.hexdigest()} {full.hexdigest()}"


def main() -> int:
    sources = ((corpus(), "auto"), (hat_ratio_corpus(), True), (singular_corpus(), "auto"))
    for source, hat_ratios in sources:
        for label, gen, nodes in source:
            for strategy in STRATEGIES:
                line = digest(gen, nodes, strategy, hat_ratios)
                print(f"{label} {strategy} {line}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
