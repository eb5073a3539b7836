"""Fast Gaussian elimination for displacement-structured matrices.

A Cauchy-type matrix is held as a pair of thin generators plus two node
vectors; Gaussian elimination with partial (or row-1/column-1) pivoting runs
directly on the generators in O(n^2) time.  Toeplitz systems ride the same
machinery after a unitary DFT transform.  Alongside the solvers live the
growth diagnostics that explain when the fast path loses accuracy and the
dense O(n^3) oracles used to check it.
"""

from .cauchy_gko import (
    GKOFactorization,
    GrowthTrace,
    PivotStrategy,
    gko_factor,
    solve_with_factors,
)
from .core import (
    CauchyNodes,
    GeneratorPair,
    NodeCollisionError,
    Permutation,
    SingularMatrixError,
    ToeplitzCoeffs,
    materialize_cauchy,
)
from .dft import DftPlan, apply_F, apply_F_inv, scaling_D, toeplitz_cauchy_nodes
from .diagnostics import (
    BackwardErrorReport,
    GrowthReport,
    backward_error_cauchy,
    backward_error_toeplitz,
    growth_report,
    recover_from_displacement,
    solve_quality,
    v_matrix,
)
from .oracle import (
    DenseFactorization,
    cond_estimate,
    dense_gepp_factor,
    dense_schur_complement,
    dense_solve,
    dense_toeplitz,
)
from .sweep import SweepConfig, SweepRecord, SweepResult, records_to_csv, run_sweep
from .testgen import (
    AdversarialSpec,
    adversarial_toeplitz,
    cancellation_cauchy,
    random_cauchy_type,
    random_toeplitz,
)
from .toeplitz import (
    ToeplitzFactorization,
    to_cauchy_generators,
    toeplitz_displacement,
    toeplitz_factor,
    toeplitz_generators,
    toeplitz_solve,
)

__version__ = "0.1.0"

__all__ = [
    "AdversarialSpec",
    "BackwardErrorReport",
    "CauchyNodes",
    "DenseFactorization",
    "DftPlan",
    "GKOFactorization",
    "GeneratorPair",
    "GrowthReport",
    "GrowthTrace",
    "NodeCollisionError",
    "Permutation",
    "PivotStrategy",
    "SingularMatrixError",
    "SweepConfig",
    "SweepRecord",
    "SweepResult",
    "ToeplitzCoeffs",
    "ToeplitzFactorization",
    "adversarial_toeplitz",
    "apply_F",
    "apply_F_inv",
    "backward_error_cauchy",
    "backward_error_toeplitz",
    "cancellation_cauchy",
    "cond_estimate",
    "dense_gepp_factor",
    "dense_schur_complement",
    "dense_solve",
    "dense_toeplitz",
    "gko_factor",
    "growth_report",
    "materialize_cauchy",
    "random_cauchy_type",
    "random_toeplitz",
    "records_to_csv",
    "recover_from_displacement",
    "run_sweep",
    "scaling_D",
    "solve_quality",
    "solve_with_factors",
    "to_cauchy_generators",
    "toeplitz_cauchy_nodes",
    "toeplitz_displacement",
    "toeplitz_factor",
    "toeplitz_generators",
    "toeplitz_solve",
    "v_matrix",
]
