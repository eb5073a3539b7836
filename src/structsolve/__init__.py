"""Fast Gaussian elimination for displacement-structured matrices.

A Cauchy-type matrix is held as a pair of thin generators plus two node
vectors; Gaussian elimination with partial (or row-1/column-1) pivoting runs
directly on the generators in O(n^2) time.  Toeplitz systems ride the same
machinery after a unitary DFT transform.  Alongside the solvers live the
growth diagnostics that explain when the fast path loses accuracy and the
dense O(n^3) oracles used to check it.

Each module's ``__all__`` is the one list of its public names; the package
exports their sorted union.
"""

from . import cauchy_gko, core, dft, diagnostics, oracle, sweep, testgen, toeplitz
from .cauchy_gko import *  # noqa: F403
from .core import *  # noqa: F403
from .dft import *  # noqa: F403
from .diagnostics import *  # noqa: F403
from .oracle import *  # noqa: F403
from .sweep import *  # noqa: F403
from .testgen import *  # noqa: F403
from .toeplitz import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (cauchy_gko, core, dft, diagnostics, oracle, sweep, testgen, toeplitz)
    for name in module.__all__
)
