"""The delta sweep: weak stability of partial pivoting, and its repair.

Order-8 adversarial Toeplitz systems are generated with cancellation depth
delta = 10^-k and solved with both pivoting strategies; the right-hand side
is chosen so the exact solution is the all-ones vector.  Forward error under
partial pivoting grows like (1/delta)^2 while its residual grows like
1/delta (weak stability); row-1/column-1 pivoting holds the residual at a
small multiple of machine epsilon throughout.

The same experiment is available from the command line:

    structsolve sweep --n 8 --delta-exp-min 2 --delta-exp-max 16
"""

import numpy as np

import structsolve as ss

config = ss.SweepConfig(
    n=8,
    delta_exponents=tuple(range(2, 11)),
    strategies=(ss.PivotStrategy.PARTIAL_ROW, ss.PivotStrategy.ROW1_COL1),
)
result = ss.run_sweep(config)

print(f"{'delta':>8} {'strategy':>12} {'forward':>10} {'residual':>10} "
      f"{'cond(T)':>9} {'g3':>9}")
for rec in result.records:
    print(f"{rec.delta:8.0e} {rec.strategy:>12} {rec.forward_err:10.2e} "
          f"{rec.residual:10.2e} {rec.cond:9.2e} {rec.g3:9.2e}")

print("\nlog-log slopes versus 1/delta over k = 2..6:")
for name, stats in result.summary["strategies"].items():
    print(f"  {name:12s} forward {stats['slope_forward_err']:5.2f}   "
          f"residual {stats['slope_residual']:5.2f}   "
          f"max residual {stats['max_residual_in_window']:.2e}")

print("""
Reading the table: cond(T) itself grows like 1/delta (the construction is
near-singular by design), so any backward-stable solver drifts linearly in
forward error. Partial pivoting is worse than that by another factor of
1/delta, and its residual betrays the lost backward stability; the modified
pivoting pins the residual at roundoff. Past delta ~ 1e-8 double precision
can no longer represent the coefficients' delta-dependence and every metric
saturates.""")
