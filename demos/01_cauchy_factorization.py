"""Factor a Cauchy-type matrix from its generators, never forming it densely.

A Cauchy-type matrix is determined by two node vectors (t, s) and a thin
generator pair (phi, psi): entry (i, j) is phi_i . psi_j / (t_i - s_j).
The structured factorization works on the generators alone, costs O(n^2),
and with partial pivoting makes exactly the same pivot choices as dense
Gaussian elimination on the materialized matrix.
"""

import numpy as np

import structsolve as ss

n, alpha = 10, 2
gen, nodes = ss.random_cauchy_type(n, alpha, seed=1234)

print(f"order n = {n}, displacement rank alpha = {alpha}")
print(f"generator storage: {gen.phi.size + gen.psi.size} numbers "
      f"instead of {n * n}\n")

# the O(n^2) structured factorization
fact = ss.gko_factor(gen, nodes, strategy="partial")

# dense reference on the materialized matrix
R = ss.materialize_cauchy(gen, nodes)
dense = ss.dense_gepp_factor(R)

print("pivot rows chosen by the structured factorization:",
      fact.trace.pivot_index.tolist())
print("pivot rows chosen by dense GE/PP:                 ", dense.pivots)
print("identical:", fact.trace.pivot_index.tolist() == dense.pivots)

err = ss.backward_error_cauchy(gen, nodes, fact)
print(f"\nreconstruction ||P^T L U - R||_F / ||R||_F = {err.rel_err:.3e}")
print(f"|L| entries bounded by one: max |L| = {np.abs(fact.L).max():.6f}")

# solving a system reuses the factors
x_hat = np.linspace(1.0, 2.0, n)
b = R @ x_hat
x = ss.solve_with_factors(fact, b)
print(f"solve error against the known solution: "
      f"{np.linalg.norm(x - x_hat) / np.linalg.norm(x_hat):.3e}")

# the factorization recorded the growth trace on the way; max|v_kk| is the
# V entry term of the growth factor g1
print(f"largest pivot V entry max|v_kk|: {np.abs(fact.trace.v_kk).max():.1f} "
      "(mild cancellation; compare demo 03)")
