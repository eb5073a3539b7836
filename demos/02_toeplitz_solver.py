"""Solve a Toeplitz system through the Cauchy transform.

Row interchanges destroy Toeplitz structure, so the matrix is first carried
to Cauchy form by the unitary DFT: R = F T D^{-1} F*.  Row (and column)
pivoting on R only permutes its nodes, and the factorization transports
back as T = F* P^T L U P'^T F D.  Everything here is O(n^2).
"""

import numpy as np

import structsolve as ss

n = 12
coeffs = ss.random_toeplitz(n, seed=7)
T = ss.dense_toeplitz(coeffs)

print(f"order-{n} Toeplitz matrix from {coeffs.a.size} coefficients")

# the displacement equation certifies the structure: rank(Z1 T - T Z-1) <= 2
disp = ss.toeplitz_displacement(coeffs)
sv = np.linalg.svd(disp, compute_uv=False)
print("displacement singular values:", np.round(sv, 12)[:4], "...")

gen = ss.toeplitz_generators(coeffs)
print(f"generator residual ||Z1 T - T Z-1 - phi psi||_F = "
      f"{np.linalg.norm(disp - gen.phi @ gen.psi):.3e}")

# transform once, factor once, then solve as many systems as needed
fact = ss.toeplitz_factor(coeffs, strategy="partial")
rhs = np.stack([np.ones(n), np.arange(1.0, n + 1.0)])
for b in rhs:
    x = ss.toeplitz_solve(fact, b)
    resid = np.linalg.norm(T @ x - b) / np.linalg.norm(b)
    x_dense = ss.dense_solve(T, b)
    diff = np.linalg.norm(x - x_dense) / np.linalg.norm(x_dense)
    print(f"  rhs {b[:3]}...: residual {resid:.3e}, "
          f"vs dense solver {diff:.3e}")

rep = ss.backward_error_toeplitz(coeffs, fact)
print(f"\nbackward error ||F* L U F D - T||_F / ||T||_F = {rep.rel_err:.3e}")

# the transform itself: materialized Cauchy generators equal F T D^-1 F*
gen_c, nodes = ss.to_cauchy_generators(gen)
F = ss.apply_F(fact.plan, np.eye(n))
dense_transform = F @ T @ np.diag(np.conj(fact.d)) @ F.conj().T
err = np.linalg.norm(ss.materialize_cauchy(gen_c, nodes) - dense_transform)
print(f"transform identity error: {err:.3e}")

gaps = np.abs(nodes.gaps())
print(f"node spread b_max/b_min = {gaps.max() / gaps.min():.4f} "
      f"(bound 2n/pi = {2 * n / np.pi:.4f})")
