"""Discrete-time Kreiss constants: polar coordinates and radial certificates.

Outside the unit disk the objective is h(r, theta) =
sigma_min((r e^{i theta} I - A)/(r - 1)).  The 1D test solves a symplectic
pencil whose unimodular eigenvalues mark the gamma-level points on one
circle; the 2D tests find candidate radii from a quadratic eigenvalue
problem in r (solved through its trimmed linearization of order 6n^2,
not the 8n^2 companion) and probe pairs along rays: (r, r + eta) for the
fixed-distance test, (r, beta*r + delta) for the variable-distance one.
"""

import numpy as np

import kreiss

prob = kreiss.gen_test_matrix("jordan-shifted", 2, time_domain="discrete",
                              eps=0.1)
print(f"Jordan block at 0.9 (discrete): rho(A) = {prob.spectral_radius:.2f}")

# --- 1D circular test on a normal scalar: tangency at theta = 0
scalar = kreiss.MatrixProblem(np.array([[0.5]]), "discrete")
print("\n1D circular test on A = [0.5], r = 2:")
for gamma in (1.5, 2.0, 0.1):
    ths = kreiss.circular_level_points(scalar, gamma, 2.0)
    print(f"  gamma = {gamma:.2f}: theta = {ths}")

# --- quadratic-pencil structure: q2 always singular, q0 flips at sigma(A)
pen = kreiss.build_quad_pencil_fixed(prob, 0.5, 0.1)
s2 = np.linalg.svd(pen.q2, compute_uv=False)
print(f"\nq2 smallest/largest singular value: {s2[-1]:.1e} / {s2[0]:.2f} "
      "(structurally singular)")

# --- certificates against the brute-force oracle
kinv, coords = kreiss.grid_min(prob, levels=5)
print(f"\ngrid oracle: min h = {kinv:.6f} at r = {coords[0]:.4f}")
above = kreiss.fixed_distance_test_dt(prob, kinv + 0.02, eta=0.05)
below = kreiss.variable_distance_test_dt(prob, kinv - 0.02, eta=0.05)
print(f"gamma above the minimum: {len(above.points)} verified points on "
      f"{len(above.candidate_lines)} candidate circles")
print(f"gamma below the minimum: empty = {below.empty} "
      f"(certifies 1/K > {kinv - 0.02 - 0.025:.4f})")

# --- all three global methods
bt = kreiss.solve_owr_backtracking(prob)
owr = kreiss.solve_owr(prob)
tri = kreiss.solve_trisection(prob, gamma_tol=1e-8)
print(f"\nowr-bt     K = {bt.kreiss:.12f}")
print(f"owr        K = {owr.kreiss:.12f}")
print(f"trisection K = {tri.kreiss:.12f}")
print(f"oracle     K ~ {1.0/kinv:.12f}")
