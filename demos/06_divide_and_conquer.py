"""Implicit certificate operators and the divide-and-conquer eigenvalue sweep.

The certificate matrices have order 4n^2 / 8n^2, but they vectorize
2n x 2n Sylvester forms, so matrix-vector products and shifted inverses
cost only O(n^3): a shifted inverse "unvectorizes" into one (generalized)
Sylvester solve.  The recursive sweep queries the k nearest eigenvalues at
interval midpoints, clears a conservative disk per query, and recurses on
what remains, finding every real eigenvalue without ever forming the
matrices.
"""

import numpy as np
import scipy.linalg

import kreiss

prob = kreiss.gen_test_matrix("random-stable-shifted", 4, seed=2,
                              time_domain="continuous")
gamma, eta = 0.94, 0.05   # above 1/K ~ 0.9146, so level pairs exist

# --- the implicit operator agrees with the dense pencil entry for entry
op = kreiss.op_variable_ct(prob, gamma, eta)
pen = kreiss.build_variable_pencil(prob, gamma, eta)
A1, A2 = op.to_dense()
print(f"operator dimension: {op.dim} (= 4 n^2)")
print(f"|A1_op - A1_dense| = {np.linalg.norm(A1 - pen.m1):.2e}")
print(f"mass matrix nonzeros: {op.mass_matrix.nnz} (sparse)")

rng = np.random.default_rng(0)
y = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
s = 0.8 + 0.1j
w_op = op.shifted_solver(s)(y)
w_ref = np.linalg.solve(pen.m1 - s * pen.m2, y)
print(f"shifted-inverse apply relative error: "
      f"{np.linalg.norm(w_op - w_ref)/np.linalg.norm(w_ref):.2e}")

# --- sweep an interval for real eigenvalues and compare against dense QZ
lo, hi = 1e-9, 4.0 * max(prob.norm2, 1.0)
found = kreiss.real_eigs_in_interval(op, lo, hi, k_per_shift=6)
alpha, beta = scipy.linalg.eigvals(pen.m1, pen.m2, homogeneous_eigvals=True)
fin = np.abs(beta) > 1e-14 * (np.abs(alpha) + 1.0)
lam = alpha[fin] / beta[fin]
dense = np.sort(lam[np.abs(lam.imag) <= 1e-8 * np.maximum(1, np.abs(lam.real))].real)
dense = dense[(dense >= lo) & (dense <= hi)]
print(f"\nreal eigenvalues in [{lo:.0e}, {hi:.2f}]:")
print(f"  divide-and-conquer: {np.array(found)}")
print(f"  dense QZ          : {dense}")

# --- the same backend drives a certificate end to end
rep = kreiss.fixed_distance_test(prob, 0.94, 0.02, np.pi / 2, use_dnc=True)
print(f"\ncertificate with dnc backend: {len(rep.points)} points, "
      f"empty = {rep.empty}")
