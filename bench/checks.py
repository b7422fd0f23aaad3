"""Correctness gate: solver-independent checks of every benchmark output.

All checks run untimed, after the timed pass.  Each returns the names of
the checks that failed, so a wrong output is counted and printed by name.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

# the solver's K may undercut the grid oracle's attained value by this much
ORACLE_RTOL = 1e-8
# the certificate run just below 1/K, at gamma = (1/K)(1 - gap), eta = gap/K
CERT_GAP = 1e-6
# a reported point must carry gamma as a singular value to this times ||A||
POINT_RTOL = 1e-8
DNC_RTOL = 1e-8


def oracle(kreiss, prob):
    """Grid-oracle (minimum, coords) of g (or h); grid values are attained, so >= the true min."""
    return kreiss.oracle.grid_min(prob, levels=4)


def transient_peak(A, continuous):
    """max ||e^{tA}|| (ct) or max ||A^k|| (dt) on a grid; never above the supremum."""
    n = A.shape[0]
    eigs = np.linalg.eigvals(A)
    if continuous:
        decay = -float(np.max(eigs.real))
        ts = np.concatenate([[0.0], np.geomspace(1e-3, 40.0 * (n + 1) / decay, 240)])
        return max(np.linalg.norm(scipy.linalg.expm(t * A), 2) for t in ts)
    steps = int(min(4000, np.ceil(40.0 * (n + 1) / (1.0 - float(np.max(np.abs(eigs)))))))
    peak, P = 1.0, np.eye(n, dtype=complex)
    for _ in range(steps):
        P = P @ A
        peak = max(peak, np.linalg.norm(P, 2))
    return peak


def _variable_test(kreiss, prob, gamma, eta):
    if prob.is_continuous:
        return kreiss.cert_ct.variable_distance_test(prob, gamma, eta)
    return kreiss.cert_dt.variable_distance_test_dt(prob, gamma, eta)


def check_solve(kreiss, prob, K, g_oracle, K_reference=None):
    """Checks on a solver's Kreiss constant K for one problem.

    * ``K>=1``: the Kreiss constant is at least 1.
    * ``K>=K_oracle``: 1/g_oracle is attained on the grid, so K may not
      undercut it (beyond ORACLE_RTOL).
    * ``empty_cert_below_1/K``: a dense variable-distance test just below
      1/K finds no point; otherwise a level below 1/K exists.
    * ``kreiss_theorem``: the sampled transient peak is at most e*n*K.
    * ``dnc_matches_dense``: K equals the dense solve's K to DNC_RTOL.
    """
    failed = []
    if not K >= 1.0:
        failed.append("K>=1")
    if K < (1.0 / g_oracle) * (1.0 - ORACLE_RTOL):
        failed.append("K>=K_oracle")
    if np.isfinite(K) and K >= 1.0:
        report = _variable_test(kreiss, prob, (1.0 - CERT_GAP) / K, CERT_GAP / K)
        if report.points:
            failed.append("empty_cert_below_1/K")
    if transient_peak(np.asarray(prob.A), prob.is_continuous) > np.e * prob.n * K:
        failed.append("kreiss_theorem")
    if K_reference is not None and not abs(K - K_reference) <= DNC_RTOL * K_reference:
        failed.append("dnc_matches_dense")
    return failed


def point_holds(prob, gamma, coords):
    """Re-verify one reported level point with an SVD of our own."""
    c1, c2 = coords
    n = prob.n
    A = np.asarray(prob.A)
    if prob.is_continuous:
        if not c1 > 0.0:
            return False
        M = ((c1 + 1j * c2) * np.eye(n) - A) / c1
    else:
        if not c1 > 1.0:
            return False
        M = (c1 * np.exp(1j * c2) * np.eye(n) - A) / (c1 - 1.0)
    s = np.linalg.svd(M, compute_uv=False)
    tol = POINT_RTOL * np.linalg.norm(A, 2)
    # gamma is a singular value there, so the point is on or below the level
    return bool(np.min(np.abs(s - gamma)) <= tol and s[-1] <= gamma + tol)


def check_certificate(prob, gamma, eta, points, g_oracle):
    """Checks on one certificate verdict at level gamma, distance eta.

    * ``point_reverified``: every reported point passes ``point_holds``.
    * ``empty_implies_oracle``: an empty verdict certifies
      min > gamma - eta/2, so the grid oracle (>= min) must exceed it.
    """
    failed = []
    if not all(point_holds(prob, gamma, p) for p in points):
        failed.append("point_reverified")
    if not points and not g_oracle > gamma - 0.5 * eta:
        failed.append("empty_implies_oracle")
    return failed


# Defects of the program whose inputs the workloads leave out (their seeded
# nonnormal instances keep g <= NONNORMAL_G_MAX and start from a global
# minimum).  Each run of the named workload re-runs the reproducer, untimed,
# and records the checks it still fails; none counts in ``correct``.
# (workload, name, what goes wrong, reproducer call, its arguments)
KNOWN_DEFECTS = (
    ("certify", "dt-near-plateau-empty",
     "variable_distance_test_dt returns EMPTY above a near-plateau minimum "
     "(dt-random-n3 of seed 321452671, level 'above' of g = 0.9999877)",
     "certificate", (321452671, "discrete", 3, "above")),
    ("certify", "tight-misses-deeper-basin",
     "variable_distance_test at eta = 1e-9 g returns EMPTY over a deeper basin "
     "(ct-random-n8 of seed 2: local g = 0.949336, grid min 0.947080)",
     "certificate", (2, "continuous", 8, "tight")),
    ("solve-dt", "owr-bt-plateau-K1",
     "solve_owr_backtracking returns K = 1 when the default start ends on the "
     "plateau (dt-random-n5 of seed 109: the grid attains 1/K = 0.96204)",
     "solve", (109, "discrete", 5)),
)


def _reproduce(kreiss, workloads, call, seed, td, n, level=None):
    """Failed checks of one known-defect reproducer (an empty list: fixed)."""
    A = workloads.random_matrix(n, td, workloads._rng(seed, td, "random", n))
    prob = kreiss.MatrixProblem(A, td)
    g_oracle = oracle(kreiss, prob)[0]
    if call == "solve":
        K = kreiss.solver.solve_owr_backtracking(prob, c=workloads.BACKTRACK_C).kreiss
        return check_solve(kreiss, prob, K, g_oracle)
    gamma, eta = workloads.level_pairs(workloads.default_min(kreiss, prob))[level]
    report = _variable_test(kreiss, prob, gamma, eta)
    return check_certificate(prob, report.gamma, eta, [p.coords for p in report.points],
                             g_oracle)


def known_defects(kreiss, workloads, workload):
    """{name: {"defect": ..., "checks_failed": [...]}} for the workload's reproducers."""
    return {name: {"defect": what, "checks_failed": _reproduce(kreiss, workloads, call, *args)}
            for wl, name, what, call, args in KNOWN_DEFECTS if wl == workload}
