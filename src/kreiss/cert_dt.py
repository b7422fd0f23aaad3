"""Discrete-time 2D level-set globality certificates.

The search domain of h(r, theta) is the exterior of the unit disk.  Level
pairs are sought along rays from the origin: a fixed distance eta apart,
h(r, theta) = h(r + eta, theta) = gamma, or a variable distance
(r - 1) * eta / (1 + gamma) apart, h(r, theta) = h(beta*r + delta, theta)
= gamma with delta = -eta/(1+gamma) and beta = 1 - delta.  Either pair
condition leads to a 4n^2 quadratic eigenvalue problem in r, solved here
through its 8n^2 companion linearization (or by the opt-in
divide-and-conquer sweep of ``dnc``).  q2 has 2n^2 all-zero columns, so
``eig_quadratic`` deflates 2n^2 infinite eigenvalues and QZ runs on order
6n^2.  Candidate radii r > 1 are then probed by a 1D circular
test built on the symplectic pencil of the ray condition.  Polishing,
verification by a direct SVD and point collection are the 1D stage shared
with the continuous-time tests (``cert_ct._polish``, ``_verify_point`` and
``_collect_points``); this module keeps only the symplectic 1D eigenproblem
and the clustering of its unimodular eigenvalues.  The empty outcome of the
variable-distance test certifies 1/K > gamma - eta/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import dnc, objective
from .cert_ct import (CAPTURE_FACTOR, CertificateReport, LINE_DEDUP_ATOL,
                      _augment_with_midpoints, _check_gamma_eta, _check_test,
                      _collect_points, _merge_close, _near_real, _pair_beta, _polish,
                      _real_eigs)
from .errors import SingularPencilError
from .linalg import eig_quadratic
from .matio import MatrixProblem, TimeDomain

__all__ = [
    "QuadPencil",
    "circular_level_points",
    "build_quad_pencil_fixed",
    "build_quad_pencil_variable",
    "fixed_distance_test_dt",
    "variable_distance_test_dt",
]

# eigenvalue of the symplectic pencil counts as unimodular when ||lam|-1| <= this
UNIMODULAR_ATOL = 1e-8
# candidate radii must exceed 1 by this margin
RADIUS_MARGIN = 1e-12
# gamma closer than this (times max(1, ||A||)) to a singular value of A gets nudged
GAMMA_SV_GUARD = 1e-8


@dataclass
class QuadPencil:
    """Coefficients of the 4n^2 quadratic problem (q0 + r q1 + r^2 q2) w = 0
    of the ray pairs (r, beta*r + delta)."""

    q0: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    gamma: float
    eta: float
    variant: str
    delta: float
    beta: float


# --------------------------------------------------------------------------
# 1D circular test
# --------------------------------------------------------------------------

def _symplectic_pencil(prob, gamma, r):
    n = prob.n
    eye = np.eye(n)
    M = np.block([[prob.A, gamma * (r - 1.0) * eye], [0 * eye, r * eye]])
    N = np.block([[r * eye, 0 * eye], [gamma * (r - 1.0) * eye, prob.A.conj().T]])
    return M, N


def circular_level_points(prob: MatrixProblem, gamma: float, r: float) -> list[float]:
    """All theta in [0, 2*pi) with gamma a singular value of H(r, theta).

    gamma is a singular value of H(r, theta) iff e^{i theta} is an
    eigenvalue of the symplectic pencil
    [[A, gamma(r-1)I], [0, rI]] - lam [[rI, 0], [gamma(r-1)I, A*]],
    which is regular since A is nonsingular (problem invariant) and r != 0.
    Unimodular eigenvalues are clustered on the circle (double roots split
    symmetrically; the circular mean restores them) and polished by a 1D
    Newton iteration on sigma(H(r, .)) = gamma.
    """
    objective.check_domain(prob, TimeDomain.DISCRETE, "circular_level_points")
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if r == 1.0 or r == 0.0:
        raise ValueError("r must differ from 0 and 1")
    M, N = _symplectic_pencil(prob, gamma, r)
    alpha, beta = scipy.linalg.eigvals(M, N, homogeneous_eigvals=True)
    finite = np.abs(beta) > 1e-14 * (np.abs(alpha) + 1.0)
    lam = alpha[finite] / beta[finite]
    if lam.size < M.shape[0] // 4:
        # mostly infinite eigenvalues would mean a (near-)singular pencil
        if not np.isfinite(lam).any():
            raise SingularPencilError("symplectic pencil has no finite eigenvalues")
    lam = lam[np.abs(np.abs(lam) - 1.0) <= CAPTURE_FACTOR * UNIMODULAR_ATOL]
    if lam.size == 0:
        return []
    wrap = objective.domain(prob).wrap
    return sorted(wrap(_polish(prob, gamma, r, t)) for t in _cluster_on_circle(lam))


def _cluster_on_circle(lam, atol=1e-6):
    """Merge near-duplicate unimodular eigenvalues via their circular mean."""
    z = lam / np.abs(lam)
    order = np.argsort(np.angle(z))
    z = z[order]
    groups = [[z[0]]]
    for w in z[1:]:
        if abs(w - groups[-1][-1]) <= atol:
            groups[-1].append(w)
        else:
            groups.append([w])
    # the first and last group may wrap around the circle seam
    if len(groups) > 1 and abs(groups[0][0] - groups[-1][-1]) <= atol:
        groups[0].extend(groups.pop())
    return [float(np.angle(np.mean(g))) for g in groups]


# --------------------------------------------------------------------------
# quadratic pencil assembly
# --------------------------------------------------------------------------

def _ray_factor_blocks(prob, gamma, delta):
    """Constant/linear factors of M(r), Mt(r + delta)*, N(r), Nt(r + delta)*."""
    n = prob.n
    A = prob.A
    eye = np.eye(n)
    Z = 0 * eye
    C0 = np.block([[A, -gamma * eye], [Z, Z]])
    C1 = np.block([[Z, gamma * eye], [Z, eye]])
    D0 = np.block([[A.conj().T, Z], [gamma * (delta - 1.0) * eye, delta * eye]])
    D1 = np.block([[Z, Z], [gamma * eye, eye]])
    E0 = np.block([[Z, Z], [-gamma * eye, A.conj().T]])
    E1 = np.block([[eye, Z], [gamma * eye, Z]])
    F0 = np.block([[delta * eye, gamma * (delta - 1.0) * eye], [Z, A]])
    F1 = np.block([[eye, gamma * eye], [Z, Z]])
    return C0, C1, D0, D1, E0, E1, F0, F1


def _ray_pair(gamma, eta, variant):
    """(delta, beta) of the ray pair (r, beta*r + delta) that ``variant`` tests:
    (eta, 1) for fixed distance, (-eta/(1+gamma), 1 + eta/(1+gamma)) for variable."""
    if variant == "fixed":
        return eta, 1.0
    return -eta / (1.0 + gamma), _pair_beta(gamma, eta)


def _quad_pencil(prob, gamma, eta, variant):
    """The quadratic problem of ray pairs (r, beta*r + delta) (``_ray_pair``).

    Built from vec(M(r) W Mt(beta*r + delta)* - N(r) W Nt(beta*r + delta)*)
    = 0 with the symplectic-pencil factors of the 1D circular test: q0 takes
    the factors at offset delta, and beta scales the parts of q1 and q2
    that are linear in the partner radius.
    """
    _check_gamma_eta(gamma, eta)
    delta, beta = _ray_pair(gamma, eta, variant)
    C0, C1, D0, D1, E0, E1, F0, F1 = _ray_factor_blocks(prob, gamma, delta)
    kr = np.kron
    q0 = kr(D0.T, C0) - kr(F0.T, E0)
    q1 = beta * (kr(D1.T, C0) - kr(F1.T, E0)) + (kr(D0.T, C1) - kr(F0.T, E1))
    q2 = beta * (kr(D1.T, C1) - kr(F1.T, E1))
    return QuadPencil(q0, q1, q2, gamma, eta, variant, delta=delta, beta=beta)


def build_quad_pencil_fixed(prob: MatrixProblem, gamma: float, eta: float) -> QuadPencil:
    """Quadratic problem whose real roots r > 1 locate fixed-distance ray pairs.

    q2 is structurally singular while q0 is nonsingular exactly when gamma
    is not a singular value of A (A itself is nonsingular by the problem
    invariant), which keeps the companion linearization regular.
    """
    return _quad_pencil(prob, gamma, eta, "fixed")


def build_quad_pencil_variable(prob: MatrixProblem, gamma: float, eta: float) -> QuadPencil:
    """Quadratic problem for variable-distance ray pairs (r, beta*r + delta).

    q0 equals the fixed build's q0 with eta replaced by delta < 0, and q2 is
    beta > 1 times the fixed q2.
    """
    return _quad_pencil(prob, gamma, eta, "variable")


def _nudge_gamma(prob, gamma):
    """Move gamma off the Thm-7.3 boundary (a singular value of A)."""
    svals = np.linalg.svd(prob.A, compute_uv=False)
    guard = GAMMA_SV_GUARD * max(1.0, float(svals[0]))
    gaps = gamma - svals
    j = int(np.argmin(np.abs(gaps)))
    if abs(gaps[j]) > guard:
        return gamma, False
    direction = 1.0 if gaps[j] >= 0 else -1.0
    nudged = gamma + direction * 1e-6 * gamma
    if not (0.0 < nudged < 1.0):
        nudged = gamma - direction * 1e-6 * gamma
    return nudged, True


# --------------------------------------------------------------------------
# the radial tests
# --------------------------------------------------------------------------

def _radial_test(prob, gamma, eta, variant, use_dnc, seed):
    """The fixed- or variable-distance radial test: candidate radii from
    the quadratic problem, both circles of each pair probed in 1D."""
    _check_test(prob, TimeDomain.DISCRETE, gamma, eta)
    gamma, _ = _nudge_gamma(prob, gamma)
    delta, beta = _ray_pair(gamma, eta, variant)

    def dense():
        build = build_quad_pencil_fixed if variant == "fixed" else build_quad_pencil_variable
        pencil = build(prob, gamma, eta)
        spec = eig_quadratic(pencil.q0, pencil.q1, pencil.q2)
        return np.sort(_near_real(spec, eta)), spec.order

    lam, count = _real_eigs(prob, gamma, use_dnc, seed, dense,
                            lambda: dnc.op_quad_dt(prob, gamma, eta, variant=variant))
    lam = lam[lam > 1.0 + RADIUS_MARGIN]
    radii = []
    if lam.size:
        radii = _augment_with_midpoints(list(_merge_close(lam, atol=LINE_DEDUP_ATOL)))
    # the partner circle of r is r + eta (fixed) or beta*r + delta (variable)
    circles = sorted(set(radii) | {beta * r + delta for r in radii})
    return _collect_points(prob, circular_level_points, CertificateReport(
        gamma, eta, f"{variant}-dt", circles, large_eig_count=count))


def fixed_distance_test_dt(prob: MatrixProblem, gamma: float, eta: float,
                           use_dnc: bool = False, seed: int = 0) -> CertificateReport:
    """Radial fixed-distance level-set test (discrete-time backtracking).

    Candidate circles come from the real roots r > 1 of the quadratic
    problem; the circles r and r + eta are both probed.  Any verified point
    witnesses gamma >= 1/K.
    """
    return _radial_test(prob, gamma, eta, "fixed", use_dnc, seed)


def variable_distance_test_dt(prob: MatrixProblem, gamma: float, eta: float,
                              use_dnc: bool = False, seed: int = 0) -> CertificateReport:
    """Radial variable-distance test; empty certifies 1/K > gamma - eta/2."""
    return _radial_test(prob, gamma, eta, "variable", use_dnc, seed)
