"""Discrete-time 2D level-set globality certificates.

The search domain of h(r, theta) is the exterior of the unit disk.  Level
pairs are sought along rays from the origin: a fixed distance eta apart,
h(r, theta) = h(r + eta, theta) = gamma, or a variable distance
(r - 1) * eta / (1 + gamma) apart, h(r, theta) = h(beta*r + delta, theta)
= gamma with delta = -eta/(1+gamma) and beta = 1 - delta.  Either pair
condition leads to a 4n^2 quadratic eigenvalue problem in r (q0, q1, q2
are real whenever A is).  q2 has 2n^2 all-zero columns, so
``eig_quadratic``'s trimmed linearization has order 6n^2, with the 2n^2
structural infinite eigenvalues of the 8n^2 companion pencil never formed.

Both radial tests are thin entries into the one pipeline of
``cert_ct._level_set_test``: real roots by dense QZ
(``QuadPencil.spectrum``) or the opt-in sweep of ``dnc``, then
``cert_ct._candidates`` (circles r > 1 and their partners beta*r + delta),
then the 1D circular test, built on the symplectic pencil of the ray
condition, with the polish, SVD verification and point collection of
``cert_ct``.  Both eigensolvers keep the roots inside the one capture band
of ``cert_ct``, and no circle outside the domain's ``search_interval`` is
probed: none below 1 plus the problem's ``stability_gap`` over 1 + gamma,
and none beyond the end that its numerical radius bound
(``numerical_range_bound``) sets; none of them carries a point.  This
module keeps only the quadratic problem, the symplectic 1D eigenproblem
and the clustering of its unimodular eigenvalues.  The empty outcome of the
variable-distance test certifies 1/K > gamma - eta/2.

q0, q1 and q2 are affine in eta (through delta and beta), so both
``build_quad_pencil_*`` functions scatter them from one
``cert_ct.AffineLevel`` per gamma (``_quad_level``), shared by the two
variants and kept in the problem's level slot (``MatrixProblem.level``)
under the gamma actually tested, after ``_nudge_gamma``.  Its terms round
entry by entry as the direct build from ``_ray_factor_blocks`` does.  The
level is built from ``MatrixProblem.split`` as in continuous time: when A
splits into blocks of orders k_b, the quadratic problem falls apart into
one part of order 4 k_b k_b' per pair of blocks, and the one
``eig_quadratic`` call of a test linearizes and factors each at order
6 k_b k_b'.  The 1D circular test, ``_nudge_gamma`` (on the cached
``MatrixProblem.svals``) and the divide-and-conquer operator keep using A;
the 1D test fills its pencil from blocks of A that the problem keeps
(``MatrixProblem.blocks_1d``) and calls ``linalg.eig_small``.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from . import dnc, objective
from .cert_ct import (CAPTURE_FACTOR, AffineLevel, CertificateReport, SparseTerm,
                      _check_gamma_eta, _check_test, _kron_parts, _level_set_test, _pair_beta,
                      _polish)
from .errors import SingularPencilError
# QuadPencil.spectrum calls eig_quadratic by this name: bench/tracing.py wraps it here
from .linalg import eig_quadratic, eig_small
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
# gamma closer than this (times max(1, ||A||)) to a singular value of A gets nudged
GAMMA_SV_GUARD = 1e-8


@dataclass
class QuadPencil:
    """Coefficients of the 4n^2 quadratic problem (q0 + r q1 + r^2 q2) w = 0
    of the ray pairs (r, beta*r + delta).

    ``sizes`` holds the block orders of the split matrix it was built from
    (``MatrixProblem.split``), (n,) when that matrix is A itself, and
    ``parts`` the (rows, cols) of its diagonal blocks (``_kron_parts``).
    """

    q0: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    gamma: float
    eta: float
    variant: str
    delta: float
    beta: float
    sizes: tuple[int, ...]
    parts: tuple

    def spectrum(self):
        """The problem's spectrum by the trimmed 6n^2 linearization of
        ``eig_quadratic``, one part per pair of blocks when A split."""
        return eig_quadratic(self.q0, self.q1, self.q2, self.parts)


def _block_term(h, blocks):
    """The ``SparseTerm`` of order 2h holding each (row, col, X) of
    ``blocks``, X of order h, with its first entry at (row, col)."""
    index, values = [], []
    for row, col, X in blocks:
        i = np.flatnonzero(X)
        index.append((i // h + row) * (2 * h) + i % h + col)
        values.append(X.reshape(-1)[i])
    return SparseTerm((2 * h, 2 * h), np.concatenate(index), np.concatenate(values))


def _quad_level(prob, gamma):
    """The ``AffineLevel`` of both radial tests at gamma, built from
    ``MatrixProblem.split``.

    The factors D0 = [[A*, 0], [g I, delta I]] and F0 = [[delta I, g I],
    [0, A]] of ``_ray_factor_blocks``, with g = gamma (delta - 1), are a
    fixed piece plus g and delta times unit pieces.  So each of
    D0^T (x) C - F0^T (x) E, for (C, E) = (C0, E0) (q0) and (C1, E1) (q1's
    eta-free part), is F + g G + delta D, with G and D on the off-diagonal
    and diagonal blocks of order 2n^2.  At each entry one side of the
    difference is fixed and the other scaled, so the level's entries round
    as the direct build's: one product per side, one subtraction.  D1 and
    F1 are the scaled pieces at g = gamma and delta = 1, so q1 adds beta X
    with X = gamma G + D of (C0, E0), and q2 = beta W with W = gamma G + D
    of (C1, E1).
    """
    T = prob.split.T
    C0, C1, _, _, E0, E1, _, _ = _ray_factor_blocks(T, gamma, 0.0)
    n = prob.n
    h, eye = 2 * n * n, np.eye(n)

    def pieces(C, E):
        IC, IE = np.kron(eye, C), -np.kron(eye, E)
        fixed = _block_term(h, ((0, 0, np.kron(T.conj(), C)), (h, h, -np.kron(T.T, E))))
        G, D = _block_term(h, ((0, h, IC), (h, 0, IE))), _block_term(h, ((0, 0, IE), (h, h, IC)))
        scaled = SparseTerm(G.shape, np.concatenate([G.index, D.index]),
                            np.concatenate([gamma * G.values, D.values]))
        return ((None, fixed), ("g", G), ("delta", D)), scaled

    q0, X = pieces(C0, E0)
    q1, W = pieces(C1, E1)
    return AffineLevel((q0, q1 + (("beta", X),), (("beta", W),)), _kron_parts(prob.split.sizes))


# --------------------------------------------------------------------------
# 1D circular test
# --------------------------------------------------------------------------

def _circle_blocks(A):
    """(Ma, P, Q, Na, P', Q') with [[A, g I], [0, r I]] = Ma + r P + g Q and
    [[r I, 0], [g I, A*]] = Na + r P' + g Q'."""
    n = A.shape[0]

    def unit(i, j):
        """The block matrix with I at block (i, j) and zeros elsewhere."""
        U = np.zeros((2 * n, 2 * n))
        U[i * n:(i + 1) * n, j * n:(j + 1) * n] = np.eye(n)
        return U

    Ma = np.zeros((2 * n, 2 * n), dtype=complex)
    Na = np.zeros((2 * n, 2 * n), dtype=complex)
    Ma[:n, :n] = A
    Na[n:, n:] = A.conj().T
    return Ma, unit(1, 1), unit(0, 1), Na, unit(0, 0), unit(1, 0)


def _symplectic_pencil(prob, gamma, r):
    """The symplectic pencil of the 1D test with g = gamma (r - 1), from
    blocks of A that the problem keeps (``MatrixProblem.blocks_1d``)."""
    Ma, P, Q, Na, P2, Q2 = prob.blocks_1d(lambda: _circle_blocks(prob.A))
    g = gamma * (r - 1.0)
    return Ma + r * P + g * Q, Na + r * P2 + g * Q2


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
    lam = eig_small(M, N).finite_values
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

def _ray_factor_blocks(A, gamma, delta):
    """Constant/linear factors of M(r), Mt(r + delta)*, N(r), Nt(r + delta)*
    for the matrix A given (the problem's A, or its split form)."""
    n = A.shape[0]
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
    that are linear in the partner radius.  The coefficients come from the
    problem's cached level at gamma (``_quad_level``,
    ``MatrixProblem.level``), built on first use.
    """
    _check_gamma_eta(gamma, eta)
    delta, beta = _ray_pair(gamma, eta, variant)
    level = prob.level(gamma, lambda: _quad_level(prob, gamma))
    q0, q1, q2 = level.matrices(g=gamma * (delta - 1.0), delta=delta, beta=beta)
    return QuadPencil(q0, q1, q2, gamma, eta, variant, delta=delta, beta=beta,
                      sizes=prob.split.sizes, parts=level.parts)


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
    svals = prob.svals
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
    """The fixed- or variable-distance radial test: the circles r and
    beta*r + delta of every candidate ray pair (``_ray_pair``) are probed."""
    _check_test(prob, TimeDomain.DISCRETE, gamma, eta)
    gamma, nudged = _nudge_gamma(prob, gamma)
    delta, beta = _ray_pair(gamma, eta, variant)
    return _level_set_test(
        prob, CertificateReport(gamma, eta, f"{variant}-dt", gamma_nudged=nudged),
        lambda: (build_quad_pencil_fixed if variant == "fixed"
                 else build_quad_pencil_variable)(prob, gamma, eta),
        lambda: dnc.op_quad_dt(prob, gamma, eta, variant=variant),
        lambda r: beta * r + delta, circular_level_points, use_dnc, seed)


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
