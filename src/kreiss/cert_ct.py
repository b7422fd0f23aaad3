"""Continuous-time 2D level-set globality certificates.

Three tests over the right half-plane domain of g(x, y):

* fixed-distance pairs a distance eta apart at orientation theta_orient
  (vertical pairs by default), driving the backtracking iteration;
* variable-distance vertical pairs (separation x*eta), whose empty outcome
  certifies the coordinate-free lower bound 1/K > gamma - eta/2;
* a horizontal variable-distance variant (separation x*eta/(1+gamma),
  i.e. the pair (x, y), (beta*x, y)) with the same lower-bound semantics.

Each test's pencil pairs two 4n^2 vectorized Sylvester forms whose
2n x 2n blocks ``_pencil_blocks`` defines once.  Every 2D test, the radial
tests of ``cert_dt`` included, is a thin entry into one pipeline,
``_level_set_test``, supplying a pencil builder, a divide-and-conquer
operator, the pair's partner map and a 1D test:

1. real eigenvalues come from the dense pencil's ``spectrum()`` (QZ, or
   QR on m2^-1 m1 for a variable pencil with a well-conditioned m2) or
   from the opt-in sweep of ``dnc`` over the domain's
   ``search_interval``, which never builds the pencil and makes no query
   when that interval is empty; all keep the eigenvalues inside one
   capture band around the real axis (``_capture_band_rel``);
2. ``_candidates`` is the single step from eigenvalues to candidate lines
   (or circles), and the candidates outside ``search_interval`` are
   dropped: by the problem's ``stability_gap`` below it, and by its
   ``numerical_range_bound`` above it, they carry no point at level gamma;
3. ``_collect_points`` runs the 1D test on each: ``_level_points``, one
   test for both time domains, takes the eigenvalues of the domain's 1D
   eigenproblem (``objective.Domain.pencil_1d``) near its curve, merges
   split double roots, and Newton-polishes each level-set point along the
   line Re z = x or the circle |z| = r (``_polish``); ``_verify_point``
   confirms by a direct SVD that gamma is a singular value there, which
   keeps the certificate sound however the candidate eigenvalues were
   obtained.

Dense QZ runs on order 2n^2 for the fixed pencil, whose 2n^2 structural
infinite eigenvalues are deflated first, and on order 4n^2 for the
variable ones.  A variable pencil's m2 = I (x) C + D (x) I acts on each
index (a, i, b, j) of W as a 4 x 4 matrix S on (a, b) and as the identity
on (i, j), so m2^-1 is known exactly from S^-1 and cond_2(m2) = cond_2(S).
When that condition is at most MASS_COND_MAX, which holds away from small
eta, the pencil's eigenvalues are those of K = m2^-1 m1, and QR on K
(``linalg.eig_standard``) replaces QZ; this 4 x 4 inverse is the only one
the dense tests take.  Every 2D test's eigenproblem is affine in eta, and the
backtracking iteration runs many tests at one gamma, so every ``build_*``
function, in both time domains, scatters its matrices from one
``AffineLevel``: an ordered sum of eta-free terms, each scaled by one of the
test's coefficients and kept by its nonzeros, with the part layout (and,
for the fixed pencil, the column rotation QZ receives).  A problem keeps
one level (``MatrixProblem.level``): the fixed pencil's per (gamma,
theta_orient), and one per gamma that the vertical and horizontal variable
pencils share.  The level is built from
``MatrixProblem.split``, whose T is A itself when A does not split.
Otherwise T is block diagonal and its pencil falls apart into one part of
order 4 k_b k_b' per pair of blocks (``_kron_parts``), which ``linalg``
factors part by part.  For a real T, the vertical pencils (``variable-v``
and ``fixed-v``) commute with vec(W) -> vec(W^T) and are kept in the basis
of symmetric and skew-symmetric W (``TransposeHalves``), where they fall
apart again: into halves of orders n(2n+1) and n(2n-1), or n^2 + n and
n^2 - n after the fixed pencil's deflation, which ``linalg`` factors half
by half, unless the halves would regroup into one QZ call
(``_halves_for``).  The horizontal pencils and every pencil of a complex T
do not commute with the transpose and stay whole.  The 1D tests, the SVD
verification and the divide-and-conquer operators keep using A, so every
reported point is verified against the input matrix.  The 1D test fills
the Hamiltonian matrix (continuous time) or symplectic pencil (discrete
time) from blocks of A that the problem keeps
(``MatrixProblem.blocks_1d``) and takes its eigenvalues from
``linalg.eig_small``, in real arithmetic for a real A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse

from . import dnc, linalg, objective
from .errors import SingularDError, SingularPencilError
from .matio import MatrixProblem, TimeDomain

__all__ = [
    "CertificateReport",
    "KroneckerPencil",
    "KronSumInverse",
    "vertical_level_points",
    "build_fixed_pencil",
    "fixed_distance_test",
    "build_variable_pencil",
    "variable_distance_test",
    "horizontal_variable_test",
    "kron_sum_inverse",
]

# eigenvalue lambda of the big pencil counts as real when
# |Im lambda| <= REAL_AXIS_RTOL * max(1, |Re lambda|)
REAL_AXIS_RTOL = 1e-8
# candidates within CAPTURE_FACTOR times the strict band are still forwarded
# to the (cheap, sound) 1D verification stage: defective double roots split
# by ~sqrt(eps) under QR/QZ and would otherwise be lost
CAPTURE_FACTOR = 100.0
# candidate lines closer than this are merged
LINE_DEDUP_ATOL = 1e-12
# verification: some singular value must match gamma to this times ||A||
VERIFY_RTOL = 1e-8
# a variable pencil goes to QR on m2^-1 m1 when cond_2(m2) is at most this
# (``KroneckerPencil.spectrum``): a backward error of about 2e-13 relative
MASS_COND_MAX = 1e3


def _capture_band_rel(strict_rel, eta, kappa=1.0):
    """Relative half-width of the candidate capture band around the real axis.

    Pair-tangent configurations make the pencil's real root a double root,
    which a backward error of kappa * eps splits into a conjugate pair with
    imaginary parts on the order of sqrt(kappa * eps / eta); the band grows
    accordingly as eta shrinks.  kappa is 1 for QZ and for the
    divide-and-conquer sweep, and the mass matrix's condition
    (``linalg.Spectrum.mass_cond``) for QR on m2^-1 m1.  Captured
    candidates only feed the verified 1D stage, so a generous band costs
    time, never correctness.
    """
    eps = np.finfo(float).eps
    split = 10.0 * np.sqrt(kappa * eps / max(eta, eps))
    return min(max(CAPTURE_FACTOR * strict_rel, split), 0.05)


@dataclass
class KroneckerPencil:
    """The 4n^2 x 4n^2 pencil m1 - lambda*m2 of a 2D level-set test, as its
    eigensolver receives it (``spectrum``).

    ``M`` and ``N`` are m1 and m2 times the unitary Z of ``_rotate_columns``
    when ``rotation`` (``_null_rotation``'s V) is set, which it is for the
    fixed pencil only; the 2n^2 columns of N that vanish mathematically are
    then exactly zero.  When ``halves`` is set (a real split matrix's
    vertical pencils, ``TransposeHalves``), they are then taken into the
    basis of symmetric and skew-symmetric W, where they are block diagonal.
    ``m1`` and ``m2`` give the pencil itself, both basis changes undone.
    ``parts`` are the (rows, cols) of the diagonal blocks of M and N
    (``_kron_parts``, or the halves' parts), one when A does not split and
    the pencil is not halved; ``sizes`` holds the block orders of the split
    matrix it was built from (``MatrixProblem.split``), (n,) when that
    matrix is A itself.
    """

    M: np.ndarray
    N: np.ndarray
    gamma: float
    eta: float
    variant: str
    sizes: tuple[int, ...]
    parts: tuple
    rotation: Optional[np.ndarray] = None
    theta_orient: Optional[float] = None
    beta: Optional[float] = None
    halves: Optional[TransposeHalves] = None

    @property
    def m1(self) -> np.ndarray:
        return self._plain(self.M)

    @property
    def m2(self) -> np.ndarray:
        return self._plain(self.N)

    def _plain(self, X):
        if self.halves is not None:
            X = self.halves.undo(X)
        if self.rotation is None:
            return X
        return _rotate_columns(X, self.rotation, math.isqrt(X.shape[0] // 4), inverse=True)

    @property
    def mass_core(self) -> Optional[np.ndarray]:
        """The 4 x 4 core S = I_2 (x) c + d (x) I_2 of a variable pencil's
        m2 = P (S (x) I_{n^2}) P^T (``_mass_solve``), None for the fixed
        pencil, whose m2 is singular.

        m2 does not depend on A, and S is m2 itself at n = 1: c is
        [[1, -gamma], [gamma, -1]], and d = c - i eta I_2 (vertical) or
        beta c (horizontal).
        """
        if self.variant == "fixed":
            return None
        return _kron_pencil(*_pencil_blocks(np.zeros((1, 1)), self.gamma, self.eta,
                                            self.variant))[1]

    def spectrum(self) -> linalg.Spectrum:
        """The pencil's spectrum; its ``order`` is what the eigensolver factored.

        A variable pencil whose cond_2(m2) = cond_2(S) (``mass_core``) is at
        most MASS_COND_MAX goes to QR on K = m2^-1 m1 (``_mass_solve``,
        ``linalg.eig_standard``), taken into the halves when the pencil is
        halved: K commutes with the transpose when m1 and m2 do.  Every
        other pencil goes to QZ (``linalg.eig_pencil_deflated``), which
        first deflates the 2n^2 infinite eigenvalues of the fixed pencil's
        zero columns of N.  Each part is factored on its own: the two halves
        of a halved pencil at orders n(2n+1) and n(2n-1), or n^2 + n and
        n^2 - n after deflation, for the same total.
        """
        S = self.mass_core
        kappa = None if S is None else float(np.linalg.cond(S))
        if kappa is None or not kappa <= MASS_COND_MAX:
            return linalg.eig_pencil_deflated(self.M, self.N, self.parts)
        K = _mass_solve(S, self.m1)
        if self.halves is not None:
            K = self.halves.apply(K)
        return linalg.eig_standard(K, kappa, self.parts)


@dataclass
class CertificateReport:
    """Outcome of a 2D level-set test.

    ``points`` holds only verified level-set points: at each, gamma is a
    singular value of G (resp. H) to VERIFY_RTOL * ||A||, so the point lies
    on the gamma level set of the objective or below it.  An empty report
    from a variable-distance test certifies 1/K > gamma - eta/2.
    ``large_eig_count`` is the order of the large eigenproblem actually
    factored: 2n^2 for the continuous-time fixed pencil and 4n^2 for the
    variable/horizontal ones (dense QZ or QR), 6n^2 in discrete time (the
    trimmed linearization of ``linalg.eig_quadratic``), and the operator's
    dimension under divide-and-conquer.  A split or halved pencil counts
    the sum of the orders factored, which is the same total.
    ``eig_orders`` lists those orders, one per dense eigensolver call: one
    entry for an unsplit pencil, one per group of parts for a split one,
    two for the halves of a real A's vertical pencil (n(2n+1) and n(2n-1)
    for ``variable-v``, n^2 + n and n^2 - n for ``fixed-v``), none under
    divide-and-conquer.  ``eig_route`` names the dense eigensolver: "qz",
    or "qr" on m2^-1 m1 (``KroneckerPencil.spectrum``), whose ``mass_cond``
    is cond_2(m2); None under divide-and-conquer, and ``mass_cond`` None
    unless QR ran.
    ``gamma_nudged`` says whether the discrete-time tests moved gamma off a
    singular value of A (``cert_dt._nudge_gamma``); ``gamma`` is then the
    level actually tested.  ``search_lo`` and ``search_hi`` are the ends of
    the domain's ``search_interval`` that the test used: every candidate
    lies between them, and when search_hi <= search_lo the report is empty
    by that proof alone.
    """

    gamma: float
    eta: float
    variant: str
    candidate_lines: list[float] = field(default_factory=list)
    points: list[objective.EvalPoint] = field(default_factory=list)
    large_eig_count: int = 0
    theta_orient: Optional[float] = None
    rejected_points: int = 0
    eig_orders: list[int] = field(default_factory=list)
    gamma_nudged: bool = False
    search_lo: Optional[float] = None
    search_hi: Optional[float] = None
    eig_route: Optional[str] = None
    mass_cond: Optional[float] = None

    @property
    def empty(self) -> bool:
        return len(self.points) == 0


def vertical_level_points(prob: MatrixProblem, gamma: float, x: float) -> list[float]:
    """All y, in increasing order, with gamma a singular value of G(x, y),
    i.e. with i*y an eigenvalue of the Hamiltonian matrix
    [[A - xI, gamma*x*I], [-gamma*x*I, xI - A*]] (``_level_points``)."""
    objective.check_domain(prob, TimeDomain.CONTINUOUS, "vertical_level_points")
    return _level_points(prob, gamma, x)


def _level_points(prob, gamma, c1):
    """The 1D test of both time domains: every c2, in increasing order, with
    gamma a singular value of the objective's matrix at (c1, c2).

    The domain's ``pencil_1d`` has an eigenvalue on its normalized curve
    (the imaginary axis, the unit circle) at each such c2; ``on_curve`` keeps
    the ones within CAPTURE_FACTOR times the strict band, as points w on it.
    Rounding splits a double root into a symmetric pair, so each chain
    closer than 1e-6 * max(1, max |Im w|) in c2 order is merged into its
    mean (``mean_coordinate``); the first and last chain may join across the
    circle's seam.  Each c2 is polished (``_polish``), wrapped and sorted.
    """
    dom = objective.domain(prob)
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if c1 == dom.barrier or c1 == 0.0:
        raise ValueError(f"the 1D test needs c1 off 0 and off the barrier; got {c1}")
    lam = linalg.eig_small(*dom.pencil_1d(prob, gamma, c1)).finite_values
    if lam.size == 0:
        raise SingularPencilError("the 1D pencil has no finite eigenvalues")
    w = dom.on_curve(prob, lam, CAPTURE_FACTOR)
    if w.size == 0:
        return []
    w = w[np.argsort(dom.coordinate(w))]
    atol = 1e-6 * max(1.0, float(np.max(np.abs(w.imag))))
    chains = [[w[0]]]
    for v in w[1:]:
        if abs(v - chains[-1][-1]) <= atol:
            chains[-1].append(v)
        else:
            chains.append([v])
    if len(chains) > 1 and abs(chains[0][0] - chains[-1][-1]) <= atol:
        chains[0].extend(chains.pop())
    return sorted(float(dom.wrap(_polish(prob, gamma, c1, dom.mean_coordinate(chain))))
                  for chain in chains)


def _polish(prob, gamma, c1, t, steps=25):
    """Newton-polish t so that the singular value nearest gamma hits gamma.

    The 1D test runs along the domain's curve z(t) = point(c1, t) at fixed
    first coordinate c1: the vertical line z = c1 + i t (continuous time)
    or the circle z = c1 e^{it} (discrete time), with d = scale(c1).  The
    singular values are those of (z(t) I - A)/d, whose t-derivative is
    (z'(t)/d) I.  A step longer than ``polish_cap(t)`` (0.5 * max(1, |t|)
    on a line, 0.5 on a circle) ends the polish.
    """
    dom = objective.domain(prob)
    d = dom.scale(c1)
    for _ in range(steps):
        U, s, Vh = np.linalg.svd(dom.matrix(prob.A, c1, t))
        j = int(np.argmin(np.abs(s - gamma)))
        err = s[j] - gamma
        if abs(err) <= 1e-15 * max(1.0, gamma):
            break
        ds = float(np.real(U[:, j].conj() @ ((dom.dpoint(c1, t) / d) * Vh[j, :].conj())))
        if abs(ds) < 1e-14:
            break
        step = -err / ds
        if abs(step) > dom.polish_cap(t):
            break
        t = t + step
    return t


def _verify_point(prob, gamma, c1, c2):
    """The objective at (c1, c2) if gamma is directly one of its singular values, else None."""
    pt = objective.evaluate(prob, c1, c2)
    if pt.feasible and np.min(np.abs(pt._S - gamma)) <= VERIFY_RTOL * prob.norm2:
        return pt
    return None


def _collect_points(prob, level_points, report):
    """Fill ``report`` with the verified 1D level-set points of its candidates.

    ``level_points(prob, gamma, c1)`` is the 1D test on the line or circle
    at first coordinate c1 (``vertical_level_points`` or
    ``cert_dt.circular_level_points``); points failing verification are
    counted in ``report.rejected_points``.
    """
    for c1 in report.candidate_lines:
        for c2 in level_points(prob, report.gamma, c1):
            pt = _verify_point(prob, report.gamma, c1, c2)
            if pt is None:
                report.rejected_points += 1
            else:
                report.points.append(pt)
    return report


# --------------------------------------------------------------------------
# pencil assembly
# --------------------------------------------------------------------------

def _gamma_block(n, gamma):
    eye = np.eye(n)
    return np.block([[eye, -gamma * eye], [gamma * eye, -eye]])


def _pair_beta(gamma, eta):
    """Stretch beta = 1 + eta/(1+gamma) of the horizontal pairs (x, y), (beta*x, y)
    and of the discrete-time variable-distance pairs (``cert_dt._ray_pair``)."""
    return 1.0 + eta / (1.0 + gamma)


def _sylvester_blocks(A, gamma):
    """The eta-free blocks S1 = [[A, 0], [0, -A*]], S2 = [[A*, 0], [0, -A]]
    and C = [[I, -gamma I], [gamma I, -I]] of every pencil (``_pencil_blocks``)."""
    n = A.shape[0]
    Ah = A.conj().T
    Z = np.zeros((n, n))
    return (np.block([[A, Z], [Z, -Ah]]), np.block([[Ah, Z], [Z, -A]]),
            _gamma_block(n, gamma))


def _fixed_offset(gamma, theta_orient):
    """d S2 / d eta of the fixed pencil: [[-e^{-i theta}, -gamma cos theta],
    [gamma cos theta, e^{i theta}]], a 2 x 2 matrix to take (x) I_n."""
    ct = np.cos(theta_orient)
    return np.array([[-np.exp(-1j * theta_orient), -gamma * ct],
                     [gamma * ct, np.exp(1j * theta_orient)]])


def _pencil_blocks(A, gamma, eta, variant, theta_orient=None):
    """The 2n x 2n blocks (S1, S2, C, D) that define a certificate pencil.

    Every continuous-time pencil is m1 = I (x) S1 + S2^T (x) I and
    m2 = I (x) C + D (x) I, the vectorized Sylvester forms
    W -> S1 W + W S2 and W -> C W + W D^T, with S1 and C from
    ``_sylvester_blocks``.  ``variant`` picks S2 and D:

    * "fixed": S2 = [[A*, 0], [0, -A]] + eta * (``_fixed_offset`` (x) I),
      the pair offset eta at angle theta_orient (the only variant that
      takes it), D = C;
    * "variable-vertical": S2 = [[A*, 0], [0, -A]], D = C - i eta I;
    * "variable-horizontal": the same S2, D = beta C (``_pair_beta``).

    The divide-and-conquer operators take their blocks from here, for the
    problem's A; the dense pencils are built from ``AffineLevel``.
    """
    _check_gamma_eta(gamma, eta, theta_orient)
    S1, S2, C = _sylvester_blocks(A, gamma)
    n = A.shape[0]
    if variant == "fixed":
        return S1, S2 + eta * np.kron(_fixed_offset(gamma, theta_orient), np.eye(n)), C, C
    if variant == "variable-vertical":
        return S1, S2, C, C - 1j * eta * np.eye(2 * n)
    return S1, S2, C, _pair_beta(gamma, eta) * C


@dataclass(frozen=True)
class SparseTerm:
    """A matrix of shape ``shape`` stored as its nonzeros: values at flat
    (row-major) indices."""

    shape: tuple[int, int]
    index: np.ndarray
    values: np.ndarray

    @classmethod
    def of(cls, X):
        X = np.ascontiguousarray(X)
        index = np.flatnonzero(X)
        return cls(X.shape, index, X.reshape(-1)[index])


@dataclass(frozen=True)
class AffineLevel:
    """Everything of a 2D test's eigenproblem at one level that eta leaves alone.

    Each matrix of the eigenproblem (m1 and m2 of a pencil, q0, q1 and q2
    of a quadratic problem) is affine in the test's coefficients, and
    ``terms`` holds it, one tuple per matrix, as an ordered sum of
    (coefficient name, SparseTerm), the name None standing for 1.
    ``matrices`` scatters the terms in that order into new dense arrays,
    so each entry rounds as the same sum of dense matrices does.  Terms are
    kept by their nonzeros, so a level costs a fraction of one dense
    eigenproblem and a problem can keep one (``MatrixProblem.level``).
    ``parts`` is the part layout of every eigenproblem of the level
    (``_kron_parts``, or the halves' parts), ``rotation`` the fixed
    pencil's ``_null_rotation``, None for the others, and ``halves`` the
    ``TransposeHalves`` the terms are kept in, None when they are not.
    """

    terms: tuple
    parts: tuple
    rotation: Optional[np.ndarray] = None
    halves: Optional[TransposeHalves] = None

    def matrices(self, **coefficients):
        """The matrices at ``coefficients`` (a value for every name), as new dense arrays."""
        out = []
        for terms in self.terms:
            scaled = [(t.index, t.values if name is None else coefficients[name] * t.values)
                      for name, t in terms]
            X = np.zeros(terms[0][1].shape, dtype=np.result_type(*(v for _, v in scaled)))
            flat = X.reshape(-1)
            flat[scaled[0][0]] = scaled[0][1]
            for index, values in scaled[1:]:
                flat[index] += values
            out.append(X)
        return out


def _kron_pencil(S1, S2, C, D):
    """The dense pencil (m1, m2) = (I (x) S1 + S2^T (x) I, I (x) C + D (x) I)."""
    eye = np.eye(S1.shape[0])
    return np.kron(eye, S1) + np.kron(S2.T, eye), np.kron(eye, C) + np.kron(D, eye)


def _kron_level(prob, gamma, theta_orient=None):
    """The ``AffineLevel`` of each pencil at gamma, by variant: the fixed
    pencil at theta_orient, or both variable pencils when theta_orient is
    None, built from ``MatrixProblem.split``, whose T is A itself when A
    does not split.

    The fixed level keeps m1 and its eta part in the rotated columns of
    ``_rotate_columns``, and m2 there with its 2n^2 zero columns exact.  The
    variable level keeps m2 = I (x) C + D (x) I as the terms I (x) C,
    beta C (x) I and shift I, for D = beta C + shift I: the vertical pencil
    takes beta = 1 and shift = -i eta, the horizontal one beta and shift = 0.
    For a real T, the vertical pencils (theta_orient = pi/2, or the
    variable one) commute with vec(W) -> vec(W^T), and their levels are
    kept in its halves (``_halves_for``): the variable-vertical level as m1
    and I (x) C + C (x) I, with shift I, which the halves leave as it is;
    the fixed one with the eta part i I, since S2 = S1^T + i eta I there,
    and a swap-adapted ``_null_rotation``.  The horizontal variable level
    and every other fixed one stay in the plain basis.
    """
    split = prob.split
    S1, S2, C = _sylvester_blocks(split.T, gamma)
    eye = np.eye(S1.shape[0])
    m1 = np.kron(eye, S1) + np.kron(S2.T, eye)
    IC, CI = np.kron(eye, C), np.kron(C, eye)
    vertical = theta_orient is None or theta_orient == np.pi / 2
    halves = _halves_for(split, rotated=theta_orient is not None) if vertical else None
    if theta_orient is None:
        shift = ("shift", SparseTerm.of(np.eye(m1.shape[0])))
        plain = AffineLevel((((None, SparseTerm.of(m1)),),
                             ((None, SparseTerm.of(IC)), ("beta", SparseTerm.of(CI)), shift)),
                            _kron_parts(split.sizes))
        if halves is None:
            return {"variable-vertical": plain, "variable-horizontal": plain}
        halved = AffineLevel((((None, SparseTerm.of(halves.apply(m1))),),
                              ((None, SparseTerm.of(halves.apply(IC + CI))), shift)),
                             halves.parts, halves=halves)
        return {"variable-vertical": halved, "variable-horizontal": plain}
    n = prob.n
    V = _null_rotation(gamma, swap_adapted=halves is not None)
    N = _rotate_columns(IC + CI, V, n)
    N[:, :2 * n * n] = 0.0
    if halves is None:
        offset = np.kron(np.kron(_fixed_offset(gamma, theta_orient), np.eye(n)).T, eye)
        basis, parts = (lambda X: X), _kron_parts(split.sizes, rotated=True)
    else:
        offset, basis, parts = 1j * np.eye(m1.shape[0]), halves.apply, halves.parts
    M = ((None, SparseTerm.of(basis(_rotate_columns(m1, V, n)))),
         ("eta", SparseTerm.of(basis(_rotate_columns(offset, V, n)))))
    return {"fixed": AffineLevel((M, ((None, SparseTerm.of(basis(N))),)), parts, V, halves)}


def _kron_parts(sizes, rotated=False):
    """(rows, cols) of each diagonal block of a pencil on vec(W), W of order 2n.

    With A block diagonal (blocks of orders ``sizes``), every 2n x 2n block
    of a certificate pencil couples an index (a, i) of W only with indices
    (a', i') whose i' lies in the block of i, on either side.  So
    the pencil's vec index (a, i, b, j) = (a n + i) + 2n (b n + j) meets
    only indices with the same pair of blocks (block of i, block of j):
    one part of order 4 k_b k_b' per pair.  With ``rotated`` the columns are
    those of ``_rotate_columns``, where column (c, j, i) = c n^2 + j n + i
    mixes the four (a, b) of one (i, j).  Every level computes its layout
    once.
    """
    n = sum(sizes)
    vec = np.arange(4 * n * n).reshape(n, 2, n, 2, order="F")  # [i, a, j, b]
    rot = np.arange(4 * n * n).reshape(4, n, n)  # [c, j, i]
    ends = np.cumsum(sizes)
    blocks = [np.arange(e - k, e) for k, e in zip(sizes, ends)]
    parts = []
    for bj in blocks:
        for bi in blocks:
            rows = vec[bi][:, :, bj].ravel()
            cols = rot[:, bj][:, :, bi].ravel() if rotated else rows
            parts.append((rows, cols))
    return tuple(parts)


def _kron_pencil_at(prob, variant, gamma, eta, coefficients, theta_orient=None, beta=None):
    """The pencil of ``variant`` at (gamma, eta) and its level's
    ``coefficients``, from the problem's cached level (``MatrixProblem.level``),
    built on first use under the key (gamma, theta_orient)."""
    _check_gamma_eta(gamma, eta, theta_orient)
    levels = prob.level((gamma, theta_orient), lambda: _kron_level(prob, gamma, theta_orient))
    level = levels[variant]
    M, N = level.matrices(**coefficients)
    return KroneckerPencil(M, N, gamma, eta, variant, prob.split.sizes, level.parts,
                           level.rotation, theta_orient=theta_orient, beta=beta,
                           halves=level.halves)


def build_fixed_pencil(prob: MatrixProblem, gamma: float, eta: float,
                       theta_orient: float = np.pi / 2) -> KroneckerPencil:
    """Assemble the fixed-distance pencil for pairs eta apart at a given angle.

    Real positive eigenvalues x of m1 w = x m2 w locate vertical lines that
    may carry level-set points of the pair condition
    g(x, y) = g(x + eta*cos(theta), y + eta*sin(theta)) = gamma.
    """
    return _kron_pencil_at(prob, "fixed", gamma, eta, {"eta": eta}, theta_orient=theta_orient)


def build_variable_pencil(prob: MatrixProblem, gamma: float, eta: float) -> KroneckerPencil:
    """Pencil for vertically oriented pairs a variable distance x*eta apart."""
    return _kron_pencil_at(prob, "variable-vertical", gamma, eta,
                           {"beta": 1.0, "shift": -1j * eta})


def build_horizontal_pencil(prob: MatrixProblem, gamma: float, eta: float) -> KroneckerPencil:
    """Pencil for horizontal pairs (x, y), (beta*x, y), beta = 1 + eta/(1+gamma)."""
    beta = _pair_beta(gamma, eta)
    return _kron_pencil_at(prob, "variable-horizontal", gamma, eta,
                           {"beta": beta, "shift": 0.0}, beta=beta)


def _check_gamma_eta(gamma, eta, theta_orient=None):
    """Validate a test's level gamma in (0, 1) and distance eta > 0, and for
    fixed-distance pairs in continuous time the orientation theta_orient."""
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma must be in (0, 1); got {gamma}")
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    if theta_orient is not None and not (-np.pi / 2 < theta_orient <= np.pi / 2):
        raise ValueError("theta_orient must lie in (-pi/2, pi/2]")


def _null_rotation(gamma, swap_adapted=False):
    """4 x 4 unitary V whose first two columns span the null space of S.

    S = I_2 (x) c + c (x) I_2 with c = [[1, -gamma], [gamma, -1]]; its
    eigenvalues are 0, 0 and +-2 sqrt(1 - gamma^2).  S acts on the pair
    (a, b) of an index (a, i, b, j) of W, row p = 2b + a of V, and commutes
    with the swap a <-> b.  ``swap_adapted`` gives the real orthogonal V
    whose columns are eigenvectors of the swap, with parities (+, -, +, +):
    the symmetric null vector [gamma, 1, 1, gamma], the antisymmetric one
    [0, -1, 1, 0], and two symmetric vectors of the range, [1, 0, 0, -1]
    and [1, -gamma, -gamma, 1], each normalized.
    Otherwise V comes from the SVD of S, as every pencil that is not halved
    has it.
    """
    if swap_adapted:
        r, h = 1.0 / np.sqrt(2.0 + 2.0 * gamma * gamma), np.sqrt(0.5)
        return np.array([[gamma * r, 0.0, h, r],
                         [r, -h, 0.0, -gamma * r],
                         [r, h, 0.0, -gamma * r],
                         [gamma * r, 0.0, -h, r]])
    c = _gamma_block(1, gamma)
    _, _, Vh = np.linalg.svd(np.kron(np.eye(2), c) + np.kron(c, np.eye(2)))
    V = Vh.conj().T
    return np.hstack([V[:, 2:], V[:, :2]])


def _mass_solve(S, X):
    """m2^-1 X for a variable pencil's m2 = P (S (x) I_{n^2}) P^T.

    P is ``_rotate_columns``' permutation, which gathers the pair (a, b) of
    a row (a, i, b, j) into p = 2b + a beside k = j n + i.  So m2^-1 =
    P (S^-1 (x) I) P^T exactly, and row (p, k) of the result is the sum over
    q of S^-1[p, q] times row (q, k) of X.
    """
    m = X.shape[0]
    n = math.isqrt(m // 4)
    Xr = X.reshape(2, n, 2, n, -1).transpose(0, 2, 1, 3, 4).reshape(4, -1)
    Y = np.linalg.inv(S) @ Xr
    return Y.reshape(2, 2, n, n, -1).transpose(0, 2, 1, 3, 4).reshape(X.shape)


def _rotate_columns(M, V, n, inverse=False):
    """M Z for the unitary Z = P^T (V (x) I_{n^2}) of the fixed pencil, or M Z*.

    The fixed pencil's m2 = I_{2n} (x) C + C (x) I_{2n}, with C = c (x) I_n,
    acts on an index (a, i, b, j) as S on (a, b) and as the identity on
    (i, j); P is the permutation that gathers (a, b).  Column (c, k) of Z
    has the 4 nonzeros V[:, c] at the positions (a, i, b, j) with
    (i, j) = k, so with ``_null_rotation`` the first 2n^2 columns of m2 Z
    vanish.  With ``inverse``, M is in the rotated columns and M Z* is
    returned.
    """
    m = M.shape[0]
    if inverse:
        Mr = np.einsum("mck,pc->mpk", M.reshape(m, 4, n * n), V.conj())
        return Mr.reshape(m, 2, 2, n, n).transpose(0, 1, 3, 2, 4).reshape(m, 4 * n * n)
    Mr = M.reshape(m, 2, n, 2, n).transpose(0, 1, 3, 2, 4).reshape(m, 4, n * n)
    return np.einsum("mpk,pc->mck", Mr, V).reshape(m, 4 * n * n)


@dataclass(frozen=True)
class TransposeHalves:
    """The basis in which a pencil that commutes with vec(W) -> vec(W^T) is
    block diagonal: its symmetric and its skew-symmetric half.

    For a real T, S2 = S1^T, so m1 = I (x) S1 + S1 (x) I commutes with
    the transpose P of vec(W), and so do m2 = I (x) C + C (x) I and the
    vertical pencils' eta parts -i eta I (``variable-v``) and i eta I
    (``fixed-v``).  ``rows`` and ``cols`` each hold (index, partner, sign):
    basis vector t is e_index + sign e_partner, partner = P(index) (sign 0
    where P fixes index).  The columns are those vectors of the space the
    pencil acts on: e_kl + e_lk, and e_kk, for the symmetric half, and
    e_kl - e_lk for the skew half.  The fixed pencil's rotated columns
    (c, j, i) map under P to (c, i, j) times the parity of column c of the
    swap-adapted ``_null_rotation``, and its columns follow that signed map.  The rows are rows k of the pencil with
    k <= P(k) (symmetric half) or k < P(k) (skew half): the pencil maps
    each half of the columns to W of the same symmetry, which those entries
    determine.  Each half is sorted by the pair of blocks of T
    (``_kron_parts``) its index lies in, and ``parts`` holds the (rows,
    cols) of each (half, pair), symmetric half first.  Nothing is inverted:
    ``apply`` adds two columns and picks rows, ``undo`` adds and halves.
    """

    rows: tuple
    cols: tuple
    parts: tuple

    def apply(self, X):
        """The diagonal blocks of the plain pencil matrix X in this basis;
        the rest, zero in exact arithmetic, is set to zero."""
        index, _, _ = self.rows
        cols, partner, sign = self.cols
        H = np.zeros(X.shape, dtype=X.dtype)
        for r, c in self.parts:
            Xr = X[index[r]]
            H[np.ix_(r, c)] = Xr[:, cols[c]] + sign[c] * Xr[:, partner[c]]
        return H

    def undo(self, H):
        """The plain matrix X whose ``apply`` is the block-diagonal H.

        With B_rows and B_cols the matrices whose columns are the basis
        vectors, X = B_rows H D^-1 B_cols^T, where D = B_cols^T B_cols is
        diagonal (2, or 1 where P fixes the index); a row t of the symmetric
        half holds an entry (k, l) of a symmetric W, whose (l, k) is the
        same, and one of the skew half the entry whose (l, k) is its
        negative.
        """
        B_cols = _basis_matrix(*self.cols)
        D_inv = 1.0 / (1.0 + self.cols[2] ** 2)
        return _basis_matrix(*self.rows) @ (B_cols @ (D_inv[:, None] * H.T)).T


def _basis_matrix(index, partner, sign):
    """The sparse matrix whose column t is e_index[t] + sign[t] e_partner[t]."""
    t = np.arange(len(index))
    return scipy.sparse.csr_matrix((np.r_[np.ones(len(t)), sign],
                                    (np.r_[index, partner], np.r_[t, t])), shape=(len(t), len(t)))


def _signed_halves(sigma, parity, pair):
    """(index, partner, sign) of the basis of the signed involution
    e_k -> parity[k] e_sigma(k), and each vector's (half, pair) key.

    The symmetric half has e_k + parity[k] e_sigma(k) for k < sigma(k) and
    e_k where sigma fixes k with parity +1; the skew half has
    e_k - parity[k] e_sigma(k) and the fixed e_k with parity -1.  Each half
    is sorted by ``pair``, stably, and the symmetric half comes first.
    """
    k = np.arange(len(sigma))
    below, fixed = k < sigma, k == sigma
    halves = []
    for h, s in enumerate((1.0, -1.0)):
        index = k[below | (fixed & (parity == s))]
        index = index[np.argsort(pair[index], kind="stable")]
        sign = np.where(fixed[index], 0.0, s * parity[index])
        halves.append((index, sign, h * (pair.max() + 1) + pair[index]))
    index, sign, key = (np.concatenate(x) for x in zip(*halves))
    return (index, sigma[index], sign), key


def _transpose_halves(sizes, rotated=False):
    """The ``TransposeHalves`` of a pencil on vec(W), W of order 2n, built
    from a T with diagonal blocks of orders ``sizes``; ``rotated`` for the
    fixed pencil's columns (``_rotate_columns``, swap-adapted V)."""
    n = sum(sizes)
    m = 4 * n * n
    block = np.repeat(np.arange(len(sizes)), sizes)

    def pair(u, v):
        lo, hi = np.minimum(block[u], block[v]), np.maximum(block[u], block[v])
        return lo * len(sizes) + hi

    k = np.arange(m)
    # row k = r + 2n s is entry (r, s) of W, r = a n + i; P(k) is entry (s, r)
    r, s = k % (2 * n), k // (2 * n)
    rows, row_key = _signed_halves(s + 2 * n * r, np.ones(m), pair(r % n, s % n))
    if rotated:
        c, j, i = k // (n * n), (k // n) % n, k % n
        parity = np.array([1.0, -1.0, 1.0, 1.0])  # of the swap-adapted V's columns
        cols, col_key = _signed_halves(c * n * n + i * n + j, parity[c], pair(i, j))
    else:
        cols, col_key = rows, row_key
    parts = tuple((np.flatnonzero(row_key == q), np.flatnonzero(col_key == q))
                  for q in np.unique(row_key))
    return TransposeHalves(rows, cols, parts)


def _qz_work(parts):
    """The sum of the cubed orders of the QZ calls ``linalg`` makes on ``parts``."""
    return sum(len(rows) ** 3 for rows, _ in linalg._groups(parts))


def _halves_for(split, rotated=False):
    """The ``TransposeHalves`` of the vertical pencils of ``split``, or None.

    None when T is complex (its pencils do not commute with the transpose)
    or when the halves would not cut QZ's work (``_qz_work``) below the
    plain parts': at n <= 3 the two halves regroup into one QZ call under
    ``linalg.MIN_GROUP_ORDER``, which then runs on the untransformed pencil.
    """
    if split.T.imag.any():
        return None
    halves = _transpose_halves(split.sizes, rotated)
    if _qz_work(halves.parts) >= _qz_work(_kron_parts(split.sizes)):
        return None
    return halves


# --------------------------------------------------------------------------
# real-eigenvalue extraction and the tests themselves
# --------------------------------------------------------------------------

def _near_real(spec, eta):
    """Real parts of the finite eigenvalues inside the capture band of the
    real axis, widened by the mass matrix's condition on the QR route."""
    lam = spec.finite_values
    rel = _capture_band_rel(REAL_AXIS_RTOL, eta, spec.mass_cond or 1.0)
    return lam[np.abs(lam.imag) <= rel * np.maximum(1.0, np.abs(lam.real))].real


def _candidates(xs, barrier, partner):
    """The one map from real eigenvalues xs to the candidates of a 2D test.

    Values at or below ``barrier + LINE_DEDUP_ATOL`` have no line (or
    circle) and are dropped; the rest are merged at LINE_DEDUP_ATOL keeping
    the first of each run (``dnc._dedupe``).  A double real eigenvalue
    (pair tangency) splits under rounding into two candidates that can each
    miss the level set, so the midpoint of every pair closer than
    0.02 * max(1, |x|) is added.  ``partner(x)``, unless None, adds the
    line of the pair's second point, and a last merge keeps every gap above
    LINE_DEDUP_ATOL.  Extra candidates cost 1D tests, never soundness.
    """
    xs = np.asarray(xs, dtype=float)
    lines = dnc._dedupe(list(xs[xs > barrier + LINE_DEDUP_ATOL]), LINE_DEDUP_ATOL)
    lines += [0.5 * (a + b) for a, b in zip(lines, lines[1:])
              if b - a <= 0.02 * max(1.0, abs(a))]
    if partner is not None:
        lines += [partner(x) for x in lines]
    return dnc._dedupe(lines, LINE_DEDUP_ATOL)


def _level_set_test(prob, report, build, operator, partner, level_points, use_dnc, seed):
    """Fill ``report`` by the pipeline of every 2D test (module docstring).

    The real eigenvalues come from ``build()``'s dense pencil or, under
    ``use_dnc``, from the sweep at level gamma on ``operator()``, seeded by
    ``seed``, with no dense pencil built; both keep the eigenvalues inside
    the capture band ``_capture_band_rel``.  The sweep runs on the domain's
    ``search_interval`` [lo, hi], and every candidate outside it is
    dropped, which only removes lines (or circles) that provably carry no
    point; ``search_lo`` and ``search_hi`` record lo and hi.  When hi <= lo
    no line carries a point: the dense pencil is still factored, but under
    ``use_dnc`` no operator is built, no query is made, and the report is
    empty with ``large_eig_count`` 0.  Otherwise ``large_eig_count`` is the
    order QZ factored or the operator's dimension.  A ``MaxShiftsError``
    from the sweep propagates to the caller.  ``eig_orders`` lists the
    orders the dense eigensolver factored (``Spectrum.orders``), and
    ``eig_route`` and ``mass_cond`` say which one it was.
    """
    dom = objective.domain(prob)
    lo, hi = dom.search_interval(prob, report.gamma)
    report.search_lo, report.search_hi = lo, hi
    if use_dnc:
        if hi <= lo:
            return report
        op = operator()
        xs = dnc.real_eigs_in_interval(op, lo, hi, seed=seed,
                                       real_rtol=_capture_band_rel(REAL_AXIS_RTOL, report.eta))
        report.large_eig_count = op.dim
    else:
        spec = build().spectrum()
        xs = _near_real(spec, report.eta)
        report.large_eig_count = spec.order
        report.eig_orders = list(spec.orders)
        report.eig_route, report.mass_cond = spec.route, spec.mass_cond
    report.candidate_lines = [c for c in _candidates(xs, dom.barrier, partner) if lo <= c <= hi]
    return _collect_points(prob, level_points, report)


def _check_test(prob, time_domain, gamma, eta, theta_orient=None):
    objective.check_domain(prob, time_domain, f"{time_domain.value}-time certificate")
    _check_gamma_eta(gamma, eta, theta_orient)


def fixed_distance_test(prob: MatrixProblem, gamma: float, eta: float,
                        theta_orient: float = np.pi / 2,
                        use_dnc: bool = False, seed: int = 0) -> CertificateReport:
    """2D level-set test for fixed-distance pairs (backtracking certificate).

    Returns every verified level-set point found on the candidate vertical
    lines x and (when the orientation is not vertical) x + eta*cos(theta).
    Any returned point witnesses gamma >= 1/K; emptiness carries no bound
    by itself, which is why the backtracking iteration shrinks eta.
    """
    _check_test(prob, TimeDomain.CONTINUOUS, gamma, eta, theta_orient)
    shift = eta * np.cos(theta_orient)
    return _level_set_test(
        prob, CertificateReport(gamma, eta, "fixed", theta_orient=theta_orient),
        lambda: build_fixed_pencil(prob, gamma, eta, theta_orient),
        lambda: dnc.op_fixed_ct(prob, gamma, eta, theta_orient),
        (lambda x: x + shift) if abs(theta_orient) < np.pi / 2 else None,
        vertical_level_points, use_dnc, seed)


def variable_distance_test(prob: MatrixProblem, gamma: float, eta: float,
                           use_dnc: bool = False, seed: int = 0) -> CertificateReport:
    """2D level-set test for vertical pairs a variable distance x*eta apart.

    An empty report certifies the coordinate-free bound 1/K > gamma - eta/2;
    a nonempty one returns verified points, each witnessing gamma >= 1/K.
    """
    _check_test(prob, TimeDomain.CONTINUOUS, gamma, eta)
    return _level_set_test(
        prob, CertificateReport(gamma, eta, "variable-vertical"),
        lambda: build_variable_pencil(prob, gamma, eta),
        lambda: dnc.op_variable_ct(prob, gamma, eta),
        None, vertical_level_points, use_dnc, seed)


def horizontal_variable_test(prob: MatrixProblem, gamma: float, eta: float,
                             use_dnc: bool = False, seed: int = 0) -> CertificateReport:
    """Horizontal variable-distance test on pairs (x, y), (beta*x, y).

    Same lower-bound semantics as the vertical variable-distance test;
    selectable as an alternative backend.  Both lines x and beta*x of each
    pair are probed.
    """
    _check_test(prob, TimeDomain.CONTINUOUS, gamma, eta)
    beta = _pair_beta(gamma, eta)
    return _level_set_test(
        prob, CertificateReport(gamma, eta, "variable-horizontal"),
        lambda: build_horizontal_pencil(prob, gamma, eta),
        lambda: dnc.op_horizontal_ct(prob, gamma, eta),
        lambda x: beta * x, vertical_level_points, use_dnc, seed)


# --------------------------------------------------------------------------
# structured Kronecker-sum inverse (variable-distance m2)
# --------------------------------------------------------------------------

@dataclass
class KronSumInverse:
    """Factored inverse of D = I_{2k} (x) C + (C + s I_{2n}) (x) I_{2k}.

    C is the 2n x 2n block matrix [[a I, -b I], [b I, -a I]].  The inverse
    is s^{-1} I - beta^{-1} U_k (I - 2 s^{-1} I_k (x) C) V_k with
    beta = s^2 + 4 (b^2 - a^2), applied to a vector in O(k n^2) beyond the
    two thin products.
    """

    a: complex
    b: complex
    k: int
    n: int
    s: complex
    beta: complex
    u_factor: scipy.sparse.spmatrix
    v_factor: scipy.sparse.spmatrix
    middle: scipy.sparse.spmatrix

    @property
    def dim(self) -> int:
        return 4 * self.k * self.n

    def matvec(self, y):
        y = np.asarray(y, dtype=complex)
        t = self.v_factor @ y
        t = t - (2.0 / self.s) * (self.middle @ t)
        return y / self.s - (self.u_factor @ t) / self.beta

    def dense(self) -> np.ndarray:
        eye = np.eye(self.dim, dtype=complex)
        return np.column_stack([self.matvec(eye[:, j]) for j in range(self.dim)])


def _structured_factors(a, b, k, n):
    eye_n = scipy.sparse.identity(n, format="csr", dtype=complex)
    eye_k = scipy.sparse.identity(k, format="csr", dtype=complex)
    top = scipy.sparse.bmat([[2 * a * eye_n, -b * eye_n], [b * eye_n, None]], format="csr")
    Uk = scipy.sparse.vstack([
        scipy.sparse.kron(eye_k, top, format="csr"),
        b * scipy.sparse.identity(2 * k * n, dtype=complex, format="csr"),
    ], format="csr")
    rightblk = scipy.sparse.bmat(
        [[None, -eye_n], [eye_n, -2 * a / b * eye_n]], format="csr"
    )
    Vk = scipy.sparse.hstack([
        scipy.sparse.identity(2 * k * n, dtype=complex, format="csr"),
        scipy.sparse.kron(eye_k, rightblk, format="csr"),
    ], format="csr")
    C = scipy.sparse.bmat([[a * eye_n, -b * eye_n], [b * eye_n, -a * eye_n]], format="csr")
    middle = scipy.sparse.kron(eye_k, C, format="csr")
    return Uk, Vk, middle


def kron_sum_inverse(a, b, k: int, n: int, s) -> KronSumInverse:
    """Structured inverse of the shifted Kronecker sum (see KronSumInverse).

    Raises SingularDError when s = 0 or beta = s^2 + 4(b^2 - a^2) = 0, the
    exact singularity conditions.
    """
    a, b, s = complex(a), complex(b), complex(s)
    if b == 0:
        raise ValueError("b must be nonzero")
    beta = s**2 + 4.0 * (b**2 - a**2)
    scale = abs(s) ** 2 + 4.0 * (abs(b) ** 2 + abs(a) ** 2)
    if abs(s) == 0.0 or abs(beta) <= 1e-14 * scale:
        raise SingularDError(f"shifted Kronecker sum is singular (s={s}, beta={beta})")
    Uk, Vk, middle = _structured_factors(a, b, k, n)
    return KronSumInverse(a=a, b=b, k=k, n=n, s=s, beta=beta,
                          u_factor=Uk, v_factor=Vk, middle=middle)
