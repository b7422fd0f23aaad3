"""Continuous-time 2D level-set globality certificates.

Three tests over the right half-plane domain of g(x, y):

* fixed-distance pairs a distance eta apart at orientation theta_orient
  (vertical pairs by default), driving the backtracking iteration;
* variable-distance vertical pairs (separation x*eta), whose empty outcome
  certifies the coordinate-free lower bound 1/K > gamma - eta/2;
* a horizontal variable-distance variant (separation x*eta/(1+gamma),
  i.e. the pair (x, y), (beta*x, y)) with the same lower-bound semantics.

Each test computes the positive real eigenvalues of a 4n^2 pencil, two
vectorized Sylvester forms whose 2n x 2n blocks ``_pencil_blocks`` defines
once (dense QZ on the Kronecker form, or the opt-in divide-and-conquer
sweep of ``dnc`` on the blocks themselves, which never builds the pencil),
then runs a cheap 1D vertical eigenvalue test on every candidate line.  Dense
QZ runs on order 2n^2 for the fixed pencil, whose 2n^2 structural infinite
eigenvalues are deflated first, and on order 4n^2 for the variable ones.

The 1D stage after the large eigenproblem is shared with the discrete-time
tests of ``cert_dt``: ``_polish`` Newton-polishes a level-set point along
the vertical line Re z = x or the circle |z| = r, and ``_collect_points``
reports a point only after ``_verify_point`` confirmed by a direct SVD that
gamma really is a singular value there, which keeps the certificate sound
regardless of how the candidate eigenvalues were obtained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse

from . import dnc, linalg, objective
from .errors import SingularDError
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


def _capture_band_rel(strict_rel, eta):
    """Relative half-width of the candidate capture band around the real axis.

    Pair-tangent configurations make the pencil's real root a double root,
    which rounding splits into a conjugate pair with imaginary parts on the
    order of sqrt(eps / eta); the band grows accordingly as eta shrinks.
    Captured candidates only feed the verified 1D stage, so a generous band
    costs time, never correctness.
    """
    eps = np.finfo(float).eps
    split = 10.0 * np.sqrt(eps / max(eta, eps))
    return min(max(CAPTURE_FACTOR * strict_rel, split), 0.05)


@dataclass
class KroneckerPencil:
    """The 4n^2 x 4n^2 pencil m1 - lambda*m2 of a 2D level-set test."""

    m1: np.ndarray
    m2: np.ndarray
    gamma: float
    eta: float
    variant: str
    theta_orient: Optional[float] = None
    beta: Optional[float] = None


@dataclass
class CertificateReport:
    """Outcome of a 2D level-set test.

    ``points`` holds only verified level-set points: at each, gamma is a
    singular value of G (resp. H) to VERIFY_RTOL * ||A||, so the point lies
    on the gamma level set of the objective or below it.  An empty report
    from a variable-distance test certifies 1/K > gamma - eta/2.
    ``large_eig_count`` is the order of the large eigenproblem actually
    factored: 2n^2 for the continuous-time fixed pencil and 4n^2 for the
    variable/horizontal ones (dense QZ), 6n^2 in discrete time (the 8n^2
    companion pencil less its 2n^2 deflated infinite eigenvalues), and the
    operator's dimension under divide-and-conquer.
    """

    gamma: float
    eta: float
    variant: str
    candidate_lines: list[float] = field(default_factory=list)
    points: list[objective.EvalPoint] = field(default_factory=list)
    large_eig_count: int = 0
    theta_orient: Optional[float] = None
    rejected_points: int = 0

    @property
    def empty(self) -> bool:
        return len(self.points) == 0

    @property
    def candidate_circles(self) -> list[float]:
        """Alias used by the discrete-time radial tests."""
        return self.candidate_lines


def _hamiltonian_vertical(prob, gamma, x):
    n = prob.n
    eye = np.eye(n)
    return np.block([
        [prob.A - x * eye, gamma * x * eye],
        [-gamma * x * eye, x * eye - prob.A.conj().T],
    ])


def vertical_level_points(prob: MatrixProblem, gamma: float, x: float) -> list[float]:
    """All y with gamma a singular value of G(x, y), via the Hamiltonian test.

    gamma is a singular value of G(x, y) iff i*y is an eigenvalue of the
    2n x 2n Hamiltonian matrix [[A - xI, gamma*x*I], [-gamma*x*I, xI - A*]].
    Eigenvalues within 1e-8 * max(1, |Im|) * ||A|| of the imaginary axis
    are kept; near-duplicates are merged (a double root perturbs into a
    symmetric pair, whose mean restores the root) and each y is polished by
    a 1D Newton iteration on sigma(G(x, .)) = gamma.
    """
    objective.check_domain(prob, TimeDomain.CONTINUOUS, "vertical_level_points")
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if x == 0.0:
        raise ValueError("x must be nonzero")
    lam = scipy.linalg.eigvals(_hamiltonian_vertical(prob, gamma, x))
    scale = max(prob.norm2, 1e-300)
    band = 1e-8 * np.maximum(1.0, np.abs(lam.imag)) * scale
    keep = np.abs(lam.real) <= CAPTURE_FACTOR * band
    ys = np.sort(lam[keep].imag)
    if ys.size == 0:
        return []
    ys = _merge_close(ys, atol=1e-6 * max(1.0, float(np.max(np.abs(ys)))))
    return [float(_polish(prob, gamma, x, y)) for y in ys]


def _merge_close(vals, atol):
    """Average runs of values closer than atol (restores split double roots)."""
    vals = np.sort(np.asarray(vals, dtype=float))
    groups = [[vals[0]]]
    for v in vals[1:]:
        if v - groups[-1][-1] <= atol:
            groups[-1].append(v)
        else:
            groups.append([v])
    return np.array([np.mean(g) for g in groups])


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


def _pencil_blocks(prob, gamma, eta, variant, theta_orient=None):
    """The 2n x 2n blocks (S1, S2, C, D) that define a certificate pencil.

    Every continuous-time pencil is m1 = I (x) S1 + S2^T (x) I and
    m2 = I (x) C + D (x) I, the vectorized Sylvester forms
    W -> S1 W + W S2 and W -> C W + W D^T, with S1 = [[A, 0], [0, -A*]] and
    C = [[I, -gamma I], [gamma I, -I]].  ``variant`` picks S2 and D:

    * "fixed": S2 carries the pair offset eta at angle theta_orient (the
      only variant that takes it), D = C;
    * "variable-vertical": S2 = [[A*, 0], [0, -A]],
      D = [[(1 - i eta) I, -gamma I], [gamma I, -(1 + i eta) I]];
    * "variable-horizontal": the same S2, D = beta C (``_pair_beta``).
    """
    _check_gamma_eta(gamma, eta, theta_orient)
    n = prob.n
    A, Ah = prob.A, prob.A.conj().T
    eye = np.eye(n)
    S1 = np.block([[A, 0 * eye], [0 * eye, -Ah]])
    C = _gamma_block(n, gamma)
    if variant == "fixed":
        e_p, e_m = np.exp(1j * theta_orient), np.exp(-1j * theta_orient)
        ct = np.cos(theta_orient)
        S2 = np.block([
            [Ah - eta * e_m * eye, -gamma * eta * ct * eye],
            [gamma * eta * ct * eye, eta * e_p * eye - A],
        ])
        return S1, S2, C, C
    S2 = np.block([[Ah, 0 * eye], [0 * eye, -A]])
    if variant == "variable-vertical":
        D = np.block([
            [(1 - 1j * eta) * eye, -gamma * eye],
            [gamma * eye, -(1 + 1j * eta) * eye],
        ])
    else:
        D = _pair_beta(gamma, eta) * C
    return S1, S2, C, D


def _kron_pencil(S1, S2, C, D):
    """The dense pencil (m1, m2) = (I (x) S1 + S2^T (x) I, I (x) C + D (x) I)."""
    eye = np.eye(S1.shape[0])
    return np.kron(eye, S1) + np.kron(S2.T, eye), np.kron(eye, C) + np.kron(D, eye)


def build_fixed_pencil(prob: MatrixProblem, gamma: float, eta: float,
                       theta_orient: float = np.pi / 2) -> KroneckerPencil:
    """Assemble the fixed-distance pencil for pairs eta apart at a given angle.

    Real positive eigenvalues x of m1 w = x m2 w locate vertical lines that
    may carry level-set points of the pair condition
    g(x, y) = g(x + eta*cos(theta), y + eta*sin(theta)) = gamma.
    """
    m1, m2 = _kron_pencil(*_pencil_blocks(prob, gamma, eta, "fixed", theta_orient))
    return KroneckerPencil(m1, m2, gamma, eta, "fixed", theta_orient=theta_orient)


def build_variable_pencil(prob: MatrixProblem, gamma: float, eta: float) -> KroneckerPencil:
    """Pencil for vertically oriented pairs a variable distance x*eta apart."""
    m1, m2 = _kron_pencil(*_pencil_blocks(prob, gamma, eta, "variable-vertical"))
    return KroneckerPencil(m1, m2, gamma, eta, "variable-vertical")


def build_horizontal_pencil(prob: MatrixProblem, gamma: float, eta: float) -> KroneckerPencil:
    """Pencil for horizontal pairs (x, y), (beta*x, y), beta = 1 + eta/(1+gamma)."""
    m1, m2 = _kron_pencil(*_pencil_blocks(prob, gamma, eta, "variable-horizontal"))
    return KroneckerPencil(m1, m2, gamma, eta, "variable-horizontal",
                           beta=_pair_beta(gamma, eta))


def _check_gamma_eta(gamma, eta, theta_orient=None):
    """Validate a test's level gamma in (0, 1) and distance eta > 0, and for
    fixed-distance pairs in continuous time the orientation theta_orient."""
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma must be in (0, 1); got {gamma}")
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    if theta_orient is not None and not (-np.pi / 2 < theta_orient <= np.pi / 2):
        raise ValueError("theta_orient must lie in (-pi/2, pi/2]")


# --------------------------------------------------------------------------
# real-eigenvalue extraction and the tests themselves
# --------------------------------------------------------------------------

def _null_rotation(gamma):
    """4 x 4 unitary V whose first two columns span the null space of S.

    S = I_2 (x) c + c (x) I_2 with c = [[1, -gamma], [gamma, -1]]; its
    eigenvalues are 0, 0 and +-2 sqrt(1 - gamma^2).
    """
    c = _gamma_block(1, gamma)
    _, _, Vh = np.linalg.svd(np.kron(np.eye(2), c) + np.kron(c, np.eye(2)))
    V = Vh.conj().T
    return np.hstack([V[:, 2:], V[:, :2]])


def _rotate_columns(M, V, n):
    """M Z for the unitary Z = P^T (V (x) I_{n^2}) of the fixed pencil.

    The fixed pencil's m2 = I_{2n} (x) C + C (x) I_{2n}, with C = c (x) I_n,
    acts on an index (a, i, b, j) as S on (a, b) and as the identity on
    (i, j); P is the permutation that gathers (a, b).  Column (c, k) of Z
    has the 4 nonzeros V[:, c] at the positions (a, i, b, j) with
    (i, j) = k, so with ``_null_rotation`` the first 2n^2 columns of m2 Z
    vanish.
    """
    m = M.shape[0]
    Mr = M.reshape(m, 2, n, 2, n).transpose(0, 1, 3, 2, 4).reshape(m, 4, n * n)
    return np.einsum("mpk,pc->mck", Mr, V).reshape(m, 4 * n * n)


def _real_positive_eigs_dense(pencil):
    """Positive real eigenvalues of the pencil via dense QZ.

    The fixed pencil's m2 has rank 2n^2 out of 4n^2.  Its columns are
    rotated by the unitary Z of ``_rotate_columns``, the 2n^2 columns of
    m2 Z that vanish mathematically are set exactly to zero, and
    ``linalg.eig_pencil_deflated`` removes the 2n^2 infinite eigenvalues
    they carry, so QZ runs on order 2n^2.  The variable-distance pencils
    have an invertible m2 and go to QZ at order 4n^2.  The returned count
    is the order QZ factored.
    """
    M, N = pencil.m1, pencil.m2
    if pencil.variant == "fixed":
        n = math.isqrt(M.shape[0] // 4)
        V = _null_rotation(pencil.gamma)
        M, N = _rotate_columns(M, V, n), _rotate_columns(N, V, n)
        N[:, :2 * n * n] = 0.0
    spec = linalg.eig_pencil_deflated(M, N)
    xs = _near_real(spec, pencil.eta)
    return np.sort(xs[xs > LINE_DEDUP_ATOL]), spec.order


def _near_real(spec, eta):
    """Real parts of the finite eigenvalues inside the capture band of the real axis."""
    lam = spec.finite_values
    rel = _capture_band_rel(REAL_AXIS_RTOL, eta)
    return lam[np.abs(lam.imag) <= rel * np.maximum(1.0, np.abs(lam.real))].real


def _real_eigs(prob, gamma, use_dnc, seed, dense, operator):
    """(sorted real candidate eigenvalues, order of the eigenproblem solved).

    ``dense()`` builds the pencil and runs the dense eigensolver.  Under
    ``use_dnc`` the divide-and-conquer sweep searches the domain's
    ``search_interval`` at level gamma on the implicit ``operator()``
    instead, and no dense pencil is built.  A ``MaxShiftsError`` from the
    sweep propagates to the caller.
    """
    if not use_dnc:
        return dense()
    op = operator()
    lo, hi = objective.domain(prob).search_interval(prob.norm2, gamma)
    vals = dnc.real_eigs_in_interval(op, lo, hi, seed=seed)
    return np.sort(np.asarray(vals, dtype=float)), op.dim


def _augment_with_midpoints(xs, window_rel=0.02):
    """Insert midpoints of nearby candidate pairs.

    A double real eigenvalue (pair-tangent configuration) is extremely
    ill-conditioned and splits under rounding into two candidates that can
    each miss the level set; their midpoint cancels the first-order error.
    Extra lines only feed the verified 1D stage, so this is cost, not risk.
    """
    xs = sorted(xs)
    extra = []
    for a, b in zip(xs, xs[1:]):
        if b - a <= window_rel * max(1.0, abs(a)):
            extra.append(0.5 * (a + b))
    return sorted(set(xs) | set(extra))


def _candidate_lines(xs):
    """Deduplicated sorted eigenvalues plus the midpoints of near pairs."""
    return _augment_with_midpoints(dnc._dedupe(list(xs), LINE_DEDUP_ATOL))


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
    xs, count = _real_eigs(
        prob, gamma, use_dnc, seed,
        lambda: _real_positive_eigs_dense(build_fixed_pencil(prob, gamma, eta, theta_orient)),
        lambda: dnc.op_fixed_ct(prob, gamma, eta, theta_orient))
    lines = _candidate_lines(xs)
    if abs(theta_orient) < np.pi / 2:
        shifted = [x + eta * np.cos(theta_orient) for x in lines]
        lines = dnc._dedupe(lines + shifted, LINE_DEDUP_ATOL)
    return _collect_points(prob, vertical_level_points, CertificateReport(
        gamma, eta, "fixed", lines, large_eig_count=count, theta_orient=theta_orient))


def variable_distance_test(prob: MatrixProblem, gamma: float, eta: float,
                           use_dnc: bool = False, seed: int = 0) -> CertificateReport:
    """2D level-set test for vertical pairs a variable distance x*eta apart.

    An empty report certifies the coordinate-free bound 1/K > gamma - eta/2;
    a nonempty one returns verified points, each witnessing gamma >= 1/K.
    """
    _check_test(prob, TimeDomain.CONTINUOUS, gamma, eta)
    xs, count = _real_eigs(
        prob, gamma, use_dnc, seed,
        lambda: _real_positive_eigs_dense(build_variable_pencil(prob, gamma, eta)),
        lambda: dnc.op_variable_ct(prob, gamma, eta))
    return _collect_points(prob, vertical_level_points, CertificateReport(
        gamma, eta, "variable-vertical", _candidate_lines(xs), large_eig_count=count))


def horizontal_variable_test(prob: MatrixProblem, gamma: float, eta: float,
                             use_dnc: bool = False, seed: int = 0) -> CertificateReport:
    """Horizontal variable-distance test on pairs (x, y), (beta*x, y).

    Same lower-bound semantics as the vertical variable-distance test;
    selectable as an alternative backend.
    """
    _check_test(prob, TimeDomain.CONTINUOUS, gamma, eta)
    xs, count = _real_eigs(
        prob, gamma, use_dnc, seed,
        lambda: _real_positive_eigs_dense(build_horizontal_pencil(prob, gamma, eta)),
        lambda: dnc.op_horizontal_ct(prob, gamma, eta))
    base = _candidate_lines(xs)
    beta = _pair_beta(gamma, eta)
    lines = dnc._dedupe(base + [beta * x for x in base], LINE_DEDUP_ATOL)
    return _collect_points(prob, vertical_level_points, CertificateReport(
        gamma, eta, "variable-horizontal", lines, large_eig_count=count))


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
