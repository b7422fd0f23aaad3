"""Inverse-Kreiss objectives in both time domains, with derivatives.

Continuous time works on g(x, y) = sigma_min(((x+iy)I - A)/x) over the open
right half-plane; discrete time on h(r, theta) = sigma_min((r e^{i theta} I
- A)/(r-1)) outside the unit circle.  Infeasible points (x <= 0, r <= 1)
evaluate to +inf so unconstrained optimizers stay in the domain.

Every derivative comes from the evaluation's SVD G = U Sigma V* alone.  Each
partial of G is a scalar combination alpha I + beta G
(``Domain.coefficients``), so U* (dG) V = alpha W + beta Sigma with
W = U* V.  The gradient is Re(alpha_a W_nn) + beta_a sigma_n, O(n) work.
The Hessian is the classical second-order perturbation sum for the n-th
eigenvalue of the Hermitian augmentation [[0, G], [G*, 0]] over its other
2n - 1 eigenvectors (u_k, +/- v_k)/sqrt(2) (Lancaster, "On eigenvalues of
matrices dependent on a parameter", Numer. Math. 1964); its couplings are
the n-th row and column of W, so it costs one n x n product and O(n) work
beyond the SVD.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Optional

import numpy as np

from .errors import DegenerateGapError, NonsimpleSigmaError, ZeroSigmaError
from .matio import MatrixProblem, TimeDomain

__all__ = [
    "EvalPoint",
    "Derivatives",
    "g_eval",
    "g_grad",
    "g_hess",
    "h_eval",
    "h_grad",
    "h_hess",
    "evaluate",
    "gradient",
    "hessian",
]

# sigma_min counts as simple when sigma_{n-1} - sigma_n exceeds this times sigma_1
SIMPLE_GAP_RTOL = 1e-10
# eigenvalue-difference denominators below this refuse a Hessian
DEGENERATE_GAP_ATOL = 1e-12
# sigma_min below this times sigma_1 counts as zero
ZERO_SIGMA_RTOL = 1e-14


@dataclass
class EvalPoint:
    """One evaluation of g or h: coordinates, value, and singular data.

    ``value`` is +inf exactly when the point is infeasible, in which case
    the singular vectors are absent.  ``simple`` reports whether sigma_min
    passed the relative gap test, deciding if a Hessian is trustworthy.
    """

    coords: tuple[float, float]
    value: float
    u: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None
    simple: bool = True
    _U: Optional[np.ndarray] = field(default=None, repr=False)
    _S: Optional[np.ndarray] = field(default=None, repr=False)
    _Vh: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def feasible(self) -> bool:
        return np.isfinite(self.value)


@dataclass
class Derivatives:
    """Gradient (and optionally Hessian) of g or h at a point.

    ``subgradient`` flags that sigma_min was not simple there, so the
    gradient is one element of the Clarke subdifferential rather than the
    classical gradient.
    """

    grad: np.ndarray
    hess: Optional[np.ndarray] = None
    subgradient: bool = False


class Domain:
    """The geometry of one time domain, defined once for every layer.

    Coordinates (c1, c2) name the point z = ``point(c1, c2)``: z = x + iy
    in continuous time, z = r e^{i theta} in discrete time.  The objective
    is sigma_min of ``matrix(A, c1, c2)`` = (z I - A)/``scale(c1)``, with
    ``scale(c1)`` = c1 - ``barrier`` (x, or r - 1); it is +inf for
    c1 <= barrier.  ``wrap`` normalizes c2 (theta into [0, 2*pi)).  The 1D
    level-set test (``cert_ct._level_points``) runs along the curve
    c2 -> point(c1, c2), with Newton steps at most ``polish_cap(c2)`` long.
    ``point_partials(c1, c2)`` = (z_1, z_2, z_11, z_22, z_12) are the
    partials of z, from which ``coefficients`` and ``sigma_gradient`` give
    every derivative of the objective and of the 1D test.  Each domain owns
    its eigenproblem: ``pencil_1d(prob, gamma, c1)`` has an eigenvalue on the normalized curve
    (the imaginary axis, the unit circle) at every c2 where gamma is a
    singular value of ``matrix``; ``on_curve`` keeps the eigenvalues inside
    the capture band of that curve and maps them to points w on it;
    ``coordinate(w)`` is their c2, and ``mean_coordinate`` the c2 of a
    chain's mean.
    ``search_interval(prob, gamma)`` = [lo, hi] is a proven enclosure of
    every c1 with a point at level gamma or below: by Weyl,
    sigma_min(z I - A) >= d - scale(c1) when d bounds sigma_min on the
    barrier curve from below, so lo = barrier + d/(1 + gamma) with d the
    problem's ``stability_gap``; and the numerical range gives
    sigma_min(z I - A) >= Re z - omega(A) (continuous) or >= |z| - w(A)
    (discrete), so hi (``_upper``) follows from the problem's
    ``numerical_range_bound``.  The interval is empty (hi <= lo) whenever
    omega(A) <= 0 or w(A) <= 1, which ``contractive(prob)`` tests, and may
    be for other A too: then no line or circle carries a point at level
    gamma.  ``start(prob)`` is a heuristic starting point.  The two
    instances are immutable and reached through ``domain(prob)``.
    """

    __slots__ = ()
    barrier: float

    def scale(self, c1):
        return c1 - self.barrier

    def search_interval(self, prob, gamma):
        """[lo, hi]: every c1 whose line or circle has a point at level gamma
        or below lies inside (class docstring); hi <= lo when none does."""
        lo = self.barrier + prob.stability_gap / (1.0 + gamma)
        return lo, self._upper(prob.numerical_range_bound, gamma)

    def contractive(self, prob):
        """Whether the numerical range proves K = 1: omega(A) <= 0 (w(A) <= 1).

        The problem's ``numerical_range_bound`` b gives
        sigma_min(z I - A) >= scale(c1) + barrier - b, so b <= barrier makes
        g (h) >= 1 everywhere, and g (h) tends to 1 far from the barrier
        (Lumer-Phillips).  Every search interval is then empty.
        """
        return prob.numerical_range_bound <= self.barrier

    def matrix(self, A, c1, c2):
        """G(x, y) or H(r, theta): (z I - A)/scale(c1) at z = point(c1, c2)."""
        return (self.point(c1, c2) * np.eye(A.shape[0]) - A) / self.scale(c1)

    def coefficients(self, c1, c2):
        """The partials of G = matrix(A, c1, c2) as combinations of I and G.

        With z_a, z_ab the partials of z (``point_partials``) and s =
        scale(c1), whose only nonzero partial is s_1 = 1:
        d_a G = alpha_a I + beta_a G with alpha_a = z_a/s, beta_a = -s_a/s;
        d_ab G = alpha_ab I + beta_ab G with
        alpha_ab = z_ab/s - (z_a s_b + z_b s_a)/s^2, beta_ab = 2 s_a s_b/s^2.
        Returns alpha and beta, shape (2,), and alpha_ab and beta_ab, (2, 2).
        """
        z1, z2, z11, z22, z12 = self.point_partials(c1, c2)
        s = self.scale(c1)
        a12 = (z12 - z2 / s) / s
        return (np.array([z1 / s, z2 / s]), np.array([-1.0 / s, 0.0]),
                np.array([[(z11 - 2.0 * z1 / s) / s, a12], [a12, z22 / s]]),
                np.array([[2.0 / s**2, 0.0], [0.0, 0.0]]))

    def sigma_gradient(self, c1, c2, u, v, sigma):
        """(d/dc1, d/dc2) of a simple singular value sigma of matrix(A, c1, c2)
        with singular vectors u, v: Re(alpha_a u* v) + beta_a sigma."""
        alpha, beta = self.coefficients(c1, c2)[:2]
        return np.real(alpha * np.vdot(u, v)) + beta * sigma


class _Continuous(Domain):
    """The open right half-plane, z = x + iy, scale x."""

    __slots__ = ()
    barrier = 0.0

    def point(self, x, y):
        return x + 1j * y

    def point_partials(self, x, y):
        return 1.0, 1j, 0.0, 0.0, 0.0

    def wrap(self, y):
        return y

    def start(self, prob):
        eigs = prob.eigenvalues
        lead = eigs[int(np.argmax(eigs.real))]
        return max(1.0, -2.0 * prob.spectral_abscissa), float(lead.imag)

    def _upper(self, omega, gamma):
        """sigma_min((x+iy)I - A) >= x - omega, so gamma-level points need
        x - omega <= gamma x, i.e. x <= omega/(1 - gamma); none when omega <= 0."""
        return 1.1 * max(omega, 0.0) / (1.0 - gamma)

    def polish_cap(self, y):
        return 0.5 * max(1.0, abs(y))

    def pencil_1d(self, prob, gamma, x):
        """[[A - xI, gamma x I], [-gamma x I, xI - A*]] and no N: i y is an
        eigenvalue iff gamma is a singular value of G(x, y)."""
        H0, J, K = prob.blocks_1d(lambda: _hamiltonian_blocks(prob.A))
        return H0 + x * J + (gamma * x) * K, None

    def on_curve(self, prob, lam, factor):
        """i Im(lam) for each lam within factor * 1e-8 * max(1, |Im lam|) * ||A|| of iR."""
        band = 1e-8 * np.maximum(1.0, np.abs(lam.imag)) * max(prob.norm2, 1e-300)
        return 1j * lam[np.abs(lam.real) <= factor * band].imag

    def coordinate(self, w):
        return w.imag

    def mean_coordinate(self, chain):
        return float(np.mean(np.imag(chain)))


class _Discrete(Domain):
    """The exterior of the unit disk, z = r e^{i theta}, scale r - 1."""

    __slots__ = ()
    barrier = 1.0

    def point(self, r, theta):
        return r * np.exp(1j * theta)

    def point_partials(self, r, theta):
        e = cmath.exp(1j * theta)
        return e, 1j * r * e, 0.0, -r * e, 1j * e

    def wrap(self, theta):
        return float(np.mod(theta, 2.0 * np.pi))

    def start(self, prob):
        eigs = prob.eigenvalues
        lead = eigs[int(np.argmax(np.abs(eigs)))]
        return 1.0 + 0.5 * (1.0 / prob.spectral_radius - 1.0), float(np.angle(lead))

    def _upper(self, w, gamma):
        """sigma_min(r e^{i t} I - A) >= r - w, so gamma-level points need
        r - w <= gamma (r - 1), i.e. r - 1 <= (w - 1)/(1 - gamma); none when w <= 1."""
        return 1.0 + 1.1 * max(w - 1.0, 0.0) / (1.0 - gamma)

    def polish_cap(self, theta):
        return 0.5

    def pencil_1d(self, prob, gamma, r):
        """[[A, g I], [0, r I]] - lam [[r I, 0], [g I, A*]], g = gamma (r - 1):
        e^{i theta} is an eigenvalue iff gamma is a singular value of
        H(r, theta); regular, as A is nonsingular and r != 0."""
        Ma, P, Q, Na, P2, Q2 = prob.blocks_1d(lambda: _circle_blocks(prob.A))
        g = gamma * (r - 1.0)
        return Ma + r * P + g * Q, Na + r * P2 + g * Q2

    def on_curve(self, prob, lam, factor):
        """lam/|lam| for the lam with ||lam| - 1| <= factor * 1e-8."""
        lam = lam[np.abs(np.abs(lam) - 1.0) <= factor * 1e-8]
        return lam / np.abs(lam)

    def coordinate(self, w):
        return np.angle(w)

    def mean_coordinate(self, chain):
        return float(np.angle(np.mean(chain)))  # the circular mean


def _hamiltonian_blocks(A):
    """(H0, J, K) with [[A - xI, gamma x I], [-gamma x I, xI - A*]] =
    H0 + x J + (gamma x) K."""
    n = A.shape[0]
    Z = np.zeros((n, n))
    return (np.block([[A, Z], [Z, -A.conj().T]]), np.diag(np.repeat([-1.0, 1.0], n)),
            np.eye(2 * n, k=n) - np.eye(2 * n, k=-n))


def _circle_blocks(A):
    """(Ma, P, Q, Na, P', Q') with [[A, g I], [0, r I]] = Ma + r P + g Q and
    [[r I, 0], [g I, A*]] = Na + r P' + g Q'."""
    Z, I = np.zeros(A.shape), np.eye(A.shape[0])
    return (np.block([[A, Z], [Z, Z]]), np.block([[Z, Z], [Z, I]]), np.block([[Z, I], [Z, Z]]),
            np.block([[Z, Z], [Z, A.conj().T]]), np.block([[I, Z], [Z, Z]]),
            np.block([[Z, Z], [I, Z]]))


_DOMAINS = MappingProxyType({TimeDomain.CONTINUOUS: _Continuous(),
                             TimeDomain.DISCRETE: _Discrete()})


def domain(prob: MatrixProblem) -> Domain:
    """The geometry of the problem's time domain."""
    return _DOMAINS[prob.time_domain]


def check_domain(prob: MatrixProblem, time_domain: TimeDomain, what: str) -> None:
    """Raise ValueError unless ``prob`` is posed in ``time_domain``; ``what``
    names the caller in the message."""
    if prob.time_domain is not time_domain:
        raise ValueError(f"{what} needs a {time_domain.value}-time problem")


def _eval_from_matrix(coords, M):
    U, S, Vh = np.linalg.svd(M)
    n = M.shape[0]
    sigma = float(S[-1])
    simple = True
    if n > 1:
        simple = (S[-2] - S[-1]) > SIMPLE_GAP_RTOL * S[0]
    return EvalPoint(
        coords=coords,
        value=sigma,
        u=U[:, -1].copy(),
        v=Vh[-1, :].conj().copy(),
        simple=bool(simple),
        _U=U,
        _S=S,
        _Vh=Vh,
    )


def _eval(prob, time_domain, what, c1, c2):
    check_domain(prob, time_domain, what)
    dom = domain(prob)
    c1, c2 = float(c1), dom.wrap(float(c2))
    if c1 <= dom.barrier:
        return EvalPoint(coords=(c1, c2), value=np.inf)
    return _eval_from_matrix((c1, c2), dom.matrix(prob.A, c1, c2))


def g_eval(prob: MatrixProblem, x: float, y: float) -> EvalPoint:
    """Evaluate g(x, y); returns value +inf for x <= 0."""
    return _eval(prob, TimeDomain.CONTINUOUS, "g_eval", x, y)


def h_eval(prob: MatrixProblem, r: float, theta: float) -> EvalPoint:
    """Evaluate h(r, theta); returns value +inf for r <= 1.  theta is
    normalized into [0, 2*pi)."""
    return _eval(prob, TimeDomain.DISCRETE, "h_eval", r, theta)


def _check_derivative_preconditions(pt, allow_subgradient):
    if not pt.feasible:
        raise ValueError("derivatives need a feasible point")
    if pt._S is None:
        raise ValueError("EvalPoint lacks cached SVD data; re-evaluate the objective")
    if pt.value <= ZERO_SIGMA_RTOL * max(float(pt._S[0]), 1e-300):
        raise ZeroSigmaError("sigma_min vanishes; the objective is not differentiable")
    if not pt.simple and not allow_subgradient:
        raise NonsimpleSigmaError("sigma_min is not simple at this point")


def _grad(pt, prob, allow_subgradient):
    _check_derivative_preconditions(pt, allow_subgradient)
    grad = domain(prob).sigma_gradient(*pt.coords, pt.u, pt.v, pt.value)
    return Derivatives(grad=grad, subgradient=not pt.simple)


def g_grad(pt: EvalPoint, prob: MatrixProblem, allow_subgradient: bool = False) -> Derivatives:
    """Gradient of g at a previously evaluated point.

    With ``allow_subgradient`` a nonsimple sigma_min yields a flagged
    subgradient element instead of NonsimpleSigmaError.
    """
    return _grad(pt, prob, allow_subgradient)


def h_grad(pt: EvalPoint, prob: MatrixProblem, allow_subgradient: bool = False) -> Derivatives:
    """Gradient of h at a previously evaluated point (polar coordinates)."""
    return _grad(pt, prob, allow_subgradient)


def _hess(pt, prob):
    """Gradient and Hessian of sigma_n, the n-th eigenvalue of [[0, G], [G*, 0]].

    The augmentation's eigenpairs are lam_k = +/- sigma_k with eigenvectors
    (u_k, +/- v_k)/sqrt(2), and
    H_ab = Re(u_n* (d_ab G) v_n) + 2 Re sum_k conj(c_ak) c_bk/(sigma_n - lam_k)
    over the 2n - 1 pairs other than (sigma_n, (u_n, v_n)/sqrt(2)).  The
    couplings come from P_a = U* (d_a G) V = alpha_a W + beta_a Sigma:
    c_ak = (P_a[k, n] +/- conj(P_a[n, k]))/2 for lam_k = +/- sigma_k.
    Sigma is diagonal, and its entry beta_a sigma_n cancels from the one
    pair (k = n, -sigma_n) it reaches, so only the n-th row and column of
    W enter.  Denominators sigma_n -/+ sigma_k below DEGENERATE_GAP_ATOL
    abort rather than amplify rounding noise.
    """
    _check_derivative_preconditions(pt, allow_subgradient=False)
    S = pt._S
    denom = np.concatenate([S[-1] - S[:-1], S[-1] + S])
    if np.abs(denom).min() < DEGENERATE_GAP_ATOL:
        raise DegenerateGapError("eigenvalue gap below 1e-12; Hessian refused")
    alpha, beta, alpha2, beta2 = domain(prob).coefficients(*pt.coords)
    W = (pt._Vh @ pt._U).conj().T  # U* V
    w = np.vdot(pt.u, pt.v)  # W_nn
    col = alpha[:, None] * W[:, -1]
    row = np.conj(alpha[:, None] * W[-1])
    C = np.concatenate([(col + row)[:, :-1], col - row], axis=1)  # twice the couplings
    hess = (np.real(alpha2 * w) + beta2 * pt.value
            + 0.5 * np.real((C.conj() / denom) @ C.T))
    hess[1, 0] = hess[0, 1]
    # the gradient as Domain.sigma_gradient computes it, from the same alpha, beta, w
    return Derivatives(grad=np.real(alpha * w) + beta * pt.value, hess=hess)


def g_hess(pt: EvalPoint, prob: MatrixProblem) -> Derivatives:
    """Gradient and Hessian of g; requires a simple, nonzero sigma_min."""
    return _hess(pt, prob)


def h_hess(pt: EvalPoint, prob: MatrixProblem) -> Derivatives:
    """Gradient and Hessian of h; requires a simple, nonzero sigma_min."""
    return _hess(pt, prob)


# --------------------------------------------------------------------------
# time-domain dispatchers (used by the optimizer and solvers)
# --------------------------------------------------------------------------

def evaluate(prob: MatrixProblem, c1: float, c2: float) -> EvalPoint:
    """g_eval or h_eval according to the problem's time domain."""
    if prob.time_domain is TimeDomain.CONTINUOUS:
        return g_eval(prob, c1, c2)
    return h_eval(prob, c1, c2)


def gradient(pt: EvalPoint, prob: MatrixProblem, allow_subgradient: bool = False) -> Derivatives:
    if prob.time_domain is TimeDomain.CONTINUOUS:
        return g_grad(pt, prob, allow_subgradient)
    return h_grad(pt, prob, allow_subgradient)


def hessian(pt: EvalPoint, prob: MatrixProblem) -> Derivatives:
    if prob.time_domain is TimeDomain.CONTINUOUS:
        return g_hess(pt, prob)
    return h_hess(pt, prob)
