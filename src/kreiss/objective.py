"""Inverse-Kreiss objectives in both time domains, with derivatives.

Continuous time works on g(x, y) = sigma_min(((x+iy)I - A)/x) over the open
right half-plane; discrete time on h(r, theta) = sigma_min((r e^{i theta} I
- A)/(r-1)) outside the unit circle.  Infeasible points (x <= 0, r <= 1)
evaluate to +inf so unconstrained optimizers stay in the domain.

Gradients come from singular-value perturbation theory; Hessians from the
eigensystem of the 2n x 2n Hermitian augmentation [[0, G], [G*, 0]], which
is assembled for free from the full SVD.
"""

from __future__ import annotations

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
    level-set tests run along the curve c2 -> point(c1, c2), with tangent
    ``dpoint`` and Newton steps at most ``polish_cap(c2)`` long.
    ``search_interval(prob, gamma)`` = [lo, hi] is a proven enclosure of
    every c1 with a point at level gamma or below: by Weyl,
    sigma_min(z I - A) >= d - scale(c1) when d bounds sigma_min on the
    barrier curve from below, so lo = barrier + d/(1 + gamma) with d the
    problem's ``stability_gap``; and the numerical range gives
    sigma_min(z I - A) >= Re z - omega(A) (continuous) or >= |z| - w(A)
    (discrete), so hi (``_upper``) follows from the problem's
    ``numerical_range_bound``.  The interval is empty (hi <= lo) whenever
    omega(A) <= 0 or w(A) <= 1, and may be for other A too: then no line
    or circle carries a point at level gamma.  ``start(prob)`` is a
    heuristic starting point.  The two instances are immutable and reached
    through ``domain(prob)``.
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

    def matrix(self, A, c1, c2):
        """G(x, y) or H(r, theta): (z I - A)/scale(c1) at z = point(c1, c2)."""
        return (self.point(c1, c2) * np.eye(A.shape[0]) - A) / self.scale(c1)


class _Continuous(Domain):
    """The open right half-plane, z = x + iy, scale x."""

    __slots__ = ()
    barrier = 0.0

    def point(self, x, y):
        return x + 1j * y

    def dpoint(self, x, y):
        return 1j

    def wrap(self, y):
        return y

    def first_partials(self, prob, x, y):
        n = prob.n
        Gx = (prob.A - 1j * y * np.eye(n)) / x**2
        Gy = (1j / x) * np.eye(n)
        return Gx, Gy

    def second_partials(self, prob, x, y):
        n = prob.n
        Gxx = -2.0 * (prob.A - 1j * y * np.eye(n)) / x**3
        Gyy = np.zeros((n, n), dtype=complex)
        Gxy = (-1j / x**2) * np.eye(n)
        return Gxx, Gyy, Gxy

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


class _Discrete(Domain):
    """The exterior of the unit disk, z = r e^{i theta}, scale r - 1."""

    __slots__ = ()
    barrier = 1.0

    def point(self, r, theta):
        return r * np.exp(1j * theta)

    def dpoint(self, r, theta):
        return 1j * r * np.exp(1j * theta)

    def wrap(self, theta):
        return float(np.mod(theta, 2.0 * np.pi))

    def first_partials(self, prob, r, theta):
        n = prob.n
        e = np.exp(1j * theta)
        Hr = (prob.A - e * np.eye(n)) / (r - 1.0) ** 2
        Ht = (1j * r * e / (r - 1.0)) * np.eye(n)
        return Hr, Ht

    def second_partials(self, prob, r, theta):
        n = prob.n
        e = np.exp(1j * theta)
        Hrr = -2.0 * (prob.A - e * np.eye(n)) / (r - 1.0) ** 3
        Htt = (-r * e / (r - 1.0)) * np.eye(n)
        Hrt = (-1j * e / (r - 1.0) ** 2) * np.eye(n)
        return Hrr, Htt, Hrt

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


def _grad_from_partials(pt, D1, D2):
    u, v = pt.u, pt.v
    return np.array([np.real(u.conj() @ (D1 @ v)), np.real(u.conj() @ (D2 @ v))])


def _grad(pt, prob, allow_subgradient):
    _check_derivative_preconditions(pt, allow_subgradient)
    D1, D2 = domain(prob).first_partials(prob, *pt.coords)
    return Derivatives(grad=_grad_from_partials(pt, D1, D2), subgradient=not pt.simple)


def g_grad(pt: EvalPoint, prob: MatrixProblem, allow_subgradient: bool = False) -> Derivatives:
    """Gradient of g at a previously evaluated point.

    With ``allow_subgradient`` a nonsimple sigma_min yields a flagged
    subgradient element instead of NonsimpleSigmaError.
    """
    return _grad(pt, prob, allow_subgradient)


def h_grad(pt: EvalPoint, prob: MatrixProblem, allow_subgradient: bool = False) -> Derivatives:
    """Gradient of h at a previously evaluated point (polar coordinates)."""
    return _grad(pt, prob, allow_subgradient)


def _augmented_hessian(pt, D1, D2, D11, D22, D12):
    """Second derivatives of the n-th eigenvalue of [[0, G], [G*, 0]].

    Eigenvalues of the augmentation are +/- sigma_i; for each singular
    triple the eigenvectors are (u_i, +/- v_i)/sqrt(2).  sigma_min is the
    n-th eigenvalue in descending order, and the classical second-order
    perturbation sum over the remaining 2n - 1 eigenvectors gives its
    Hessian.  Denominators below DEGENERATE_GAP_ATOL abort rather than
    amplify rounding noise.
    """
    U, S, Vh = pt._U, pt._S, pt._Vh
    n = U.shape[0]
    V = Vh.conj().T
    lam = np.concatenate([S, -S[::-1]])
    # eigenvector matrix, column k <-> lam[k]
    Q = np.zeros((2 * n, 2 * n), dtype=complex)
    Q[:n, :n] = U
    Q[n:, :n] = V
    Q[:n, n:] = U[:, ::-1]
    Q[n:, n:] = -V[:, ::-1]
    Q /= np.sqrt(2.0)

    def aug(D):
        Z = np.zeros((2 * n, 2 * n), dtype=complex)
        Z[:n, n:] = D
        Z[n:, :n] = D.conj().T
        return Z

    A1, A2 = aug(D1), aug(D2)
    A11, A22, A12 = aug(D11), aug(D22), aug(D12)
    j = n - 1  # index of sigma_min in descending eigenvalue order
    qj = Q[:, j]
    denom = lam[j] - lam
    others = np.arange(2 * n) != j
    if np.any(np.abs(denom[others]) < DEGENERATE_GAP_ATOL):
        raise DegenerateGapError("eigenvalue gap below 1e-12; Hessian refused")

    c1 = Q.conj().T @ (A1 @ qj)   # entries q_k* A1 q_j
    c2 = Q.conj().T @ (A2 @ qj)
    inv = np.zeros(2 * n)
    inv[others] = 1.0 / denom[others]

    def second(curv, ca, cb):
        cross = np.sum(np.conj(ca[others]) * cb[others] * inv[others])
        return float(np.real(qj.conj() @ (curv @ qj)) + 2.0 * np.real(cross))

    H = np.empty((2, 2))
    H[0, 0] = second(A11, c1, c1)
    H[1, 1] = second(A22, c2, c2)
    H[0, 1] = H[1, 0] = second(A12, c1, c2)
    return H


def _hess(pt, prob):
    _check_derivative_preconditions(pt, allow_subgradient=False)
    dom = domain(prob)
    D1, D2 = dom.first_partials(prob, *pt.coords)
    D11, D22, D12 = dom.second_partials(prob, *pt.coords)
    grad = _grad_from_partials(pt, D1, D2)
    return Derivatives(grad=grad, hess=_augmented_hessian(pt, D1, D2, D11, D22, D12))


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
