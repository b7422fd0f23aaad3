"""Dense linear-algebra kernels the certificate and solver layers build on.

Everything here is dense and sized for desk-scale matrices (n up to a few
tens); the large certificate eigenproblems, which QZ factors at order 2n^2
(continuous-time fixed distance), 4n^2 (continuous-time variable distance)
or 6n^2 (discrete time: the 8n^2 companion pencil less its deflated
infinite eigenvalues), are still cheap at that scale.  The shift-and-invert
path additionally works with implicit operators so the divide-and-conquer
layer can avoid forming them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence

from .errors import (
    ArnoldiBreakdownError,
    ConvergenceFailure,
    IllPosedError,
    MaxIterationsError,
    NearSingularOperatorError,
    SingularPencilError,
)

__all__ = [
    "SvdTriple",
    "Spectrum",
    "RitzValue",
    "svd_full",
    "svd_min_triple",
    "eig_dense",
    "eig_pencil",
    "eig_pencil_deflated",
    "eig_quadratic",
    "solve_sylvester",
    "solve_gen_sylvester",
    "eigs_shift_invert",
]

_BETA_ZERO_RTOL = 1e-14  # |beta| below this (relative) means an infinite eigenvalue


@dataclass(frozen=True)
class SvdTriple:
    """One singular value with its unit left/right singular vectors."""

    sigma: float
    u: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues as generalized (alpha, beta) pairs; beta == 0 means infinity.

    The first ``deflated`` eigenvalues are infinities known from the pencil's
    structure (see ``eig_pencil_deflated``); QZ factored a problem of order
    ``order``, the rest.
    """

    alpha: np.ndarray
    beta: np.ndarray
    deflated: int = 0

    def __len__(self):
        return len(self.alpha)

    @property
    def order(self) -> int:
        """Order of the eigenproblem the eigensolver actually factored."""
        return len(self.alpha) - self.deflated

    @property
    def is_infinite(self) -> np.ndarray:
        scale = np.abs(self.alpha) + 1.0
        return np.abs(self.beta) <= _BETA_ZERO_RTOL * scale

    @property
    def values(self) -> np.ndarray:
        """Eigenvalues with infinities mapped to complex(+inf, 0)."""
        out = np.empty(len(self.alpha), dtype=complex)
        inf = self.is_infinite
        with np.errstate(divide="ignore", invalid="ignore"):
            out[~inf] = self.alpha[~inf] / self.beta[~inf]
        out[inf] = np.inf
        return out

    @property
    def finite_values(self) -> np.ndarray:
        return self.alpha[~self.is_infinite] / self.beta[~self.is_infinite]

    @classmethod
    def from_values(cls, values) -> "Spectrum":
        values = np.asarray(values, dtype=complex)
        return cls(values, np.ones_like(values))


@dataclass(frozen=True)
class RitzValue:
    """A Ritz value from a shift-and-invert solve, with its residual status."""

    value: complex
    residual: float
    converged: bool


# --------------------------------------------------------------------------
# SVD and dense eigenvalues
# --------------------------------------------------------------------------

def svd_full(M):
    """Full SVD ``M = U @ diag(s) @ Vh`` with nonincreasing singular values.

    Returns
    -------
    U, s, Vh : ndarray
        As from LAPACK; columns of U / rows of Vh are the singular vectors.
    """
    M = np.asarray(M, dtype=complex)
    if not np.all(np.isfinite(M)):
        raise ValueError("svd_full requires finite entries")
    try:
        return np.linalg.svd(M)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"SVD did not converge: {exc}") from exc


def svd_min_triple(M) -> SvdTriple:
    """Smallest singular value of M with its singular vectors."""
    U, s, Vh = svd_full(M)
    return SvdTriple(float(s[-1]), U[:, -1].copy(), Vh[-1, :].conj().copy())


def eig_dense(M, vectors: bool = False):
    """All eigenvalues of a dense square matrix (optionally with eigenvectors)."""
    M = np.asarray(M, dtype=complex)
    try:
        if vectors:
            vals, vecs = scipy.linalg.eig(M)
            return Spectrum.from_values(vals), vecs
        return Spectrum.from_values(scipy.linalg.eig(M, right=False))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"dense eigensolver failed: {exc}") from exc


def _pencil_is_regular(M, N, rng=None, samples=3):
    """Probe det(M - lam*N) at random unimodular-scaled shifts."""
    rng = np.random.default_rng(0 if rng is None else rng)
    scale = np.linalg.norm(M, np.inf) + np.linalg.norm(N, np.inf)
    if scale == 0.0:
        return False
    for _ in range(samples):
        lam = scale * np.exp(2j * np.pi * rng.random()) * (0.5 + rng.random())
        smin = np.linalg.svd(M - lam * N, compute_uv=False)[-1]
        if smin > 1e-10 * (np.linalg.norm(M, np.inf) + abs(lam) * np.linalg.norm(N, np.inf)):
            return True
    return False


def eig_pencil(M, N, check_regular: bool = True) -> Spectrum:
    """Generalized eigenvalues of the pencil M - lambda*N, infinities included.

    Regularity is detected (by sampling det(M - lambda N)) rather than
    assumed; a non-regular pencil raises SingularPencilError.  Callers that
    knowingly operate near the singular boundary (the certificates with
    eta -> 0, whose results are verified independently downstream) can pass
    ``check_regular=False``.
    """
    M = np.asarray(M, dtype=complex)
    N = np.asarray(N, dtype=complex)
    if M.shape != N.shape or M.shape[0] != M.shape[1]:
        raise ValueError("pencil matrices must be square and same-shaped")
    try:
        alpha, beta = scipy.linalg.eigvals(M, N, homogeneous_eigvals=True)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"QZ failed: {exc}") from exc
    if check_regular and not _pencil_is_regular(M, N):
        raise SingularPencilError("pencil appears to be singular (non-regular)")
    return Spectrum(np.asarray(alpha, dtype=complex), np.asarray(beta, dtype=complex))


def eig_pencil_deflated(M, N, check_regular: bool = True) -> Spectrum:
    """Eigenvalues of M - lambda*N, with the zero columns J of N deflated first.

    Each exactly-zero column of N carries an infinite eigenvalue when the
    columns M[:, J] are independent.  With the Householder QR
    M[:, J] = Q [R; 0] = [Q1, Q2] [R; 0], the pencil Q* (M - lambda*N) is block
    upper triangular with diagonal blocks R - lambda*0 and
    Q2* M[:, ~J] - lambda*Q2* N[:, ~J], so QZ runs only on the second one,
    of order m - |J|.  Q is unitary and applied as reflectors, so QZ's
    backward stability is kept; nothing is inverted.  The |J| deflated
    eigenvalues come first, as explicit infinities (alpha = 1, beta = 0);
    ``Spectrum.deflated`` counts them.  Without zero columns, or when
    M[:, J] is numerically rank-deficient (the pencil is then singular or
    nearly so), this is ``eig_pencil`` on the whole pencil.
    """
    M = np.asarray(M, dtype=complex)
    N = np.asarray(N, dtype=complex)
    if M.shape != N.shape or M.shape[0] != M.shape[1]:
        raise ValueError("pencil matrices must be square and same-shaped")
    zero = ~N.any(axis=0)
    k = int(np.count_nonzero(zero))
    if k == 0:
        return eig_pencil(M, N, check_regular)
    geqrf, unmqr, trcon = scipy.linalg.get_lapack_funcs(("geqrf", "unmqr", "trcon"), (M,))
    qr, tau, _, info = geqrf(M[:, zero])
    rcond, _ = trcon(qr[:k])
    if info != 0 or not rcond > M.shape[0] * np.finfo(float).eps:
        return eig_pencil(M, N, check_regular)
    p = M.shape[0] - k
    # Fortran order lets LAPACK overwrite [M, N][:, ~J] in place
    rest = np.empty((M.shape[0], 2 * p), dtype=complex, order="F")
    rest[:, :p] = M[:, ~zero]
    rest[:, p:] = N[:, ~zero]
    _, work, _ = unmqr("L", "C", qr, tau, rest, -1)
    rest, _, info = unmqr("L", "C", qr, tau, rest, int(work[0].real), overwrite_c=True)
    if info != 0:
        raise ConvergenceFailure(f"applying the deflating reflectors failed (info={info})")
    spec = eig_pencil(rest[k:, :p], rest[k:, p:], check_regular)
    return Spectrum(np.concatenate([np.ones(k, dtype=complex), spec.alpha]),
                    np.concatenate([np.zeros(k, dtype=complex), spec.beta]), deflated=k)


def eig_quadratic(Q0, Q1, Q2, check_regular: bool = True) -> Spectrum:
    """Eigenvalues of the quadratic problem (Q0 + r*Q1 + r^2*Q2) w = 0.

    Solved via the companion linearization
    ``[[Q1, Q0], [-I, 0]] z = r [[-Q2, 0], [0, -I]] z``; returns all 2m
    eigenvalues including infinite ones.  Each all-zero column of Q2 is an
    all-zero column of the right-hand matrix and is deflated by
    ``eig_pencil_deflated`` (the matching left-hand columns contain -I, so
    they are always independent): QZ factors a problem of order 2m - k for
    k zero columns, which is 6n^2 for the discrete-time certificates
    (m = 4n^2, k = 2n^2).  Raises IllPosedError when Q0 and Q2 are both
    singular beyond tolerance (the problem may then have a continuum of
    solutions).
    """
    Q0 = np.asarray(Q0, dtype=complex)
    Q1 = np.asarray(Q1, dtype=complex)
    Q2 = np.asarray(Q2, dtype=complex)
    m = Q0.shape[0]
    if Q0.shape != (m, m) or Q1.shape != (m, m) or Q2.shape != (m, m):
        raise ValueError("coefficient matrices must be square and same-shaped")

    def _near_singular(Q):
        s = np.linalg.svd(Q, compute_uv=False)
        return s[0] == 0.0 or s[-1] <= 1e-12 * s[0]

    if check_regular and _near_singular(Q0) and _near_singular(Q2):
        raise IllPosedError("Q0 and Q2 are both (numerically) singular")
    eye = np.eye(m, dtype=complex)
    zero = np.zeros((m, m), dtype=complex)
    L = np.block([[Q1, Q0], [-eye, zero]])
    R = np.block([[-Q2, zero], [zero, -eye]])
    return eig_pencil_deflated(L, R, check_regular=check_regular)


# --------------------------------------------------------------------------
# Sylvester solvers
# --------------------------------------------------------------------------

def solve_sylvester(P, Q, C):
    """Solve the Sylvester equation P W + W Q = C.

    Requires Lambda(P) and Lambda(-Q) disjoint; raises
    NearSingularOperatorError when the eigenvalue separation (or the
    residual of the computed solution) indicates a near-singular operator.
    """
    P = np.asarray(P, dtype=complex)
    Q = np.asarray(Q, dtype=complex)
    C = np.asarray(C, dtype=complex)
    scale = np.linalg.norm(P, 2) + np.linalg.norm(Q, 2)
    sep = np.min(np.abs(np.linalg.eigvals(P)[:, None] + np.linalg.eigvals(Q)[None, :]))
    if sep <= 1e-12 * max(scale, 1e-300):
        raise NearSingularOperatorError(
            f"Lambda(P) and Lambda(-Q) separated by only {sep:.3e}"
        )
    try:
        W = scipy.linalg.solve_sylvester(P, Q, C)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NearSingularOperatorError(f"Sylvester solve failed: {exc}") from exc
    if not np.all(np.isfinite(W)):
        raise NearSingularOperatorError("Sylvester solution overflowed")
    resid = np.linalg.norm(P @ W + W @ Q - C)
    wnorm = np.linalg.norm(W)
    if resid > 1e-12 * max(scale * wnorm, np.linalg.norm(C)):
        raise NearSingularOperatorError(
            f"Sylvester residual {resid:.3e} too large (separation likely tiny)"
        )
    return W


def solve_gen_sylvester(M, Mt, N, Nt, Y):
    """Solve the two-sided generalized Sylvester equation M W Mt* - N W Nt* = Y.

    Uses QZ decompositions of (M, N) and (Mt*, Nt*) followed by a
    column-by-column triangular substitution; O(n^3) overall.  Requires the
    pencils M - lambda*N and Nt* - lambda*Mt* to be regular with disjoint
    spectra.
    """
    M = np.asarray(M, dtype=complex)
    N = np.asarray(N, dtype=complex)
    MtH = np.asarray(Mt, dtype=complex).conj().T
    NtH = np.asarray(Nt, dtype=complex).conj().T
    Y = np.asarray(Y, dtype=complex)
    p = M.shape[0]
    q = MtH.shape[0]
    if Y.shape != (p, q):
        raise ValueError("right-hand side has incompatible shape")

    try:
        TM, TN, QL, ZL = scipy.linalg.qz(M, N, output="complex")
        SM, SN, QR, ZR = scipy.linalg.qz(MtH, NtH, output="complex")
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"QZ failed: {exc}") from exc
    # M = QL TM ZL*, N = QL TN ZL*;  Mt* = QR SM ZR*, Nt* = QR SN ZR*
    C = QL.conj().T @ Y @ ZR
    X = np.zeros((p, q), dtype=complex)
    scale = (np.linalg.norm(M, np.inf) + np.linalg.norm(N, np.inf)) * \
        (np.linalg.norm(MtH, np.inf) + np.linalg.norm(NtH, np.inf))
    for j in range(q):
        if j > 0:
            rm = X[:, :j] @ SM[:j, j]
            rn = X[:, :j] @ SN[:j, j]
        else:
            rm = rn = np.zeros(p, dtype=complex)
        rhs = C[:, j] - TM @ rm + TN @ rn
        T = SM[j, j] * TM - SN[j, j] * TN
        diag = np.abs(np.diag(T))
        if np.any(diag <= 1e-14 * max(np.linalg.norm(T, np.inf), 1e-300)):
            raise NearSingularOperatorError(
                "generalized Sylvester operator is numerically singular "
                "(pencil spectra too close)"
            )
        X[:, j] = scipy.linalg.solve_triangular(T, rhs, lower=False)
    W = ZL @ X @ QR.conj().T
    resid = np.linalg.norm(M @ W @ MtH - N @ W @ NtH - Y)
    if not np.all(np.isfinite(W)) or resid > 1e-10 * max(scale * np.linalg.norm(W), np.linalg.norm(Y)):
        raise NearSingularOperatorError(
            f"generalized Sylvester residual {resid:.3e} too large"
        )
    return W


# --------------------------------------------------------------------------
# shift-and-invert eigensolver
# --------------------------------------------------------------------------

def _operator_norm_estimate(op, rng):
    """Crude power-iteration estimate of ||A1|| for residual scaling."""
    v = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    v /= np.linalg.norm(v)
    est = 1.0
    for _ in range(5):
        w = op.apply(v)
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 1.0
        est = nrm
        v = w / nrm
    return float(est)


def eigs_shift_invert(op, shift, k, tol=1e-10, maxiter=None, seed=0):
    """The k eigenvalues of an implicit (generalized) problem nearest a shift.

    ``op`` is a ``dnc.LinearOperator``: it provides ``dim``, ``apply(v)``
    (action of the stiffness matrix), ``apply_mass(v)`` (action of the mass
    matrix; identity if the problem is standard),
    ``shifted_inverse_apply(shift, y)``, and ``to_dense()`` for problems too
    small for ARPACK.

    Works on the transformed operator T = (A1 - s*A2)^{-1} A2, whose
    largest-magnitude eigenvalues correspond to the pencil eigenvalues
    nearest the shift.  Per-value convergence is reported explicitly: each
    returned RitzValue carries its (A1 - lam*A2) residual and a flag, and
    values that failed the residual test are returned flagged rather than
    dropped.

    Returns
    -------
    list of RitzValue, sorted by distance from the shift.
    """
    dim = op.dim
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = np.random.default_rng(seed)
    norm_est = getattr(op, "_norm_est", None)
    if norm_est is None:
        norm_est = _operator_norm_estimate(op, rng)
        try:
            op._norm_est = norm_est
        except AttributeError:
            pass
    res_tol = 1e-8 * max(norm_est, 1.0)

    def residual_of(lam, z):
        z = z / np.linalg.norm(z)
        r = op.apply(z) - lam * op.apply_mass(z)
        return float(np.linalg.norm(r))

    def make_ritz(lam, z):
        r = residual_of(lam, z)
        return RitzValue(complex(lam), r, r <= res_tol)

    # Tiny problems (or k too large for ARPACK): materialize and use dense QZ.
    if k >= dim - 1 or dim <= 8:
        vals, vecs = scipy.linalg.eig(*op.to_dense())
        finite = np.isfinite(vals)
        vals, vecs = vals[finite], vecs[:, finite]
        order = np.argsort(np.abs(vals - shift))[:k]
        return [make_ritz(vals[j], vecs[:, j]) for j in order]

    def T_matvec(y):
        return op.shifted_inverse_apply(shift, op.apply_mass(y))

    T = scipy.sparse.linalg.LinearOperator((dim, dim), matvec=T_matvec, dtype=complex)
    ncv = min(dim, max(4 * k + 1, 20))
    v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    try:
        mu, Z = scipy.sparse.linalg.eigs(
            T, k=k, which="LM", ncv=ncv, tol=tol,
            maxiter=maxiter or 40 * dim, v0=v0,
        )
    except ArpackNoConvergence as exc:
        mu, Z = exc.eigenvalues, exc.eigenvectors
        if mu is None or len(mu) == 0:
            raise MaxIterationsError("ARPACK returned no converged Ritz values") from exc
    except ArpackError as exc:
        raise ArnoldiBreakdownError(f"ARPACK failure: {exc}") from exc

    out = []
    for j in range(len(mu)):
        if mu[j] == 0.0 or not np.isfinite(mu[j]):
            continue  # infinite pencil eigenvalue; not "near the shift"
        lam = shift + 1.0 / mu[j]
        out.append(make_ritz(lam, Z[:, j]))
    if not out:
        raise MaxIterationsError("all Ritz values mapped to infinite eigenvalues")
    out.sort(key=lambda rv: abs(rv.value - shift))
    return out
