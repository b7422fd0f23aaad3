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
    MaxIterationsError,
    NearSingularOperatorError,
)

__all__ = [
    "Spectrum",
    "RitzValue",
    "eig_pencil",
    "eig_pencil_deflated",
    "eig_quadratic",
    "sylvester_solver",
    "solve_sylvester",
    "gen_sylvester_solver",
    "solve_gen_sylvester",
    "eigs_shift_invert",
]

_BETA_ZERO_RTOL = 1e-14  # |beta| below this (relative) means an infinite eigenvalue


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


@dataclass(frozen=True)
class RitzValue:
    """A Ritz value from a shift-and-invert solve, with its residual status."""

    value: complex
    residual: float
    converged: bool


def eig_pencil(M, N) -> Spectrum:
    """Generalized eigenvalues of the pencil M - lambda*N, infinities included.

    Regularity is not checked.  The certificate pencils approach the
    singular boundary by design as eta -> 0, and every candidate they yield
    is verified by a direct SVD downstream.  A singular pencil shows up as
    pairs with alpha and beta both at rounding level, which ``is_infinite``
    classes as infinite.
    """
    M = np.asarray(M, dtype=complex)
    N = np.asarray(N, dtype=complex)
    if M.shape != N.shape or M.shape[0] != M.shape[1]:
        raise ValueError("pencil matrices must be square and same-shaped")
    try:
        alpha, beta = scipy.linalg.eigvals(M, N, homogeneous_eigvals=True)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"QZ failed: {exc}") from exc
    return Spectrum(np.asarray(alpha, dtype=complex), np.asarray(beta, dtype=complex))


def eig_pencil_deflated(M, N) -> Spectrum:
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
        return eig_pencil(M, N)
    geqrf, unmqr, trcon = scipy.linalg.get_lapack_funcs(("geqrf", "unmqr", "trcon"), (M,))
    qr, tau, _, info = geqrf(M[:, zero])
    rcond, _ = trcon(qr[:k])
    if info != 0 or not rcond > M.shape[0] * np.finfo(float).eps:
        return eig_pencil(M, N)
    p = M.shape[0] - k
    # Fortran order lets LAPACK overwrite [M, N][:, ~J] in place
    rest = np.empty((M.shape[0], 2 * p), dtype=complex, order="F")
    rest[:, :p] = M[:, ~zero]
    rest[:, p:] = N[:, ~zero]
    _, work, _ = unmqr("L", "C", qr, tau, rest, -1)
    rest, _, info = unmqr("L", "C", qr, tau, rest, int(work[0].real), overwrite_c=True)
    if info != 0:
        raise ConvergenceFailure(f"applying the deflating reflectors failed (info={info})")
    spec = eig_pencil(rest[k:, :p], rest[k:, p:])
    return Spectrum(np.concatenate([np.ones(k, dtype=complex), spec.alpha]),
                    np.concatenate([np.zeros(k, dtype=complex), spec.beta]), deflated=k)


def eig_quadratic(Q0, Q1, Q2) -> Spectrum:
    """Eigenvalues of the quadratic problem (Q0 + r*Q1 + r^2*Q2) w = 0.

    Solved via the companion linearization
    ``[[Q1, Q0], [-I, 0]] z = r [[-Q2, 0], [0, -I]] z``; returns all 2m
    eigenvalues including infinite ones.  Each all-zero column of Q2 is an
    all-zero column of the right-hand matrix and is deflated by
    ``eig_pencil_deflated`` (the matching left-hand columns contain -I, so
    they are always independent): QZ factors a problem of order 2m - k for
    k zero columns, which is 6n^2 for the discrete-time certificates
    (m = 4n^2, k = 2n^2).  Regularity is not checked: when Q0 and Q2 are
    both singular the problem may have a continuum of solutions, which the
    discrete-time certificates rule out by nudging gamma off the singular
    values of A (``cert_dt._nudge_gamma``).
    """
    Q0 = np.asarray(Q0, dtype=complex)
    Q1 = np.asarray(Q1, dtype=complex)
    Q2 = np.asarray(Q2, dtype=complex)
    m = Q0.shape[0]
    if Q0.shape != (m, m) or Q1.shape != (m, m) or Q2.shape != (m, m):
        raise ValueError("coefficient matrices must be square and same-shaped")
    eye = np.eye(m, dtype=complex)
    zero = np.zeros((m, m), dtype=complex)
    L = np.block([[Q1, Q0], [-eye, zero]])
    R = np.block([[-Q2, zero], [zero, -eye]])
    return eig_pencil_deflated(L, R)


# --------------------------------------------------------------------------
# Sylvester solvers
# --------------------------------------------------------------------------

def sylvester_solver(P, Q):
    """Factor the Sylvester operator W -> P W + W Q once; returns ``solve(C)``.

    Bartels-Stewart: the separation check, the scale and the Schur forms
    P = U R U*, Q* = V S V* are computed here, once; each ``solve(C)``
    then costs one triangular Sylvester solve (LAPACK ``trsyl``, as in
    ``scipy.linalg.solve_sylvester``) and two back-transforms.  Requires
    Lambda(P) and Lambda(-Q) disjoint; raises NearSingularOperatorError
    when the eigenvalue separation (or, per solve, the residual of the
    computed solution) indicates a near-singular operator.
    """
    P = np.asarray(P, dtype=complex)
    Q = np.asarray(Q, dtype=complex)
    scale = np.linalg.norm(P, 2) + np.linalg.norm(Q, 2)
    sep = np.min(np.abs(np.linalg.eigvals(P)[:, None] + np.linalg.eigvals(Q)[None, :]))
    if sep <= 1e-12 * max(scale, 1e-300):
        raise NearSingularOperatorError(
            f"Lambda(P) and Lambda(-Q) separated by only {sep:.3e}"
        )
    try:
        R, U = scipy.linalg.schur(P, output="real")
        S, V = scipy.linalg.schur(Q.conj().transpose(), output="real")
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NearSingularOperatorError(f"Sylvester solve failed: {exc}") from exc
    UH, VH = U.conj().transpose(), V.conj().transpose()
    trsyl, = scipy.linalg.get_lapack_funcs(("trsyl",), (R, S))

    def solve(C):
        C = np.asarray(C, dtype=complex)
        # R Y + Y S* = U* C V, then W = U Y V*
        F = np.dot(np.dot(UH, C), V)
        Y, s, info = trsyl(R, S, F, tranb="C")
        if info < 0:
            raise NearSingularOperatorError(
                f"Sylvester solve failed: illegal value in the {-info} term")
        W = np.dot(np.dot(U, s * Y), VH)
        if not np.all(np.isfinite(W)):
            raise NearSingularOperatorError("Sylvester solution overflowed")
        resid = np.linalg.norm(P @ W + W @ Q - C)
        wnorm = np.linalg.norm(W)
        if resid > 1e-12 * max(scale * wnorm, np.linalg.norm(C)):
            raise NearSingularOperatorError(
                f"Sylvester residual {resid:.3e} too large (separation likely tiny)"
            )
        return W

    return solve


def solve_sylvester(P, Q, C):
    """Solve the Sylvester equation P W + W Q = C (see ``sylvester_solver``)."""
    return sylvester_solver(P, Q)(C)


def gen_sylvester_solver(M, Mt, N, Nt):
    """Factor W -> M W Mt* - N W Nt* once; returns ``solve(Y)``.

    The QZ decompositions of (M, N) and (Mt*, Nt*), the scale and every
    column's triangular coefficient, with its singularity check, are
    computed here, once; each ``solve(Y)`` is a column-by-column triangular
    substitution, O(n^3).  Requires the pencils M - lambda*N and
    Nt* - lambda*Mt* to be regular with disjoint spectra.
    """
    M = np.asarray(M, dtype=complex)
    N = np.asarray(N, dtype=complex)
    MtH = np.asarray(Mt, dtype=complex).conj().T
    NtH = np.asarray(Nt, dtype=complex).conj().T
    p = M.shape[0]
    q = MtH.shape[0]
    try:
        TM, TN, QL, ZL = scipy.linalg.qz(M, N, output="complex")
        SM, SN, QR, ZR = scipy.linalg.qz(MtH, NtH, output="complex")
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"QZ failed: {exc}") from exc
    # M = QL TM ZL*, N = QL TN ZL*;  Mt* = QR SM ZR*, Nt* = QR SN ZR*
    QLH, QRH = QL.conj().T, QR.conj().T
    scale = (np.linalg.norm(M, np.inf) + np.linalg.norm(N, np.inf)) * \
        (np.linalg.norm(MtH, np.inf) + np.linalg.norm(NtH, np.inf))
    T = []  # column j of X solves T[j] x = rhs
    for j in range(q):
        Tj = SM[j, j] * TM - SN[j, j] * TN
        diag = np.abs(np.diag(Tj))
        if np.any(diag <= 1e-14 * max(np.linalg.norm(Tj, np.inf), 1e-300)):
            raise NearSingularOperatorError(
                "generalized Sylvester operator is numerically singular "
                "(pencil spectra too close)"
            )
        T.append(Tj)

    def solve(Y):
        Y = np.asarray(Y, dtype=complex)
        if Y.shape != (p, q):
            raise ValueError("right-hand side has incompatible shape")
        C = QLH @ Y @ ZR
        X = np.zeros((p, q), dtype=complex)
        for j in range(q):
            if j > 0:
                rm = X[:, :j] @ SM[:j, j]
                rn = X[:, :j] @ SN[:j, j]
            else:
                rm = rn = np.zeros(p, dtype=complex)
            rhs = C[:, j] - TM @ rm + TN @ rn
            X[:, j] = scipy.linalg.solve_triangular(T[j], rhs, lower=False)
        W = ZL @ X @ QRH
        resid = np.linalg.norm(M @ W @ MtH - N @ W @ NtH - Y)
        if not np.all(np.isfinite(W)) or resid > 1e-10 * max(scale * np.linalg.norm(W), np.linalg.norm(Y)):
            raise NearSingularOperatorError(
                f"generalized Sylvester residual {resid:.3e} too large"
            )
        return W

    return solve


def solve_gen_sylvester(M, Mt, N, Nt, Y):
    """Solve M W Mt* - N W Nt* = Y (see ``gen_sylvester_solver``)."""
    return gen_sylvester_solver(M, Mt, N, Nt)(Y)


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
    matrix), ``shifted_solver(shift)``
    (factors A1 - shift*A2 once and returns y -> (A1 - shift*A2)^{-1} y;
    called once per query, so every ARPACK matvec reuses the factorization),
    and ``to_dense()`` for problems too small for ARPACK.

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

    solve = op.shifted_solver(shift)

    def T_matvec(y):
        return solve(op.apply_mass(y))

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
