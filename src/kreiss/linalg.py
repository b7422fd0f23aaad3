"""Dense linear-algebra kernels the certificate and solver layers build on.

Everything here is dense and sized for desk-scale matrices (n up to a few
tens); the large certificate eigenproblems, which QZ factors at order 2n^2
(continuous-time fixed distance), 4n^2 (continuous-time variable distance)
or 6n^2 (discrete time: the trimmed linearization of the 4n^2 quadratic
problem), are still cheap at that scale.  A pencil M - lambda*N whose
caller has formed K = N^-1 M exactly enough (a continuous-time variable
pencil with a well-conditioned mass matrix, ``cert_ct.KroneckerPencil``)
goes to ``eig_standard`` instead: QR (LAPACK ``geev``) on K, 4-8 times
cheaper than QZ at the same order, with ``Spectrum.mass_cond`` recording
cond_2(N).  One dtype rule holds for every eigensolver here: a matrix or
pencil whose entries all have zero imaginary part runs in real LAPACK, any
other in complex LAPACK.  Every dense eigenproblem, from the order-2n
ones of the 1D level-set tests to the large ones, is one LAPACK call
(``eig_pencil``) with the workspace LAPACK reports for it, the call
scipy's ``linalg.eigvals`` makes, without its validation.  That call goes
through the function pointers of ``scipy.linalg.cython_lapack`` with
ctypes, which releases the GIL while LAPACK runs (scipy's f2py wrappers
hold it), so two certificates on two threads use two cores
(``solver._bracket_loop``).  The workspace query depends on the routine
and the order alone, so it runs once for each and its answer is kept.

A pencil known to be block diagonal up to row and column permutations (a
certificate pencil of a matrix that ``MatrixProblem.split`` splits, or the
symmetric and skew-symmetric halves of a real matrix's vertical
continuous-time pencil, ``cert_ct.TransposeHalves``) is passed with its
``parts``, the row and column indices of each diagonal block.
``eig_pencil_deflated``, ``eig_standard`` and ``eig_quadratic`` then
factor it one group of parts at a time and return the union as one
``Spectrum`` whose ``orders`` lists the orders factored, so the work falls
from (sum k)^3 to sum k^3.  Parts smaller than ``MIN_GROUP_ORDER`` are
grouped with their neighbours first.  The shift-and-invert path works
with implicit operators so the divide-and-conquer layer can avoid forming
them; it never splits.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, replace
from typing import Optional

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
    "eig_standard",
    "eig_quadratic",
    "sylvester_solver",
    "solve_sylvester",
    "gen_sylvester_solver",
    "solve_gen_sylvester",
    "eigs_shift_invert",
    "lapack_threads",
]

_BETA_ZERO_RTOL = 1e-14  # |beta| below this (relative) means an infinite eigenvalue
_ARPACK_TOL = 1e-10  # ARPACK's relative tolerance on each Ritz value
_ARPACK_MAXITER_PER_ORDER = 40  # ARPACK's restart budget per unit of order
# Parts of a split pencil are grouped, in the order given, until each group
# has coefficient matrices of at least this order (before deflation or
# linearization).  One QZ call costs about 65 us beyond its O(k^3) work,
# as much as complex QZ of order 4, so tiny parts do not repay their call.
# Measured crossover (2-core x86-64 VM, OpenBLAS on 1 thread, the
# benchmark's ct n = 4-6 and dt n = 4-5 normal and two-cluster solves of
# seed 7, median of 5): 1.33 s in total ungrouped, 1.10 s at 16, 1.16 s
# at 8 and at 24, 2.73 s unsplit; ct normal n = 4 takes 90 ms ungrouped,
# 56 ms at 16 and 48 ms unsplit.
MIN_GROUP_ORDER = 16


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues as generalized (alpha, beta) pairs; beta == 0 means infinity.

    The first ``deflated`` eigenvalues are infinities known from the pencil's
    structure (see ``eig_pencil_deflated``); the eigensolver factored a
    problem of order ``order``, the rest.  ``orders`` holds the order of
    each problem it factored: ``(order,)`` for one pencil, one entry per
    group of parts for a split one (module docstring).  ``mass_cond`` is
    None when QZ factored the pencil, and cond_2(N) when QR factored
    K = N^-1 M (``eig_standard``); ``route`` names the two.
    """

    alpha: np.ndarray
    beta: np.ndarray
    deflated: int = 0
    orders: Optional[tuple[int, ...]] = None
    mass_cond: Optional[float] = None

    def __post_init__(self):
        if self.orders is None:
            object.__setattr__(self, "orders", (self.order,))

    def __len__(self):
        return len(self.alpha)

    @property
    def route(self) -> str:
        """"qz" for a generalized eigenproblem, "qr" for N^-1 M (``mass_cond``)."""
        return "qz" if self.mass_cond is None else "qr"

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
        finite = ~self.is_infinite
        return self.alpha[finite] / self.beta[finite]


@dataclass(frozen=True)
class RitzValue:
    """A Ritz value from a shift-and-invert solve, with its residual status."""

    value: complex
    residual: float
    converged: bool


def _lapack_dtype(*mats):
    """The matrices as real arrays when no entry has a nonzero imaginary part,
    else as complex ones.

    ``MatrixProblem`` stores A as complex, so a real problem's pencils
    arrive complex-typed with an all-zero imaginary part; the test
    ``not X.imag.any()`` sends them to real LAPACK (``dggev``), whose QZ is
    several times cheaper than complex QZ at the same order and returns
    real eigenvalues exactly real.
    """
    mats = [np.asarray(X) for X in mats]
    if any(np.iscomplexobj(X) and X.imag.any() for X in mats):
        return [X.astype(complex, copy=False) for X in mats]
    return [np.asarray(X.real, dtype=float) for X in mats]


def _check_pencil(M, N):
    if M.shape != N.shape or M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("pencil matrices must be square and same-shaped")


def _groups(parts):
    """The (rows, cols) parts merged, in order, into groups of order at least
    MIN_GROUP_ORDER; a short last group joins the one before it."""
    groups = []
    rows, cols = [], []
    for r, c in parts:
        rows.append(r)
        cols.append(c)
        if sum(len(x) for x in rows) >= MIN_GROUP_ORDER:
            groups.append((rows, cols))
            rows, cols = [], []
    if rows:
        if groups:
            groups[-1][0].extend(rows)
            groups[-1][1].extend(cols)
        else:
            groups.append((rows, cols))
    return [(np.concatenate(r), np.concatenate(c)) for r, c in groups]


def _union(specs) -> Spectrum:
    """One Spectrum of the block-diagonal problem whose blocks gave ``specs``:
    every block's structural infinities first, then the rest."""
    def joined(field):
        arrays = [getattr(s, field) for s in specs]
        return np.concatenate([a[:s.deflated] for a, s in zip(arrays, specs)]
                              + [a[s.deflated:] for a, s in zip(arrays, specs)])
    return Spectrum(joined("alpha"), joined("beta"), sum(s.deflated for s in specs),
                    sum((s.orders for s in specs), ()))


def _split(solve, mats, parts) -> Spectrum:
    """``solve`` on each group of parts of the matrices ``mats``, united."""
    groups = _groups(parts)
    if len(groups) == 1:
        return solve(*mats)
    return _union([solve(*(X[np.ix_(r, c)] for X in mats)) for r, c in groups])


# ctypes functions of cython_lapack's routines, by name, and the ``_Plan`` of
# each routine and order, under (number of matrices, dtype, order); both are
# filled on first use.
_ROUTINES: dict = {}
_PLANS: dict = {}
_NO_VECTORS = ctypes.create_string_buffer(b"N")
# A plan keeps the buffers of at most this many bytes for the next call:
# below it the Python around a call costs as much as LAPACK, and the kept
# buffers of every order a process meets stay small.
_KEEP_BYTES = 1 << 16
# Each array in a plan's buffer starts _SKEW bytes further into a page than
# the one before.  Arrays a whole number of pages apart share cache sets:
# at order 256 the complex A and B would lie exactly 1 MiB apart, and
# their QZ ran 13% slower than with scipy's separately allocated copies.
_PAGE, _SKEW = 4096, 512


def _routine(name):
    """The LAPACK routine ``name`` of scipy's ``cython_lapack``, as a ctypes
    function taking every argument as a pointer."""
    fn = _ROUTINES.get(name)
    if fn is None:
        from scipy.linalg import cython_lapack

        capsule = cython_lapack.__pyx_capi__[name]
        api = ctypes.pythonapi
        get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
            ("PyCapsule_GetName", api))
        get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
            ("PyCapsule_GetPointer", api))
        nargs = 14 if name.endswith("geev") else 17
        fn = _ROUTINES[name] = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * nargs)(
            get_pointer(capsule, get_name(capsule)))
    return fn


def lapack_threads() -> Optional[int]:
    """The thread count of the BLAS under scipy's LAPACK (scipy's OpenBLAS
    exports ``scipy_openblas_get_num_threads``), or None where it cannot be
    read."""
    fn = _ROUTINES.get("threads")
    if fn is None:
        from scipy.linalg import cython_lapack

        try:
            fn = ctypes.CFUNCTYPE(ctypes.c_int)(
                ("scipy_openblas_get_num_threads", ctypes.CDLL(cython_lapack.__file__)))
        except (OSError, AttributeError):
            fn = lambda: None  # noqa: E731
        _ROUTINES["threads"] = fn
    return fn()


class _Plan:
    """``?geev`` (one matrix) or ``?ggev`` (two), without eigenvectors, at one
    order, and the buffers its calls use.

    A buffer holds everything LAPACK reads or writes: the integers n, 1,
    lwork and info, then, each on its own pages (``_SKEW``), the matrices,
    the eigenvalue arrays in LAPACK's order ((wr, wi), (w), (alphar, alphai,
    beta) or (alpha, beta)), the workspace and, in complex arithmetic, the
    real workspace.  LAPACK's workspace query depends on the routine and the
    order alone, so it runs once, here, and every call uses its answer, as
    scipy's ``eigvals`` does.  A call takes a kept buffer or makes one; a
    small one is kept again afterwards, so concurrent calls never share one.
    """

    def __init__(self, nmats, dtype, n):
        name = ("d" if dtype == float else "z") + ("geev" if nmats == 1 else "ggev")
        self.fn, self.nmats, self.dtype, self.n = _routine(name), nmats, dtype, n
        self.spare: list = []
        self.lwork = -1
        query = self._buffer()
        self.fn(*query[-1])
        self.lwork = int(query[2][-1][0].real)

    def _buffer(self):
        """(memory, matrix views, eigenvalue arrays and the workspace, the
        integers, the routine's arguments)."""
        dtype, n, nmats = self.dtype, self.n, self.nmats
        real = dtype == float
        neig = nmats + real
        # array lengths in items of dtype; rwork holds 2n (geev) or 8n reals
        counts = [n * n] * nmats + [n] * neig + [max(self.lwork, 1)]
        if not real:
            counts.append(n if nmats == 1 else 4 * n)
        starts, end = [], 16
        for k, count in enumerate(counts):
            starts.append(-(-end // _PAGE) * _PAGE + _SKEW * k)
            end = starts[-1] + count * dtype.itemsize
        raw = (ctypes.c_char * end)()
        ints = np.ndarray(4, np.intc, raw)
        ints[:3] = n, 1, self.lwork
        at, no = ctypes.addressof(raw), ctypes.addressof(_NO_VECTORS)
        ptrs = [at + start for start in starts]
        args = [no, no, at]  # jobvl, jobvr, n
        for ptr in ptrs[:nmats]:
            args += [ptr, at]  # a, lda (b, ldb)
        args += ptrs[nmats:nmats + neig]
        work = nmats + neig
        args += [ptrs[work], at + 4] * 2  # vl, ldvl, vr, ldvr: not referenced
        args += [ptrs[work], at + 8, *ptrs[work + 1:], at + 12]  # work, lwork, (rwork,) info
        mats = [np.ndarray((n, n), dtype, raw, start, order="F") for start in starts[:nmats]]
        outs = [np.ndarray(count, dtype, raw, start)
                for count, start in zip(counts[nmats:work + 1], starts[nmats:work + 1])]
        return raw, mats, outs, ints, args

    def __call__(self, mats):
        """(alpha, beta) of ``mats``, copied into a buffer, as new arrays."""
        try:
            buf = self.spare.pop()
        except IndexError:
            buf = self._buffer()
        raw, views, out, ints, args = buf
        for view, X in zip(views, mats):
            view[...] = X
        self.fn(*args)
        info = int(ints[3])
        if self.dtype == float:
            alpha = out[0] + 1j * out[1]
        else:
            alpha = out[0].copy()
        beta = np.ones(self.n, dtype=complex) if self.nmats == 1 else out[-2].astype(complex)
        if len(raw) <= _KEEP_BYTES:
            self.spare.append(buf)
        if info != 0:
            raise ConvergenceFailure(f"LAPACK eigensolver failed (info={info})")
        return alpha, beta


def eig_pencil(M, N=None) -> Spectrum:
    """Eigenvalues of M, or of the pencil M - lambda*N, infinities included.

    One LAPACK call, ``geev`` (beta = 1) or ``ggev``, real or complex by
    ``_lapack_dtype``'s rule, with the workspace LAPACK reports for the
    problem: the call scipy's ``linalg.eigvals`` makes, so the values are
    bitwise its own.  The call goes through scipy's ``cython_lapack``
    pointers with ctypes, which releases the GIL while LAPACK runs, and
    the workspace is queried once per routine and order (``_Plan``).
    Regularity is not checked.  The certificate pencils
    approach the singular boundary by design as eta -> 0, and every
    candidate they yield is verified by a direct SVD downstream.  A
    singular pencil shows up as pairs with alpha and beta both at rounding
    level, which ``is_infinite`` classes as infinite.
    """
    mats = _lapack_dtype(M) if N is None else _lapack_dtype(M, N)
    _check_pencil(mats[0], mats[-1])
    key = (len(mats), mats[0].dtype, len(mats[0]))
    plan = _PLANS.get(key) or _PLANS.setdefault(key, _Plan(*key))
    return Spectrum(*plan(mats))


def eig_standard(K, mass_cond, parts=None) -> Spectrum:
    """Eigenvalues of the pencil M - lambda*N from K = N^-1 M, by QR.

    The caller forms K and states ``mass_cond``, the 2-norm condition of
    the N it inverted, which the returned Spectrum keeps: QR's backward
    error on K is a few eps times ||K||, so as a perturbation of the pencil
    it is about mass_cond * eps relative, against QZ's eps.  ``parts`` (see
    ``eig_pencil_deflated``) makes each group of K's diagonal blocks a
    problem of its own for ``eig_pencil``.
    """
    spec = eig_pencil(K) if parts is None else _split(eig_pencil, (K,), parts)
    return replace(spec, mass_cond=float(mass_cond))


def _with_infinities(k, spec) -> Spectrum:
    """``spec`` preceded by k explicit infinities (alpha = 1, beta = 0), counted
    as ``Spectrum.deflated``."""
    return Spectrum(np.concatenate([np.ones(k, dtype=complex), spec.alpha]),
                    np.concatenate([np.zeros(k, dtype=complex), spec.beta]), deflated=k)


def eig_pencil_deflated(M, N, parts=None) -> Spectrum:
    """Eigenvalues of M - lambda*N, with the zero columns J of N deflated first.

    Each exactly-zero column of N carries an infinite eigenvalue when the
    columns M[:, J] are independent.  With the Householder QR
    M[:, J] = Q [R; 0] = [Q1, Q2] [R; 0], the pencil Q* (M - lambda*N) is block
    upper triangular with diagonal blocks R - lambda*0 and
    Q2* M[:, ~J] - lambda*Q2* N[:, ~J], so QZ runs only on the second one,
    of order m - |J|.  Q is unitary (orthogonal for a real pencil, which
    stays in real arithmetic as in ``eig_pencil``) and applied as
    reflectors, so QZ's backward stability is kept; nothing is inverted.
    The |J| deflated eigenvalues come first, as explicit infinities
    (alpha = 1, beta = 0); ``Spectrum.deflated`` counts them.  Without zero
    columns, or when M[:, J] is numerically rank-deficient (the pencil is
    then singular or nearly so), this is ``eig_pencil`` on the whole pencil.
    ``parts``, the (rows, cols) index arrays of the diagonal blocks of a
    pencil that is block diagonal up to permutations, makes each group of
    them (``MIN_GROUP_ORDER``) deflated and factored on its own: the split
    comes first, since the QR would mix the blocks.  Each of the two halves
    of ``cert_ct.TransposeHalves`` keeps half of the zero columns, so the
    fixed pencil's halves deflate to orders n^2 + n and n^2 - n.
    """
    _check_pencil(M, N)
    if parts is not None:
        return _split(eig_pencil_deflated, (M, N), parts)
    M, N = _lapack_dtype(M, N)
    zero = ~N.any(axis=0)
    k = int(np.count_nonzero(zero))
    if k == 0:
        return eig_pencil(M, N)
    real = M.dtype == float
    geqrf, mqr, trcon = scipy.linalg.get_lapack_funcs(
        ("geqrf", "ormqr" if real else "unmqr", "trcon"), (M,))
    trans = "T" if real else "C"
    qr, tau, _, info = geqrf(M[:, zero])
    rcond, _ = trcon(qr[:k])
    if info != 0 or not rcond > M.shape[0] * np.finfo(float).eps:
        return eig_pencil(M, N)
    p = M.shape[0] - k
    # Fortran order lets LAPACK overwrite [M, N][:, ~J] in place
    rest = np.empty((M.shape[0], 2 * p), dtype=M.dtype, order="F")
    rest[:, :p] = M[:, ~zero]
    rest[:, p:] = N[:, ~zero]
    _, work, _ = mqr("L", trans, qr, tau, rest, -1)
    rest, _, info = mqr("L", trans, qr, tau, rest, int(work[0].real), overwrite_c=True)
    if info != 0:
        raise ConvergenceFailure(f"applying the deflating reflectors failed (info={info})")
    return _with_infinities(k, eig_pencil(rest[k:, :p], rest[k:, p:]))


def eig_quadratic(Q0, Q1, Q2, parts=None) -> Spectrum:
    """Eigenvalues of the quadratic problem (Q0 + r*Q1 + r^2*Q2) w = 0.

    Let J be the all-zero columns of Q2 (k of them), K the other p = m - k
    and E_K the columns K of I_m.  QZ runs on the trimmed linearization
    (Byers, Mehrmann & Xu, LAA 2008) of order m + p,

        L = [[Q0, 0], [0, I_p]],   R = [[-Q1, -Q2[:, K]], [E_K^T, 0]],

    whose eigenvector for r is [w; r w_K].  The Schur complement on the
    I_p block gives det(L - r R) = det(Q0 + r Q1 + r^2 Q2) exactly, so
    nothing is inverted and no QR runs.  The returned Spectrum has all 2m
    eigenvalues of the companion linearization: the k structural
    infinities of the zero columns come first as explicit infinities
    (``Spectrum.deflated`` == k), then the m + p from QZ
    (``Spectrum.order``).  That is order 6n^2 for the discrete-time
    certificates (m = 4n^2, k = 2n^2) instead of the 8n^2 companion
    pencil.  Real LAPACK runs when Q0, Q1 and Q2 are all real (see
    ``_lapack_dtype``), complex LAPACK otherwise.  Regularity is not
    checked: when Q0 and Q2 are both singular the problem may have a
    continuum of solutions, which the discrete-time certificates rule out
    by nudging gamma off the singular values of A
    (``cert_dt._nudge_gamma``).  With ``parts`` (see
    ``eig_pencil_deflated``), the coefficients are block diagonal up to
    permutations and each group of blocks is linearized and factored on
    its own, within this one call.
    """
    m = Q0.shape[0]
    if Q0.shape != (m, m) or Q1.shape != (m, m) or Q2.shape != (m, m):
        raise ValueError("coefficient matrices must be square and same-shaped")
    if parts is not None:
        return _split(eig_quadratic, (Q0, Q1, Q2), parts)
    Q0, Q1, Q2 = _lapack_dtype(Q0, Q1, Q2)
    K = np.flatnonzero(Q2.any(axis=0))
    p = len(K)
    L = np.zeros((m + p, m + p), dtype=Q0.dtype)
    R = np.zeros((m + p, m + p), dtype=Q0.dtype)
    L[:m, :m] = Q0
    L[m:, m:] = np.eye(p)
    R[:m, :m] = -Q1
    R[:m, m:] = -Q2[:, K]
    R[m + np.arange(p), K] = 1.0
    return _with_infinities(m - p, eig_pencil(L, R))


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
    substitution, O(n^3).  Each column is one direct LAPACK ``trtrs`` call,
    the call ``scipy.linalg.solve_triangular`` makes for these upper
    triangular coefficients, which are Fortran-ordered as QZ returns its
    factors, without its validation, which costs more than the solve at
    these orders.  Requires the pencils M - lambda*N and
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
    trtrs, = scipy.linalg.get_lapack_funcs(("trtrs",), (TM,))

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
            x, info = trtrs(T[j], rhs)
            if info != 0:
                raise NearSingularOperatorError(
                    f"triangular solve of column {j} failed (info={info})")
            X[:, j] = x
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


def eigs_shift_invert(op, shift, k, seed=0):
    """The k eigenvalues of an implicit (generalized) problem nearest a shift.

    ``op`` is a ``dnc.LinearOperator``: it provides ``dim``, ``apply(v)``
    (action of the stiffness matrix), ``apply_mass(v)`` (action of the mass
    matrix), ``shifted_solver(shift)``
    (factors A1 - shift*A2 once and returns y -> (A1 - shift*A2)^{-1} y;
    called once per query, so every ARPACK matvec reuses the factorization),
    and ``to_dense()`` for problems too small for ARPACK.

    Works on the transformed operator T = (A1 - s*A2)^{-1} A2, whose
    largest-magnitude eigenvalues correspond to the pencil eigenvalues
    nearest the shift, to ARPACK's tolerance ``_ARPACK_TOL`` within
    ``_ARPACK_MAXITER_PER_ORDER`` restarts per unit of order; ``seed`` draws
    the starting vector.  Per-value convergence is reported explicitly: each
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
            T, k=k, which="LM", ncv=ncv, tol=_ARPACK_TOL,
            maxiter=_ARPACK_MAXITER_PER_ORDER * dim, v0=v0,
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
