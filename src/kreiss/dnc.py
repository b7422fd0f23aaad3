"""Divide-and-conquer real-eigenvalue search on implicit certificate pencils.

The certificate eigenproblems have orders 4n^2 (continuous) and 8n^2
(discrete companion linearization), but both are vectorized 2n x 2n
Sylvester forms, so applying the pencil matrices or a shifted inverse to a
vector costs O(n^3).  One operator serves the three continuous-time
pencils, built from the same blocks (S1, S2, C, D) as the dense pencils
(``cert_ct._pencil_blocks``); its shifted inverse is one Sylvester solve.
The discrete-time operator shares the ray factors and pair rule of
``cert_dt``; its shifted inverse is one generalized Sylvester solve.
``shifted_solver(shift)`` factors that solve once per shift (two Schur
forms, or two QZ forms), so each of the many right-hand sides an ARPACK
query sends at that shift costs only triangular solves.  A
recursive interval sweep then finds all real eigenvalues in [lo, hi] with
shift-and-invert queries: each shift clears a disk whose radius is a
conservative fraction of the distance to the k-th converged Ritz value,
and uncovered subintervals are recursed on.  The certificates sweep only
the domain's ``search_interval``: the problem's ``stability_gap`` lifts its
lower end off the barrier, and its ``numerical_range_bound`` sets its upper
end, so the sweep's width follows omega(A) (or w(A) - 1), not ||A||.  When
that interval is empty no operator is built and no query is made.  The sweep counts as
real the Ritz values inside dense QZ's capture band.

The dense eigensolve remains the default certificate backend (QZ, or QR
on m2^-1 m1 for a variable pencil with a well-conditioned m2); this layer
is opt-in because shift-and-invert solvers can miss nearby eigenvalues, a
failure mode the test suite checks for explicitly rather than masks.  The
operators are built from the problem's A, never from its split form
(``MatrixProblem.split``): a reducible A gets one operator of the full
order here, where the dense pencils split into one part per pair of
blocks."""

from __future__ import annotations

import numpy as np
import scipy.sparse

from .errors import KreissError, MaxShiftsError, ZeroShiftError
from .linalg import eigs_shift_invert, gen_sylvester_solver, sylvester_solver
# the one-shot solvers stay importable here: bench/tracing.py wraps them by these names
from .linalg import solve_gen_sylvester, solve_sylvester  # noqa: F401
from .matio import MatrixProblem, TimeDomain
from .objective import check_domain

__all__ = [
    "LinearOperator",
    "op_fixed_ct",
    "op_variable_ct",
    "op_horizontal_ct",
    "op_quad_dt",
    "real_eigs_in_interval",
]

# cleared-disk radius as a fraction of the distance to the k-th Ritz value;
# hedges against shift-invert solvers missing one of the closest eigenvalues
DISK_SAFETY = 0.95


def _vec(W):
    return W.ravel(order="F")


def _unvec(w, m):
    return np.asarray(w, dtype=complex).reshape((m, m), order="F")


class LinearOperator:
    """Implicit square operator for a generalized eigenproblem A1 x = lambda A2 x.

    Subclasses provide ``apply`` (the action of A1), ``mass_matrix`` (A2,
    explicit and sparse) and ``shifted_solver(shift)``, which factors
    A1 - shift*A2 once and returns y -> (A1 - shift*A2)^{-1} y.
    """

    dim: int
    mass_matrix: scipy.sparse.spmatrix

    def apply(self, v):
        raise NotImplementedError

    def apply_mass(self, v):
        return self.mass_matrix @ v

    def shifted_solver(self, shift):
        raise NotImplementedError

    def to_dense(self):
        eye = np.eye(self.dim, dtype=complex)
        A1 = np.column_stack([self.apply(eye[:, j]) for j in range(self.dim)])
        A2 = np.column_stack([self.apply_mass(eye[:, j]) for j in range(self.dim)])
        return A1, A2


class _SylvesterOperatorCT(LinearOperator):
    """A continuous-time certificate pencil applied in its Sylvester form.

    With the blocks (S1, S2, C, D) of ``cert_ct._pencil_blocks``,
    A1 w = vec(S1 W + W S2) and A2 w = vec(C W + W D^T) for the 2n x 2n
    matrix W = unvec(w), so the shifted solve (A1 - s A2) w = y is the
    Sylvester equation (S1 - s C) W + W (S2 - s D^T) = unvec(y).  The mass
    matrix kron(I, C) + kron(D, I) is kept explicit and sparse.
    """

    def __init__(self, prob, gamma, eta, variant, theta_orient=None):
        from .cert_ct import _pencil_blocks  # deferred: cert_ct imports this module

        check_domain(prob, TimeDomain.CONTINUOUS, "operator")
        self.S1, self.S2, self.C, self.D = _pencil_blocks(prob.A, gamma, eta, variant,
                                                          theta_orient)
        self._m = 2 * prob.n
        self.dim = self._m * self._m
        eye = np.eye(self._m)
        self.mass_matrix = (scipy.sparse.kron(eye, self.C)
                            + scipy.sparse.kron(self.D, eye)).tocsr()

    def apply(self, v):
        W = _unvec(v, self._m)
        return _vec(self.S1 @ W + W @ self.S2)

    def shifted_solver(self, shift):
        solve = sylvester_solver(self.S1 - shift * self.C, self.S2 - shift * self.D.T)
        m = self._m
        return lambda y: _vec(solve(_unvec(y, m)))


def op_fixed_ct(prob: MatrixProblem, gamma: float, eta: float,
                theta_orient: float = np.pi / 2) -> LinearOperator:
    """Implicit operator for the continuous-time fixed-distance pencil."""
    return _SylvesterOperatorCT(prob, gamma, eta, "fixed", theta_orient)


def op_variable_ct(prob: MatrixProblem, gamma: float, eta: float) -> LinearOperator:
    """Implicit operator for the continuous-time variable-distance pencil."""
    return _SylvesterOperatorCT(prob, gamma, eta, "variable-vertical")


def op_horizontal_ct(prob: MatrixProblem, gamma: float, eta: float) -> LinearOperator:
    """Implicit operator for the horizontal variable-distance pencil."""
    return _SylvesterOperatorCT(prob, gamma, eta, "variable-horizontal")


class _QuadDTOperator(LinearOperator):
    """Companion linearization of the discrete-time quadratic problem.

    State is z = [r*w; w] with w of length 4n^2 (dim 8n^2 total).  The
    stiffness is [[Q1, Q0], [-I, 0]], the mass diag(-Q2, -I); coefficient
    products go through the 2n x 2n factor blocks, and the shifted inverse
    solves the generalized Sylvester equation M W Mt* - N W Nt* = Yhat
    followed by the back substitution w2 = (y2 + w1)/s.
    """

    def __init__(self, prob, gamma, eta, variant="fixed"):
        from .cert_dt import _ray_factor_blocks, _ray_pair  # deferred: cert_dt imports this module

        if variant not in ("fixed", "variable"):
            raise ValueError("variant must be 'fixed' or 'variable'")
        n = prob.n
        self._m = 2 * n
        self.half = 4 * n * n  # length of vec(W) with W of order 2n
        self.dim = 2 * self.half
        delta, self.beta = _ray_pair(gamma, eta, variant)
        (self.C0, self.C1, self.D0, self.D1,
         self.E0, self.E1, self.F0, self.F1) = _ray_factor_blocks(prob.A, gamma, delta)
        sp = scipy.sparse.csr_matrix
        q2 = scipy.sparse.kron(sp(self.D1.T), sp(self.C1)) \
            - scipy.sparse.kron(sp(self.F1.T), sp(self.E1))
        q2 = self.beta * q2
        eye_h = scipy.sparse.identity(self.half, dtype=complex, format="csr")
        self.mass_matrix = scipy.sparse.bmat([[-q2, None], [None, -eye_h]], format="csr")

    def _q0w(self, W):
        return self.C0 @ W @ self.D0 - self.E0 @ W @ self.F0

    def _q1w(self, W):
        lead = self.C1 @ W @ self.D0 - self.E1 @ W @ self.F0
        trail = self.C0 @ W @ self.D1 - self.E0 @ W @ self.F1
        return self.beta * trail + lead

    def apply(self, v):
        v = np.asarray(v, dtype=complex)
        W1 = _unvec(v[:self.half], self._m)
        W2 = _unvec(v[self.half:], self._m)
        top = _vec(self._q1w(W1)) + _vec(self._q0w(W2))
        return np.concatenate([top, -v[:self.half]])

    def shifted_solver(self, shift):
        if shift == 0.0:
            raise ZeroShiftError("the companion back-substitution divides by the shift")
        s = complex(shift)
        M = self.C0 + s * self.C1
        N = self.E0 + s * self.E1
        # Mt*, Nt* evaluated at the partner radius (s + eta, or beta*s + delta)
        MtH = self.D0 + self.beta * s * self.D1
        NtH = self.F0 + self.beta * s * self.F1
        solve_w1 = gen_sylvester_solver(M, MtH.conj().T, N, NtH.conj().T)

        def solve(y):
            y = np.asarray(y, dtype=complex)
            y1, y2 = y[:self.half], y[self.half:]
            yhat = s * y1 - _vec(self._q0w(_unvec(y2, self._m)))
            w1 = _vec(solve_w1(_unvec(yhat, self._m)))
            w2 = (y2 + w1) / s
            return np.concatenate([w1, w2])

        return solve


def op_quad_dt(prob: MatrixProblem, gamma: float, eta: float,
               variant: str = "fixed") -> LinearOperator:
    """Implicit companion-linearization operator for the discrete tests."""
    check_domain(prob, TimeDomain.DISCRETE, "operator")
    return _QuadDTOperator(prob, gamma, eta, variant)


# --------------------------------------------------------------------------
# recursive interval sweep
# --------------------------------------------------------------------------

def real_eigs_in_interval(op: LinearOperator, lo: float, hi: float,
                          k_per_shift: int = 6, seed: int = 0,
                          max_shifts: int | None = None,
                          real_rtol: float = 1e-8) -> list[float]:
    """All real eigenvalues of the operator's pencil in [lo, hi].

    Recursive midpoint sweep: query the k nearest eigenvalues at the
    midpoint, clear a disk of DISK_SAFETY times the distance to the k-th
    converged Ritz value (non-converged Ritz values shrink the disk
    further), and recurse on what remains uncovered.  Every reported
    eigenvalue passed its own residual test.  A converged Ritz value counts
    as real when |Im| <= real_rtol * max(1, |Re|), and its real part is
    reported; the certificates pass the capture band of dense QZ
    (``cert_ct._capture_band_rel``), so both backends forward the same
    near-real roots.  The default is the strict band
    ``cert_ct.REAL_AXIS_RTOL``.  The certificates pass the domain's proven
    ``search_interval`` as [lo, hi] and never call this when it is empty;
    the number of shifts grows with hi - lo.

    Raises MaxShiftsError when the budget (default 4 * dim) is exhausted.
    No caller catches it: it propagates out of the certificate test, and a
    solve that meets it reports ``SolveStatus.FAILED``.
    """
    if lo >= hi:
        raise ValueError("need lo < hi")
    budget = 4 * op.dim if max_shifts is None else max_shifts
    rng = np.random.default_rng(seed)
    scale = max(abs(lo), abs(hi), 1.0)
    min_radius = 1e-10 * scale
    found: list[float] = []
    shifts_used = 0
    stack = [(lo, hi)]

    while stack:
        a, b = stack.pop()
        if b - a <= 2e-12 * scale:
            continue
        if shifts_used >= budget:
            raise MaxShiftsError(f"exceeded {budget} shift-invert queries")
        mid = 0.5 * (a + b)
        shifts_used += 1
        ritz = _query(op, mid, k_per_shift, rng)
        if ritz is None:
            # singular or stuck shift: retry once nearby, else split blindly
            shifts_used += 1
            jitter = (b - a) * (0.05 * rng.random() + 0.01)
            ritz = _query(op, mid + jitter, k_per_shift, rng)
            if ritz is None:
                stack.append((a, mid))
                stack.append((mid, b))
                continue
            mid = mid + jitter
        conv = [rv for rv in ritz if rv.converged]
        nonconv = [rv for rv in ritz if not rv.converged]
        conv_real = []
        for rv in conv:
            lam = rv.value
            if abs(lam.imag) <= real_rtol * max(1.0, abs(lam.real)):
                conv_real.append(float(lam.real))
                if lo <= lam.real <= hi:
                    found.append(float(lam.real))
        if conv:
            radius = DISK_SAFETY * max(abs(rv.value - mid) for rv in conv)
        else:
            radius = 0.0
        if nonconv:
            nearest_bad = min(abs(rv.value - mid) for rv in nonconv)
            radius = min(radius, DISK_SAFETY * nearest_bad) if radius > 0 else 0.0
        radius = max(radius, min_radius)
        left, right = mid - radius, mid + radius
        # validated eigenvalues just outside the hedged disk are known:
        # extend the cleared edges past them so the sweep cannot stall on
        # an eigenvalue sitting exactly at the k-th distance
        pad = 1e-9 * scale
        for _ in range(2):
            for lam in conv_real:
                if right < lam <= right + 0.5 * radius:
                    right = lam + pad
                if left - 0.5 * radius <= lam < left:
                    left = lam - pad
        if a < left:
            stack.append((a, left))
        if right < b:
            stack.append((right, b))

    return _dedupe(found, 1e-9 * scale)


def _query(op, shift, k, rng):
    try:
        return eigs_shift_invert(op, shift, k, seed=int(rng.integers(2**31)))
    except KreissError:
        return None


def _dedupe(vals, atol):
    if not vals:
        return []
    vals = sorted(vals)
    out = [vals[0]]
    for v in vals[1:]:
        if v - out[-1] > atol:
            out.append(v)
    return out
