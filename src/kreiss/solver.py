"""Globally convergent Kreiss-constant iterations.

Three methods, each pairing local optimization of the inverse-Kreiss
objective with a 2D level-set globality certificate:

* ``solve_owr_backtracking``: optimization-with-restarts where the
  fixed-distance certificate is retried with eta shrunk by a factor c
  until it either finds restart points or eta falls below eta_tol;
* ``solve_owr``: optimization-with-restarts without backtracking, using a
  variable-distance certificate at gamma = g_k (1 - 0.5 tol),
  eta = g_k tol, whose empty outcome certifies 1/K > g_k (1 - tol);
* ``solve_trisection``: lower/upper bound trisection on the same
  variable-distance certificate, shrinking the bracket by 2/3 per step.

The three methods share one start (``_solve``): when the numerical range
proves K = 1 (omega(A) <= 0, or w(A) <= 1 in discrete time;
``objective.Domain.contractive``), the solve returns K = 1 with that proof
and runs no local optimization and no certificate.  The two restart
methods share one loop and differ only in the (gamma, eta) levels they
test per minimum.  Otherwise no method accepts a plateau value (>= 1) as
K = 1 without a certificate: the restart methods test just below 1, and
trisection caps its upper bound at 1.  All three support both time
domains; ``certify`` maps a CERTIFICATE_CHOICES variant to its test, with
fixed variants reserved for the backtracking method and variable variants
for the other two (their termination semantics require the
coordinate-free lower bound).
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import cert_ct, cert_dt, localopt, objective
from .errors import InfeasibleStartError, KreissError
from .matio import MatrixProblem, TimeDomain

__all__ = [
    "SolveStatus",
    "TraceEntry",
    "Bounds",
    "KreissResult",
    "default_start",
    "solve_owr_backtracking",
    "solve_owr",
    "solve_trisection",
    "compute_kreiss",
    "certify",
    "CERTIFICATE_CHOICES",
]

CERTIFICATE_CHOICES = ("fixed-v", "fixed-h", "variable-v", "variable-h")
_MAX_RESTARTS = 100
_MAX_TRISECTION_ITERS = 1000
# optimization can stall on the large-x plateau (value >= 1) even for
# nonnormal matrices, so a plateau value alone never decides K = 1: the
# certificates are probed at 1 - _PLATEAU_PROBE_GAP, where emptiness
# genuinely bounds K below 1/(1 - gap) and detection restarts the descent
_PLATEAU_PROBE_GAP = 1e-9
# detected points with gradient norm below this are considered stationary
# and never used for restarting
_STATIONARY_GRAD_TOL = 1e-12


class SolveStatus(enum.Enum):
    CONVERGED = "converged"
    TOLERANCE_REACHED = "tolerance-reached"
    FAILED = "failed"


@dataclass
class TraceEntry:
    """One step of a solve; a certificate's entry carries its report's
    search interval and dense eigensolver (``CertificateReport.eig_route``,
    ``mass_cond``)."""

    phase: str
    gamma: float
    eta: float
    verdict: str
    points: int = 0
    search_lo: Optional[float] = None
    search_hi: Optional[float] = None
    eig_route: Optional[str] = None
    mass_cond: Optional[float] = None


@dataclass
class Bounds:
    lb: float
    ub: float

    @property
    def width(self) -> float:
        return self.ub - self.lb


@dataclass
class KreissResult:
    """One solve's Kreiss constant K = 1/gamma_inv and how it was reached.

    ``decided_by`` names the proof behind K: "numerical-range" (K = 1 from
    omega(A) <= 0 or w(A) <= 1, with no optimization and no certificate),
    "certificate" (the method's iteration), or "grid" (the oracle, no proof).
    """

    kreiss: float
    gamma_inv: float
    minimizer: Optional[objective.EvalPoint]
    restarts: int
    certificate_calls: int
    trace: list[TraceEntry]
    status: SolveStatus
    wall_time: float
    method: str
    bounds_history: list[Bounds] = field(default_factory=list)
    message: str = ""
    reports: list = field(default_factory=list)
    decided_by: str = "certificate"


def default_start(prob: MatrixProblem):
    """Heuristic feasible starting coordinates: the domain's ``start``.

    Continuous: x0 = max(1, -2 alpha(A)) on the height of the rightmost
    eigenvalue; discrete: radius halfway to 1/rho(A) at the angle of a
    largest-modulus eigenvalue.  The first coordinate is doubled (measured
    from the barrier) while the objective is infinite, which cannot happen
    for stable problems but keeps the helper total.
    """
    dom = objective.domain(prob)
    c1, c2 = dom.start(prob)
    for _ in range(200):
        if np.isfinite(objective.evaluate(prob, c1, c2).value):
            break
        c1 = dom.barrier + 2.0 * dom.scale(c1)
    return (c1, c2)


def certify(prob: MatrixProblem, variant: str, gamma: float, eta: float, *,
            use_dnc: bool = False, seed: int = 0) -> cert_ct.CertificateReport:
    """Run the 2D level-set test that ``variant`` names at level gamma, distance eta.

    ``variant`` is one of CERTIFICATE_CHOICES: fixed- or variable-distance
    pairs, vertical (-v) or horizontal (-h).  The discrete-time tests are
    radial, so both orientations map to the same test there.  ``use_dnc``
    selects the divide-and-conquer eigenvalue search, seeded by ``seed``.
    """
    if variant not in CERTIFICATE_CHOICES:
        raise ValueError(f"certificate must be one of {CERTIFICATE_CHOICES}")
    opts = dict(use_dnc=use_dnc, seed=seed)
    fixed = variant.startswith("fixed")
    if prob.time_domain is TimeDomain.DISCRETE:
        if fixed:
            return cert_dt.fixed_distance_test_dt(prob, gamma, eta, **opts)
        return cert_dt.variable_distance_test_dt(prob, gamma, eta, **opts)
    if fixed:
        theta = np.pi / 2 if variant == "fixed-v" else 0.0
        return cert_ct.fixed_distance_test(prob, gamma, eta, theta_orient=theta, **opts)
    if variant == "variable-v":
        return cert_ct.variable_distance_test(prob, gamma, eta, **opts)
    return cert_ct.horizontal_variable_test(prob, gamma, eta, **opts)


def _check_certificate(method, certificate, kind):
    if certificate not in CERTIFICATE_CHOICES or not certificate.startswith(kind):
        raise ValueError(f"{method} needs a {kind}-distance certificate, "
                         f"one of {CERTIFICATE_CHOICES}")


class _Run:
    """Bookkeeping of one solve: certificate calls, trace, status, result."""

    def __init__(self, prob, method, certificate=None, use_dnc=False, seed=0):
        self.t0 = time.perf_counter()
        self.prob, self.method = prob, method
        self.certificate, self.use_dnc, self.seed = certificate, use_dnc, seed
        self.trace: list[TraceEntry] = []
        self.reports: list = []
        self.status = SolveStatus.CONVERGED
        self.message = ""
        self.decided_by = "certificate"

    def certify(self, gamma, eta, phase="certificate"):
        """The traced report of the certificate at (gamma, eta); None once it failed."""
        try:
            report = certify(self.prob, self.certificate, gamma, eta,
                             use_dnc=self.use_dnc, seed=self.seed)
        except KreissError as exc:
            self.fail(f"certificate failure: {exc}")
            return None
        self.reports.append(report)
        self.trace.append(TraceEntry(phase, gamma, eta, "empty" if report.empty else "points",
                                     len(report.points), report.search_lo, report.search_hi,
                                     report.eig_route, report.mass_cond))
        if report.empty and self.certificate.startswith("variable"):
            # report.gamma, not gamma: the discrete-time tests may nudge it
            self.message = f"certified 1/K > {report.gamma - 0.5 * eta:.17g}"
        return report

    def fail(self, message):
        self.status, self.message = SolveStatus.FAILED, message

    def finish(self, gamma_inv, minimizer, restarts=0, bounds_history=()):
        kreiss = max(1.0, 1.0 / gamma_inv) if gamma_inv > 0 else np.inf
        return KreissResult(
            kreiss=kreiss, gamma_inv=1.0 / kreiss, minimizer=minimizer, restarts=restarts,
            certificate_calls=len(self.reports), trace=self.trace, status=self.status,
            wall_time=time.perf_counter() - self.t0, method=self.method,
            bounds_history=list(bounds_history), message=self.message, reports=self.reports,
            decided_by=self.decided_by,
        )


def _solve(prob, method, certificate, use_dnc, seed, iterate):
    """The start the three methods share: ``iterate(run)`` runs the method,
    unless the numerical range already proves K = 1.

    A contractive A (``objective.Domain.contractive``) has g >= 1 (h >= 1)
    everywhere, with 1 approached far from the barrier, so K = 1 needs no
    local optimization and no certificate; the result records the bound.
    """
    run = _Run(prob, method, certificate, use_dnc, seed)
    dom = objective.domain(prob)
    if dom.contractive(prob):
        run.decided_by = "numerical-range"
        radius = "omega(A)" if prob.is_continuous else "w(A)"
        run.message = (f"numerical range proves K = 1: {radius} <= "
                       f"{prob.numerical_range_bound:.17g} <= {dom.barrier:g}")
        return run.finish(1.0, None)
    return iterate(run)


def _initial_minimum(prob, start, opt_opts):
    start = default_start(prob) if start is None else tuple(map(float, start))
    return localopt.minimize(prob, start, **opt_opts)


def _usable_restart_points(prob, report, gamma):
    """Verified points that are neither stationary nor above the level."""
    out = []
    for pt in report.points:
        if not pt.feasible or pt.value > gamma * (1.0 + 1e-10):
            continue
        try:
            der = objective.gradient(pt, prob, allow_subgradient=True)
        except KreissError:
            continue
        if np.linalg.norm(der.grad) <= _STATIONARY_GRAD_TOL:
            continue
        out.append(pt)
    return sorted(out, key=lambda p: p.value)


def _restart_loop(run, res, levels, opt_opts):
    """Optimization with restarts from the local minimum ``res``.

    After each local minimum g_k the certificate runs at the (gamma, eta)
    levels of ``levels(g_k)``, in order.  The first usable point whose
    descent ends strictly below g_k restarts the iteration; a minimum that
    no level restarts is the result.
    """
    prob = run.prob
    for restarts in range(_MAX_RESTARTS):
        g_k = res.value
        run.trace.append(TraceEntry("optimize", g_k, 0.0, "minimized"))
        for gamma, eta in levels(g_k):
            report = run.certify(gamma, eta)
            if report is None:
                return run.finish(res.value, res.minimizer, restarts)
            candidates = _usable_restart_points(prob, report, gamma)
            if candidates:
                nxt = localopt.minimize(prob, candidates[0].coords, **opt_opts)
                if nxt.value < g_k * (1.0 - 1e-14):
                    res = nxt
                    break
        else:
            if candidates:
                run.message = "detected points did not improve the minimum; accepting g_k"
            return run.finish(res.value, res.minimizer, restarts)
    run.fail("restart budget exhausted")
    return run.finish(res.value, res.minimizer, _MAX_RESTARTS)


def solve_owr_backtracking(
    prob: MatrixProblem,
    start=None,
    eta_tol: Optional[float] = None,
    eta0: Optional[float] = None,
    c: float = 0.5,
    certificate: str = "fixed-v",
    use_dnc: bool = False,
    seed: int = 0,
    **opt_opts,
) -> KreissResult:
    """Optimization-with-restarts using a backtracked fixed-distance test.

    After each local minimization (value g_k) the fixed-distance test runs
    at gamma = g_k with eta shrunk by the factor ``c`` until either
    level-set points are found (restart) or eta <= eta_tol (terminate:
    g_k is the global minimum to tolerance, so K = 1/g_k).
    """
    _check_certificate("owr-bt", certificate, "fixed")
    if not (0.0 < c < 1.0):
        raise ValueError("c must lie in (0, 1)")

    def iterate(run):
        res = _initial_minimum(prob, start, opt_opts)
        eta_max = (0.1 * objective.domain(prob).scale(res.minimizer.coords[0])
                   if eta0 is None else eta0)
        eta_min = 1e-8 * eta_max if eta_tol is None else eta_tol

        def levels(g_k):
            gamma, eta = min(g_k, 1.0 - _PLATEAU_PROBE_GAP), eta_max
            while True:
                yield gamma, eta
                if eta <= eta_min:
                    return
                eta = c * eta

        return _restart_loop(run, res, levels, opt_opts)

    return _solve(prob, "owr-bt", certificate, use_dnc, seed, iterate)


def solve_owr(
    prob: MatrixProblem,
    start=None,
    gamma_tol: float = 1e-10,
    certificate: str = "variable-v",
    use_dnc: bool = False,
    seed: int = 0,
    **opt_opts,
) -> KreissResult:
    """Optimization-with-restarts without backtracking.

    Each round runs the variable-distance test once, at
    gamma = min(g_k (1 - 0.5 gamma_tol), 1 - _PLATEAU_PROBE_GAP) and
    eta = g_k gamma_tol.  Points restart optimization strictly below the
    previous minimum; an empty test proves 1/K > gamma - eta/2, which is
    g_k (1 - gamma_tol) below the plateau, and the iteration stops with 1/g_k.
    """
    _check_certificate("owr", certificate, "variable")
    if gamma_tol <= 0:
        raise ValueError("gamma_tol must be positive")

    def levels(g_k):
        return [(min(g_k * (1.0 - 0.5 * gamma_tol), 1.0 - _PLATEAU_PROBE_GAP),
                 g_k * gamma_tol)]

    def iterate(run):
        return _restart_loop(run, _initial_minimum(prob, start, opt_opts), levels, opt_opts)

    return _solve(prob, "owr", certificate, use_dnc, seed, iterate)


def solve_trisection(
    prob: MatrixProblem,
    start=None,
    gamma_tol: float = 1e-10,
    certificate: str = "variable-v",
    use_dnc: bool = False,
    seed: int = 0,
    **opt_opts,
) -> KreissResult:
    """Trisection on [lb, ub] with the variable-distance certificate.

    Initialized with lb = 0 and ub = the objective value at the start
    (optimized first when it is at least 1, and capped at 1).  Each step tests
    gamma = lb + (2/3)(ub - lb) with eta = (2/3)(ub - lb): points give
    ub = gamma, emptiness gives lb += (1/3)(ub - lb), so the bracket width
    shrinks by 2/3 per certificate call until ub - lb <= ub * gamma_tol.
    """
    _check_certificate("trisection", certificate, "variable")
    if gamma_tol <= 0:
        raise ValueError("gamma_tol must be positive")

    def iterate(run):
        run.status = SolveStatus.TOLERANCE_REACHED
        x0 = default_start(prob) if start is None else tuple(map(float, start))
        ub = objective.evaluate(prob, *x0).value
        if not np.isfinite(ub):
            raise InfeasibleStartError(f"objective is +inf at start {x0}")
        if ub >= 1.0:
            # the certificate needs gamma < 1; pull the upper bound down, and
            # cap it at 1, a valid bound on 1/K since g and h tend to 1 at infinity
            ub = localopt.minimize(prob, x0, **opt_opts).value
            run.trace.append(TraceEntry("optimize", ub, 0.0, "minimized"))
            ub = min(ub, 1.0)
        lb = 0.0
        history = [Bounds(lb, ub)]

        for _ in range(_MAX_TRISECTION_ITERS):
            if (ub - lb) <= ub * gamma_tol:
                break
            diff = ub - lb
            eta = (2.0 / 3.0) * diff
            gamma = lb + eta
            report = run.certify(gamma, eta, phase="trisection")
            if report is None:
                break
            if report.points:
                ub = gamma
            else:
                lb = lb + diff / 3.0
            history.append(Bounds(lb, ub))
        else:
            run.fail("trisection iteration budget exhausted")

        return run.finish(ub, None, bounds_history=history)

    return _solve(prob, "trisection", certificate, use_dnc, seed, iterate)


def compute_kreiss(prob: MatrixProblem, method: str = "owr", **kwargs) -> KreissResult:
    """Dispatch to one of the three iterations (or the grid oracle).

    ``method`` is one of 'owr-bt', 'owr', 'trisection', 'grid'.  The grid
    method is the brute-force oracle, returned in the same result type with
    no certificate guarantees.
    """
    if method == "owr-bt":
        return solve_owr_backtracking(prob, **kwargs)
    if method == "owr":
        return solve_owr(prob, **kwargs)
    if method == "trisection":
        return solve_trisection(prob, **kwargs)
    if method == "grid":
        from . import oracle

        run = _Run(prob, "grid")
        run.decided_by = "grid"
        kwargs.pop("start", None)
        val, coords = oracle.grid_min(prob, **kwargs)
        run.trace.append(TraceEntry("grid", val, 0.0, "minimized"))
        run.message = "brute-force oracle estimate (no globality certificate)"
        return run.finish(val, objective.evaluate(prob, *coords))
    raise ValueError(f"unknown method {method!r}")
