"""Globally convergent Kreiss-constant iterations.

Three methods, each pairing local optimization of the inverse-Kreiss
objective with a 2D level-set globality certificate.  All three run one
loop, ``_bracket_loop``, on a bracket [lb, ub] on 1/K (``Bounds``), and
each is only its level rule, the (gamma, eta) it tests next:

* ``solve_owr_backtracking``: fixed-distance tests at gamma = ub, eta shrunk by c;
* ``solve_owr``: one variable-distance test per minimum, at (ub (1 - tol/2), ub tol);
* ``solve_trisection``: variable-distance tests at (lb + 2d/3, 2d/3), d = ub - lb.

Only a report moves the bracket.  An EMPTY variable-distance report raises
lb to report.gamma - eta/2, the level it tested less half its distance (a
fixed-distance EMPTY proves nothing).  A verified point either restarts
the descent, whose lower minimum becomes ub, or, in trisection, lowers ub
to the report's level.  K = 1/ub, and the final ``Bounds`` is the proof.
One budget bounds the reports that move the bracket; the calls between two
moves are a finite sweep (owr-bt) or a level that would only repeat.

A sweep uses a second core: after a report that moved nothing and
factored an eigenproblem of order LOOKAHEAD_MIN_ORDER or more, the next
level's whole certificate runs on a worker thread while the current one
runs in the calling thread, when the process may use two CPUs and LAPACK's
BLAS runs one thread.  LAPACK releases the GIL (``linalg.eig_pencil``).
The report ahead is used only when the one before it also moved nothing
(a restart lowers ub, so it moves the bracket), so every report, the trace
and K are bitwise those of the serial loop; owr and trisection never test
ahead.

The three methods share one start (``_solve``): when the numerical range
proves K = 1 (omega(A) <= 0, or w(A) <= 1 in discrete time;
``objective.Domain.contractive``), the solve returns K = 1 with that proof
and runs no local optimization and no certificate.  Otherwise no method
accepts a plateau value (>= 1) as K = 1 without a certificate: the restart
methods test just below 1, and trisection caps its upper bound at 1.  All
three support both time domains; ``certify`` maps a CERTIFICATE_CHOICES
variant to its test, with fixed variants reserved for the backtracking
method and variable variants for the other two (their termination
semantics require the coordinate-free lower bound).
"""

from __future__ import annotations

import concurrent.futures
import enum
import math
import os
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import cert_ct, cert_dt, linalg, localopt, objective
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
_MAX_BRACKET_MOVES = 1000
# A sweep tests its next level on a second thread only after a report whose
# largest eigenproblem has at least this order (``_bracket_loop``).  Below
# it the tests are short and mostly Python, and two threads wait on each
# other's GIL.  Measured crossover (2-core x86-64 VM, OpenBLAS on 1 thread,
# owr-bt on the benchmark's ct n = 4-6 and dt n = 4-5 solves of seeds 3, 7
# and 11, median of 4, time ahead over serial): 0.91-1.54 at orders 8-20
# (above 1 on 10 of 12 solves), 0.88-1.24 at 24-32, 0.69-0.97 at 42-54 and
# 0.59-0.90 at 72 and above, where the large eigensolve dominates (one real
# order-96 solve, whose 1D tests weigh more, read 1.10).
LOOKAHEAD_MIN_ORDER = 40
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
    ``bounds_history`` holds the bracket on 1/K before the first certificate
    and after each one: lb rises only on an EMPTY variable-distance report,
    ub falls only to a lower local minimum or to a level with verified points.
    ``discarded_lookaheads`` counts the certificates tested ahead on a second
    thread whose reports were not used (``_bracket_loop``); they are in
    neither ``reports`` nor ``certificate_calls``.
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
    discarded_lookaheads: int = 0


def default_start(prob: MatrixProblem):
    """Heuristic feasible starting coordinates: the domain's ``start``.

    Continuous: x0 = max(1, -2 alpha(A)) on the height of the rightmost
    eigenvalue; discrete: radius halfway to 1/rho(A) at the angle of a
    largest-modulus eigenvalue.  Both lie off the barrier, where the
    objective of a stable (and, in discrete time, nonsingular) A is finite.
    """
    return objective.domain(prob).start(prob)


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


def _check_tolerance(name, value, upper=math.inf):
    """Reject a tolerance outside (0, upper), NaN included."""
    if not 0.0 < value < upper:
        below = "" if upper == math.inf else f", and below {upper:g}"
        raise ValueError(f"{name} must be positive and finite{below}; got {value}")


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
        self.discarded = 0

    def certify(self, gamma, eta):
        """The solve's certificate at (gamma, eta)."""
        return certify(self.prob, self.certificate, gamma, eta,
                       use_dnc=self.use_dnc, seed=self.seed)

    def discard(self, ahead):
        """Wait for a test run ahead and drop its report, or the KreissError
        it raised: the serial loop would not have run it."""
        try:
            ahead[1].result()
        except KreissError:
            pass
        self.discarded += 1

    def fail(self, message):
        self.status, self.message = SolveStatus.FAILED, message

    def finish(self, gamma_inv, minimizer, restarts=0, bounds_history=()):
        kreiss = max(1.0, 1.0 / gamma_inv) if gamma_inv > 0 else np.inf
        return KreissResult(
            kreiss=kreiss, gamma_inv=1.0 / kreiss, minimizer=minimizer, restarts=restarts,
            certificate_calls=len(self.reports), trace=self.trace, status=self.status,
            wall_time=time.perf_counter() - self.t0, method=self.method,
            bounds_history=list(bounds_history), message=self.message, reports=self.reports,
            decided_by=self.decided_by, discarded_lookaheads=self.discarded,
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


def _start(prob, start):
    """The user's start as floats, or ``default_start``; a coordinate that
    is NaN or infinite raises InfeasibleStartError before any evaluation."""
    if start is None:
        return default_start(prob)
    start = tuple(map(float, start))
    if not np.all(np.isfinite(start)):
        raise InfeasibleStartError(f"start coordinates must be finite; got {start}")
    return start


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


def _second_core() -> bool:
    """Whether a certificate may run beside another: the process may use at
    least two CPUs, and LAPACK's BLAS runs one thread (two callers of a
    multithreaded BLAS would share its threads), read from the library."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return cpus >= 2 and linalg.lapack_threads() == 1


def _bracket_loop(run, phase, levels, bounds, answer):
    """Test the (gamma, eta) that ``levels(bounds)`` yields from the live
    bracket, and return its history.  An EMPTY variable-distance report raises
    lb; ``answer(report, gamma, bounds)`` takes every other report (points, or
    a fixed-distance EMPTY) and may lower ub; it returns True, having lowered
    ub, to start ``levels`` again.  The budget counts reports that move the bracket: a rule
    is finite between moves, and a level asked again after its report moved
    nothing would only repeat that report, so the solve stops.

    After a report that moved nothing and factored an eigenproblem of order
    LOOKAHEAD_MIN_ORDER or more, the rule's next two levels are taken at
    once: the second is tested on a worker thread while the first is tested
    here (``_second_core``).  Its report is used only when the first one
    also moves nothing, and so restarts nothing; the rule then saw the same
    bracket as it would have after that report, so every report, and the
    solve, is bitwise the serial one.  Otherwise it is
    discarded (``run.discarded``), after the worker has finished, so a stale
    test never replaces the level a new rule builds.  Each certificate is
    one whole test, on its own copies, and LAPACK releases the GIL
    (``linalg.eig_pencil``).  This is owr-bt's sweep; owr yields one level
    per rule, and trisection's reports all move the bracket.
    """
    history, rule, moves, stalled = [replace(bounds)], levels(bounds), 0, None
    ahead, quiet = None, False
    # the executor starts its thread on the first submit and joins it on exit
    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        while True:
            if ahead is not None:
                level = ahead[0]
            elif (level := next(rule, None)) is None:
                break
            if level == stalled:
                run.fail(f"certificate at gamma = {level[0]:.17g}, tested at "
                         f"{run.reports[-1].gamma:.17g}, moved neither bound")
                break
            if moves == _MAX_BRACKET_MOVES:
                run.fail("certificate budget exhausted")
                break
            gamma, eta = level
            try:
                if ahead is not None:
                    future, ahead = ahead[1], None
                    report = future.result()
                else:
                    if quiet and _second_core() and (nxt := next(rule, None)) is not None:
                        ahead = nxt, pool.submit(run.certify, *nxt)
                    report = run.certify(gamma, eta)
            except KreissError as exc:
                run.fail(f"certificate failure: {exc}")
                break
            run.reports.append(report)
            run.trace.append(TraceEntry(phase, gamma, eta, "empty" if report.empty else "points",
                                        len(report.points), report.search_lo, report.search_hi,
                                        report.eig_route, report.mass_cond))
            if report.empty and run.certificate.startswith("variable"):
                # report.gamma, not gamma: the discrete-time tests may nudge it
                bounds.lb = max(bounds.lb, report.gamma - 0.5 * eta)
                run.message = f"certified 1/K > {bounds.lb:.17g}"
            elif answer(report, gamma, bounds):
                rule = levels(bounds)
            history.append(replace(bounds))
            moved = history[-1] != history[-2]
            moves, stalled = moves + moved, None if moved else level
            quiet = not moved and max(report.eig_orders, default=0) >= LOOKAHEAD_MIN_ORDER
            if ahead is not None and moved:
                run.discard(ahead)
                ahead = None
        if ahead is not None:  # the loop stopped with a test running ahead
            run.discard(ahead)
    return history


class _Descent:
    """Optimization with restarts, owr's and owr-bt's answer to a report: a
    descent from its lowest usable point that ends strictly below ub makes
    that minimum ub, and the level rule starts again from it."""

    def __init__(self, run, start):
        self.run, self.restarts = run, 0
        self.res = localopt.minimize(run.prob, _start(run.prob, start))
        run.trace.append(TraceEntry("optimize", self.res.value, 0.0, "minimized"))

    def __call__(self, report, gamma, bounds):
        run, candidates = self.run, _usable_restart_points(self.run.prob, report, gamma)
        run.message = ""
        if candidates:
            nxt = localopt.minimize(run.prob, candidates[0].coords)
            if nxt.value < bounds.ub * (1.0 - 1e-14):
                self.res, bounds.ub, self.restarts = nxt, nxt.value, self.restarts + 1
                run.trace.append(TraceEntry("optimize", nxt.value, 0.0, "minimized"))
                return True
            run.message = "detected points did not improve the minimum; accepting g_k"
        return False

    def solve(self, levels):
        history = _bracket_loop(self.run, "certificate", levels, Bounds(0.0, self.res.value), self)
        return self.run.finish(self.res.value, self.res.minimizer, self.restarts, history)


def solve_owr_backtracking(
    prob: MatrixProblem,
    start=None,
    eta_tol: Optional[float] = None,
    eta0: Optional[float] = None,
    c: float = 0.5,
    certificate: str = "fixed-v",
    use_dnc: bool = False,
    seed: int = 0,
) -> KreissResult:
    """Optimization-with-restarts using a backtracked fixed-distance test.

    At each local minimum ub the fixed-distance test runs at gamma = ub
    (below 1 - _PLATEAU_PROBE_GAP) with eta shrunk by the factor ``c`` until
    either level-set points restart the descent or eta <= eta_tol (ub is the
    global minimum to tolerance, so K = 1/ub).  lb stays 0.
    """
    _check_certificate("owr-bt", certificate, "fixed")
    if not (0.0 < c < 1.0):
        raise ValueError("c must lie in (0, 1)")
    for name, value in (("eta_tol", eta_tol), ("eta0", eta0)):
        if value is not None:
            _check_tolerance(name, value)

    def iterate(run):
        descent = _Descent(run, start)
        eta_max = (0.1 * objective.domain(prob).scale(descent.res.minimizer.coords[0])
                   if eta0 is None else eta0)
        eta_min = 1e-8 * eta_max if eta_tol is None else eta_tol

        def levels(bounds):
            gamma, eta = min(bounds.ub, 1.0 - _PLATEAU_PROBE_GAP), eta_max
            while True:
                yield gamma, eta
                if eta <= eta_min:
                    return
                eta = c * eta

        return descent.solve(levels)

    return _solve(prob, "owr-bt", certificate, use_dnc, seed, iterate)


def solve_owr(
    prob: MatrixProblem,
    start=None,
    gamma_tol: float = 1e-10,
    certificate: str = "variable-v",
    use_dnc: bool = False,
    seed: int = 0,
) -> KreissResult:
    """Optimization-with-restarts without backtracking.

    At each local minimum ub the variable-distance test runs once, at
    gamma = min(ub (1 - 0.5 gamma_tol), 1 - _PLATEAU_PROBE_GAP) and
    eta = ub gamma_tol.  Points restart optimization strictly below ub; an
    empty test proves lb = gamma - eta/2, which is ub (1 - gamma_tol) below
    the plateau, and the iteration stops with K = 1/ub.
    ``gamma_tol`` must lie in (0, 1): at 1 the proof says only 1/K > 0.
    """
    _check_certificate("owr", certificate, "variable")
    _check_tolerance("gamma_tol", gamma_tol, upper=1.0)

    def levels(bounds):
        yield (min(bounds.ub * (1.0 - 0.5 * gamma_tol), 1.0 - _PLATEAU_PROBE_GAP),
               bounds.ub * gamma_tol)

    return _solve(prob, "owr", certificate, use_dnc, seed,
                  lambda run: _Descent(run, start).solve(levels))


def solve_trisection(
    prob: MatrixProblem,
    start=None,
    gamma_tol: float = 1e-10,
    certificate: str = "variable-v",
    use_dnc: bool = False,
    seed: int = 0,
) -> KreissResult:
    """Trisection on [lb, ub] with the variable-distance certificate.

    Initialized with lb = 0 and ub = the objective value at the start
    (optimized first when it is at least 1, and capped at 1).  Each step tests
    gamma = lb + (2/3)(ub - lb) with eta = (2/3)(ub - lb): points lower ub
    to the level tested, emptiness raises lb to that level less eta/2, so the
    bracket width shrinks by 2/3 per call until ub - lb <= ub * gamma_tol,
    with gamma_tol in (0, 1).  A discrete-time level nudged off a singular
    value of A can fall outside a narrow bracket and move neither bound;
    the solve then fails with the bracket proven so far.
    """
    _check_certificate("trisection", certificate, "variable")
    _check_tolerance("gamma_tol", gamma_tol, upper=1.0)

    def levels(bounds):
        while bounds.ub - bounds.lb > bounds.ub * gamma_tol:
            eta = (2.0 / 3.0) * (bounds.ub - bounds.lb)
            yield bounds.lb + eta, eta

    def lower_ub(report, gamma, bounds):  # a report with points
        bounds.ub = min(bounds.ub, report.gamma)

    def iterate(run):
        run.status = SolveStatus.TOLERANCE_REACHED
        x0 = _start(prob, start)
        ub = objective.evaluate(prob, *x0).value
        if not np.isfinite(ub):
            raise InfeasibleStartError(f"objective is +inf at start {x0}")
        if ub >= 1.0:
            # the certificate needs gamma < 1; pull the upper bound down, and
            # cap it at 1, a valid bound on 1/K since g and h tend to 1 at infinity
            ub = localopt.minimize(prob, x0).value
            run.trace.append(TraceEntry("optimize", ub, 0.0, "minimized"))
            ub = min(ub, 1.0)
        history = _bracket_loop(run, "trisection", levels, Bounds(0.0, ub), lower_ub)
        return run.finish(history[-1].ub, None, bounds_history=history)

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
