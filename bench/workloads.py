"""Seeded inputs and operation lists for the four benchmark workloads.

Every input comes from the workload seed: each instance draws from its own
generator keyed by (seed, time domain, kind, n), so adding an instance does
not shift the others.  The program under test receives only the generated
matrices and levels.

Workloads (names are cited by later changes; keep them fixed):

* ``solve-ct``  -- ``solve_owr_backtracking``, dense backend, continuous
  time, n = 4, 5, 6, four kinds per n (seeded random, Jordan block, seeded
  normal, seeded two-cluster that restarts the solver).  The random kind
  exercises descent and certification below the plateau; the normal kind
  alone takes the K = 1 plateau-probe path.  The fixed-distance
  4n^2 QZ inside ``cert_ct`` does most of the work; ``localopt`` and
  ``objective`` show only at n = 4.  The discrete-time code is bypassed.
* ``solve-dt``  -- the same solver and kinds in discrete time, n = 4, 5,
  where the 8n^2 companion QZ in ``linalg.eig_quadratic`` dominates.
  ``solve-ct`` is its no-change control for discrete-time eigensolver work.
* ``certify``   -- direct variable-distance certificates (plus the
  horizontal variant in continuous time) at three levels per instance,
  taken from the instance's minimum g (untimed): variable pencils, both
  verdicts, and a visible share of 1D level-set work at small n.
* ``solve-dnc`` -- ``solve_owr_backtracking(use_dnc=True)`` at continuous
  n = 3 and discrete n = 3, 4: the only workload where the
  divide-and-conquer layer (ARPACK shift-invert plus Sylvester solves) does
  the work.  Its ``MaxShiftsError`` failures are counted, not removed.

The ladders are smaller than the sizes a user would run: every run of a
workload must fit, set-up and checks included, in about half a minute on
two cores, with room for at least two passes.  Discrete-time n = 8 alone
costs about 29 s per solve; a divide-and-conquer solve takes 4-5 s at
continuous n = 4, and one that ends in ``MaxShiftsError`` at continuous or
discrete n = 4 takes 27-58 s, so the failing instances here are the n = 3
ones that fail within seconds.

Nonnormal instances stay clear of the plateau g = 1: a solve's random
matrix descends from the default start to at most NONNORMAL_G_MAX (so
K >= 1.01), and a certified instance has its minimum at most that, with its
levels taken at that minimum, not at a higher local one.  Nearer the
plateau, and at the tight level of a higher local minimum, the program is
known to return wrong verdicts (``checks.KNOWN_DEFECTS``); the workloads
leave those inputs out, and every run re-runs their reproducers instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

import checks

KINDS = ("random", "jordan", "normal", "two-cluster")
DNC_KINDS = ("jordan", "rotated-normal", "plateau")

SOLVE_CT_NS = (4, 5, 6)
SOLVE_DT_NS = (4, 5)
# (time domain, n, kinds) for the direct certificate calls
CERTIFY_SET = (
    ("continuous", 4, ("random", "jordan")),
    ("continuous", 8, ("random", "jordan")),
    ("discrete", 3, ("random", "jordan")),
    ("discrete", 6, ("random", "jordan")),
)
HORIZONTAL_MAX_N = 8
# (time domain, n, kinds) for the divide-and-conquer solves
DNC_SET = (
    ("continuous", 3, ("jordan", "rotated-normal")),
    ("discrete", 3, ("rotated-normal", "plateau")),
    ("discrete", 4, ("rotated-normal",)),
)
# backtracking factor of the repository's acceptance corpus: eta shrinks
# 4x per step, so a solve without restarts makes 15 certificate calls
BACKTRACK_C = 0.25
# redraws allowed for an instance with a required property
MAX_DRAWS = 64
# a restart is only expected when a second basin is this much lower
RESTART_MARGIN = 1e-3
# a seeded nonnormal instance has its minimum g (or h) at most this
NONNORMAL_G_MAX = 0.99

_TD_ID = {"continuous": 0, "discrete": 1}


@dataclass
class Instance:
    """One generated matrix, before and after ``MatrixProblem`` validation."""

    name: str
    kind: str
    n: int
    time_domain: str
    A: np.ndarray
    draws: int = 1
    missed_restarts: int = 0
    g_oracle: Optional[float] = None
    prob: object = None


@dataclass
class Op:
    """One timed operation of a workload."""

    label: str
    instance: Instance
    call: str
    gamma: Optional[float] = None
    eta: Optional[float] = None
    level: Optional[str] = None


def _rng(seed, td, kind, n, draw=0):
    kind_id = (KINDS + DNC_KINDS).index(kind)
    return np.random.default_rng([seed, _TD_ID[td], kind_id, n, draw])


def _jordan(n, lam, scale=1.0):
    return np.diag(np.full(n, lam, dtype=complex)) + scale * np.diag(np.ones(n - 1), 1)


def random_matrix(n, td, rng):
    """Gaussian complex matrix shifted (ct) or scaled (dt) into stability.

    Same construction as the library's ``random-stable-shifted`` kind.
    """
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    eigs = np.linalg.eigvals(B)
    if td == "continuous":
        alpha = np.max(eigs.real)
        return B - (alpha + 0.05 * max(1.0, abs(alpha))) * np.eye(n)
    return B / (np.max(np.abs(eigs)) / 0.95)


def jordan_matrix(n, td, rng):
    """One Jordan block, strongly nonnormal; the same for every seed."""
    return _jordan(n, -0.3 if td == "continuous" else 0.9)


def normal_matrix(n, td, rng):
    """Unitary conjugation of a stable diagonal: K = 1, the plateau-probe path."""
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(Z)
    if td == "continuous":
        lam = -0.2 - rng.random(n) + 1j * rng.standard_normal(n)
    else:
        lam = (0.1 + 0.85 * rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    return Q @ np.diag(lam) @ Q.conj().T


def rotated_normal_matrix(n, td, rng):
    """A seeded unitary conjugation of a fixed stable diagonal: K = 1.

    The spectrum, which sets the work of the divide-and-conquer sweep, is
    the same for every seed; only the eigenvectors change.
    """
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(Z)
    k = np.arange(n)
    if td == "continuous":
        lam = -0.3 - 0.5 * k / n + 1j * (k - (n - 1) / 2.0)
    else:
        lam = (0.5 + 0.4 * k / n) * np.exp(2j * np.pi * (k + 0.5) / n)
    return Q @ np.diag(lam) @ Q.conj().T


def two_cluster_matrix(n, td, rng):
    """Block-diagonal pair of Jordan blocks; returns (A, eigenvalue of block B).

    Block A holds the rightmost (ct) or largest-modulus (dt) eigenvalue,
    where the solver's default start looks, and is mildly nonnormal.
    Block B lies elsewhere and is more nonnormal, so its basin is often
    the deeper one and the solver must find it by a restart.
    """
    k = n - n // 2
    if td == "continuous":
        b_a = rng.uniform(-1.0, 1.0)
        b_b = b_a + rng.choice([-1.0, 1.0]) * rng.uniform(3.0, 5.0)
        lam_a = complex(-rng.uniform(0.1, 0.3), b_a)
        lam_b = complex(-rng.uniform(0.4, 0.7), b_b)
        s_a, s_b = rng.uniform(0.2, 0.5), rng.uniform(1.0, 2.0)
    else:
        p_a = rng.uniform(0.0, 2.0 * np.pi)
        p_b = p_a + rng.choice([-1.0, 1.0]) * rng.uniform(np.pi / 2, np.pi)
        lam_a = rng.uniform(0.88, 0.95) * np.exp(1j * p_a)
        lam_b = rng.uniform(0.7, 0.85) * np.exp(1j * p_b)
        s_a, s_b = rng.uniform(0.05, 0.15), rng.uniform(0.5, 1.0)
    A = np.zeros((n, n), dtype=complex)
    A[:k, :k] = _jordan(k, lam_a, s_a)
    A[k:, k:] = _jordan(n - k, lam_b, s_b)
    return A, lam_b


def plateau_matrix(n, td, rng):
    """Discrete time: the largest-modulus eigenvalue sits in a 1x1 block.

    The local search from the default start then ends on the h = 1 plateau,
    and the plateau probe asks the divide-and-conquer sweep for an interval
    of radii about 1e9 wide (||A|| > 1), which exhausts its shift budget.
    """
    if td != "discrete":
        raise ValueError("the plateau kind is discrete-time only")
    phase = rng.uniform(0.0, 2.0 * np.pi)
    A = np.zeros((n, n), dtype=complex)
    A[0, 0] = 0.95 * np.exp(1j * phase)
    A[1:, 1:] = _jordan(n - 1, 0.7 * np.exp(1j * (phase + np.pi)), rng.uniform(0.9, 1.1))
    return A


_MAKERS = {"random": random_matrix, "jordan": jordan_matrix, "normal": normal_matrix,
           "rotated-normal": rotated_normal_matrix, "plateau": plateau_matrix}


def _restart_expected(kreiss, prob, lam_b):
    """Cheap screen: is the basin at block B's eigenvalue clearly deeper?"""
    start = kreiss.solver.default_start(prob)
    g_def = kreiss.localopt.minimize(prob, start).value
    angle = lam_b.imag if prob.is_continuous else float(np.angle(lam_b))
    g_alt = kreiss.localopt.minimize(prob, (start[0], angle)).value
    return g_alt < g_def * (1.0 - RESTART_MARGIN)


def draw_two_cluster(kreiss, seed, n, td):
    """Draw two-cluster matrices until one restarts the dense solver.

    A draw passes a cheap screen first (a second local minimization started
    at block B); it is accepted only when the full solve really restarts.
    Screened draws whose solve did not restart are counted in
    ``missed_restarts``: the solver reported a K that a deeper basin
    contradicts, which the correctness gate would flag.
    """
    missed = 0
    for draw in range(MAX_DRAWS):
        A, lam_b = two_cluster_matrix(n, td, _rng(seed, td, "two-cluster", n, draw))
        prob = kreiss.MatrixProblem(A, td)
        if not _restart_expected(kreiss, prob, lam_b):
            continue
        result = kreiss.solver.solve_owr_backtracking(prob, c=BACKTRACK_C)
        if result.restarts > 0:
            return Instance(f"{td[0]}t-two-cluster-n{n}", "two-cluster", n, td, A,
                            draws=draw + 1, missed_restarts=missed)
        missed += 1
    raise RuntimeError(f"no restarting two-cluster draw for {td} n={n} "
                       f"in {MAX_DRAWS} draws")


def default_min(kreiss, prob):
    """g (or h) at the local minimum the solver's default start descends to."""
    return kreiss.localopt.minimize(prob, kreiss.solver.default_start(prob)).value


def draw_random(kreiss, seed, n, td):
    """Draw random matrices until the default start descends below the plateau.

    A draw whose descent ends above NONNORMAL_G_MAX ends on or near the
    h = 1 plateau.  The solver then certifies at a level just below 1 (the
    plateau probe, which the normal kind covers), and in discrete time such
    certificates are known to miss lower basins (``checks.KNOWN_DEFECTS``).
    Such a matrix is redrawn, and the draws are counted.
    """
    for draw in range(MAX_DRAWS):
        A = random_matrix(n, td, _rng(seed, td, "random", n, draw))
        if default_min(kreiss, kreiss.MatrixProblem(A, td)) <= NONNORMAL_G_MAX:
            return Instance(f"{td[0]}t-random-n{n}", "random", n, td, A, draws=draw + 1)
    raise RuntimeError(f"no nonnormal random draw for {td} n={n} in {MAX_DRAWS} draws")


def make_instance(kreiss, seed, kind, n, td):
    if kind == "two-cluster":
        return draw_two_cluster(kreiss, seed, n, td)
    if kind == "random":
        return draw_random(kreiss, seed, n, td)
    A = _MAKERS[kind](n, td, _rng(seed, td, kind, n))
    return Instance(f"{td[0]}t-{kind}-n{n}", kind, n, td, A)


def _solve_ops(kreiss, seed, td, ns):
    ops = []
    for n in ns:
        for kind in KINDS:
            inst = make_instance(kreiss, seed, kind, n, td)
            ops.append(Op(f"solve {inst.name}", inst, "solve"))
    return ops


def level_pairs(g):
    """(gamma, eta) of the three certificate levels around a local minimum g."""
    return {
        # the call owr makes when it ends
        "tight": (g * (1.0 - 0.5e-9), g * 1e-9),
        # trisection's first step from the bracket [0, g]
        "coarse": (2.0 * g / 3.0, 2.0 * g / 3.0),
        # above the minimum: finds points
        "above": (g + 0.5 * (1.0 - g), 0.25 * (1.0 - g)),
    }


def _nonnormal_instance(kreiss, seed, kind, n, td):
    """An instance whose minimum g is at most NONNORMAL_G_MAX, and that g.

    g is the local minimum polished from the grid oracle's best point: the
    1/K a finished solve certifies, so ``tight`` is the call owr ends with.
    The oracle value is kept for the correctness gate.
    """
    for draw in range(MAX_DRAWS):
        A = _MAKERS[kind](n, td, _rng(seed, td, kind, n, draw))
        prob = kreiss.MatrixProblem(A, td)
        g_oracle, coords = checks.oracle(kreiss, prob)
        g = min(g_oracle, kreiss.localopt.minimize(prob, coords).value)
        if g <= NONNORMAL_G_MAX:
            return Instance(f"{td[0]}t-{kind}-n{n}", kind, n, td, A, draws=draw + 1,
                            g_oracle=g_oracle), g
    raise RuntimeError(f"no nonnormal {kind} draw for {td} n={n}")


def _certify_ops(kreiss, seed):
    ops = []
    for td, n, kinds in CERTIFY_SET:
        for kind in kinds:
            inst, g = _nonnormal_instance(kreiss, seed, kind, n, td)
            calls = ["variable-dt"] if td == "discrete" else \
                ["variable"] + (["horizontal"] if n <= HORIZONTAL_MAX_N else [])
            for level, (gamma, eta) in level_pairs(g).items():
                for call in calls:
                    ops.append(Op(f"{call} {inst.name} {level}", inst, call,
                                  gamma=gamma, eta=eta, level=level))
    return ops


def _dnc_ops(kreiss, seed):
    ops = []
    for td, n, kinds in DNC_SET:
        for kind in kinds:
            inst = make_instance(kreiss, seed, kind, n, td)
            ops.append(Op(f"solve-dnc {inst.name}", inst, "solve-dnc"))
    return ops


def build_ops(kreiss, workload, seed):
    """Generate the workload's operations (matrices only; no MatrixProblem yet).

    Generation may run the program (local minimizations for the certificate
    levels, solves for the two-cluster restart draws); callers keep it out
    of every timed region.
    """
    if workload == "solve-ct":
        return _solve_ops(kreiss, seed, "continuous", SOLVE_CT_NS)
    if workload == "solve-dt":
        return _solve_ops(kreiss, seed, "discrete", SOLVE_DT_NS)
    if workload == "certify":
        return _certify_ops(kreiss, seed)
    if workload == "solve-dnc":
        return _dnc_ops(kreiss, seed)
    raise ValueError(f"unknown workload {workload!r}")


def rung_ops(ops, rung):
    """Indices of the operations at the smallest (or largest) n of their time domain."""
    pick = min if rung == "small" else max
    ends = {}
    for op in ops:
        td = op.instance.time_domain
        ends[td] = pick(ends.get(td, op.instance.n), op.instance.n)
    return [i for i, op in enumerate(ops) if op.instance.n == ends[op.instance.time_domain]]


def instances(ops):
    """Distinct instances of an operation list, in first-use order."""
    seen = {}
    for op in ops:
        seen.setdefault(id(op.instance), op.instance)
    return list(seen.values())


def build_problems(kreiss, insts):
    """The set-up step users pay: validate every matrix as a MatrixProblem."""
    for inst in insts:
        inst.prob = kreiss.MatrixProblem(inst.A, inst.time_domain)


def run_op(kreiss, op):
    """Issue one operation; returns the program's result object."""
    prob = op.instance.prob
    if op.call == "solve":
        return kreiss.solver.solve_owr_backtracking(prob, c=BACKTRACK_C)
    if op.call == "solve-dnc":
        return kreiss.solver.solve_owr_backtracking(prob, c=BACKTRACK_C, use_dnc=True)
    if op.call == "variable":
        return kreiss.cert_ct.variable_distance_test(prob, op.gamma, op.eta)
    if op.call == "horizontal":
        return kreiss.cert_ct.horizontal_variable_test(prob, op.gamma, op.eta)
    if op.call == "variable-dt":
        return kreiss.cert_dt.variable_distance_test_dt(prob, op.gamma, op.eta)
    raise ValueError(f"unknown call {op.call!r}")
