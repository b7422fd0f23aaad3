import concurrent.futures
import os
import threading
import time

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import brentq

from kreiss import (
    MatrixProblem,
    certify,
    compute_kreiss,
    default_start,
    gen_test_matrix,
    minimize,
    solve_owr,
    solve_owr_backtracking,
    solve_trisection,
)
from kreiss.errors import ConvergenceFailure, InfeasibleStartError
from kreiss.oracle import grid_min
from kreiss import cert_dt, linalg, objective, solver
from kreiss.solver import CERTIFICATE_CHOICES, SolveStatus

from conftest import random_normal_stable, random_stable


def test_scalar_normal_all_methods(scalar_ct):
    for result in (solve_owr_backtracking(scalar_ct),
                   solve_owr(scalar_ct),
                   solve_trisection(scalar_ct)):
        assert result.kreiss == pytest.approx(1.0, abs=1e-6)
        assert result.kreiss >= 1.0 - 1e-10
        assert result.status is not SolveStatus.FAILED


def _three_methods(prob):
    return (solve_owr_backtracking(prob), solve_owr(prob),
            solve_trisection(prob, gamma_tol=1e-6))


def _assert_decided_by_the_numerical_range(result, prob):
    radius = "omega(A)" if prob.is_continuous else "w(A)"
    bound = prob.numerical_range_bound
    assert (result.kreiss, result.gamma_inv) == (1.0, 1.0)
    assert result.status is SolveStatus.CONVERGED
    assert result.certificate_calls == 0 and result.reports == [] and result.trace == []
    assert result.restarts == 0 and result.minimizer is None
    assert result.decided_by == "numerical-range"
    assert result.message == (f"numerical range proves K = 1: {radius} <= {bound:.17g} "
                              f"<= {0 if prob.is_continuous else 1}")


@pytest.mark.parametrize("time_domain", ["continuous", "discrete"])
def test_normal_plateau_certified_by_every_method(time_domain):
    # a normal A has omega(A) = alpha(A) < 0 (w(A) = rho(A) < 1): g and h
    # exceed 1 everywhere, and the numerical range proves K = 1 before any
    # optimization or certificate
    prob = random_normal_stable(3, 4, time_domain)
    for result in _three_methods(prob):
        _assert_decided_by_the_numerical_range(result, prob)


@pytest.mark.parametrize("time_domain, A", [
    ("continuous", [[-1.0, 1.0], [0.0, -1.0]]),  # omega(A) = -0.5
    ("discrete", [[0.6j, 0.7], [0.0, 0.6j]]),    # w(A) = 0.95, Kittaneh's bound 1.0156
], ids=["continuous", "discrete"])
def test_nonnormal_contractive_decided_by_the_numerical_range(time_domain, A):
    prob = MatrixProblem(np.array(A), time_domain)
    assert grid_min(prob, levels=4)[0] >= 1.0 - 1e-12
    for result in _three_methods(prob) + (solve_owr_backtracking(prob, c=0.25, use_dnc=True),):
        _assert_decided_by_the_numerical_range(result, prob)


def test_plateau_start_of_a_noncontractive_matrix_is_certified():
    # the grid attains h < 1, so K > 1, yet the default start descends onto
    # the plateau: the numerical range decides nothing, and every method certifies
    rng = np.random.default_rng(267)
    B = 0.3 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    prob = MatrixProblem(B / (np.max(np.abs(np.linalg.eigvals(B))) / 0.7), "discrete")
    assert prob.numerical_range_bound > 1.0 and grid_min(prob, levels=3)[0] < 1.0
    assert minimize(prob, default_start(prob)).value >= 1.0
    for result in _three_methods(prob):
        assert result.decided_by == "certificate"
        assert result.certificate_calls >= 1 and result.status is not SolveStatus.FAILED


def test_discrete_normal_identity():
    prob = MatrixProblem(0.5 * np.eye(2), "discrete")
    r = solve_owr(prob)
    assert r.kreiss == pytest.approx(1.0, abs=1e-6)


def test_three_methods_agree_jordan(jordan_ct):
    bt = solve_owr_backtracking(jordan_ct)
    owr = solve_owr(jordan_ct)
    tri = solve_trisection(jordan_ct, gamma_tol=1e-8)
    assert bt.kreiss == pytest.approx(owr.kreiss, rel=1e-8)
    assert tri.kreiss == pytest.approx(owr.kreiss, rel=1e-4)
    val, _ = grid_min(jordan_ct, levels=5)
    assert owr.kreiss == pytest.approx(1.0 / val, rel=1e-3)
    assert owr.gamma_inv == pytest.approx(1.0 / owr.kreiss)


def test_three_methods_agree_discrete(jordan_dt):
    bt = solve_owr_backtracking(jordan_dt)
    owr = solve_owr(jordan_dt)
    tri = solve_trisection(jordan_dt, gamma_tol=1e-8)
    assert bt.kreiss == pytest.approx(owr.kreiss, rel=1e-8)
    assert tri.kreiss == pytest.approx(owr.kreiss, rel=1e-4)
    assert owr.kreiss == pytest.approx(2.6, rel=1e-8)


def test_restart_and_strictly_decreasing_trace():
    prob = random_stable(4, 1, "discrete")
    r = solve_owr(prob, start=(3.0, 2.0), gamma_tol=1e-8)
    assert r.restarts >= 1
    assert r.status is SolveStatus.CONVERGED
    opt_values = [t.gamma for t in r.trace if t.phase == "optimize"]
    assert len(opt_values) >= 2
    assert all(b < a for a, b in zip(opt_values, opt_values[1:]))
    # the same problem from the default start agrees
    r2 = solve_owr(prob, gamma_tol=1e-8)
    assert r.kreiss == pytest.approx(r2.kreiss, rel=1e-6)


def test_backtracking_restart():
    prob = random_stable(4, 10, "continuous")
    r = solve_owr_backtracking(prob, start=(0.2, -2.0), c=0.25)
    assert r.status is SolveStatus.CONVERGED
    ref = solve_owr(prob, gamma_tol=1e-9)
    assert r.kreiss == pytest.approx(ref.kreiss, rel=1e-6)


def test_trisection_geometry(jordan_ct):
    r = solve_trisection(jordan_ct, gamma_tol=1e-6)
    hist = r.bounds_history
    width0 = hist[0].width
    for k, b in enumerate(hist):
        assert b.width == pytest.approx((2.0 / 3.0) ** k * width0, abs=1e-12 * width0)
        assert b.lb < b.ub
    lbs = [b.lb for b in hist]
    ubs = [b.ub for b in hist]
    assert all(b2 >= b1 - 1e-15 for b1, b2 in zip(lbs, lbs[1:]))
    assert all(u2 <= u1 + 1e-15 for u1, u2 in zip(ubs, ubs[1:]))
    # every lower-bound update justified by an empty certificate
    tri_entries = [t for t in r.trace if t.phase == "trisection"]
    for entry, before, after in zip(tri_entries, hist, hist[1:]):
        if after.lb > before.lb:
            assert entry.verdict == "empty"
        else:
            assert entry.verdict == "points"


def test_trisection_eta_termination_bound(jordan_ct):
    psi = 1e-6
    r = solve_trisection(jordan_ct, gamma_tol=psi)
    final = 1.0 / r.kreiss
    etas = [t.eta for t in r.trace if t.phase == "trisection"]
    assert etas[-1] <= (1.0 + psi) * final


def test_method_certificate_compatibility(jordan_ct):
    with pytest.raises(ValueError):
        solve_owr_backtracking(jordan_ct, certificate="variable-v")
    with pytest.raises(ValueError):
        solve_owr(jordan_ct, certificate="fixed-v")
    with pytest.raises(ValueError):
        solve_trisection(jordan_ct, certificate="fixed-h")
    with pytest.raises(ValueError):
        solve_owr(jordan_ct, certificate="bogus")
    with pytest.raises(ValueError):
        compute_kreiss(jordan_ct, method="bogus")


@pytest.mark.parametrize("method, solve", [("owr-bt", "solve_owr_backtracking"),
                                           ("owr", "solve_owr"),
                                           ("trisection", "solve_trisection")])
@pytest.mark.parametrize("A", [np.diag([-1.0, -2.0]), np.array([[-0.3, 1.0], [0.0, -0.3]])],
                         ids=["contractive", "jordan"])
def test_a_misspelt_keyword_fails_at_once(method, solve, A):
    # a contractive A used to return K = 1 with the stray keyword unread,
    # and the Jordan block to fail only once minimize() received it
    prob = MatrixProblem(A, "continuous")
    with pytest.raises(TypeError, match=rf"^{solve}\(\) got an unexpected keyword argument 'gamma_tl'"):
        compute_kreiss(prob, method=method, gamma_tl=1e-6)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1e-3])
def test_tolerances_must_be_positive_and_finite(jordan_ct, bad, monkeypatch):
    # rejected before any certificate runs: a NaN eta0 used to shrink a NaN
    # eta forever, and a NaN gamma_tol to spend trisection's whole budget
    calls = []
    monkeypatch.setattr(solver, "certify", lambda *args, **kwargs: calls.append(args))
    for solve, name in ((solve_owr_backtracking, "eta0"), (solve_owr_backtracking, "eta_tol"),
                        (solve_owr, "gamma_tol"), (solve_trisection, "gamma_tol")):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            solve(jordan_ct, **{name: bad})
    assert calls == []


@pytest.mark.parametrize("bad", [1.0, 2.0])
def test_gamma_tol_must_lie_below_1(jordan_ct, bad, monkeypatch):
    # rejected before any certificate runs: gamma_tol = 1 used to "certify
    # 1/K > 0" and return the uncertified minimum as converged, and 2 to
    # fail at level 0 inside the solve, after the local minimization
    calls = []
    monkeypatch.setattr(solver, "certify", lambda *args, **kwargs: calls.append(args))
    for solve in (solve_owr, solve_trisection):
        with pytest.raises(ValueError, match="gamma_tol must be positive and finite, and below 1"):
            solve(jordan_ct, gamma_tol=bad)
    assert calls == []


@pytest.mark.parametrize("start", [(np.nan, 0.0), (np.inf, 0.0), (0.5, -np.inf), (0.5, np.nan)],
                         ids=["nan-x", "inf-x", "minus-inf-y", "nan-y"])
def test_a_non_finite_start_is_infeasible(jordan_ct, start, monkeypatch):
    # rejected before any evaluation: a NaN start used to end in "SVD did not
    # converge", and x = inf was clipped to 1e8, where owr "certified" K = 1
    evaluated = []
    evaluate = objective.evaluate
    monkeypatch.setattr(objective, "evaluate",
                        lambda *args, **kwargs: evaluated.append(args) or evaluate(*args, **kwargs))
    for solve in (solve_owr_backtracking, solve_owr, solve_trisection, minimize):
        with pytest.raises(InfeasibleStartError, match="must be finite"):
            solve(jordan_ct, start)
    assert evaluated == []


@pytest.mark.parametrize("time_domain", ["continuous", "discrete"])
@pytest.mark.parametrize("eta", [np.nan, np.inf])
def test_certificates_reject_a_non_finite_eta(time_domain, eta):
    prob = gen_test_matrix("jordan-shifted", 2, time_domain=time_domain, eps=0.3)
    for variant in CERTIFICATE_CHOICES:
        with pytest.raises(ValueError, match="eta must be positive and finite"):
            certify(prob, variant, 0.5, eta)


def test_certificate_backend_choices(jordan_ct):
    a = solve_owr(jordan_ct, certificate="variable-v")
    b = solve_owr(jordan_ct, certificate="variable-h")
    c = solve_owr_backtracking(jordan_ct, certificate="fixed-h")
    assert a.kreiss == pytest.approx(b.kreiss, rel=1e-8)
    assert a.kreiss == pytest.approx(c.kreiss, rel=1e-8)


def test_infeasible_start(jordan_ct):
    with pytest.raises(InfeasibleStartError):
        solve_owr(jordan_ct, start=(-0.5, 0.0))
    with pytest.raises(InfeasibleStartError):
        solve_trisection(jordan_ct, start=(-0.5, 0.0))


def test_grid_method(jordan_ct):
    r = compute_kreiss(jordan_ct, method="grid")
    ref = solve_owr(jordan_ct)
    assert r.kreiss == pytest.approx(ref.kreiss, rel=1e-3)
    assert r.certificate_calls == 0


def test_result_invariants(jordan_dt):
    r = solve_owr(jordan_dt)
    assert r.kreiss >= 1.0 - 1e-10
    assert r.gamma_inv == pytest.approx(1.0 / r.kreiss)
    assert r.wall_time >= 0.0
    assert r.certificate_calls == len(r.reports)
    assert r.minimizer is not None and r.minimizer.feasible


def test_objective_values_bound_certified_minimum(jordan_ct):
    # sampled feasible values never undercut the certified global minimum
    from kreiss import g_eval

    kinv = 1.0 / solve_owr(jordan_ct).kreiss
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = 10.0 ** rng.uniform(-2, 3)
        y = rng.standard_normal() * 3
        assert g_eval(jordan_ct, x, y).value >= kinv - 1e-10


def _assert_the_bracket_moves_only_by_what_reports_prove(result):
    """lb is the running maximum of report.gamma - eta/2 over EMPTY
    variable-distance reports; ub never rises, and trisection lowers it
    exactly to the level of a report with verified points."""
    hist = result.bounds_history
    assert len(hist) == len(result.reports) + 1
    lb = hist[0].lb
    for report, before, after in zip(result.reports, hist, hist[1:]):
        if report.empty and report.variant.startswith("variable"):
            lb = max(lb, report.gamma - 0.5 * report.eta)
        assert after.lb == lb
        assert after.ub <= before.ub
        if result.method == "trisection":
            assert after.ub == (before.ub if report.empty else min(before.ub, report.gamma))


@pytest.mark.parametrize("offset", [-3e-10, 3e-10], ids=["below", "above"])
@pytest.mark.parametrize("coupling, empty", [(2.0, True), (3.0, False)],
                         ids=["empty", "points"])
def test_the_bracket_moves_to_the_level_tested_not_the_level_asked(coupling, empty, offset):
    # trisection's first level, 2/3 of h at the start, lies 3e-10 off the
    # singular value 0.55 of A, so the discrete-time test nudges it by 1e-6
    # relative: an EMPTY verdict proves 1/K > report.gamma - eta/2, and
    # verified points 1/K <= report.gamma, at the level tested only
    prob = MatrixProblem(np.array([[0.6, coupling, 0.0], [0.0, 0.6, 0.0], [0.0, 0.0, 0.55]]),
                         "discrete")
    target = 1.5 * (0.55 + offset)
    r0 = brentq(lambda r: objective.evaluate(prob, r, 0.0).value - target, 1.0 + 1e-9, 1.5)
    result = solve_trisection(prob, start=(r0, 0.0), gamma_tol=1e-6)
    first, (before, after) = result.reports[0], result.bounds_history[:2]
    assert first.gamma_nudged and first.empty is empty
    assert abs(first.gamma - 0.55) == pytest.approx(0.55e-6, rel=1e-3)
    if empty:
        assert (after.lb, after.ub) == (first.gamma - 0.5 * first.eta, before.ub)
    else:
        assert (after.lb, after.ub) == (0.0, first.gamma)
    _assert_the_bracket_moves_only_by_what_reports_prove(result)
    assert result.status is SolveStatus.TOLERANCE_REACHED


def _staircase():
    """Five 2 x 2 Jordan-like blocks, stacked in y, whose basins of g deepen
    with the coupling: owr from (1, 0) restarts three times, one basin at a
    time, and makes four certificates at gamma_tol = 1e-6."""
    blocks = [np.array([[-1.0 + 10j * k, c], [0.0, -1.0 + 10j * k]])
              for k, c in enumerate([3.0, 3.3, 3.6, 3.9, 4.2])]
    return MatrixProblem(scipy.linalg.block_diag(*blocks), "continuous")


def test_the_restart_methods_report_their_bracket():
    prob = _staircase()
    owr = solve_owr(prob, start=(1.0, 0.0), gamma_tol=1e-6)
    bt = solve_owr_backtracking(prob, start=(1.0, 0.0), c=0.25)
    for result in (owr, bt):
        minima = [t.gamma for t in result.trace if t.phase == "optimize"]
        assert result.restarts >= 1 and result.bounds_history[0].ub == minima[0]
        assert {b.ub for b in result.bounds_history} == set(minima)
        assert result.gamma_inv == pytest.approx(result.bounds_history[-1].ub, rel=1e-15)
        _assert_the_bracket_moves_only_by_what_reports_prove(result)
    # fixed-distance tests prove nothing about 1/K
    assert all(b.lb == 0.0 for b in bt.bounds_history)
    # owr's proof is its bracket's lb, to the last bit
    assert owr.message.startswith("certified 1/K > ")
    assert float(owr.message.split("> ")[1]) == owr.bounds_history[-1].lb > 0.0


def _moves(result):
    hist = result.bounds_history
    return sum(after != before for before, after in zip(hist, hist[1:]))


@pytest.mark.parametrize("method, budget", [("owr-bt", 1), ("owr", 3), ("trisection", 3)])
def test_one_budget_of_bracket_moves_for_every_method(method, budget, monkeypatch):
    # every report of owr and trisection on the staircase moves the bracket;
    # owr-bt's first report restarts the descent, and its sweep afterwards
    # moves nothing
    prob = _staircase()
    kwargs = dict(start=(1.0, 0.0))
    if method != "owr-bt":
        kwargs["gamma_tol"] = 1e-6
    full = compute_kreiss(prob, method, **kwargs)
    assert _moves(full) >= budget and full.certificate_calls > budget
    monkeypatch.setattr(solver, "_MAX_BRACKET_MOVES", budget)
    result = compute_kreiss(prob, method, **kwargs)
    assert result.status is SolveStatus.FAILED
    assert result.message == "certificate budget exhausted"
    assert _moves(result) == result.certificate_calls == len(result.bounds_history) - 1 == budget


def test_backtracking_sweeps_are_not_capped_by_the_budget(jordan_ct):
    # at c = 0.99 one sweep of eta makes 1834 fixed-distance tests, and none
    # of them moves the bracket
    result = solve_owr_backtracking(jordan_ct, c=0.99)
    assert result.status is SolveStatus.CONVERGED
    assert result.certificate_calls > solver._MAX_BRACKET_MOVES
    assert result.kreiss == pytest.approx(solve_owr(jordan_ct, gamma_tol=1e-9).kreiss, rel=1e-8)


def test_trisection_stops_when_a_nudged_level_moves_neither_bound():
    # 1/K of the Jordan block J is 20/29, here also a singular value of A:
    # once the bracket around it is narrower than the discrete-time test's
    # 1e-6 relative nudge, the level tested lies outside the bracket, moves
    # neither bound, and the same level would be asked again
    J = np.array([[0.6, 2.0], [0.0, 0.6]])
    prob = MatrixProblem(scipy.linalg.block_diag(J, 20.0 / 29.0), "discrete")
    result = solve_trisection(prob)
    assert result.status is SolveStatus.FAILED
    assert "moved neither bound" in result.message
    last, (before, after) = result.reports[-1], result.bounds_history[-2:]
    assert last.gamma_nudged and before == after and after.width < 3e-6 * after.ub
    assert after.lb < 20.0 / 29.0 <= after.ub
    assert result.certificate_calls < 100
    _assert_the_bracket_moves_only_by_what_reports_prove(result)


def _lookahead(monkeypatch, cpus, blas=1):
    """Let the solver see ``cpus`` CPUs in its affinity and a BLAS of ``blas``
    threads under LAPACK (None: unreadable)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(linalg, "lapack_threads", lambda: blas)


def _restarting_dt():
    """A discrete-time problem that does not split, whose owr-bt solve from
    eta0 = 2 restarts at the second level of its first sweep, while the
    third is tested ahead."""
    prob = random_stable(3, 25, "discrete")
    return prob, dict(start=(default_start(prob)[0], 0.0), c=0.5, eta0=2.0)


def _record_certify(monkeypatch, around=None):
    """(on a worker thread, gamma, eta) of every certificate the solver runs
    from here on; ``around(worker, gamma, eta, test)`` runs each test."""
    calls, main, certify = [], threading.get_ident(), solver.certify

    def recording(prob, variant, gamma, eta, **opts):
        worker = threading.get_ident() != main
        calls.append((worker, gamma, eta))
        test = lambda: certify(prob, variant, gamma, eta, **opts)  # noqa: E731
        return around(worker, gamma, eta, test) if around else test()

    monkeypatch.setattr(solver, "certify", recording)
    return calls


def _facts(result):
    """Everything of a solve but its timing and the count of discarded tests."""
    return (repr(result.kreiss), result.status, result.restarts, result.certificate_calls,
            result.trace, result.bounds_history, result.message,
            [(r.gamma, r.eta, [(tuple(p.coords), p.value) for p in r.points])
             for r in result.reports])


def test_the_lookahead_solve_is_bitwise_the_serial_one(monkeypatch):
    prob, opts = _restarting_dt()
    results, calls = {}, {}
    for cpus in (1, 2):
        with monkeypatch.context() as m:
            _lookahead(m, cpus)
            calls[cpus] = _record_certify(m)
            before = set(threading.enumerate())
            results[cpus] = solve_owr_backtracking(prob, **opts)
            # no thread the solve started outlives it
            assert set(threading.enumerate()) <= before
    serial, ahead = results[1], results[2]
    assert max(serial.reports[0].eig_orders) >= solver.LOOKAHEAD_MIN_ORDER
    assert serial.restarts == 1 and serial.status is SolveStatus.CONVERGED
    assert _facts(ahead) == _facts(serial)
    assert serial.discarded_lookaheads == 0 and not any(w for w, _, _ in calls[1])
    # the third level of the first sweep ran ahead and was dropped at the restart
    assert ahead.discarded_lookaheads == 1
    assert sum(w for w, _, _ in calls[2]) > 1
    assert len(calls[2]) == ahead.certificate_calls + ahead.discarded_lookaheads


@pytest.mark.parametrize("cpus, blas", [(1, 1), (2, None), (2, 2)],
                         ids=["one-cpu", "blas-unread", "blas-2-threads"])
def test_the_serial_path_starts_no_thread(cpus, blas, monkeypatch):
    prob, opts = _restarting_dt()
    _lookahead(monkeypatch, cpus, blas)
    calls = _record_certify(monkeypatch)
    # the executor's thread would start on the first submit
    monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "submit",
                        lambda *args, **kwargs: pytest.fail("a test was run ahead"))
    result = solve_owr_backtracking(prob, **opts)
    assert result.discarded_lookaheads == 0
    assert len(calls) == result.certificate_calls and not any(w for w, _, _ in calls)


def test_an_eigenproblem_below_the_gate_is_tested_serially(jordan_dt, monkeypatch):
    _lookahead(monkeypatch, 2)
    calls = _record_certify(monkeypatch)
    result = solve_owr_backtracking(jordan_dt)
    assert max(result.reports[0].eig_orders) < solver.LOOKAHEAD_MIN_ORDER
    assert result.certificate_calls > 2 and not any(w for w, _, _ in calls)


def test_an_error_in_a_lookahead_fails_the_solve_only_when_used(monkeypatch):
    prob, opts = _restarting_dt()
    _lookahead(monkeypatch, 2)
    calls = _record_certify(monkeypatch)
    reference = solve_owr_backtracking(prob, **opts)
    used = [(t.gamma, t.eta) for t in reference.trace if t.phase == "certificate"]
    ahead = [(gamma, eta) for worker, gamma, eta in calls if worker]
    dropped = [level for level in ahead if level not in used]
    assert len(dropped) == reference.discarded_lookaheads == 1

    def failing(levels):
        def around(worker, gamma, eta, test):
            if (gamma, eta) in levels:
                raise ConvergenceFailure("injected")
            return test()
        return around

    # an error in the dropped test is never seen
    with monkeypatch.context() as m:
        _record_certify(m, failing(dropped))
        result = solve_owr_backtracking(prob, **opts)
    assert _facts(result) == _facts(reference) and result.discarded_lookaheads == 1
    # an error in a test whose report is used fails the solve as the serial one
    level = next(level for level in ahead if level in used)
    failed = {}
    for cpus in (1, 2):
        with monkeypatch.context() as m:
            _lookahead(m, cpus)
            _record_certify(m, failing([level]))
            failed[cpus] = solve_owr_backtracking(prob, **opts)
    assert failed[2].status is SolveStatus.FAILED
    assert failed[2].message == "certificate failure: injected"
    assert _facts(failed[2]) == _facts(failed[1])


def test_a_restart_waits_for_the_lookahead_before_building_its_level(monkeypatch):
    # each test ahead lingers after its report, so a level built while one
    # is in flight would be seen; the level is built once per minimum
    prob, opts = _restarting_dt()
    _lookahead(monkeypatch, 2)
    in_flight, builds, quad_level = [], [], cert_dt._quad_level

    def lingering(worker, gamma, eta, test):
        if not worker:
            return test()
        in_flight.append(gamma)
        try:
            return test()
        finally:
            time.sleep(0.05)
            in_flight.remove(gamma)

    def counting(prob, gamma):
        builds.append(list(in_flight))
        return quad_level(prob, gamma)

    _record_certify(monkeypatch, lingering)
    monkeypatch.setattr(cert_dt, "_quad_level", counting)
    result = solve_owr_backtracking(prob, **opts)
    assert result.restarts == 1 and result.discarded_lookaheads == 1
    assert builds == [[]] * (result.restarts + 1)
