import numpy as np
import pytest

from kreiss import MatrixProblem, gen_test_matrix, localopt, minimize, objective
from kreiss.errors import DegenerateGapError, InfeasibleStartError, NonsimpleSigmaError
from kreiss.localopt import _MAX_NONSMOOTH_STEPS, COORD_CAP, OptStatus, _newton_direction
from kreiss.oracle import grid_min

from conftest import random_stable


def test_scalar_plateau(scalar_ct):
    # tiny grad_tol forces the run all the way to the x-cap
    res = minimize(scalar_ct, (1.0, 0.5), grad_tol=1e-30, max_iter=400)
    assert res.status is OptStatus.CONVERGED
    assert res.value <= 1.0 + 1e-6
    assert res.value > 1.0  # the infimum 1 is approached, never attained
    # default tolerance stops earlier but still lands on the plateau
    res2 = minimize(scalar_ct, (1.0, 0.5))
    assert res2.status is OptStatus.CONVERGED
    assert res2.value <= 1.0 + 1e-4


def test_infeasible_start(scalar_ct, scalar_dt):
    with pytest.raises(InfeasibleStartError):
        minimize(scalar_ct, (-1.0, 0.0))
    with pytest.raises(InfeasibleStartError):
        minimize(scalar_dt, (0.9, 0.0))


def test_jordan_neg1_matches_capped_grid():
    # J(-1) has no interior minimizer; both searches meet at the x-cap
    prob = gen_test_matrix("jordan-shifted", 2, time_domain="continuous", eps=1.0)
    res = minimize(prob, (1.0, 0.0), grad_tol=1e-30, max_iter=400)
    assert res.minimizer.coords[0] == pytest.approx(COORD_CAP)
    val, coords = grid_min(prob, x_range=(COORD_CAP / 10, COORD_CAP),
                           y_range=(-1.0, 1.0), levels=4)
    assert abs(res.value - val) <= 1e-8 * max(1.0, val)


def test_jordan_interior_minimum(jordan_ct):
    res = minimize(jordan_ct, (1.0, 0.0))
    assert res.status is OptStatus.CONVERGED
    val, coords = grid_min(jordan_ct, levels=5)
    assert res.value == pytest.approx(val, rel=1e-4)
    assert res.value <= val + 1e-12  # optimizer at least as good as the grid
    assert res.grad_norm <= 1e-10 * res.value


def test_discrete_minimum(jordan_dt):
    res = minimize(jordan_dt, (1.3, 0.2))
    assert res.status is OptStatus.CONVERGED
    val, _ = grid_min(jordan_dt, levels=5)
    assert res.value == pytest.approx(val, rel=1e-4)


def test_final_never_above_start():
    for seed in range(6):
        td = "continuous" if seed % 2 == 0 else "discrete"
        prob = random_stable(4, seed, td)
        start = (1.5, 0.3) if td == "continuous" else (1.7, 0.3)
        v0 = np.inf
        from kreiss import evaluate

        v0 = evaluate(prob, *start).value
        res = minimize(prob, start)
        assert res.value <= v0 + 1e-15


def test_iterates_feasible_and_value_finite():
    prob = random_stable(5, 12, "discrete")
    res = minimize(prob, (1.05, 4.0))
    assert res.minimizer.feasible
    assert res.minimizer.coords[0] > 1.0
    assert 0.0 <= res.minimizer.coords[1] < 2 * np.pi


def _cholesky_direction(grad, hess):
    """Reference: (H + mu I) d = -g by Cholesky, mu = 0, 1e-12, 1e-11, ..."""
    mu = 0.0
    for _ in range(40):
        try:
            L = np.linalg.cholesky(hess + mu * np.eye(2))
            d = np.linalg.solve(L.conj().T, np.linalg.solve(L, -grad))
            if np.dot(d, grad) < 0:
                return d, mu
        except np.linalg.LinAlgError:
            pass
        mu = 1e-12 if mu == 0.0 else mu * 10.0
        if mu > 1e16 * max(1.0, np.linalg.norm(hess, np.inf)):
            break
    return None, mu


@pytest.mark.parametrize("hess, grad, mu", [
    ([[2.0, 0.5], [0.5, 1.0]], [0.3, -1.2], 0.0),
    ([[1.0, 0.3], [0.3, -2.0]], [0.7, 0.4], 10.0),
    ([[-1e30, 0.0], [0.0, 1.0]], [0.7, 0.4], None),
    ([[2.0, 0.5], [0.5, 1.0]], [0.0, 0.0], None),
], ids=["positive-definite", "indefinite", "never-definite", "zero-gradient"])
def test_newton_direction_matches_cholesky(hess, grad, mu):
    hess, grad = np.array(hess), np.array(grad)
    ref, ref_mu = _cholesky_direction(grad, hess)
    d = _newton_direction(grad, hess)
    if mu is None:
        assert d is None and ref is None
        return
    assert ref_mu == pytest.approx(mu, rel=1e-12)
    assert np.allclose(d, ref, rtol=1e-14, atol=0.0)
    assert np.allclose((hess + ref_mu * np.eye(2)) @ d, -grad, rtol=1e-14, atol=1e-15)


def _record_line_searches(monkeypatch, accept=lambda direction, grad: True):
    """Record each line search of minimize as (steepest, accepted, value);
    a search that ``accept`` refuses fails without evaluating."""
    searches, armijo = [], localopt._armijo

    def recording(prob, pt, grad, direction):
        new_pt, ok = (armijo(prob, pt, grad, direction) if accept(direction, grad)
                      else (pt, False))
        searches.append((np.array_equal(direction, -grad), ok, new_pt.value))
        return new_pt, ok

    monkeypatch.setattr(localopt, "_armijo", recording)
    return searches


def test_nowhere_simple_sigma_takes_steepest_descent(monkeypatch):
    # sigma_min of (x + iy) I + I is double everywhere: every gradient is a
    # subgradient, no Hessian is asked for, and the run stalls
    monkeypatch.setattr(objective, "hessian", lambda *args: pytest.fail("Hessian asked for"))
    searches = _record_line_searches(monkeypatch)
    prob = MatrixProblem(-np.eye(2), "continuous")
    res = minimize(prob, (1.0, 0.3))
    assert res.status is OptStatus.STALLED_NONSMOOTH
    assert res.iterations == _MAX_NONSMOOTH_STEPS + 1
    assert len(searches) == _MAX_NONSMOOTH_STEPS
    assert all(steepest and ok for steepest, ok, _ in searches)
    values = [objective.evaluate(prob, 1.0, 0.3).value] + [value for *_, value in searches]
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert res.value == pytest.approx(1.2454161493411966, rel=1e-10)


def _refuse_hessian(error):
    def hessian(*args):
        raise error("refused")
    return hessian


@pytest.mark.parametrize("refusal", ["degenerate-gap", "nonsimple", "no-direction"])
@pytest.mark.parametrize("problem, start", [("jordan_ct", (1.0, 0.0)), ("jordan_dt", (1.3, 0.2))])
def test_refused_newton_falls_back_to_steepest_descent(request, monkeypatch, problem, start,
                                                       refusal):
    prob = request.getfixturevalue(problem)
    newton = minimize(prob, start)
    if refusal == "no-direction":
        monkeypatch.setattr(localopt, "_newton_direction", lambda grad, hess: None)
    else:
        error = DegenerateGapError if refusal == "degenerate-gap" else NonsimpleSigmaError
        monkeypatch.setattr(objective, "hessian", _refuse_hessian(error))
    searches = _record_line_searches(monkeypatch)
    res = minimize(prob, start)
    assert res.status is OptStatus.CONVERGED
    assert all(steepest for steepest, *_ in searches)
    assert res.iterations > newton.iterations
    assert abs(res.value - newton.value) <= 1e-14 * newton.value


def test_rejected_newton_step_is_retried_along_steepest_descent(jordan_ct, monkeypatch):
    newton = minimize(jordan_ct, (1.0, 0.0))
    searches = _record_line_searches(
        monkeypatch, accept=lambda direction, grad: np.array_equal(direction, -grad))
    res = minimize(jordan_ct, (1.0, 0.0))
    assert res.status is OptStatus.CONVERGED
    retried = [i for i, (steepest, ok, _) in enumerate(searches) if not steepest and not ok]
    assert retried and all(searches[i + 1][:2] == (True, True) for i in retried)
    assert abs(res.value - newton.value) <= 1e-14 * newton.value


def test_numerically_flat_start_stops_where_it_began(jordan_ct, monkeypatch):
    # no step is accepted, along Newton's direction or -grad, and the
    # gradient is far from zero: the run ends at the start, not converged
    searches = _record_line_searches(monkeypatch, accept=lambda direction, grad: False)
    res = minimize(jordan_ct, (1.0, 0.0))
    assert res.status is OptStatus.MAX_ITER
    assert res.iterations == 1
    assert res.minimizer.coords == (1.0, 0.0)
    assert [steepest for steepest, *_ in searches] == [False, True]
