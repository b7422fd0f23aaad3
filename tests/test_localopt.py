import numpy as np
import pytest

from kreiss import gen_test_matrix, minimize
from kreiss.errors import InfeasibleStartError
from kreiss.localopt import COORD_CAP, OptStatus, _newton_direction
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


def test_quasi_newton_path(jordan_ct):
    newton = minimize(jordan_ct, (1.0, 0.0), use_hessian=True)
    bfgs = minimize(jordan_ct, (1.0, 0.0), use_hessian=False, max_iter=400)
    assert bfgs.value == pytest.approx(newton.value, rel=1e-8)


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
