import numpy as np
import pytest

from kreiss import (
    MatrixProblem,
    evaluate,
    g_eval,
    g_grad,
    g_hess,
    gen_test_matrix,
    h_eval,
    h_grad,
    h_hess,
)
from kreiss.errors import NonsimpleSigmaError, ZeroSigmaError
from kreiss.objective import _eval_from_matrix, domain

from conftest import contractive, random_normal_stable, random_stable


def test_g_scalar_values(scalar_ct):
    assert g_eval(scalar_ct, 1.0, 0.0).value == pytest.approx(2.0)
    assert not np.isfinite(g_eval(scalar_ct, -1.0, 0.0).value)
    assert not np.isfinite(g_eval(scalar_ct, 0.0, 0.0).value)


def test_g_diag_min_branch():
    prob = MatrixProblem(np.diag([-1.0, -2.0]), "continuous")
    assert g_eval(prob, 1.0, 0.0).value == pytest.approx(2.0)  # min(2, 3)


def test_h_scalar_values(scalar_dt):
    assert h_eval(scalar_dt, 2.0, 0.0).value == pytest.approx(1.5)
    assert not np.isfinite(h_eval(scalar_dt, 1.0, 0.0).value)
    prob = MatrixProblem(0.5 * np.eye(2), "discrete")
    assert h_eval(prob, 3.0, np.pi).value == pytest.approx(1.75)


def test_theta_normalized(scalar_dt):
    pt = h_eval(scalar_dt, 2.0, 2 * np.pi + 0.3)
    assert pt.coords[1] == pytest.approx(0.3)


def test_g_scalar_gradient(scalar_ct):
    pt = g_eval(scalar_ct, 1.0, 0.0)
    d = g_grad(pt, scalar_ct)
    assert np.allclose(d.grad, [-1.0, 0.0], atol=1e-14)


def test_g_diag_gradient():
    prob = MatrixProblem(np.diag([-1.0, -2.0]), "continuous")
    pt = g_eval(prob, 1.0, 0.0)
    d = g_grad(pt, prob)
    assert np.allclose(d.grad, [-1.0, 0.0], atol=1e-12)


def test_h_scalar_gradient(scalar_dt):
    pt = h_eval(scalar_dt, 2.0, 0.0)
    d = h_grad(pt, scalar_dt)
    assert d.grad[0] == pytest.approx(-0.5, abs=1e-13)
    assert d.grad[1] == pytest.approx(0.0, abs=1e-13)


def test_g_scalar_hessian(scalar_ct):
    pt = g_eval(scalar_ct, 1.0, 0.0)
    d = g_hess(pt, scalar_ct)
    assert np.allclose(d.hess, [[2.0, 0.0], [0.0, 0.5]], atol=1e-12)


def _fd_check_ct(prob, x, y):
    pt = g_eval(prob, x, y)
    if not pt.simple:
        return None
    d = g_hess(pt, prob)
    h = 1e-6
    gx = (g_eval(prob, x + h, y).value - g_eval(prob, x - h, y).value) / (2 * h)
    gy = (g_eval(prob, x, y + h).value - g_eval(prob, x, y - h).value) / (2 * h)
    assert abs(d.grad[0] - gx) <= 1e-6 * max(1.0, abs(gx))
    assert abs(d.grad[1] - gy) <= 1e-6 * max(1.0, abs(gy))
    h2 = 1e-4
    f = lambda a, b: g_eval(prob, a, b).value
    hxx = (f(x + h2, y) - 2 * f(x, y) + f(x - h2, y)) / h2**2
    hyy = (f(x, y + h2) - 2 * f(x, y) + f(x, y - h2)) / h2**2
    hxy = (f(x + h2, y + h2) - f(x + h2, y - h2)
           - f(x - h2, y + h2) + f(x - h2, y - h2)) / (4 * h2**2)
    scale = max(1.0, np.max(np.abs(d.hess)))
    assert abs(d.hess[0, 0] - hxx) <= 1e-4 * scale
    assert abs(d.hess[1, 1] - hyy) <= 1e-4 * scale
    assert abs(d.hess[0, 1] - hxy) <= 1e-4 * scale
    return True


def test_ct_derivatives_match_finite_differences():
    rng = np.random.default_rng(21)
    checked = 0
    for seed in range(8):
        prob = random_stable(3, seed, "continuous")
        x = 0.4 + rng.random()
        y = rng.standard_normal()
        if _fd_check_ct(prob, x, y):
            checked += 1
    assert checked >= 6


def test_dt_derivatives_match_finite_differences():
    rng = np.random.default_rng(22)
    checked = 0
    for seed in range(8):
        prob = random_stable(3, seed, "discrete")
        r = 1.3 + rng.random()
        th = 2 * np.pi * rng.random()
        pt = h_eval(prob, r, th)
        if not pt.simple:
            continue
        d = h_hess(pt, prob)
        h = 1e-6
        f = lambda a, b: h_eval(prob, a, b).value
        gr = (f(r + h, th) - f(r - h, th)) / (2 * h)
        gt = (f(r, th + h) - f(r, th - h)) / (2 * h)
        assert abs(d.grad[0] - gr) <= 1e-6 * max(1.0, abs(gr))
        assert abs(d.grad[1] - gt) <= 1e-6 * max(1.0, abs(gt))
        h2 = 1e-4
        hrr = (f(r + h2, th) - 2 * f(r, th) + f(r - h2, th)) / h2**2
        htt = (f(r, th + h2) - 2 * f(r, th) + f(r, th - h2)) / h2**2
        hrt = (f(r + h2, th + h2) - f(r + h2, th - h2)
               - f(r - h2, th + h2) + f(r - h2, th - h2)) / (4 * h2**2)
        scale = max(1.0, np.max(np.abs(d.hess)))
        assert abs(d.hess[0, 0] - hrr) <= 1e-4 * scale
        assert abs(d.hess[1, 1] - htt) <= 1e-4 * scale
        assert abs(d.hess[0, 1] - hrt) <= 1e-4 * scale
        checked += 1
    assert checked >= 6


def test_conjugate_symmetry_real_matrix(jordan_ct, jordan_dt):
    for y in (0.3, 1.1):
        assert g_eval(jordan_ct, 0.7, y).value == pytest.approx(
            g_eval(jordan_ct, 0.7, -y).value, rel=1e-12)
    for th in (0.4, 2.0):
        assert h_eval(jordan_dt, 1.5, th).value == pytest.approx(
            h_eval(jordan_dt, 1.5, -th).value, rel=1e-12)


def test_large_coordinate_limits(jordan_ct, jordan_dt):
    assert g_eval(jordan_ct, 1e6, 0.37).value == pytest.approx(1.0, abs=1e-4)
    assert h_eval(jordan_dt, 1e6, 0.37).value == pytest.approx(1.0, abs=1e-4)


def test_nonsimple_sigma_flagged_and_refused():
    prob = MatrixProblem(-np.eye(2), "continuous")  # G is a scalar multiple of I
    pt = g_eval(prob, 1.0, 0.5)
    assert not pt.simple
    with pytest.raises(NonsimpleSigmaError):
        g_grad(pt, prob)
    d = g_grad(pt, prob, allow_subgradient=True)
    assert d.subgradient
    with pytest.raises(NonsimpleSigmaError):
        g_hess(pt, prob)


def test_zero_sigma_rejected(scalar_ct):
    pt = _eval_from_matrix((1.0, 0.0), np.array([[0.0]]))
    with pytest.raises(ZeroSigmaError):
        g_grad(pt, scalar_ct)


@pytest.mark.parametrize("time_domain", ["continuous", "discrete"])
def test_search_interval_encloses_the_sublevel_set(time_domain):
    # the divide-and-conquer sweep finds only the candidates inside
    # search_interval, and both eigensolvers drop the candidates outside it,
    # so soundness rests on g (or h) > gamma beyond hi and below lo, and
    # everywhere when the interval is empty
    probs = [gen_test_matrix("jordan-shifted", n, time_domain=time_domain, eps=eps)
             for n in (2, 4) for eps in (0.1, 0.3)]
    probs += [random_stable(n, seed, time_domain) for n, seed in ((2, 1), (3, 2), (5, 3))]
    probs += [random_normal_stable(3, 4, time_domain), contractive(time_domain)]
    empty = 0
    for prob in probs:
        dom = domain(prob)
        eigs = prob.eigenvalues
        if time_domain == "continuous":
            c2s = np.concatenate([np.linspace(-3.0, 3.0, 61) * prob.norm2, eigs.imag])
        else:
            c2s = np.concatenate([np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False),
                                  np.angle(eigs)])
        for gamma in (0.1, 0.5, 0.9, 0.999):
            lo, hi = dom.search_interval(prob, gamma)
            # barrier < lo < hi, or the interval is empty
            assert dom.barrier < lo
            c1s = [hi, dom.barrier + 3.0 * dom.scale(hi), lo, 0.5 * (dom.barrier + lo)]
            if hi <= lo:
                empty += 1
                c1s = dom.barrier + np.geomspace(1e-3 * dom.scale(lo),
                                                 1e3 * max(1.0, prob.norm2), 61)
            for c1 in c1s:
                vals = [evaluate(prob, c1, c2).value for c2 in c2s]
                assert min(vals) > gamma, (prob.A, gamma, c1)
    # the normal and the contractive matrix: empty at every level
    assert empty >= 8
