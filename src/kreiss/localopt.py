"""Local minimization of the inverse-Kreiss objectives.

Newton's method with an Armijo backtracking line search, falling back to
steepest descent where sigma_min is not simple (a nonsmooth point, or a
Hessian refused) or Newton gives no descent direction.  The gradient and
Hessian reuse the SVD of the current iterate (``objective``), so a Newton
step costs one n x n product and a closed-form 2 x 2 solve
(``_newton_direction``) beyond the line search's one SVD per trial point.
The +inf barrier of the objectives keeps every accepted iterate feasible;
for normal matrices, whose infimum is approached only as x (or r) grows
without bound, iterates are capped so termination stays well defined.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import objective
from .errors import (
    DegenerateGapError,
    InfeasibleStartError,
    NonsimpleSigmaError,
    ZeroSigmaError,
)
from .matio import MatrixProblem

__all__ = ["OptStatus", "OptResult", "minimize", "COORD_CAP"]

# plateau cap on x (continuous) or r (discrete); see module docstring
COORD_CAP = 1e8
_ARMIJO_C = 1e-4
_MAX_NONSMOOTH_STEPS = 20


class OptStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITER = "max-iter"
    STALLED_NONSMOOTH = "stalled-nonsmooth"


@dataclass
class OptResult:
    minimizer: objective.EvalPoint
    grad_norm: float
    iterations: int
    status: OptStatus

    @property
    def value(self) -> float:
        return self.minimizer.value


def _clip_coords(prob, c1, c2):
    dom = objective.domain(prob)
    return min(c1, dom.barrier + COORD_CAP), dom.wrap(c2)


def _newton_direction(grad, hess):
    """Solve (H + mu*I) d = -g for the 2 x 2 symmetric H in closed form.

    mu runs 0, 1e-12, 1e-11, ... until H + mu*I is positive definite
    (h00 + mu > 0 and det > 0) and Cramer's rule gives a descent direction,
    d.g < 0; past 1e16 * max(1, ||H||_inf) there is none and None is returned.
    """
    (h00, h01), (h10, h11) = hess.tolist()
    g0, g1 = grad.tolist()
    cap = 1e16 * max(1.0, abs(h00) + abs(h01), abs(h10) + abs(h11))  # ||H||_inf
    mu = 0.0
    for _ in range(40):
        a, b = h00 + mu, h11 + mu
        det = a * b - h01 * h10
        if a > 0.0 and det > 0.0:
            d0, d1 = (h01 * g1 - b * g0) / det, (h10 * g0 - a * g1) / det
            if d0 * g0 + d1 * g1 < 0.0:
                return np.array([d0, d1])
        mu = 1e-12 if mu == 0.0 else mu * 10.0
        if mu > cap:
            break
    return None


def minimize(
    prob: MatrixProblem,
    start,
    grad_tol: float = 1e-10,
    max_iter: int = 200,
) -> OptResult:
    """Minimize g (continuous) or h (discrete) from a feasible start.

    Each step is Newton's, or steepest descent where sigma_min is not simple
    or Newton gives no descent direction, with an Armijo line search; a
    Newton step the line search rejects is retried along -grad.

    Parameters
    ----------
    prob : MatrixProblem
    start : (float, float)
        Feasible starting coordinates: (x, y) with x > 0, or (r, theta)
        with r > 1.
    grad_tol : float
        Convergence test is ||grad|| <= grad_tol * max(1, value).
    max_iter : int

    Returns
    -------
    OptResult
        Objective values along the iteration are nonincreasing and every
        accepted iterate is feasible; the final value never exceeds the
        starting value.

    Raises
    ------
    InfeasibleStartError
        If a start coordinate is NaN or infinite, or the start evaluates
        to +inf.
    """
    if not np.all(np.isfinite(np.asarray(start[:2], dtype=float))):
        raise InfeasibleStartError(f"start coordinates must be finite; got {tuple(start)}")
    c1, c2 = _clip_coords(prob, float(start[0]), float(start[1]))
    pt = objective.evaluate(prob, c1, c2)
    if not pt.feasible:
        raise InfeasibleStartError(f"objective is +inf at start {tuple(start)}")

    nonsmooth_run = 0
    stagnant = 0
    grad_norm = np.inf
    status = OptStatus.MAX_ITER
    iterations = 0

    for iterations in range(1, max_iter + 1):
        try:
            der = objective.gradient(pt, prob, allow_subgradient=True)
        except ZeroSigmaError:
            # sigma_min == 0 cannot happen strictly inside the stable
            # feasible region; treat an exact zero as a converged minimum
            grad_norm = 0.0
            status = OptStatus.CONVERGED
            break
        grad = der.grad
        grad_norm = float(np.linalg.norm(grad))
        at_cap = pt.coords[0] >= COORD_CAP * (1.0 - 1e-12)
        gtol_eff = grad_tol * max(1.0, pt.value)

        if grad_norm <= gtol_eff:
            status = OptStatus.CONVERGED
            break
        if at_cap and abs(grad[1]) <= gtol_eff:
            # normal-matrix plateau: flat in the angular/imaginary direction,
            # value only improves by pushing x, r beyond the cap
            status = OptStatus.CONVERGED
            break

        if der.subgradient:
            nonsmooth_run += 1
            if nonsmooth_run > _MAX_NONSMOOTH_STEPS:
                status = OptStatus.STALLED_NONSMOOTH
                break
            direction = -grad
        else:
            nonsmooth_run = 0
            try:
                direction = _newton_direction(grad, objective.hessian(pt, prob).hess)
            except (NonsimpleSigmaError, DegenerateGapError):
                direction = None
            if direction is None:
                direction = -grad

        new_pt, ok = _armijo(prob, pt, grad, direction)
        if not ok and not np.allclose(direction, -grad):
            new_pt, ok = _armijo(prob, pt, grad, -grad)
        if ok:
            # improvements below rounding noise cannot continue indefinitely
            tiny = pt.value - new_pt.value <= 8.0 * np.finfo(float).eps * pt.value
            stagnant = stagnant + 1 if tiny else 0
            pt = new_pt
        if not ok or stagnant >= 3:
            # numerically flat along every tried direction, or stagnant
            status = (
                OptStatus.CONVERGED
                if grad_norm <= max(1e3 * gtol_eff, 1e2 * np.finfo(float).eps)
                else OptStatus.MAX_ITER
            )
            break

    return OptResult(minimizer=pt, grad_norm=grad_norm, iterations=iterations, status=status)


def _armijo(prob, pt, grad, direction, max_halvings=60):
    """Backtracking line search; rejects infeasible (+inf) trial points."""
    slope = float(np.dot(grad, direction))
    if slope >= 0.0:
        return pt, False
    t = 1.0
    for _ in range(max_halvings):
        c1 = pt.coords[0] + t * direction[0]
        c2 = pt.coords[1] + t * direction[1]
        c1, c2 = _clip_coords(prob, c1, c2)
        if c1 > objective.domain(prob).barrier:
            trial = objective.evaluate(prob, c1, c2)
            if trial.feasible and trial.value <= pt.value + _ARMIJO_C * t * slope:
                return trial, True
        t *= 0.5
    return pt, False
