"""Brute-force cross-validation estimators.

Everything here deliberately avoids the solver's machinery (no Hamiltonian
or pencil eigenproblems, no certificates): agreement between these grids
and the certified algorithms is then evidence, not tautology.
"""

from __future__ import annotations

import csv

import numpy as np

from .matio import MatrixProblem, TimeDomain

__all__ = ["grid_min", "ratio_curve", "write_curve_csv", "field_grid", "write_field_csv"]

_GRID_POINTS = 101


def _smin_grid(A, Z):
    """sigma_min(z I - A) for every z in the complex array Z (batched SVD)."""
    n = A.shape[0]
    M = Z[..., None, None] * np.eye(n) - A
    return np.linalg.svd(M, compute_uv=False)[..., -1]


def _eval_block(prob, C1, C2):
    """Objective values on a coordinate grid (C1, C2), +inf where infeasible."""
    if prob.time_domain is TimeDomain.CONTINUOUS:
        X, Y = C1, C2
        feas = X > 0
        Z = X + 1j * Y
        vals = np.full(X.shape, np.inf)
        if np.any(feas):
            vals[feas] = _smin_grid(prob.A, Z[feas]) / X[feas]
        return vals
    R, T = C1, C2
    feas = R > 1
    Z = R * np.exp(1j * T)
    vals = np.full(R.shape, np.inf)
    if np.any(feas):
        vals[feas] = _smin_grid(prob.A, Z[feas]) / (R[feas] - 1.0)
    return vals


def _default_ranges(prob):
    if prob.time_domain is TimeDomain.CONTINUOUS:
        margin = abs(prob.spectral_abscissa)
        x_lo = 1e-3 * margin
        x_hi = 1e3 * max(prob.norm2, margin)
        y_ext = 2.0 * max(prob.norm2, 1e-3)
        return (x_lo, x_hi), (-y_ext, y_ext)
    margin = 1.0 - prob.spectral_radius
    return (1.0 + 1e-3 * margin, 1.0 + 1e3 * margin), (0.0, 2.0 * np.pi)


def _first_axes(prob, x_range, y_range, grid_points):
    """The axes (c1, c2) of a first-level grid over the ranges (any pair,
    tuple or array), or the problem's defaults where a range is None: c1
    log-spaced in its distance from the barrier, c2 linear."""
    lo_bound = 0.0 if prob.time_domain is TimeDomain.CONTINUOUS else 1.0
    d1, d2 = _default_ranges(prob)
    rng1 = tuple(x_range) if x_range is not None else d1
    rng2 = tuple(y_range) if y_range is not None else d2
    off_lo = max(rng1[0] - lo_bound, 1e-12 * max(1.0, rng1[1]))
    c1 = lo_bound + np.geomspace(off_lo, rng1[1] - lo_bound, grid_points)
    return c1, np.linspace(rng2[0], rng2[1], grid_points)


def grid_min(prob: MatrixProblem, x_range=None, y_range=None, levels: int = 4,
             grid_points: int = _GRID_POINTS):
    """Adaptive multilevel grid minimization of g (or h).

    A log-spaced x (or r - 1) sweep crossed with a linear y (or theta)
    sweep locates a coarse minimizer; each further level zooms 10x around
    the current best on a fresh ``grid_points`` x ``grid_points`` grid.
    Accuracy is heuristic, roughly 1e-4 of the value after 4 levels on
    smooth basins.

    Returns
    -------
    (value, coords) : (float, (float, float))
    """
    lo_bound = 0.0 if prob.time_domain is TimeDomain.CONTINUOUS else 1.0
    c1, c2 = _first_axes(prob, x_range, y_range, grid_points)
    best_val, best_c = np.inf, None
    w1 = c1[-1] - c1[0]
    w2 = c2[-1] - c2[0]
    for level in range(levels):
        C1, C2 = np.meshgrid(c1, c2, indexing="ij")
        vals = _eval_block(prob, C1, C2)
        k = np.argmin(vals)
        i, j = np.unravel_index(k, vals.shape)
        if vals[i, j] < best_val:
            best_val = float(vals[i, j])
            best_c = (float(C1[i, j]), float(C2[i, j]))
        if level == levels - 1:
            break
        w1 /= 10.0
        w2 /= 10.0
        lo1 = max(best_c[0] - w1 / 2.0, lo_bound * (1 + 1e-12) + 1e-300)
        c1 = np.linspace(lo1, best_c[0] + w1 / 2.0, grid_points)
        c2 = np.linspace(best_c[1] - w2 / 2.0, best_c[1] + w2 / 2.0, grid_points)
    return best_val, best_c


def ratio_curve(prob: MatrixProblem, eps_grid, grid_points: int = 220):
    """Grid approximation of the pseudospectral growth-ratio curve.

    For each epsilon the pseudospectral abscissa (continuous) or radius
    (discrete) is approximated by the best grid point z with
    sigma_min(z I - A) <= epsilon, and the ratio alpha_eps/eps (resp.
    (rho_eps - 1)/eps) is reported.  This is a visual approximation from
    one fixed grid, NOT the criss-cross algorithm; values underestimate the
    true curve by the grid resolution.

    Returns
    -------
    list of (eps, ratio) pairs; ratio is nan when no grid point qualifies.
    """
    eps_grid = np.asarray(list(eps_grid), dtype=float)
    if np.any(eps_grid <= 0):
        raise ValueError("eps values must be positive")
    eps_max = float(np.max(eps_grid))
    out = []
    if prob.time_domain is TimeDomain.CONTINUOUS:
        x_hi = eps_max + 2.0 * prob.norm2
        xs = np.linspace(prob.spectral_abscissa, x_hi, grid_points)
        ys = np.linspace(-(eps_max + 2.0 * prob.norm2), eps_max + 2.0 * prob.norm2, grid_points)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        smin = _smin_grid(prob.A, X + 1j * Y)
        for eps in eps_grid:
            mask = smin <= eps
            # eigenvalues always qualify (sigma_min = 0 there), so alpha_eps
            # never degrades below the exact spectral abscissa
            alpha_eps = prob.spectral_abscissa
            if np.any(mask):
                alpha_eps = max(alpha_eps, float(np.max(X[mask])))
            out.append((float(eps), float(alpha_eps / eps)))
    else:
        r_hi = 1.0 + eps_max + 2.0 * prob.norm2
        rs = np.linspace(prob.spectral_radius * 0.5, r_hi, grid_points)
        ts = np.linspace(0.0, 2.0 * np.pi, grid_points, endpoint=False)
        R, T = np.meshgrid(rs, ts, indexing="ij")
        smin = _smin_grid(prob.A, R * np.exp(1j * T))
        for eps in eps_grid:
            mask = smin <= eps
            rho_eps = prob.spectral_radius
            if np.any(mask):
                rho_eps = max(rho_eps, float(np.max(R[mask])))
            out.append((float(eps), float((rho_eps - 1.0) / eps)))
    return out


def field_grid(prob: MatrixProblem, x_range=None, y_range=None, grid_points: int = _GRID_POINTS):
    """Objective values on ``grid_min``'s first-level grid, as rows (c1, c2, value)."""
    C1, C2 = np.meshgrid(*_first_axes(prob, x_range, y_range, grid_points), indexing="ij")
    vals = _eval_block(prob, C1, C2)
    return np.column_stack([C1.ravel(), C2.ravel(), vals.ravel()])


def write_curve_csv(path, rows, header=("eps", "ratio")) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_field_csv(path, prob, rows) -> None:
    header = ("x", "y", "g") if prob.time_domain is TimeDomain.CONTINUOUS else ("r", "theta", "h")
    write_curve_csv(path, rows, header=header)
