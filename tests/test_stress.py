"""Known wrong answers of the certificates and solvers: the stress set.

Each case is an input on which the program is known to be wrong, pinned as
a strict xfail, so that a change of behaviour on it shows up as XPASS; a
case that came right by rounding alone is kept as a plain test.
The random matrices are the benchmark's seeded draws:
``workloads.random_matrix`` with the generator
``default_rng([seed, time-domain id, 0, n, 0])``; the others are fixtures.  The
grid oracle is the reference; its values are attained, so no certified
answer may undercut them.  A precondition that fails (the draw is not the
one intended) is reported as a plain failure, not as the expected one.
"""

import numpy as np
import pytest

from kreiss import MatrixProblem, certify, compute_kreiss, default_start, minimize
from kreiss.oracle import grid_min

_TD_ID = {"continuous": 0, "discrete": 1}
_KNOWN_WRONG = pytest.mark.xfail(strict=True, raises=AssertionError,
                                 reason="ROADMAP item 1: the map from eigenvalues to "
                                        "candidates misses a level set")


def random_matrix(n, time_domain, seed):
    """Gaussian complex matrix shifted (ct) or scaled (dt) into stability."""
    rng = np.random.default_rng([seed, _TD_ID[time_domain], 0, n, 0])
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    eigs = np.linalg.eigvals(B)
    if time_domain == "continuous":
        alpha = np.max(eigs.real)
        return B - (alpha + 0.05 * max(1.0, abs(alpha))) * np.eye(n)
    return B / (np.max(np.abs(eigs)) / 0.95)


def _pinned(value, expected, what):
    if value != pytest.approx(expected, rel=1e-5):
        pytest.fail(f"{what} is {value}, not {expected}: not the intended draw")


@_KNOWN_WRONG
@pytest.mark.parametrize("time_domain, n, seed, level, g_min, g_oracle", [
    # the capture band drops both roots of a near-double pair near r = 70
    ("discrete", 3, 321452671, "above", 0.99998774, 0.99998774),
    # the captured lines miss the level set of a deeper basin
    ("continuous", 8, 2, "tight", 0.949336, 0.947080),
], ids=["dt-n3-near-plateau-above", "ct-n8-tight-deeper-basin"])
def test_empty_certificate_bounds_the_oracle(time_domain, n, seed, level, g_min, g_oracle):
    prob = MatrixProblem(random_matrix(n, time_domain, seed), time_domain)
    g = minimize(prob, default_start(prob)).value
    _pinned(g, g_min, "the default start's local minimum")
    g_grid = grid_min(prob, levels=4)[0]
    _pinned(g_grid, g_oracle, "the grid minimum")
    gamma, eta = {"tight": (g * (1.0 - 0.5e-9), g * 1e-9),
                  "above": (g + 0.5 * (1.0 - g), 0.25 * (1.0 - g))}[level]
    report = certify(prob, "variable-v", gamma, eta)
    # EMPTY certifies 1/K > gamma - eta/2, which the attained grid value refutes
    assert not report.empty or g_grid > report.gamma - 0.5 * eta


# owr's only level from the plateau start (1e5, 0), where the minimizer
# stays: g = 0.9999980000125003, gamma = g (1 - 0.5e-10), eta = g 1e-10.
# Both variants are EMPTY there (the vertical one with a single candidate
# line, x = 0.22499), while at eta = 1e-8 they find 2 and 12 points.
_PLATEAU_START_LEVEL = (0.9999979999625004, 9.999980000125003e-11)


@_KNOWN_WRONG
@pytest.mark.parametrize("variant, gamma, eta", [
    ("variable-v", 0.88335, 1e-6),
    ("variable-v", 0.93235, 1e-8),
    ("variable-v", *_PLATEAU_START_LEVEL),
    ("variable-h", *_PLATEAU_START_LEVEL),
], ids=["gamma0.88335-eta1e-6", "gamma0.93235-eta1e-8",
        "plateau-start-variable-v", "plateau-start-variable-h"])
def test_jordan_variable_certificate_bounds_the_oracle(jordan_ct, variant, gamma, eta):
    # the 2 x 2 Jordan block at -0.3: at the first two levels its candidate
    # lines carry no verified point, while the horizontal test at the same
    # arguments finds some
    g_grid = grid_min(jordan_ct, levels=4)[0]
    _pinned(g_grid, 0.88235524, "the grid minimum")
    report = certify(jordan_ct, variant, gamma, eta)
    assert not report.empty or g_grid > gamma - 0.5 * eta


@_KNOWN_WRONG
def test_owr_from_a_plateau_start_does_not_undercut_the_oracle(jordan_ct):
    # the minimizer stays at (1e5, 0) and the certificate at
    # _PLATEAU_START_LEVEL is EMPTY: K = 1.000002; from (1e4, 0) owr gets 1.13333
    k_grid = 1.0 / grid_min(jordan_ct, levels=4)[0]
    _pinned(k_grid, 1.0 / 0.88235524, "the grid's K")
    assert compute_kreiss(jordan_ct, "owr", start=(1e5, 0.0)).kreiss >= k_grid * (1.0 - 1e-8)


@_KNOWN_WRONG
@pytest.mark.parametrize("gamma, eta", [(1.0 - 1e-9, 1e-2), (1.0 - 1e-6, 1e-6)],
                         ids=["gamma1-1e-9-eta1e-2", "gamma1-1e-6-eta1e-6"])
def test_plateau_probe_certificate_bounds_the_oracle(gamma, eta):
    # block B of the benchmark's dt-two-cluster-n4 matrix (solve-dt, seed 7):
    # just below the plateau the test captures no circle at all, while at
    # 1 - 1e-4 it finds points; this is the certificate behind the plateau solves
    B = np.array([[0.526 - 0.563j, 0.667], [0.0, 0.526 - 0.563j]])
    prob = MatrixProblem(B, "discrete")
    g_grid = grid_min(prob, levels=4)[0]
    _pinned(g_grid, 0.93402944, "the grid minimum")
    if not certify(prob, "variable-v", 1.0 - 1e-4, 1e-6).points:
        pytest.fail("the test at 1 - 1e-4 no longer finds points: not the intended case")
    report = certify(prob, "variable-v", gamma, eta)
    assert not report.empty or g_grid > report.gamma - 0.5 * eta


_N5_SEED109 = (5, 109, 1.0394616)
_N4_SEED1025 = (4, 1025, 1.0120221)


# dt-n5-seed109-owr passes since its first certificate (gamma = 1 - 1e-9)
# captures a circle near r = 43.69 that carries verified points.  The
# eigenvalue behind it is so ill-conditioned that rounding alone moves it
# into the capture band (6n^2 trimmed linearization) or out of it (8n^2
# companion pencil): the map from eigenvalues to candidates is still unsound.
@pytest.mark.parametrize("method, n, seed, k_oracle", [
    pytest.param("owr", *_N5_SEED109, id="dt-n5-seed109-owr"),
    pytest.param("owr-bt", *_N5_SEED109, id="dt-n5-seed109-owr-bt", marks=_KNOWN_WRONG),
    pytest.param("owr-bt", *_N4_SEED1025, id="dt-n4-seed1025-owr-bt", marks=_KNOWN_WRONG),
    pytest.param("owr", *_N4_SEED1025, id="dt-n4-seed1025-owr", marks=_KNOWN_WRONG),
])
def test_solver_does_not_undercut_the_oracle(method, n, seed, k_oracle):
    prob = MatrixProblem(random_matrix(n, "discrete", seed), "discrete")
    k_grid = 1.0 / grid_min(prob, levels=4)[0]
    _pinned(k_grid, k_oracle, "the grid's K")
    opts = {"c": 0.25} if method == "owr-bt" else {}
    assert compute_kreiss(prob, method, **opts).kreiss >= k_grid * (1.0 - 1e-8)
