import csv

import numpy as np
import pytest
import scipy.linalg

from kreiss import MatrixProblem, gen_test_matrix, oracle, solve_owr
from kreiss.oracle import field_grid, grid_min, ratio_curve, write_curve_csv, write_field_csv

from conftest import contractive, jordan_block, random_normal_stable


def test_normal_scalar_tends_to_one(scalar_ct):
    val, coords = grid_min(scalar_ct, levels=4)
    assert 1.0 < val < 1.01
    assert coords[0] > 100.0


def test_discrete_normal(scalar_dt):
    prob = MatrixProblem(0.5 * np.eye(2), "discrete")
    val, _ = grid_min(prob, levels=4)
    assert 1.0 < val < 1.01


def test_refinement_monotone(jordan_ct):
    vals = [grid_min(jordan_ct, levels=k)[0] for k in (1, 2, 3, 4, 5)]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
    # heuristic accuracy claim: ~1e-4 relative after 4 levels on smooth basins
    assert vals[3] == pytest.approx(vals[4], rel=1e-4)


def test_jordan_reference_minimum(jordan_ct):
    val, coords = grid_min(jordan_ct, levels=5)
    assert val == pytest.approx(1.0 / 1.1333333333, rel=1e-5)
    assert coords[1] == pytest.approx(0.0, abs=1e-6)


def test_ratio_curve_bounded_by_kreiss(jordan_ct):
    k = solve_owr(jordan_ct).kreiss
    rows = ratio_curve(jordan_ct, np.geomspace(1e-2, 1e3, 25))
    sup = max(r for _, r in rows)
    assert sup <= k * 1.05
    # sup of the true curve equals K; the grid surrogate should get close
    assert sup >= 0.5 * k


def test_ratio_curve_normal_and_tail(scalar_ct):
    rows = ratio_curve(scalar_ct, np.geomspace(0.1, 1e4, 30))
    ratios = [r for _, r in rows]
    assert all(r <= 1.0 + 1e-12 for r in ratios)
    assert ratios[-1] == pytest.approx(1.0, abs=2e-2)  # alpha_eps/eps -> 1


def test_ratio_curve_discrete(jordan_dt):
    k = solve_owr(jordan_dt).kreiss
    rows = ratio_curve(jordan_dt, np.geomspace(1e-2, 1e3, 20))
    assert max(r for _, r in rows) <= k * 1.05


def test_curve_csv(tmp_path):
    rows = [(0.1, 0.5), (1.0, 0.9)]
    path = tmp_path / "curve.csv"
    write_curve_csv(path, rows)
    with open(path) as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["eps", "ratio"]
    assert float(got[1][0]) == 0.1


def test_field_csv(tmp_path, jordan_ct):
    rows = field_grid(jordan_ct, grid_points=11)
    assert rows.shape == (121, 3)
    path = tmp_path / "field.csv"
    write_field_csv(path, jordan_ct, rows)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    assert header == ["x", "y", "g"]


def test_field_grid_is_grid_min_first_level(jordan_ct, jordan_dt, monkeypatch):
    # field_grid takes every range grid_min takes, arrays too, and its rows
    # are the points grid_min evaluates first, also for a range that starts
    # at the barrier, where the lower end is clamped
    first = []
    evaluate = oracle._eval_block
    monkeypatch.setattr(oracle, "_eval_block",
                        lambda prob, C1, C2: first.append((C1, C2)) or evaluate(prob, C1, C2))
    for prob, x_range, y_range in ((jordan_ct, (0.1, 2.0), (-1.0, 1.0)),
                                   (jordan_ct, (0.0, 2.0), (-1.0, 1.0)),
                                   (jordan_dt, (1.0, 3.0), (0.0, np.pi)),
                                   (jordan_dt, None, None)):
        rows = field_grid(prob, x_range, y_range, grid_points=11)
        if x_range is not None:
            arrays = field_grid(prob, np.array(x_range), np.array(y_range), grid_points=11)
            assert np.array_equal(arrays, rows, equal_nan=True)
        first.clear()
        grid_min(prob, x_range, y_range, levels=1, grid_points=11)
        C1, C2 = first[0]
        assert np.array_equal(rows[:, 0], C1.ravel()) and np.array_equal(rows[:, 1], C2.ravel())


def test_oracle_never_beats_certified_optimum(jordan_ct, jordan_dt):
    for prob in (jordan_ct, jordan_dt):
        kinv = 1.0 / solve_owr(prob).kreiss
        val, _ = grid_min(prob, levels=4)
        assert val >= kinv - 1e-3 * kinv


@pytest.mark.parametrize("time_domain", ["continuous", "discrete"])
def test_what_the_numerical_range_calls_contractive_is(time_domain):
    # solver-free evidence for every matrix with omega(A) <= 0 (w(A) <= 1) by
    # MatrixProblem.numerical_range_bound: ||e^{tA}|| <= 1 on a t-grid, or
    # ||A^k|| <= 2 (Berger's w(A^k) <= w(A)^k with ||X|| <= 2 w(X)), and the
    # grid oracle's minimum of g (or h) is not below 1
    if time_domain == "continuous":
        blocks = [jordan_block(4, -1.0, 1.0), jordan_block(3, -0.5 + 2.0j, 0.6)]
    else:
        blocks = [jordan_block(3, 0.4, 0.4), jordan_block(2, 0.6j, 0.5)]
    probs = [MatrixProblem(A, time_domain) for A in blocks]
    probs += [contractive(time_domain),
              gen_test_matrix("jordan-shifted", 2, time_domain=time_domain)]
    probs += [random_normal_stable(n, seed, time_domain) for n, seed in ((2, 1), (3, 4), (4, 7))]
    probs = [p for p in probs if p.numerical_range_bound <= (0.0 if p.is_continuous else 1.0)]
    # all but the Jordan fixture, whose K exceeds 1
    assert len(probs) == 6
    for prob in probs:
        if prob.is_continuous:
            growth = max(np.linalg.norm(scipy.linalg.expm(t * prob.A), 2)
                         for t in np.geomspace(1e-3, 1e2, 60))
            assert growth <= 1.0 + 1e-12, prob.A
        else:
            powers = [np.linalg.matrix_power(prob.A, k) for k in range(1, 60)]
            assert max(np.linalg.norm(P, 2) for P in powers) <= 2.0, prob.A
        assert grid_min(prob, levels=3)[0] >= 1.0 - 1e-10, prob.A
