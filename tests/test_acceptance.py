"""Acceptance suite: one test per criterion, each printing a PASS line.

The cross-method corpus (criterion 2) is computed once and shared with the
soundness and trisection-geometry criteria.  Criterion 1 activates only
when the external base matrices are present under tests/data/; otherwise it
is replaced by criterion 2, as specified.
"""

import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import kreiss
from kreiss import (
    MatrixProblem,
    build_quad_pencil_fixed,
    build_variable_pencil,
    gen_test_matrix,
    g_eval,
    g_hess,
    h_eval,
    h_hess,
    solve_owr,
    solve_owr_backtracking,
    solve_trisection,
)
from kreiss.cert_ct import _mass_solve, build_horizontal_pencil
from kreiss.oracle import grid_min

from conftest import gathered_mass, random_normal_stable, random_stable

DATA_DIR = Path(__file__).parent / "data"

# (n, seed, time_domain): 20 instances over n in {3, 5, 8}, both domains
CORPUS = (
    [(3, s, "continuous") for s in range(4)]
    + [(5, s, "continuous") for s in range(4, 7)]
    + [(8, s, "continuous") for s in range(7, 10)]
    + [(3, s, "discrete") for s in range(10, 14)]
    + [(5, s, "discrete") for s in range(14, 18)]
    + [(8, 18, "discrete"), (3, 19, "discrete")]
)
assert len(CORPUS) == 20


@pytest.fixture(scope="module")
def corpus_runs():
    """Solve every corpus instance with all three methods plus the oracle."""
    runs = []
    for n, seed, td in CORPUS:
        prob = random_stable(n, seed, td)
        bt = solve_owr_backtracking(prob, c=0.1 if (td == "discrete" and n == 8) else 0.25)
        owr = solve_owr(prob, gamma_tol=1e-9)
        tri = solve_trisection(prob, gamma_tol=3e-7)
        oracle_val, _ = grid_min(prob, levels=4)
        runs.append(dict(n=n, seed=seed, td=td, prob=prob,
                         bt=bt, owr=owr, tri=tri, oracle=oracle_val))
    return runs


def test_criterion_1_table_reproduction():
    base_c = None
    base_d = None
    for ext in ("json", "mtx", "csv"):
        if (DATA_DIR / f"companion_demo_10.{ext}").exists():
            base_c = DATA_DIR / f"companion_demo_10.{ext}"
        if (DATA_DIR / f"convdiff_demo_11.{ext}").exists():
            base_d = DATA_DIR / f"convdiff_demo_11.{ext}"
    if base_c is None or base_d is None:
        print("criterion 1: SKIP (EigTool base matrices unavailable; "
              "replaced by criterion 2 as specified)")
        pytest.skip("base matrices unavailable; criterion replaced by criterion 2")

    raw_c = kreiss.load_matrix(base_c, time_domain="continuous").A
    prob_c = gen_test_matrix("companion-shifted", 10, base_matrix=raw_c)
    t0 = time.perf_counter()
    owr_c = solve_owr(prob_c, start=(6.0, 6.0), gamma_tol=1e-10)
    bt_c = solve_owr_backtracking(prob_c, start=(6.0, 6.0))
    tri_c = solve_trisection(prob_c, start=(1.0, 0.0), gamma_tol=1e-6)
    elapsed_c = time.perf_counter() - t0
    assert owr_c.kreiss == pytest.approx(1.29186707004828e5, rel=1e-8)
    assert bt_c.kreiss == pytest.approx(1.29186707015132e5, rel=1e-8)
    assert tri_c.kreiss == pytest.approx(1.29186707004828e5, rel=1e-4)
    assert owr_c.restarts == 2 and bt_c.restarts == 2
    assert elapsed_c < 180.0

    raw_d = kreiss.load_matrix(base_d, time_domain="discrete").A
    prob_d = gen_test_matrix("convdiff-shifted", 11, base_matrix=raw_d)
    t0 = time.perf_counter()
    owr_d = solve_owr(prob_d, start=(np.hypot(1, 1), np.angle(-1 + 1j)),
                      gamma_tol=1e-10)
    bt_d = solve_owr_backtracking(prob_d, start=(np.hypot(1, 1), np.angle(-1 + 1j)))
    tri_d = solve_trisection(prob_d, start=(2.0, 0.0), gamma_tol=1e-6)
    elapsed_d = time.perf_counter() - t0
    assert owr_d.kreiss == pytest.approx(1.89501339090580, rel=1e-10)
    assert bt_d.kreiss == pytest.approx(1.89501339090580, rel=1e-10)
    assert tri_d.kreiss == pytest.approx(1.89501339090580, rel=1e-4)
    assert owr_d.restarts == 3 and bt_d.restarts == 3
    assert elapsed_d < 180.0
    print("criterion 1: PASS (Table 1 values reproduced)")


def test_criterion_2_cross_method_agreement(corpus_runs):
    worst_pair = 0.0
    worst_oracle = 0.0
    for run in corpus_runs:
        k_bt, k_owr, k_tri = run["bt"].kreiss, run["owr"].kreiss, run["tri"].kreiss
        for a, b in ((k_bt, k_owr), (k_bt, k_tri), (k_owr, k_tri)):
            rel = abs(a - b) / max(a, b)
            worst_pair = max(worst_pair, rel)
            assert rel <= 1e-6, f"{run['td']} n={run['n']} seed={run['seed']}: {rel:.2e}"
        rel_oracle = abs(1.0 / run["oracle"] - k_owr) / k_owr
        worst_oracle = max(worst_oracle, rel_oracle)
        assert rel_oracle <= 1e-3, \
            f"{run['td']} n={run['n']} seed={run['seed']}: oracle {rel_oracle:.2e}"
    print(f"criterion 2: PASS (20 matrices; worst pairwise {worst_pair:.2e}, "
          f"worst vs oracle {worst_oracle:.2e})")


def test_criterion_3_normal_matrix_law():
    worst = 1.0
    for td in ("continuous", "discrete"):
        for seed in range(10):
            prob = random_normal_stable(4, seed, td)
            k = solve_owr(prob).kreiss
            assert 1.0 <= k <= 1.0 + 1e-4, f"{td} seed={seed}: K={k}"
            worst = max(worst, k)
    print(f"criterion 3: PASS (20 normal matrices, max K = {worst:.10f})")


def test_criterion_4_derivative_correctness():
    rng = np.random.default_rng(1234)
    checked_ct = checked_dt = 0
    attempts = 0
    while checked_ct < 50 and attempts < 200:
        attempts += 1
        prob = random_stable(int(rng.integers(2, 6)), int(rng.integers(0, 1000)),
                             "continuous")
        x = 10.0 ** rng.uniform(-0.5, 0.7)
        y = rng.standard_normal()
        pt = g_eval(prob, x, y)
        if not pt.simple:
            continue
        d = g_hess(pt, prob)
        h = 1e-6
        f = lambda a, b: g_eval(prob, a, b).value
        for i, fd in enumerate([(f(x + h, y) - f(x - h, y)) / (2 * h),
                                (f(x, y + h) - f(x, y - h)) / (2 * h)]):
            assert abs(d.grad[i] - fd) <= 1e-6 * max(1.0, abs(fd))
        h2 = 1e-4
        hxx = (f(x + h2, y) - 2 * f(x, y) + f(x - h2, y)) / h2**2
        hyy = (f(x, y + h2) - 2 * f(x, y) + f(x, y - h2)) / h2**2
        hxy = (f(x + h2, y + h2) - f(x + h2, y - h2)
               - f(x - h2, y + h2) + f(x - h2, y - h2)) / (4 * h2**2)
        scale = max(1.0, float(np.max(np.abs(d.hess))))
        assert abs(d.hess[0, 0] - hxx) <= 1e-4 * scale
        assert abs(d.hess[1, 1] - hyy) <= 1e-4 * scale
        assert abs(d.hess[0, 1] - hxy) <= 1e-4 * scale
        checked_ct += 1
    attempts = 0
    while checked_dt < 50 and attempts < 200:
        attempts += 1
        prob = random_stable(int(rng.integers(2, 6)), int(rng.integers(0, 1000)),
                             "discrete")
        r = 1.0 + 10.0 ** rng.uniform(-1.0, 0.5)
        th = 2 * np.pi * rng.random()
        pt = h_eval(prob, r, th)
        if not pt.simple:
            continue
        d = h_hess(pt, prob)
        h = 1e-6
        f = lambda a, b: h_eval(prob, a, b).value
        for i, fd in enumerate([(f(r + h, th) - f(r - h, th)) / (2 * h),
                                (f(r, th + h) - f(r, th - h)) / (2 * h)]):
            assert abs(d.grad[i] - fd) <= 1e-6 * max(1.0, abs(fd))
        h2 = 1e-4
        hrr = (f(r + h2, th) - 2 * f(r, th) + f(r - h2, th)) / h2**2
        htt = (f(r, th + h2) - 2 * f(r, th) + f(r, th - h2)) / h2**2
        hrt = (f(r + h2, th + h2) - f(r + h2, th - h2)
               - f(r - h2, th + h2) + f(r - h2, th - h2)) / (4 * h2**2)
        scale = max(1.0, float(np.max(np.abs(d.hess))))
        assert abs(d.hess[0, 0] - hrr) <= 1e-4 * scale
        assert abs(d.hess[1, 1] - htt) <= 1e-4 * scale
        assert abs(d.hess[0, 1] - hrt) <= 1e-4 * scale
        checked_dt += 1
    assert checked_ct == 50 and checked_dt == 50
    print("criterion 4: PASS (50 smooth points per objective, grad 1e-6 / hess 1e-4)")


def test_criterion_5_certificate_soundness(corpus_runs):
    checked = 0
    for run in corpus_runs:
        prob = run["prob"]
        continuous = run["td"] == "continuous"
        for result in (run["bt"], run["owr"], run["tri"]):
            for report in result.reports:
                for pt in report.points:
                    c1, c2 = pt.coords
                    if continuous:
                        M = ((c1 + 1j * c2) * np.eye(prob.n) - prob.A) / c1
                    else:
                        M = (c1 * np.exp(1j * c2) * np.eye(prob.n) - prob.A) / (c1 - 1.0)
                    s = np.linalg.svd(M, compute_uv=False)
                    assert np.min(np.abs(s - report.gamma)) <= 1e-8 * prob.norm2
                    checked += 1
    # normal-law runs return no points; corpus runs must have produced some
    assert checked > 0
    print(f"criterion 5: PASS ({checked} returned level-set points, "
          "100% pass direct SVD verification)")


def test_kreiss_matrix_theorem_bounds_transient_growth(corpus_runs):
    """Solver-free check of every K: max ||e^{tA}|| (max ||A^k||) <= e n K.

    The Kreiss Matrix Theorem bounds the supremum by e*n*K.  A grid can
    only underestimate the supremum, so a failure here means K is too small.
    """
    worst = 0.0
    for run in corpus_runs:
        A, n = run["prob"].A, run["n"]
        if run["td"] == "continuous":
            growth = max(np.linalg.norm(scipy.linalg.expm(t * A), 2)
                         for t in np.geomspace(1e-2, 1e3, 300))
        else:
            power, growth = np.eye(n), 1.0
            for _ in range(2000):
                power = power @ A
                growth = max(growth, np.linalg.norm(power, 2))
        for method in ("bt", "owr", "tri"):
            bound = np.e * n * run[method].kreiss
            assert growth <= bound, \
                f"{run['td']} n={n} seed={run['seed']} {method}: {growth:.4g} > e n K = {bound:.4g}"
            worst = max(worst, growth / bound)
    print(f"Kreiss Matrix Theorem: PASS (60 solves; largest growth / (e n K) = {worst:.3f})")


def test_criterion_6_structural_theorems():
    rng = np.random.default_rng(77)
    builds = {"variable-vertical": build_variable_pencil,
              "variable-horizontal": build_horizontal_pencil}
    for variant, build in builds.items():
        # (a) m2 = P (S (x) I_{n^2}) P^T with the 4 x 4 core S, and (b) the
        # exact m2^-1 through S^-1 against a dense solve with m2
        for draw in range(10):
            n = int(rng.integers(1, 4))
            prob = random_stable(n, 60 + draw, "continuous")
            gamma, eta = float(rng.uniform(0.1, 0.95)), float(10.0 ** rng.uniform(-3, 0))
            pen = build(prob, gamma, eta)
            S = pen.mass_core
            assert S.shape == (4, 4)
            assert np.array_equal(pen.m2, gathered_mass(S, n)), (variant, gamma, eta)
            X = rng.standard_normal((4 * n * n, 3)) + 1j * rng.standard_normal((4 * n * n, 3))
            for rhs in (X, pen.m1):
                ref = np.linalg.solve(pen.m2, rhs)
                err = np.linalg.norm(_mass_solve(S, rhs) - ref)
                assert err <= 1e-10 * np.linalg.norm(ref), (variant, gamma, eta)
        # the singular limits: S has the eigenvalue -i eta (vertical) or
        # (1 - beta) sqrt(1 - gamma^2) (horizontal), so it goes singular as
        # eta -> 0 or beta -> 1, and there the pencil goes to QZ
        prob = random_stable(2, 60, "continuous")
        gamma = 0.6
        for eta in (1e-2, 1e-5, 1e-8, 1e-11):
            pen = build(prob, gamma, eta)
            limit = (-1j * eta if variant == "variable-vertical"
                     else (1.0 - pen.beta) * np.sqrt(1.0 - gamma**2))
            lam = np.linalg.eigvals(pen.mass_core)
            assert np.min(np.abs(lam - limit)) <= 1e-14
            assert np.linalg.svd(pen.mass_core, compute_uv=False)[-1] <= abs(limit) * (1 + 1e-8)
            if eta <= 1e-5:
                assert pen.spectrum().route == "qz", (variant, eta)
    # (c) Q2 singular always; Q0 singularity flips at singular values of A
    for seed in range(4):
        prob = random_stable(3, seed + 40, "discrete")
        gam = float(0.3 + 0.1 * seed)
        pen = build_quad_pencil_fixed(prob, gam, 0.2)
        s2 = np.linalg.svd(pen.q2, compute_uv=False)
        assert s2[-1] <= 1e-10 * s2[0]
    prob = gen_test_matrix("jordan-shifted", 2, time_domain="discrete", eps=0.1)
    sv = float(np.linalg.svd(prob.A, compute_uv=False)[-1])
    s_on = np.linalg.svd(build_quad_pencil_fixed(prob, sv, 0.2).q0, compute_uv=False)
    assert s_on[-1] <= 1e-8 * s_on[0]
    for off in (-1e-3, 1e-3):
        s_off = np.linalg.svd(build_quad_pencil_fixed(prob, sv + off, 0.2).q0,
                              compute_uv=False)
        assert s_off[-1] > 1e-6 * s_off[0]
    print("criterion 6: PASS (m2 = P (S (x) I) P^T, exact m2^-1 from S, "
          "singular limits on QZ, Q2/Q0 structure)")


def test_criterion_7_1d_exactness():
    ct = MatrixProblem(np.array([[-1.0]]), "continuous")
    ys = kreiss.vertical_level_points(ct, np.sqrt(5.0), 1.0)
    assert len(ys) == 2
    assert abs(ys[0] + 1.0) <= 1e-10 and abs(ys[1] - 1.0) <= 1e-10
    dt = MatrixProblem(np.array([[0.5]]), "discrete")
    ths = kreiss.circular_level_points(dt, 1.5, 2.0)
    assert len(ths) == 1 and abs(ths[0]) <= 1e-10
    print("criterion 7: PASS (scalar 1D tests exact to 1e-10)")


def _dnc_config_stream(rng, variant_is_dt):
    ns = [2, 2, 2, 2, 4, 4, 4, 6, 6, 6]
    for i, n in enumerate(ns):
        seed = 100 + 10 * i
        td = "discrete" if variant_is_dt else "continuous"
        prob = random_stable(n, seed, td)
        gamma = float(rng.uniform(0.35, 0.85))
        eta = float(rng.uniform(0.05, 0.4))
        if variant_is_dt:
            svals = np.linalg.svd(prob.A, compute_uv=False)
            if np.min(np.abs(svals - gamma)) < 1e-3:
                gamma += 2e-3
        yield prob, gamma, eta


def test_criterion_8_divide_and_conquer_equivalence():
    import scipy.linalg

    from kreiss import (op_fixed_ct, op_horizontal_ct, op_quad_dt, op_variable_ct,
                        real_eigs_in_interval)
    from kreiss.cert_ct import (build_fixed_pencil, build_horizontal_pencil,
                                build_variable_pencil)
    from kreiss.cert_dt import build_quad_pencil_variable

    rng = np.random.default_rng(4242)
    variants = [
        ("fixed-v", False,
         lambda p, g, e: op_fixed_ct(p, g, e, np.pi / 2),
         lambda p, g, e: build_fixed_pencil(p, g, e, np.pi / 2)),
        ("fixed-h", False,
         lambda p, g, e: op_fixed_ct(p, g, e, 0.0),
         lambda p, g, e: build_fixed_pencil(p, g, e, 0.0)),
        ("variable-v", False, op_variable_ct, build_variable_pencil),
        ("variable-h", False, op_horizontal_ct, build_horizontal_pencil),
        ("fixed-dt", True,
         lambda p, g, e: op_quad_dt(p, g, e, "fixed"), build_quad_pencil_fixed),
        ("variable-dt", True,
         lambda p, g, e: op_quad_dt(p, g, e, "variable"), build_quad_pencil_variable),
    ]
    total = 0
    for name, is_dt, make_op, make_pencil in variants:
        for prob, gamma, eta in _dnc_config_stream(rng, is_dt):
            lo = 1.0 + 1e-9 if is_dt else 1e-9
            hi = (1.0 + 4.0 * (prob.norm2 + 1.0)) if is_dt else 4.0 * max(prob.norm2, 1.0)
            op = make_op(prob, gamma, eta)
            pen = make_pencil(prob, gamma, eta)
            if is_dt:
                m = pen.q0.shape[0]
                eye, zero = np.eye(m), np.zeros((m, m))
                L = np.block([[pen.q1, pen.q0], [-eye, zero]])
                R = np.block([[-pen.q2, zero], [zero, -eye]])
            else:
                L, R = pen.m1, pen.m2
            alpha, beta = scipy.linalg.eigvals(L, R, homogeneous_eigvals=True)
            fin = np.abs(beta) > 1e-14 * (np.abs(alpha) + 1.0)
            lam = alpha[fin] / beta[fin]
            dense_real = lam[np.abs(lam.imag) <= 1e-8 * np.maximum(1.0, np.abs(lam.real))].real
            dense_real = np.sort(dense_real[(dense_real >= lo) & (dense_real <= hi)])
            found = real_eigs_in_interval(op, lo, hi, k_per_shift=6, seed=7)
            for x in found:
                err = np.min(np.abs(lam - x)) if len(lam) else np.inf
                assert err <= 1e-7 * max(1.0, abs(x)), \
                    f"{name}: spurious dnc eigenvalue {x} (err {err:.2e})"
            for lam_r in dense_real:
                err = np.min(np.abs(np.array(found) - lam_r)) if found else np.inf
                assert err <= 1e-7 * max(1.0, abs(lam_r)), \
                    f"{name}: dense real eigenvalue {lam_r} missed (err {err:.2e})"
            total += 1
    print(f"criterion 8: PASS ({total} divide-and-conquer sweeps match dense QZ)")


def test_criterion_9_trisection_geometry(corpus_runs):
    checked = 0
    for run in corpus_runs:
        tri = run["tri"]
        hist = tri.bounds_history
        if len(hist) < 2:
            continue
        width0 = hist[0].width
        for k, b in enumerate(hist):
            assert abs(b.width - (2.0 / 3.0) ** k * width0) <= 1e-12 * max(1.0, width0)
        lbs = [b.lb for b in hist]
        ubs = [b.ub for b in hist]
        assert all(b2 >= b1 - 1e-15 for b1, b2 in zip(lbs, lbs[1:]))
        assert all(u2 <= u1 + 1e-15 for u1, u2 in zip(ubs, ubs[1:]))
        assert all(b.lb < b.ub for b in hist)
        psi = 3e-7  # the gamma_tol these runs used
        final_value = 1.0 / tri.kreiss
        entries = [t for t in tri.trace if t.phase == "trisection"]
        assert entries[-1].eta <= (1.0 + psi) * final_value
        # contrapositive diagnostic: while eta_k exceeded (1+psi)*final, the
        # running estimate had to be off by more than psi relatively
        for t in entries:
            if t.eta > (1.0 + psi) * final_value:
                assert abs(t.gamma - final_value) > psi * final_value * 0.99
        checked += 1
    assert checked > 0
    print(f"criterion 9: PASS (trisection geometry on {checked} recorded traces)")


def test_criterion_10_exclusions_documented():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    for needle in ("Chebfun", "criss-cross", "wall-clock"):
        assert needle in readme
    print("criterion 10: PASS (out-of-scope reproductions documented, "
          "covered by the property suites)")
