import numpy as np
import pytest
import scipy.linalg

from kreiss import (
    MatrixProblem,
    build_quad_pencil_fixed,
    build_quad_pencil_variable,
    circular_level_points,
    compute_kreiss,
    eig_quadratic,
    fixed_distance_test_dt,
    gen_test_matrix,
    solve_owr,
    variable_distance_test_dt,
)
from kreiss.cert_dt import _nudge_gamma, _ray_factor_blocks, _ray_pair
from kreiss.oracle import grid_min
from kreiss.solver import CERTIFICATE_CHOICES

from conftest import (assert_split_reports_agree, jordan_block, random_normal_stable,
                      random_stable, record_qz, three_levels, two_block)

JORDAN_DT_MIN = 5.0 / 13.0  # global min of h for the discrete Jordan at 0.9


# --------------------------------------------------------------------------
# 1D circular test
# --------------------------------------------------------------------------

def test_circular_tangency(scalar_dt):
    ths = circular_level_points(scalar_dt, 1.5, 2.0)
    assert len(ths) == 1
    assert abs(ths[0]) <= 1e-10


def test_circular_empty(scalar_dt):
    assert circular_level_points(scalar_dt, 0.1, 2.0) == []


def test_circular_antipodal():
    prob = MatrixProblem(0.5 * np.eye(2), "discrete")
    ths = circular_level_points(prob, 2.5, 2.0)
    assert len(ths) == 1
    assert ths[0] == pytest.approx(np.pi, abs=1e-10)


def test_circular_points_carry_gamma(jordan_dt):
    gamma = JORDAN_DT_MIN + 0.05
    for r in (1.05, 1.2):
        for th in circular_level_points(jordan_dt, gamma, r):
            H = (r * np.exp(1j * th) * np.eye(2) - jordan_dt.A) / (r - 1.0)
            s = np.linalg.svd(H, compute_uv=False)
            assert np.min(np.abs(s - gamma)) <= 1e-8 * jordan_dt.norm2


# --------------------------------------------------------------------------
# quadratic pencil structure
# --------------------------------------------------------------------------

def test_q2_always_singular():
    for seed in range(4):
        prob = random_stable(3, seed, "discrete")
        pen = build_quad_pencil_fixed(prob, 0.4 + 0.1 * seed, 0.2)
        s = np.linalg.svd(pen.q2, compute_uv=False)
        assert s[-1] <= 1e-10 * s[0]


def test_q0_singular_exactly_at_singular_values(jordan_dt):
    svals = np.linalg.svd(jordan_dt.A, compute_uv=False)
    sv = svals[-1]  # the one inside (0, 1)
    assert 0 < sv < 1
    pen_on = build_quad_pencil_fixed(jordan_dt, float(sv), 0.2)
    s_on = np.linalg.svd(pen_on.q0, compute_uv=False)
    assert s_on[-1] <= 1e-8 * s_on[0]
    for off in (-1e-3, 1e-3):
        pen_off = build_quad_pencil_fixed(jordan_dt, float(sv + off), 0.2)
        s_off = np.linalg.svd(pen_off.q0, compute_uv=False)
        assert s_off[-1] > 1e-6 * s_off[0]


def test_quadratic_well_posed_under_theorem_hypotheses(jordan_dt):
    # A nonsingular, gamma not a singular value: the linearization is regular
    pen = build_quad_pencil_fixed(jordan_dt, 0.5, 0.25)
    spec = eig_quadratic(pen.q0, pen.q1, pen.q2)
    assert len(spec) == 2 * pen.q0.shape[0]


def test_variable_build_algebra(jordan_dt):
    gamma, eta = 0.45, 0.3
    pen = build_quad_pencil_variable(jordan_dt, gamma, eta)
    assert pen.beta - 1.0 == pytest.approx(eta / (1.0 + gamma))
    assert pen.delta == pytest.approx(-eta / (1.0 + gamma))
    for r in (1.4, 2.7):
        partner = pen.beta * r + pen.delta
        assert partner - r == pytest.approx((r - 1.0) * eta / (1.0 + gamma))
    # tilde-Q0 nonsingular under the theorem hypotheses (eta := delta != 0)
    s0 = np.linalg.svd(pen.q0, compute_uv=False)
    assert s0[-1] > 1e-8 * s0[0]
    # tilde-Q0 is the fixed build's Q0 with eta replaced by delta, and
    # tilde-Q2 = beta * fixed Q2
    C0, _, D0d, _, E0, _, F0d, _ = _ray_factor_blocks(jordan_dt.A, gamma, pen.delta)
    q0_manual = np.kron(D0d.T, C0) - np.kron(F0d.T, E0)
    assert np.allclose(pen.q0, q0_manual)
    fixed = build_quad_pencil_fixed(jordan_dt, gamma, eta)
    assert np.allclose(pen.q2, pen.beta * fixed.q2)


def test_gamma_nudge(jordan_dt):
    sv = float(np.linalg.svd(jordan_dt.A, compute_uv=False)[-1])
    nudged, moved = _nudge_gamma(jordan_dt, sv)
    assert moved and nudged != sv and 0 < nudged < 1
    same, moved2 = _nudge_gamma(jordan_dt, 0.5)
    assert not moved2 and same == 0.5


# --------------------------------------------------------------------------
# 2D radial tests
# --------------------------------------------------------------------------

def test_scalar_gamma_above_one_rejected(scalar_dt):
    # K = 1 for a normal scalar, so "gamma = 1/K + 0.01" exceeds 1: rejected
    with pytest.raises(ValueError):
        fixed_distance_test_dt(scalar_dt, 1.01, 0.1)


def test_fixed_dt_verdicts(jordan_dt):
    above = fixed_distance_test_dt(jordan_dt, JORDAN_DT_MIN + 0.02, 0.05)
    assert not above.empty
    for pt in above.points:
        r, th = pt.coords
        H = (r * np.exp(1j * th) * np.eye(2) - jordan_dt.A) / (r - 1.0)
        s = np.linalg.svd(H, compute_uv=False)
        assert np.min(np.abs(s - above.gamma)) <= 1e-8 * jordan_dt.norm2
    below = fixed_distance_test_dt(jordan_dt, JORDAN_DT_MIN - 0.02, 0.05)
    assert below.empty


def test_variable_dt_verdicts(jordan_dt):
    above = variable_distance_test_dt(jordan_dt, JORDAN_DT_MIN + 0.02, 0.05)
    assert not above.empty
    below = variable_distance_test_dt(jordan_dt, JORDAN_DT_MIN - 0.02, 0.05)
    assert below.empty


def test_variable_dt_empty_certifies_bound(jordan_dt):
    gamma, eta = JORDAN_DT_MIN - 0.02, 0.05
    rep = variable_distance_test_dt(jordan_dt, gamma, eta)
    assert rep.empty
    kinv = 1.0 / solve_owr(jordan_dt).kreiss
    assert kinv > gamma - eta / 2.0


def test_scalar_variable_empty(scalar_dt):
    rep = variable_distance_test_dt(scalar_dt, 0.8, 0.1)
    assert rep.empty


def test_grid_oracle_agreement(jordan_dt):
    val, _ = grid_min(jordan_dt, levels=5)
    assert val == pytest.approx(JORDAN_DT_MIN, rel=1e-4)
    above = variable_distance_test_dt(jordan_dt, val + 0.02, 0.01)
    assert not above.empty


def test_random_dt_completeness():
    for n, seed in ((3, 1), (4, 6)):
        prob = random_stable(n, seed, "discrete")
        val, coords = grid_min(prob, levels=4)
        if val >= 0.95:
            continue
        rep = fixed_distance_test_dt(prob, val + 0.02, 0.01)
        assert not rep.empty, f"no detection for n={n} seed={seed}"


def test_variable_dt_finds_points_where_q0_is_ill_conditioned():
    # cond(q0) grows like 1/eta.  Reducing the quadratic problem by
    # inverting q0 returned EMPTY here, where QZ finds verified points.
    rng = np.random.default_rng([7, 1, 0, 3, 0])
    B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    prob = MatrixProblem(B / (np.max(np.abs(np.linalg.eigvals(B))) / 0.95), "discrete")
    rep = variable_distance_test_dt(prob, 0.9947763165065634, 0.002611841746718302)
    assert not rep.empty
    assert rep.large_eig_count == 6 * 3 * 3  # QZ order after deflating 2n^2 of 8n^2
    for pt in rep.points:
        r, theta = pt.coords
        s = np.linalg.svd((r * np.exp(1j * theta) * np.eye(3) - prob.A) / (r - 1.0),
                          compute_uv=False)
        assert np.min(np.abs(s - rep.gamma)) <= 1e-8 * prob.norm2


@pytest.mark.parametrize("n", [3, 4])
def test_real_and_complex_qz_agree_on_a_rotated_matrix(n):
    # K is invariant under A -> e^{i phi} A; the Jordan block runs real QZ,
    # its rotation complex QZ
    prob = gen_test_matrix("jordan-shifted", n, time_domain="discrete")
    rotated = MatrixProblem(np.exp(0.7j) * prob.A, "discrete")
    real, cplx = (compute_kreiss(p, "owr-bt", c=0.25) for p in (prob, rotated))
    assert real.kreiss == pytest.approx(cplx.kreiss, rel=1e-8)
    assert real.reports[-1].large_eig_count == 6 * n * n


# --------------------------------------------------------------------------
# quadratic problems of a split matrix (MatrixProblem.split)
# --------------------------------------------------------------------------

@pytest.mark.parametrize("variant", CERTIFICATE_CHOICES)
def test_split_reports_agree_with_unsplit(variant, monkeypatch):
    for prob in (two_block("discrete"), random_normal_stable(4, 1, "discrete")):
        assert_split_reports_agree(prob, variant, three_levels(prob), monkeypatch)


def test_the_threshold_decides_the_split(monkeypatch):
    threshold = two_block("discrete").split.threshold
    assert two_block("discrete", coupling=1e3 * threshold).split.sizes == (4,)
    weak = two_block("discrete", coupling=1e-3 * threshold)
    assert weak.split.sizes == (2, 2)
    assert_split_reports_agree(weak, "variable-v", three_levels(weak), monkeypatch)


def test_real_block_diagonal_matrix_reaches_qz_in_real_arithmetic(monkeypatch):
    # a real Jordan block beside a real 2 x 2 block with a complex pair
    A = scipy.linalg.block_diag(jordan_block(2, 0.8, 0.5), [[0.3, 0.6], [-0.6, 0.3]])
    prob = MatrixProblem(A.astype(complex), "discrete")
    assert prob.split.sizes == (2, 2) and not prob.split.T.imag.any()
    calls = record_qz(monkeypatch)
    report = variable_distance_test_dt(prob, 0.9, 0.01)
    qz = [(dtype, k) for dtype, k in calls if k > 2 * prob.n]  # not the 1D circular test
    assert all(dtype == np.float64 for dtype, _ in qz)
    assert [k for _, k in qz] == report.eig_orders == [24, 24, 24, 24]
    assert report.large_eig_count == 6 * prob.n ** 2


def test_irreducible_quadratic_problems_are_built_from_a_itself():
    for prob in (random_stable(3, 4, "discrete"),
                 gen_test_matrix("jordan-shifted", 3, time_domain="discrete")):
        assert prob.split.T is prob.A
        for build, variant in ((build_quad_pencil_fixed, "fixed"),
                               (build_quad_pencil_variable, "variable")):
            pen = build(prob, 0.6, 0.05)
            delta, beta = _ray_pair(0.6, 0.05, variant)
            C0, C1, D0, D1, E0, E1, F0, F1 = _ray_factor_blocks(prob.A, 0.6, delta)
            kr = np.kron
            assert pen.sizes == (prob.n,)
            assert np.array_equal(pen.q0, kr(D0.T, C0) - kr(F0.T, E0))
            assert np.array_equal(pen.q1, beta * (kr(D1.T, C0) - kr(F1.T, E0))
                                  + (kr(D0.T, C1) - kr(F0.T, E1)))
            assert np.array_equal(pen.q2, beta * (kr(D1.T, C1) - kr(F1.T, E1)))
            assert pen.spectrum().orders == (6 * prob.n ** 2,)


def test_gamma_nudge_is_reported(jordan_dt):
    sv = float(np.linalg.svd(jordan_dt.A, compute_uv=False)[-1])
    nudged = variable_distance_test_dt(jordan_dt, sv, 0.01)
    assert nudged.gamma_nudged and nudged.gamma != sv
    assert not variable_distance_test_dt(jordan_dt, sv + 1e-3, 0.01).gamma_nudged
