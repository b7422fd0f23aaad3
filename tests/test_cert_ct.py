import numpy as np
import pytest
import scipy.linalg

from kreiss import (
    MatrixProblem,
    build_fixed_pencil,
    build_variable_pencil,
    circular_level_points,
    default_start,
    fixed_distance_test,
    gen_test_matrix,
    horizontal_variable_test,
    minimize,
    objective,
    solve_owr,
    variable_distance_test,
    vertical_level_points,
)
from kreiss.cert_ct import (
    LINE_DEDUP_ATOL,
    REAL_AXIS_RTOL,
    _capture_band_rel,
    _gamma_block,
    _kron_parts,
    _kron_pencil,
    _near_real,
    _null_rotation,
    _pencil_blocks,
    _rotate_columns,
    build_horizontal_pencil,
)
from kreiss.oracle import grid_min
from kreiss.solver import CERTIFICATE_CHOICES

from conftest import (assert_split_reports_agree, jordan_block, random_normal_stable,
                      random_stable, three_levels, two_block)

JORDAN_MIN = 1.0 / 1.1333333333333333  # global min of g for J(-0.3), = 1/K


# --------------------------------------------------------------------------
# 1D vertical test
# --------------------------------------------------------------------------

def test_vertical_exact_pair(scalar_ct):
    ys = vertical_level_points(scalar_ct, np.sqrt(5.0), 1.0)
    assert len(ys) == 2
    assert abs(ys[0] + 1.0) <= 1e-10 and abs(ys[1] - 1.0) <= 1e-10


def test_vertical_empty(scalar_ct):
    assert vertical_level_points(scalar_ct, 0.5, 1.0) == []


def test_vertical_tangency(scalar_ct):
    ys = vertical_level_points(scalar_ct, 2.0, 1.0)
    assert len(ys) == 1
    assert abs(ys[0]) <= 1e-10


def test_vertical_points_really_carry_gamma(jordan_ct):
    gamma = JORDAN_MIN + 0.03
    for x in (0.5, 0.7):
        for y in vertical_level_points(jordan_ct, gamma, x):
            G = ((x + 1j * y) * np.eye(2) - jordan_ct.A) / x
            s = np.linalg.svd(G, compute_uv=False)
            assert np.min(np.abs(s - gamma)) <= 1e-8 * jordan_ct.norm2


def test_level_points_reject_the_other_domain(jordan_ct, jordan_dt):
    # the 1D tests polish along the curve of the problem's own domain, so a
    # problem of the other domain is an error rather than a silent answer
    with pytest.raises(ValueError, match="continuous-time problem"):
        vertical_level_points(jordan_dt, 0.5, 2.0)
    with pytest.raises(ValueError, match="discrete-time problem"):
        circular_level_points(jordan_ct, 0.5, 2.0)


@pytest.mark.parametrize("time_domain", ["continuous", "discrete"])
def test_level_points_shared_entry(time_domain):
    # both 1D tests run one entry: a negative level, the barrier (x = 0,
    # r = 1) and r = 0 are errors, and every answer comes in increasing c2
    prob = random_stable(4, 3, time_domain)
    if time_domain == "continuous":
        level_points, lines, bad = vertical_level_points, (0.2, 0.5, 1.0, 2.0), (0.0,)
        ts = np.linspace(-6.0, 6.0, 61)
    else:
        level_points, lines, bad = circular_level_points, (1.05, 1.2, 1.5, 2.0), (1.0, 0.0)
        ts = np.linspace(0.0, 2.0 * np.pi, 61)
    with pytest.raises(ValueError, match="gamma"):
        level_points(prob, -0.1, lines[0])
    for c1 in bad:
        with pytest.raises(ValueError, match="c1"):
            level_points(prob, 0.5, c1)
    crossings = 0
    for c1 in lines:
        values = [objective.evaluate(prob, c1, t).value for t in ts]
        for gamma in np.quantile(values, [0.1, 0.5, 0.9]):
            c2s = level_points(prob, gamma, c1)
            assert c2s == sorted(c2s)
            crossings = max(crossings, len(c2s))
    assert crossings >= 4


# --------------------------------------------------------------------------
# pencil structure
# --------------------------------------------------------------------------

def test_fixed_pencil_a2_eigenvalues_scalar(scalar_ct):
    gamma = 0.5
    pen = build_fixed_pencil(scalar_ct, gamma, 0.1, np.pi / 2)
    assert pen.m1.shape == (4, 4)
    vals = np.sort(np.linalg.eigvals(pen.m2).real)
    s = 2.0 * np.sqrt(1.0 - gamma**2)
    assert np.allclose(vals, [-s, 0.0, 0.0, s], atol=1e-12)


def test_fixed_pencil_real_for_theta_zero(jordan_ct):
    pen = build_fixed_pencil(jordan_ct, 0.5, 0.2, 0.0)
    assert np.max(np.abs(pen.m1.imag)) == 0.0
    pen2 = build_fixed_pencil(jordan_ct, 0.5, 0.2, 0.7)
    assert np.max(np.abs(pen2.m1.imag)) > 0.0


def test_fixed_pencil_eta_zero_reduces_to_kron_sum(jordan_ct):
    # eta = 0 would leave m1 the bare Kronecker sum of the diagonal blocks,
    # a pencil singular for every A, so every test rejects it
    for theta in (np.pi / 2, 0.0, 0.7):
        with pytest.raises(ValueError, match="eta must be positive"):
            build_fixed_pencil(jordan_ct, 0.5, 0.0, theta)
        with pytest.raises(ValueError, match="eta must be positive"):
            fixed_distance_test(jordan_ct, 0.5, 0.0, theta)


def test_a2_rank_deficiency_exactly_2nsq():
    for n, seed in ((2, 0), (3, 1)):
        prob = random_stable(n, seed, "continuous")
        pen = build_fixed_pencil(prob, 0.55, 0.1, np.pi / 2)
        s = np.linalg.svd(pen.m2, compute_uv=False)
        rank = int(np.sum(s > 1e-10 * s[0]))
        assert rank == 2 * n * n


@pytest.mark.parametrize("gamma", [0.1, 0.5, 0.99, 1.0 - 1e-9])
def test_fixed_pencil_null_rotation(gamma):
    n = 3
    m2 = build_fixed_pencil(random_stable(n, 2, "continuous"), gamma, 0.05).m2
    Z = _rotate_columns(np.eye(4 * n * n), _null_rotation(gamma), n)
    assert np.linalg.norm(Z.conj().T @ Z - np.eye(4 * n * n)) <= 1e-13
    assert np.count_nonzero(Z, axis=0).max() == 4
    assert np.linalg.norm(m2 @ Z[:, :2 * n * n], 2) <= 1e-13 * np.linalg.norm(m2, 2)


def test_fixed_pencil_deflated_matches_full_qz():
    # the undeflated QZ of the unrotated 4n^2 pencil is the reference
    n, eta = 3, 0.05
    prob = random_stable(n, 0, "continuous")
    val, _ = grid_min(prob, levels=4)
    for gamma in (val + 0.02, val + 0.1):
        pencil = build_fixed_pencil(prob, gamma, eta)
        spec = pencil.spectrum()
        xs, order = _near_real(spec, eta), spec.order
        xs = np.sort(xs[xs > LINE_DEDUP_ATOL])
        alpha, beta = scipy.linalg.eigvals(pencil.m1, pencil.m2, homogeneous_eigvals=True)
        finite = np.abs(beta) > 1e-14 * (np.abs(alpha) + 1.0)
        lam = alpha[finite] / beta[finite]
        rel = _capture_band_rel(REAL_AXIS_RTOL, eta)
        ref = lam[np.abs(lam.imag) <= rel * np.maximum(1.0, np.abs(lam.real))].real
        ref = np.sort(ref[ref > LINE_DEDUP_ATOL])
        assert order == 2 * n * n
        assert len(ref) > 0 and len(xs) == len(ref)
        assert np.allclose(xs, ref, rtol=1e-8)


def test_gamma_eta_validation(jordan_ct):
    with pytest.raises(ValueError):
        fixed_distance_test(jordan_ct, 1.5, 0.1)
    with pytest.raises(ValueError):
        fixed_distance_test(jordan_ct, 2.0, 0.1)  # spec example: g(1,0)=2 not < 1
    with pytest.raises(ValueError):
        variable_distance_test(jordan_ct, 0.5, 0.0)
    with pytest.raises(ValueError):
        build_fixed_pencil(jordan_ct, 0.5, 0.1, -np.pi / 2)


# --------------------------------------------------------------------------
# 2D tests against the grid oracle
# --------------------------------------------------------------------------

def test_fixed_distance_detects_above_minimum(jordan_ct):
    rep = fixed_distance_test(jordan_ct, JORDAN_MIN + 0.01, 0.005, np.pi / 2)
    assert not rep.empty
    for pt in rep.points:
        x, y = pt.coords
        G = ((x + 1j * y) * np.eye(2) - jordan_ct.A) / x
        s = np.linalg.svd(G, compute_uv=False)
        assert np.min(np.abs(s - rep.gamma)) <= 1e-8 * jordan_ct.norm2


def test_fixed_distance_empty_below_minimum(jordan_ct):
    rep = fixed_distance_test(jordan_ct, 0.9 * JORDAN_MIN, 0.005, np.pi / 2)
    assert rep.empty


def test_fixed_distance_horizontal_orientation(jordan_ct):
    rep = fixed_distance_test(jordan_ct, JORDAN_MIN + 0.02, 0.01, 0.0)
    assert not rep.empty


def test_variable_distance_verdicts(jordan_ct):
    above = variable_distance_test(jordan_ct, JORDAN_MIN + 0.02, 0.01)
    assert not above.empty
    below = variable_distance_test(jordan_ct, JORDAN_MIN - 0.02, 0.01)
    assert below.empty


def test_variable_empty_certifies_lower_bound(jordan_ct):
    gamma, eta = JORDAN_MIN - 0.02, 0.01
    rep = variable_distance_test(jordan_ct, gamma, eta)
    assert rep.empty
    kinv = 1.0 / solve_owr(jordan_ct).kreiss
    assert kinv > gamma - eta / 2.0


def test_scalar_variable_empty(scalar_ct):
    # for normal A the objective never drops below 1, so any gamma < 1 is empty
    rep = variable_distance_test(scalar_ct, 0.99, 0.05)
    assert rep.empty


def test_horizontal_variant_verdicts(jordan_ct):
    above = horizontal_variable_test(jordan_ct, JORDAN_MIN + 0.02, 0.01)
    assert not above.empty
    below = horizontal_variable_test(jordan_ct, JORDAN_MIN - 0.02, 0.01)
    assert below.empty


def test_each_level_set_point_is_reported_once():
    # the benchmark's certify operation "horizontal ct-jordan-n8 above": the
    # eigensolver returns the lines 0.98016 and 1.14266 three times each
    # (copies 8e-12 apart, above LINE_DEDUP_ATOL = 1e-12), and each copy
    # finds the same two points; 8 distinct points, each reported once
    prob = MatrixProblem(jordan_block(8, -0.3, 1.0), "continuous")
    report = horizontal_variable_test(prob, 0.5019645221250917, 0.24901773893745419)
    near = [c for c in report.candidate_lines if abs(c - 0.98016) < 1e-4]
    assert len(near) == 3 and near[-1] - near[0] > 10.0 * LINE_DEDUP_ATOL
    coords = np.array([p.coords for p in report.points])
    for i in range(len(coords)):
        for j in range(i):
            assert np.max(np.abs(coords[i] - coords[j])) > 1e-6
    expected = [(x, s * y) for x, y in ((0.3600780557547254, 0.744191873732702),
                                        (0.41977708456944757, 0.7441918737327033),
                                        (0.9801594268097089, 0.4767363221264209),
                                        (1.1426646529098876, 0.18685920526075914))
                for s in (-1.0, 1.0)]
    assert len(coords) == len(expected)
    for point in expected:
        assert np.min(np.max(np.abs(coords - point), axis=1)) < 1e-8


def test_completeness_within_theorem_bound():
    # gamma slightly above the global minimum, eta within 2 x* (gamma - 1/K):
    # the fixed vertical test must detect points
    for n, seed in ((3, 5), (4, 2), (6, 3)):
        prob = random_stable(n, seed, "continuous")
        val, coords = grid_min(prob, levels=4)
        res = minimize(prob, coords)
        kinv, xstar = res.value, res.minimizer.coords[0]
        if kinv >= 0.97:  # nearly normal instance; no usable gamma below 1
            continue
        gamma = kinv + 0.02
        eta = xstar * (gamma - kinv)  # inside [0, 2 x* (gamma - kinv)]
        rep = fixed_distance_test(prob, gamma, eta, np.pi / 2)
        assert not rep.empty, f"no detection for n={n} seed={seed}"


def test_gu_lemma_along_horizontal_line(jordan_ct):
    # f(x) = g(x)/x with g of GLC 1: two level crossings at gamma bound the
    # interior minimum by gamma - eta(1+gamma)/(2 x*)
    from kreiss import g_eval

    y = 0.11
    xs = np.linspace(0.05, 4.0, 4000)
    vals = np.array([g_eval(jordan_ct, x, y).value for x in xs])
    i = np.argmin(vals)
    gamma = vals[i] + 0.05
    left = xs[:i][vals[:i] <= gamma]
    right = xs[i:][vals[i:] >= gamma]
    a = left[0] if len(left) else None
    b = right[0] if len(right) else None
    if a is None or b is None:
        pytest.skip("level does not bracket the minimum on this line")
    eta = b - a
    xstar, gstar = xs[i], vals[i]
    assert gstar >= gamma - eta * (1.0 + gamma) / (2.0 * xstar) - 1e-3


# --------------------------------------------------------------------------
# the variable pencils' mass matrix
# --------------------------------------------------------------------------

def test_b2_singular_at_eta_zero():
    n = 1
    C = _gamma_block(n, 0.5)
    B2 = np.kron(np.eye(2 * n), C) + np.kron(C, np.eye(2 * n))
    assert np.min(np.abs(np.linalg.eigvals(B2))) <= 1e-14


# --------------------------------------------------------------------------
# horizontal (appendix) pencil structure
# --------------------------------------------------------------------------

def test_horizontal_pencil_eigenvalue_structure(jordan_ct):
    gamma, eta = 0.6, 0.3
    pen = build_horizontal_pencil(jordan_ct, gamma, eta)
    beta = pen.beta
    assert beta == pytest.approx(1.0 + eta / (1.0 + gamma))
    root = np.sqrt(1.0 - gamma**2)
    expected = []
    for s1 in (root, -root):
        for s2 in (beta * root, -beta * root):
            expected.append(s1 + s2)
    vals = np.linalg.eigvals(pen.m2)
    for e in expected:
        assert np.min(np.abs(vals - e)) <= 1e-10
    # beta = 1 (i.e. eta = 0) makes the pencil singular: sums include zero
    C = _gamma_block(jordan_ct.n, gamma)
    B2_eta0 = np.kron(np.eye(2 * jordan_ct.n), C) + np.kron(C, np.eye(2 * jordan_ct.n))
    assert np.min(np.abs(np.linalg.eigvals(B2_eta0))) <= 1e-12


def test_cross_variant_verdict_agreement(jordan_ct):
    for gamma in (JORDAN_MIN - 0.02, JORDAN_MIN + 0.02):
        v = variable_distance_test(jordan_ct, gamma, 0.01)
        h = horizontal_variable_test(jordan_ct, gamma, 0.01)
        assert v.empty == h.empty


@pytest.mark.parametrize("n", [3, 4])
def test_horizontal_real_and_complex_qz_agree_on_a_shifted_matrix(n):
    # g is invariant under A -> A + i s I (a vertical shift of the domain); the
    # horizontal pencil of the Jordan block is real, that of its shift complex
    prob = gen_test_matrix("jordan-shifted", n, time_domain="continuous")
    shifted = MatrixProblem(prob.A + 0.5j * np.eye(n), "continuous")
    g = minimize(prob, default_start(prob)).value
    for gamma, eta, empty in ((2.0 * g / 3.0, 2.0 * g / 3.0, True),
                              (g + 0.5 * (1.0 - g), 0.25 * (1.0 - g), False)):
        for p in (prob, shifted):
            assert horizontal_variable_test(p, gamma, eta).empty is empty


# --------------------------------------------------------------------------
# pencils of a split matrix (MatrixProblem.split)
# --------------------------------------------------------------------------

@pytest.mark.parametrize("variant", CERTIFICATE_CHOICES)
def test_split_reports_agree_with_unsplit(variant, monkeypatch):
    for prob in (two_block("continuous"), random_normal_stable(4, 1, "continuous")):
        assert_split_reports_agree(prob, variant, three_levels(prob), monkeypatch)


def test_the_threshold_decides_the_split(monkeypatch):
    threshold = two_block("continuous").split.threshold
    strong = two_block("continuous", coupling=1e3 * threshold)
    assert strong.split.sizes == (4,) and strong.split.T is strong.A
    weak = two_block("continuous", coupling=1e-3 * threshold)
    assert weak.split.sizes == (2, 2)
    assert weak.split.dropped == pytest.approx(1e-3 * threshold, rel=1e-12)
    levels = three_levels(weak)
    for variant in ("fixed-v", "variable-v"):
        assert_split_reports_agree(weak, variant, levels, monkeypatch)


def test_irreducible_pencils_are_built_from_a_itself():
    # an unsplit level is built from the blocks of A itself: the variable
    # pencils are bitwise the direct Kronecker build of A's blocks, and the
    # fixed one, whose level keeps its eta part apart and its columns
    # rotated, agrees with it to rounding (a Schur form would differ by O(1));
    # so do a real A's vertical pencils at n >= 4, which QZ gets in the
    # basis of symmetric and skew-symmetric W, one call per half
    eps = np.finfo(float).eps

    def close(got, want):
        return np.max(np.abs(got - want)) <= 8 * eps * np.max(np.abs(want))

    for prob in (random_stable(3, 4, "continuous"),
                 gen_test_matrix("jordan-shifted", 3, time_domain="continuous"),
                 gen_test_matrix("jordan-shifted", 4, time_domain="continuous")):
        assert prob.split.T is prob.A
        n = prob.n
        for build, args in ((build_fixed_pencil, ("fixed", 0.3)),
                            (build_fixed_pencil, ("fixed", np.pi / 2)),
                            (build_variable_pencil, ("variable-vertical",)),
                            (build_horizontal_pencil, ("variable-horizontal",))):
            pen = build(prob, 0.6, 0.05, *args[1:])
            m1, m2 = _kron_pencil(*_pencil_blocks(prob.A, 0.6, 0.05, *args))
            halved = n >= 4 and args[-1] in (np.pi / 2, "variable-vertical")
            assert pen.sizes == (n,) and len(pen.parts) == (2 if halved else 1)
            assert (pen.halves is not None) == halved
            if pen.rotation is None and not halved:
                assert np.array_equal(pen.m1, m1) and np.array_equal(pen.m2, m2)
            else:
                assert close(pen.m1, m1) and close(pen.m2, m2)
            if halved:
                M, N = m1, m2
                if pen.rotation is not None:
                    M, N = (_rotate_columns(X, pen.rotation, n) for X in (m1, m2))
                assert close(pen.M, pen.halves.apply(M)) and close(pen.N, pen.halves.apply(N))
            spec = pen.spectrum()
            if halved:
                deflated = pen.rotation is not None
                assert spec.orders == ((n * n + n, n * n - n) if deflated
                                       else (n * (2 * n + 1), n * (2 * n - 1)))
            else:
                assert spec.orders == (spec.order,)


def test_split_pencil_parts_cover_its_nonzeros():
    # every nonzero of a split pencil lies inside one of its parts, also
    # after the fixed pencil's column rotation
    prob = two_block("continuous")
    n = prob.n
    for pen in (build_fixed_pencil(prob, 0.6, 0.05, 0.3), build_variable_pencil(prob, 0.6, 0.05)):
        M, N = pen.m1, pen.m2
        rotated = pen.variant == "fixed"
        if rotated:
            V = _null_rotation(pen.gamma)
            M, N = _rotate_columns(M, V, n), _rotate_columns(N, V, n)
        inside = np.zeros(M.shape, dtype=bool)
        parts = _kron_parts(pen.sizes, rotated)
        for rows, cols in parts:
            inside[np.ix_(rows, cols)] = True
        assert [len(r) for r, _ in parts] == [16, 16, 16, 16]
        assert inside.sum() == sum(len(r) ** 2 for r, _ in parts)  # disjoint
        assert not M[~inside].any() and not N[~inside].any()
