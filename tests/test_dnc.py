import numpy as np
import pytest
import scipy.linalg

import kreiss.dnc as dnc_mod
from kreiss import (
    MatrixProblem,
    build_fixed_pencil,
    build_quad_pencil_fixed,
    build_variable_pencil,
    cert_ct,
    cert_dt,
    certify,
    eig_quadratic,
    eigs_shift_invert,
    fixed_distance_test,
    op_fixed_ct,
    op_horizontal_ct,
    op_quad_dt,
    op_variable_ct,
    real_eigs_in_interval,
    solve_gen_sylvester,
    solve_sylvester,
)
from kreiss.cert_ct import build_horizontal_pencil
from kreiss.errors import MaxShiftsError, NearSingularOperatorError, ZeroShiftError
from kreiss.solver import CERTIFICATE_CHOICES, SolveStatus, solve_owr_backtracking

from conftest import MatrixOperator, random_normal_stable, random_stable


def _companion(pen):
    m = pen.q0.shape[0]
    eye = np.eye(m)
    zero = np.zeros((m, m))
    L = np.block([[pen.q1, pen.q0], [-eye, zero]])
    R = np.block([[-pen.q2, zero], [zero, -eye]])
    return L, R


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("th", [np.pi / 2, 0.0, 0.7], ids=["vertical", "horizontal", "oblique"])
def test_fixed_ct_operator_matches_dense(th, n):
    prob = random_stable(n, 1, "continuous")
    g, eta = 0.7, 0.3
    op = op_fixed_ct(prob, g, eta, th)
    pen = build_fixed_pencil(prob, g, eta, th)
    A1, A2 = op.to_dense()
    assert np.linalg.norm(A1 - pen.m1) <= 1e-10 * np.linalg.norm(pen.m1)
    assert np.linalg.norm(A2 - pen.m2) <= 1e-10 * np.linalg.norm(pen.m2)
    rng = np.random.default_rng(0)
    y = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    s = 0.41 + 0.13j
    w = op.shifted_solver(s)(y)
    w_ref = np.linalg.solve(pen.m1 - s * pen.m2, y)
    assert np.linalg.norm(w - w_ref) <= 1e-10 * np.linalg.norm(w_ref)


def test_apply_on_basis_vector_equals_dense_column():
    prob = random_stable(2, 3, "continuous")
    op = op_variable_ct(prob, 0.6, 0.2)
    pen = build_variable_pencil(prob, 0.6, 0.2)
    e1 = np.zeros(op.dim)
    e1[0] = 1.0
    assert np.allclose(op.apply(e1), pen.m1[:, 0], atol=1e-12)


def test_variable_and_horizontal_operators_match_dense():
    prob = random_stable(2, 5, "continuous")
    g, eta = 0.55, 0.17
    rng = np.random.default_rng(2)
    y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    s = 0.9 + 0.05j
    for op, pen in ((op_variable_ct(prob, g, eta), build_variable_pencil(prob, g, eta)),
                    (op_horizontal_ct(prob, g, eta), build_horizontal_pencil(prob, g, eta))):
        A1, A2 = op.to_dense()
        assert np.linalg.norm(A1 - pen.m1) <= 1e-10 * max(1, np.linalg.norm(pen.m1))
        assert np.linalg.norm(A2 - pen.m2) <= 1e-10 * max(1, np.linalg.norm(pen.m2))
        w = op.shifted_solver(s)(y)
        w_ref = np.linalg.solve(pen.m1 - s * pen.m2, y)
        assert np.linalg.norm(w - w_ref) <= 1e-9 * np.linalg.norm(w_ref)


def test_round_trip_identity():
    prob = random_stable(2, 7, "continuous")
    op = op_variable_ct(prob, 0.6, 0.2)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    s = 1.3 + 0.2j
    u = op.apply(v) - s * op.apply_mass(v)
    back = op.shifted_solver(s)(u)
    assert np.linalg.norm(back - v) <= 1e-10 * np.linalg.norm(v)


def test_shift_at_eigenvalue_raises():
    prob = random_stable(2, 1, "continuous")
    pen = build_variable_pencil(prob, 0.7, 0.2)
    lam = np.linalg.eigvals(np.linalg.solve(pen.m2, pen.m1))
    real = lam[np.abs(lam.imag) < 1e-9]
    target = complex(real[np.argmin(np.abs(real))]) if len(real) else complex(lam[0])
    op = op_variable_ct(prob, 0.7, 0.2)
    with pytest.raises(NearSingularOperatorError):
        op.shifted_solver(target)(np.ones(op.dim, dtype=complex))


def test_zero_vector_and_zero_shift():
    prob = random_stable(2, 4, "discrete")
    opq = op_quad_dt(prob, 0.6, 0.2, "fixed")
    assert np.allclose(opq.apply(np.zeros(opq.dim)), 0.0)
    with pytest.raises(ZeroShiftError):
        opq.shifted_solver(0.0)(np.ones(opq.dim, dtype=complex))


def test_quad_dt_operator_matches_dense():
    prob = random_stable(2, 2, "discrete")
    for variant in ("fixed", "variable"):
        op = op_quad_dt(prob, 0.6, 0.2, variant)
        if variant == "fixed":
            pen = build_quad_pencil_fixed(prob, 0.6, 0.2)
        else:
            from kreiss import build_quad_pencil_variable

            pen = build_quad_pencil_variable(prob, 0.6, 0.2)
        L, R = _companion(pen)
        A1, A2 = op.to_dense()
        assert np.linalg.norm(A1 - L) <= 1e-10 * max(1, np.linalg.norm(L))
        assert np.linalg.norm(A2 - R) <= 1e-10 * max(1, np.linalg.norm(R))
        rng = np.random.default_rng(3)
        y = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
        s = 1.4 + 0.1j
        w = op.shifted_solver(s)(y)
        w_ref = np.linalg.solve(L - s * R, y)
        assert np.linalg.norm(w - w_ref) <= 1e-9 * np.linalg.norm(w_ref)


def test_quad_dt_shift_invert_matches_dense_eigs():
    prob = random_stable(2, 8, "discrete")
    pen = build_quad_pencil_fixed(prob, 0.55, 0.3)
    dense = eig_quadratic(pen.q0, pen.q1, pen.q2).finite_values
    op = op_quad_dt(prob, 0.55, 0.3, "fixed")
    shift = 1.3
    ritz = eigs_shift_invert(op, shift, 4)
    for rv in ritz:
        if rv.converged:
            assert np.min(np.abs(dense - rv.value)) <= 1e-8 * max(1.0, abs(rv.value))


@pytest.mark.parametrize("domain", ["continuous", "discrete"])
def test_each_shift_is_factored_once(domain, monkeypatch):
    # two Schur forms (ct) or two QZ forms (dt) per query, not two per matvec
    calls = {"n": 0}
    name = "schur" if domain == "continuous" else "qz"
    orig = getattr(scipy.linalg, name)

    def counting(*args, **kwargs):
        calls["n"] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, name, counting)
    prob = random_stable(2, 8, domain)
    op = (op_fixed_ct(prob, 0.7, 0.05) if domain == "continuous"
          else op_quad_dt(prob, 0.55, 0.3, "fixed"))
    matvecs = {"n": 0}
    apply_mass = op.apply_mass

    def counting_mass(v):
        matvecs["n"] += 1
        return apply_mass(v)

    op.apply_mass = counting_mass
    ritz = eigs_shift_invert(op, 1.3, 4)
    assert ritz and matvecs["n"] > 2
    assert calls["n"] == 2


def test_shifted_solver_matches_one_shot_solves():
    rng = np.random.default_rng(4)
    prob = random_stable(2, 6, "continuous")
    op = op_variable_ct(prob, 0.6, 0.2)
    s = 0.9 + 0.05j
    P, Q = op.S1 - s * op.C, op.S2 - s * op.D.T
    solve = op.shifted_solver(s)
    for _ in range(3):
        y = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
        Y = y.reshape((op._m, op._m), order="F")
        assert np.array_equal(solve(y), solve_sylvester(P, Q, Y).ravel(order="F"))

    prob = random_stable(2, 2, "discrete")
    opq = op_quad_dt(prob, 0.6, 0.2, "variable")
    s = 1.4 + 0.1j
    M, N = opq.C0 + s * opq.C1, opq.E0 + s * opq.E1
    MtH = opq.D0 + opq.beta * s * opq.D1
    NtH = opq.F0 + opq.beta * s * opq.F1
    solve = opq.shifted_solver(s)
    for _ in range(3):
        y = rng.standard_normal(opq.dim) + 1j * rng.standard_normal(opq.dim)
        y1, y2 = y[:opq.half], y[opq.half:]
        Y2 = y2.reshape((opq._m, opq._m), order="F")
        yhat = s * y1 - opq._q0w(Y2).ravel(order="F")
        W1 = solve_gen_sylvester(M, MtH.conj().T, N, NtH.conj().T,
                                 yhat.reshape((opq._m, opq._m), order="F"))
        w1 = W1.ravel(order="F")
        assert np.array_equal(solve(y), np.concatenate([w1, (y2 + w1) / s]))


def test_interval_examples():
    op = MatrixOperator(np.diag([0.5, 1.5, 2.5]))
    assert real_eigs_in_interval(op, 1.0, 3.0, k_per_shift=1) == \
        pytest.approx([1.5, 2.5])
    assert real_eigs_in_interval(op, 5.0, 6.0, k_per_shift=1) == []


def test_uniform_twenty_within_shift_budget(monkeypatch):
    calls = {"n": 0}
    orig = dnc_mod.eigs_shift_invert

    def counting(op, shift, k, **kw):
        calls["n"] += 1
        return orig(op, shift, k, **kw)

    monkeypatch.setattr(dnc_mod, "eigs_shift_invert", counting)
    op = MatrixOperator(np.diag(np.linspace(0.025, 0.975, 20)))
    vals = real_eigs_in_interval(op, 0.0, 1.0, k_per_shift=6)
    assert len(vals) == 20
    assert np.allclose(vals, np.linspace(0.025, 0.975, 20), atol=1e-8)
    assert calls["n"] <= 15


def test_empty_interval_uses_at_least_one_shift(monkeypatch):
    calls = {"n": 0}
    orig = dnc_mod.eigs_shift_invert

    def counting(op, shift, k, **kw):
        calls["n"] += 1
        return orig(op, shift, k, **kw)

    monkeypatch.setattr(dnc_mod, "eigs_shift_invert", counting)
    op = MatrixOperator(np.diag([0.5, 1.5, 2.5]))
    assert real_eigs_in_interval(op, 10.0, 11.0, k_per_shift=1) == []
    assert calls["n"] >= 1


def test_max_shifts_budget():
    op = MatrixOperator(np.diag(np.linspace(0.0, 1.0, 40)))
    with pytest.raises(MaxShiftsError):
        real_eigs_in_interval(op, 0.0, 1.0, k_per_shift=1, max_shifts=2)


def test_certificate_with_dnc_backend(jordan_ct):
    gamma = 1.0 / 1.1333333333333333 + 0.02
    dense = fixed_distance_test(jordan_ct, gamma, 0.01, np.pi / 2)
    via_dnc = fixed_distance_test(jordan_ct, gamma, 0.01, np.pi / 2, use_dnc=True)
    assert not dense.empty and not via_dnc.empty


@pytest.mark.parametrize("variant", CERTIFICATE_CHOICES)
def test_dnc_certificates_skip_dense_pencil(variant, jordan_ct, jordan_dt, monkeypatch):
    def dense_build(*args, **kwargs):
        raise AssertionError("the DnC path built a dense pencil")

    for name in ("build_fixed_pencil", "build_variable_pencil", "build_horizontal_pencil"):
        monkeypatch.setattr(cert_ct, name, dense_build)
    for name in ("build_quad_pencil_fixed", "build_quad_pencil_variable"):
        monkeypatch.setattr(cert_dt, name, dense_build)
    for prob, gamma in ((jordan_ct, 1.0 / 1.1333333333333333 + 0.02), (jordan_dt, 0.45)):
        report = certify(prob, variant, gamma, 0.01, use_dnc=True)
        # the order of the eigenproblem searched: the operator's dimension
        assert report.large_eig_count == (4 if prob is jordan_ct else 8) * prob.n ** 2


@pytest.mark.parametrize("variant", CERTIFICATE_CHOICES)
def test_dense_large_eig_count_is_the_order_qz_factored(variant, jordan_ct, jordan_dt):
    # ct fixed pencils deflate 2n^2 of 4n^2; the dt trimmed linearization has order 6n^2
    ct_order = 2 if variant.startswith("fixed") else 4
    for prob, gamma, order in ((jordan_ct, 1.0 / 1.1333333333333333 + 0.02, ct_order),
                               (jordan_dt, 0.45, 6)):
        report = certify(prob, variant, gamma, 0.01)
        assert report.large_eig_count == order * prob.n ** 2


def test_dnc_drops_the_barrier_root_as_dense_qz_does():
    # the sweep of [0, hi] returns x = 0 exactly, which has no vertical line
    prob = random_stable(2, 1, "continuous")
    dense = certify(prob, "variable-v", 0.5, 0.1)
    via_dnc = certify(prob, "variable-v", 0.5, 0.1, use_dnc=True, seed=3)
    assert via_dnc.candidate_lines == dense.candidate_lines == []
    assert via_dnc.empty and dense.empty


def test_dnc_finds_every_dense_candidate_at_small_eta():
    # the ct Jordan block of the benchmark's solve-dnc workload, at a level its
    # owr-bt solve tests: dense QZ reports lines near 0.19724 and 1.89464,
    # whose roots lie off the real axis by more than 1e-8 relative; the sweep
    # finds them inside the capture band that dense QZ uses
    A = np.diag(np.full(3, -0.3, dtype=complex)) + np.diag(np.ones(2), 1)
    prob = MatrixProblem(A, "continuous")
    gamma, eta = 0.484819, 7.5e-8
    dense = fixed_distance_test(prob, gamma, eta).candidate_lines
    via_dnc = fixed_distance_test(prob, gamma, eta, use_dnc=True).candidate_lines
    wanted = [x for x in dense if x > 1e-3]
    if not wanted:  # not an AssertionError: a changed dense verdict must fail, not xfail
        raise RuntimeError(f"dense QZ no longer reports the lines: {dense}")
    for x in wanted:
        assert via_dnc and np.min(np.abs(np.asarray(via_dnc) - x)) <= 1e-4 * x


@pytest.mark.parametrize("time_domain", ["continuous", "discrete"])
def test_dnc_solve_of_a_contractive_matrix_makes_no_query(time_domain, monkeypatch):
    # a normal A has omega(A) = alpha(A) < 0 (w(A) = rho(A) < 1), so every
    # search interval is empty: a fixed-distance test at any level builds no
    # operator and makes no query, and the solve needs no test at all
    prob = random_normal_stable(3, 4, time_domain)
    test = fixed_distance_test if time_domain == "continuous" else cert_dt.fixed_distance_test_dt
    queries = []
    monkeypatch.setattr(dnc_mod, "eigs_shift_invert",
                        lambda *a, **k: queries.append(a[1]) or eigs_shift_invert(*a, **k))
    for gamma, eta in ((0.5, 0.1), (0.9, 1e-3), (1.0 - 1e-9, 1e-6), (0.99, 1e-10)):
        report = test(prob, gamma, eta, use_dnc=True)
        assert report.search_hi <= report.search_lo
        assert report.empty and report.points == [] and report.candidate_lines == []
        assert report.large_eig_count == 0
    assert queries == []
    res = solve_owr_backtracking(prob, use_dnc=True)
    assert res.status is SolveStatus.CONVERGED and res.kreiss == 1.0 and queries == []
    assert res.certificate_calls == 0 and res.decided_by == "numerical-range"
