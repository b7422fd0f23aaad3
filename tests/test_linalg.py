import itertools
import sys
import threading

import numpy as np
import pytest
import scipy.linalg

from kreiss import (
    MatrixProblem,
    build_quad_pencil_variable,
    circular_level_points,
    eig_pencil,
    eig_quadratic,
    eigs_shift_invert,
    gen_test_matrix,
    op_quad_dt,
    solve_gen_sylvester,
    solve_sylvester,
    sylvester_solver,
    vertical_level_points,
)
from kreiss.objective import domain
from kreiss.linalg import eig_pencil_deflated, gen_sylvester_solver
from kreiss import linalg
from kreiss.errors import ConvergenceFailure, NearSingularOperatorError

from conftest import MatrixOperator, record_eig, record_qz


def test_eig_pencil_double_root():
    M = np.array([[0.5, 1.5], [0.0, 2.0]])
    N = np.array([[2.0, 0.0], [1.5, 0.5]])
    vals = eig_pencil(M, N).values
    assert np.allclose(vals, 1.0, atol=1e-6)  # defective double root


def test_eig_pencil_identity_and_infinite():
    assert np.allclose(eig_pencil(np.eye(3), np.eye(3)).values, 1.0)
    spec = eig_pencil(np.eye(2), np.zeros((2, 2)))
    assert np.all(spec.is_infinite)
    assert np.all(np.isinf(spec.values.real))


def test_eig_quadratic_scalar_cases():
    one = np.array([[1.0]])
    spec = eig_quadratic(-one, 0 * one, one)  # r^2 = 1
    assert np.allclose(np.sort(spec.finite_values.real), [-1.0, 1.0], atol=1e-12)
    spec = eig_quadratic(2 * one, -3 * one, one)
    assert np.allclose(np.sort(spec.finite_values.real), [1.0, 2.0], atol=1e-12)


def test_eig_quadratic_degenerate_and_count():
    one = np.array([[1.0]])
    c = 4.2
    spec = eig_quadratic(-c * one, one, 0 * one)  # r = c plus an infinite eigenvalue
    assert len(spec) == 2
    assert np.sum(spec.is_infinite) == 1
    assert np.allclose(spec.finite_values, [c])
    m = 3
    rng = np.random.default_rng(2)
    spec = eig_quadratic(rng.standard_normal((m, m)), rng.standard_normal((m, m)),
                         rng.standard_normal((m, m)))
    assert len(spec) == 2 * m


def _companion(Q0, Q1, Q2):
    m = Q0.shape[0]
    eye, zero = np.eye(m), np.zeros((m, m))
    return np.block([[Q1, Q0], [-eye, zero]]), np.block([[-Q2, zero], [zero, -eye]])


def test_eig_quadratic_deflates_zero_columns_of_q2():
    # the undeflated companion QZ is the reference for the trimmed linearization
    rng = np.random.default_rng(21)
    m = 6
    for imag, k in itertools.product((1.0, 0.0), (1, 3, m)):
        Q0, Q1, Q2 = (rng.standard_normal((m, m)) + imag * 1j * rng.standard_normal((m, m))
                      for _ in range(3))
        Q2[:, rng.choice(m, k, replace=False)] = 0.0
        spec = eig_quadratic(Q0, Q1, Q2)
        ref = eig_pencil(*_companion(Q0, Q1, Q2))
        assert len(spec) == 2 * m
        assert (spec.deflated, spec.order) == (k, 2 * m - k)
        assert np.sum(spec.is_infinite) >= k
        got, want = spec.finite_values, ref.finite_values
        assert len(got) == len(want)
        for lam in want:
            assert np.min(np.abs(got - lam)) <= 1e-8 * max(1.0, abs(lam))


def _scrambled(mats, sizes, rng):
    """The block-diagonal matrices under one random row and one random column
    permutation, and the (rows, cols) of each block there."""
    m = sum(sizes)
    prow, pcol = rng.permutation(m), rng.permutation(m)
    at_row, at_col = np.argsort(prow), np.argsort(pcol)
    ends = np.cumsum(sizes)
    parts = [(at_row[e - k:e], at_col[e - k:e]) for k, e in zip(sizes, ends)]
    return [X[np.ix_(prow, pcol)] for X in mats], parts


@pytest.mark.parametrize("imag", [1.0, 0.0])
def test_split_pencils_give_the_unsplit_eigenvalues(imag, monkeypatch):
    calls = record_qz(monkeypatch)
    rng = np.random.default_rng(31)
    sizes = (3, 16, 5, 18)  # 3 and 5 rows are grouped with the next part
    dtype = np.complex128 if imag else np.float64

    def block_diagonal(zero_cols=0):
        blocks = [rng.standard_normal((k, k)) + imag * 1j * rng.standard_normal((k, k))
                  for k in sizes]
        for B in blocks:
            B[:, :int(zero_cols * len(B))] = 0.0
        return scipy.linalg.block_diag(*blocks)

    def agree(spec, ref):
        got, want = spec.finite_values, ref.finite_values
        assert len(got) == len(want)
        for lam in want:
            assert np.min(np.abs(got - lam)) <= 1e-8 * max(1.0, abs(lam))

    # N without zero columns: nothing is deflated, each group goes to QZ whole
    (M, N), parts = _scrambled((block_diagonal(), block_diagonal()), sizes, rng)
    spec = eig_pencil_deflated(M, N, parts)
    assert (spec.deflated, spec.orders) == (0, (19, 23))
    assert calls[-2:] == [(dtype, 19), (dtype, 23)]
    agree(spec, eig_pencil(M, N))
    # N with int(0.3 k) zero columns per block of order k (0, 4, 1 and 5):
    # each group is deflated on its own
    (M, N), parts = _scrambled((block_diagonal(), block_diagonal(zero_cols=0.3)),
                               sizes, rng)
    spec = eig_pencil_deflated(M, N, parts)
    assert (spec.deflated, spec.orders) == (10, (19 - 4, 23 - 6))
    assert np.all(spec.is_infinite[:10])
    agree(spec, eig_pencil(M, N))
    # the quadratic problem: a group of m rows whose q2 has p nonzero columns
    # (int(0.5 k) zero ones per block: 1, 8, 2 and 9) is linearized at order m + p
    (Q0, Q1, Q2), parts = _scrambled((block_diagonal(), block_diagonal(),
                                      block_diagonal(zero_cols=0.5)), sizes, rng)
    spec = eig_quadratic(Q0, Q1, Q2, parts)
    assert (spec.deflated, spec.orders) == (20, (19 + 10, 23 + 12))
    assert calls[-2:] == [(dtype, 29), (dtype, 35)]
    agree(spec, eig_quadratic(Q0, Q1, Q2))
    assert spec.order == eig_quadratic(Q0, Q1, Q2).order


def _conjugation_closed(vals):
    # real QZ returns each pair's alpha exactly conjugate; the two betas
    # differ by rounding
    gap = np.min(np.abs(vals[:, None] - vals.conj()[None, :]), axis=1)
    return bool(np.all(gap <= 1e-14 * np.maximum(1.0, np.abs(vals))))


def test_real_valued_complex_pencils_run_real_qz(monkeypatch):
    calls = record_qz(monkeypatch)
    rng = np.random.default_rng(8)
    X = rng.standard_normal((5, 5))
    T = np.zeros((5, 5))
    T[:3, :3] = np.diag([1.0, 2.0, 3.0])
    T[3:, 3:] = [[0.5, 2.0], [-2.0, 0.5]]
    M = (X @ T @ np.linalg.inv(X)).astype(complex)  # complex-typed, imaginary part zero
    N = np.eye(5, dtype=complex)
    vals = eig_pencil(M, N).finite_values
    assert calls[-1] == (np.float64, 5)
    assert _conjugation_closed(vals)
    real = vals[vals.imag == 0.0].real
    assert np.allclose(np.sort(real), [1.0, 2.0, 3.0])
    # one nonzero imaginary entry keeps the complex path
    M[0, 1] += 1e-3j
    eig_pencil(M, N)
    assert calls[-1] == (np.complex128, 5)
    # the deflated pencil and the quadratic problem follow the same rule
    N[:, 0] = 0.0
    eig_pencil_deflated(M, N)
    assert calls[-1] == (np.complex128, 4)
    eig_pencil_deflated(M.real.astype(complex), N)
    assert calls[-1] == (np.float64, 4)
    A = gen_test_matrix("jordan-shifted", 3, time_domain="discrete").A
    pen = build_quad_pencil_variable(MatrixProblem(A, "discrete"), 0.5, 0.01)
    assert pen.q0.dtype == complex
    spec = eig_quadratic(pen.q0, pen.q1, pen.q2)
    # the trimmed linearization, order 6n^2: no 8n^2 companion reaches QZ
    assert calls[-1] == (np.float64, 54) and spec.order == 54 and spec.deflated == 18
    assert _conjugation_closed(spec.finite_values)
    assert np.any(spec.finite_values.imag == 0.0)
    rotated = build_quad_pencil_variable(MatrixProblem(np.exp(0.7j) * A, "discrete"), 0.5, 0.01)
    eig_quadratic(rotated.q0, rotated.q1, rotated.q2)
    assert calls[-1] == (np.complex128, 54)


def test_eig_pencil_deflated_falls_back():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((4, 4))
    N = rng.standard_normal((4, 4))
    # no zero column: the plain QZ, nothing deflated
    spec = eig_pencil_deflated(M, N)
    assert spec.deflated == 0 and spec.order == 4
    assert np.allclose(np.sort_complex(spec.values), np.sort_complex(eig_pencil(M, N).values))
    # M[:, J] rank-deficient: nothing is deflated, the whole pencil goes to QZ
    spec = eig_pencil_deflated(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
    assert spec.deflated == 0 and spec.order == 2


def test_sylvester_scalar_and_diag():
    assert np.allclose(solve_sylvester(np.array([[1.0]]), np.array([[1.0]]),
                                       np.array([[2.0]])), [[1.0]])
    P, Q = np.diag([1.0, 2.0]), np.diag([3.0, 4.0])
    W = solve_sylvester(P, Q, np.ones((2, 2)))
    expected = 1.0 / (np.array([[1.0], [2.0]]) + np.array([[3.0, 4.0]]))
    assert np.allclose(W, expected, atol=1e-14)


def test_sylvester_residual_random():
    rng = np.random.default_rng(4)
    P = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    Q = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)) + 8 * np.eye(6)
    C = rng.standard_normal((6, 6))
    W = solve_sylvester(P, Q, C)
    scale = (np.linalg.norm(P, 2) + np.linalg.norm(Q, 2)) * np.linalg.norm(W)
    assert np.linalg.norm(P @ W + W @ Q - C) <= 1e-12 * scale
    # factored once, each solve does scipy's Bartels-Stewart arithmetic exactly
    solve = sylvester_solver(P, Q)
    for C in (C, rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))):
        C = C.astype(complex)
        assert np.array_equal(solve(C), scipy.linalg.solve_sylvester(P, Q, C))


def test_sylvester_near_singular():
    P = np.array([[1.0]])
    Q = np.array([[-1.0]])  # Lambda(P) hits Lambda(-Q)
    with pytest.raises(NearSingularOperatorError):
        solve_sylvester(P, Q, np.array([[1.0]]))


def test_gen_sylvester_scalar_and_two_sided():
    W = solve_gen_sylvester(np.array([[2.0]]), np.array([[3.0]]),
                            np.array([[1.0]]), np.array([[1.0]]),
                            np.array([[5.0]]))
    assert np.allclose(W, [[1.0]])
    rng = np.random.default_rng(9)
    M = rng.standard_normal((3, 3))
    Mt = rng.standard_normal((3, 3))
    Y = rng.standard_normal((3, 3))
    Z = np.zeros((3, 3))
    W = solve_gen_sylvester(M, Mt, Z, Z, Y)  # reduces to M W Mt* = Y
    assert np.allclose(M @ W @ Mt.conj().T, Y, atol=1e-11)


def test_gen_sylvester_residual_random():
    rng = np.random.default_rng(13)
    mats = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            for _ in range(4)]
    M, Mt, N, Nt = mats
    M += 6 * np.eye(4)  # separate the pencil spectra
    Y = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    W = solve_gen_sylvester(M, Mt, N, Nt, Y)
    resid = np.linalg.norm(M @ W @ Mt.conj().T - N @ W @ Nt.conj().T - Y)
    assert resid <= 1e-10 * max(np.linalg.norm(Y), np.linalg.norm(W))


def _gen_sylvester_reference(M, Mt, N, Nt, Y):
    """M W Mt* - N W Nt* = Y by the column loop of scipy.linalg.solve_triangular."""
    M, N = np.asarray(M, dtype=complex), np.asarray(N, dtype=complex)
    MtH = np.asarray(Mt, dtype=complex).conj().T
    NtH = np.asarray(Nt, dtype=complex).conj().T
    TM, TN, QL, ZL = scipy.linalg.qz(M, N, output="complex")
    SM, SN, QR, ZR = scipy.linalg.qz(MtH, NtH, output="complex")
    C = QL.conj().T @ np.asarray(Y, dtype=complex) @ ZR
    p, q = C.shape
    X = np.zeros((p, q), dtype=complex)
    for j in range(q):
        if j > 0:
            rm, rn = X[:, :j] @ SM[:j, j], X[:, :j] @ SN[:j, j]
        else:
            rm = rn = np.zeros(p, dtype=complex)
        X[:, j] = scipy.linalg.solve_triangular(SM[j, j] * TM - SN[j, j] * TN,
                                                C[:, j] - TM @ rm + TN @ rn, lower=False)
    return ZL @ X @ QR.conj().T


def test_gen_sylvester_solver_is_the_solve_triangular_loop():
    # one direct trtrs call per column gives the values of solve_triangular
    rng = np.random.default_rng(17)
    for m in (1, 4, 8):
        M, Mt, N, Nt = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
                        for _ in range(4))
        M += 6 * np.eye(m)
        solve = gen_sylvester_solver(M, Mt, N, Nt)
        for _ in range(2):
            Y = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            assert np.array_equal(solve(Y), _gen_sylvester_reference(M, Mt, N, Nt, Y))
    # the shifted solve of the discrete-time operator, at the real-valued
    # coefficients of a real A
    prob = gen_test_matrix("jordan-shifted", 3, time_domain="discrete")
    op = op_quad_dt(prob, 0.45, 0.01, "variable")
    s = 1.3 + 0.02j
    M, N = op.C0 + s * op.C1, op.E0 + s * op.E1
    MtH, NtH = op.D0 + op.beta * s * op.D1, op.F0 + op.beta * s * op.F1
    Y = rng.standard_normal(M.shape) + 1j * rng.standard_normal(M.shape)
    assert np.array_equal(gen_sylvester_solver(M, MtH.conj().T, N, NtH.conj().T)(Y),
                          _gen_sylvester_reference(M, MtH.conj().T, N, NtH.conj().T, Y))


def test_shift_invert_diag_examples():
    op = MatrixOperator(np.diag([1.0, 2.0, 10.0]))
    ritz = eigs_shift_invert(op, 1.9, 1)
    assert ritz[0].converged and ritz[0].value == pytest.approx(2.0, abs=1e-10)
    ritz = eigs_shift_invert(op, 0.5, 2)
    got = sorted(rv.value.real for rv in ritz)
    assert np.allclose(got, [1.0, 2.0], atol=1e-10)
    assert all(rv.converged for rv in ritz)


def test_shift_invert_arpack_path():
    # dim large enough for the genuine ARPACK branch
    diag = np.linspace(1.0, 30.0, 30)
    op = MatrixOperator(np.diag(diag))
    ritz = eigs_shift_invert(op, 7.2, 3)
    got = sorted(rv.value.real for rv in ritz)
    assert np.allclose(got, [6.0, 7.0, 8.0], atol=1e-8)
    assert all(rv.converged for rv in ritz)


def test_symplectic_pencil_reciprocal_symmetry():
    # Thm-7.4 pencils have spectra closed under lam -> 1/conj(lam)
    for seed in range(3):
        prob = gen_test_matrix("random-stable-shifted", 4, seed=seed,
                               time_domain="discrete")
        M, N = domain(prob).pencil_1d(prob, 0.6, 1.7)
        vals = eig_pencil(M, N).finite_values
        vals = vals[np.abs(vals) > 1e-8]
        for lam in vals:
            partner = 1.0 / np.conj(lam)
            assert np.min(np.abs(vals - partner)) <= 1e-6 * max(1.0, abs(partner))


def test_eig_pencil_is_scipy_eigvals_under_the_dtype_rule(monkeypatch):
    # the one LAPACK call gives scipy's values at the 1D tests' orders and
    # at the large ones, on both sides of order 124 (where a call with
    # LAPACK's minimal workspace first differs), in real arithmetic for a
    # real-valued matrix or pencil
    rng = np.random.default_rng(11)
    for order in (2, 12, 24, 64, 120, 124, 136, 200):
        X = rng.standard_normal((order, order))
        Y = rng.standard_normal((order, order))
        # scipy sees the arrays that the dtype rule hands to LAPACK
        for (M, N), lapack_args in (((X + 1j * Y, Y - 1j * X), (X + 1j * Y, Y - 1j * X)),
                                    ((X.astype(complex), Y.astype(complex)), (X, Y))):
            spec = eig_pencil(M)
            assert np.array_equal(spec.alpha, scipy.linalg.eigvals(lapack_args[0]))
            assert np.array_equal(spec.beta, np.ones(order))
            alpha, beta = scipy.linalg.eigvals(*lapack_args, homogeneous_eigvals=True)
            spec = eig_pencil(M, N)
            assert np.array_equal(spec.alpha, alpha) and np.array_equal(spec.beta, beta)
    # one call each, to dgeev, dggev, zgeev and zggev
    calls = record_eig(monkeypatch)
    real = np.eye(3, dtype=complex)
    eig_pencil(real)
    eig_pencil(real, real)
    eig_pencil(1j * real)
    eig_pencil(real, 1j * real)
    assert calls == [("qr", float, 3), ("qz", float, 3), ("qr", complex, 3), ("qz", complex, 3)]
    # the 1D level-set tests of a real A (stored complex) run real LAPACK
    del calls[:]
    vertical_level_points(gen_test_matrix("jordan-shifted", 3, time_domain="continuous"), 0.5, 0.3)
    circular_level_points(gen_test_matrix("jordan-shifted", 3, time_domain="discrete"), 0.5, 1.3)
    assert calls == [("qr", float, 6), ("qz", float, 6)]
    # a singular N gives an infinite eigenvalue, which Spectrum classes so
    spec = eig_pencil(np.eye(2), np.diag([1.0, 0.0]))
    assert spec.is_infinite.tolist() == [False, True] and spec.finite_values.tolist() == [1.0]


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_the_gil_free_call_is_scipy_eigvals_with_a_kept_workspace(dtype, monkeypatch):
    # the ctypes call through scipy's cython_lapack pointers gives scipy's
    # f2py values bitwise, on the first call at an order (which queries the
    # workspace) and on a repeat call (which uses the kept one)
    monkeypatch.setattr(linalg, "_PLANS", {})
    rng = np.random.default_rng(24)
    for order in (2, 3, 5, 8, 13, 24, 36, 54, 64, 96, 124, 150, 216):
        X, Y = (rng.standard_normal((order, order)) for _ in range(2))
        M, N = (X + 1j * Y, Y - 1j * X) if dtype is np.complex128 else (X, Y)
        alpha, beta = scipy.linalg.eigvals(M, N, homogeneous_eigvals=True)
        for call, plans in (("first", 2), ("repeat", 0)):
            known = set(linalg._PLANS)
            spec = eig_pencil(M)
            assert np.array_equal(spec.alpha, scipy.linalg.eigvals(M)), (order, call)
            assert np.array_equal(spec.beta, np.ones(order))
            spec = eig_pencil(M, N)
            assert np.array_equal(spec.alpha, alpha) and np.array_equal(spec.beta, beta)
            # a plan, with its workspace query, per routine and order
            assert len(set(linalg._PLANS) - known) == plans
    # the caller's matrices are copied, never overwritten
    X = rng.standard_normal((6, 6)).astype(dtype)
    kept = X.copy(order="F")
    eig_pencil(kept, kept)
    assert np.array_equal(kept, X)


def test_concurrent_calls_give_the_serial_values(monkeypatch):
    # each call owns its buffer and shares only the kept plans: six threads
    # on at most two cores, switching every microsecond, and starting with no
    # plan kept, each get the serial eigenvalues bitwise
    rng = np.random.default_rng(6)
    problems = []
    for order in (8, 24, 54):
        X, Y = (rng.standard_normal((order, order)) for _ in range(2))
        problems += [(X,), (X, Y), (X + 1j * Y,), (X + 1j * Y, Y + 0j)]
    expected = [eig_pencil(*p) for p in problems]
    monkeypatch.setattr(linalg, "_PLANS", {})
    results = [[] for _ in range(6)]

    def work(out):
        for _ in range(3):
            out.append([eig_pencil(*p) for p in problems])

    threads = [threading.Thread(target=work, args=(out,)) for out in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for out in results:
        assert len(out) == 3
        for specs in out:
            for got, want in zip(specs, expected):
                assert np.array_equal(got.alpha, want.alpha)
                assert np.array_equal(got.beta, want.beta)


def test_a_lapack_failure_raises_convergence_failure():
    # a NaN pencil makes QZ fail (info = n); a NaN matrix fails in balancing
    for dtype in (np.float64, np.complex128):
        nan = np.full((3, 3), np.nan, dtype=dtype)
        with pytest.raises(ConvergenceFailure, match=r"info=3\)"):
            eig_pencil(nan, np.eye(3))
        with pytest.raises(ConvergenceFailure, match=r"info=-4\)"):
            eig_pencil(nan)

