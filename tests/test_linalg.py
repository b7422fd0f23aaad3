import numpy as np
import pytest
import scipy.linalg

from kreiss import (
    MatrixOperator,
    eig_dense,
    eig_pencil,
    eig_quadratic,
    eigs_shift_invert,
    gen_test_matrix,
    solve_gen_sylvester,
    solve_sylvester,
    svd_full,
    svd_min_triple,
    sylvester_solver,
)
from kreiss.cert_dt import _symplectic_pencil
from kreiss.linalg import eig_pencil_deflated
from kreiss.errors import (
    IllPosedError,
    NearSingularOperatorError,
    SingularPencilError,
)


def test_svd_diag():
    U, s, Vh = svd_full(np.diag([3.0, 1.0]))
    assert np.allclose(s, [3.0, 1.0])
    assert np.allclose(np.abs(U), np.eye(2))
    assert np.allclose(np.abs(Vh), np.eye(2))


def test_svd_zero():
    _, s, _ = svd_full(np.zeros((3, 3)))
    assert np.allclose(s, 0.0)


def test_svd_reconstruction():
    rng = np.random.default_rng(11)
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    U, s, Vh = svd_full(M)
    assert np.linalg.norm(U @ np.diag(s) @ Vh - M) <= 1e-13 * np.linalg.norm(M)
    assert np.all(np.diff(s) <= 0)
    trip = svd_min_triple(M)
    assert np.allclose(M @ trip.v, trip.sigma * trip.u, atol=1e-12 * s[0])
    assert np.allclose(M.conj().T @ trip.u, trip.sigma * trip.v, atol=1e-12 * s[0])


def test_eig_dense_rotationlike():
    r5 = np.sqrt(5.0)
    spec = eig_dense(np.array([[-2.0, r5], [-r5, 2.0]]))
    vals = spec.values[np.argsort(spec.values.imag)]
    assert np.allclose(vals, [-1j, 1j], atol=1e-14)


def test_eig_dense_diag_and_companion():
    assert np.allclose(np.sort(eig_dense(np.diag([1.0, 2.0, 3.0])).values.real),
                       [1, 2, 3])
    companion = np.array([[3.0, -2.0], [1.0, 0.0]])  # lambda^2 - 3 lambda + 2
    vals = np.sort(eig_dense(companion).values.real)
    assert np.allclose(vals, [1.0, 2.0], atol=1e-12)


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


def test_eig_pencil_singular_detected():
    M = np.diag([1.0, 0.0])
    N = np.diag([1.0, 0.0])  # det(M - lam N) == 0 identically
    with pytest.raises(SingularPencilError):
        eig_pencil(M, N)


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
    # the undeflated companion QZ is the reference
    rng = np.random.default_rng(21)
    m = 6
    for k in (1, 3, m):
        Q0, Q1, Q2 = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
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


def test_eig_pencil_deflated_falls_back():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((4, 4))
    N = rng.standard_normal((4, 4))
    # no zero column: the plain QZ, nothing deflated
    spec = eig_pencil_deflated(M, N)
    assert spec.deflated == 0 and spec.order == 4
    assert np.allclose(np.sort_complex(spec.values), np.sort_complex(eig_pencil(M, N).values))
    # M[:, J] rank-deficient: the whole pencil goes to QZ, which finds it singular
    with pytest.raises(SingularPencilError):
        eig_pencil_deflated(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))


def test_eig_quadratic_ill_posed():
    Z = np.zeros((2, 2))
    with pytest.raises(IllPosedError):
        eig_quadratic(Z, np.eye(2), Z)


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
        M, N = _symplectic_pencil(prob, 0.6, 1.7)
        vals = eig_pencil(M, N).finite_values
        vals = vals[np.abs(vals) > 1e-8]
        for lam in vals:
            partner = 1.0 / np.conj(lam)
            assert np.min(np.abs(vals - partner)) <= 1e-6 * max(1.0, abs(partner))
