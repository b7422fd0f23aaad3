"""The transpose halves of a real A's vertical continuous-time pencils.

For a real A, S2 = S1^T, and the pencils of ``variable-v`` and ``fixed-v``
commute with vec(W) -> vec(W^T).  ``cert_ct`` hands them to QZ in a basis of
symmetric and skew-symmetric W (``cert_ct.TransposeHalves``), one QZ call
per half.  The other pencils do not commute with the transpose and stay
whole; so do the halves of a small problem, which would regroup into one
QZ call.
"""

import numpy as np
import pytest
import scipy.linalg

from kreiss import MatrixProblem, cert_ct, certify, compute_kreiss, gen_test_matrix, linalg
from kreiss.cert_ct import (_fixed_offset, _kron_pencil, _null_rotation, _pencil_blocks,
                            _sylvester_blocks)
from kreiss.oracle import grid_min
from kreiss.solver import CERTIFICATE_CHOICES

from conftest import random_stable, real_random_stable, three_levels
from test_levels import _direct_dt

EPS = np.finfo(float).eps


def _transposed(X, n):
    """P X P for the transpose P of vec(W), W of order 2n."""
    k = np.arange(4 * n * n)
    sigma = k // (2 * n) + 2 * n * (k % (2 * n))
    return X[np.ix_(sigma, sigma)]


def _miss(X, n):
    """How far P X P is from X, relative to X."""
    return np.max(np.abs(_transposed(X, n) - X)) / np.max(np.abs(X))


def _whole(monkeypatch):
    """Build every pencil whole, as if no pencil were halved."""
    monkeypatch.setattr(cert_ct, "_halves_for", lambda split, rotated=False: None)


def _real_problems():
    return [gen_test_matrix("jordan-shifted", 4, time_domain="continuous"),
            gen_test_matrix("jordan-shifted", 5, time_domain="continuous"),
            real_random_stable(4, 1)]


# --------------------------------------------------------------------------
# the symmetry
# --------------------------------------------------------------------------

def test_real_vertical_pencils_commute_with_the_transpose():
    for prob in _real_problems():
        n, A = prob.n, prob.A
        m1, m2 = _kron_pencil(*_pencil_blocks(A, 0.6, 0.05, "variable-vertical"))
        fixed_m2 = _kron_pencil(*_pencil_blocks(A, 0.6, 0.05, "fixed", np.pi / 2))[1]
        # exactly, entry by entry: m1 is the eta-free part of both pencils,
        # m2 holds variable-v's eta part -i eta I, and i eta I is fixed-v's
        for X in (m1, m2, fixed_m2, 1j * np.eye(4 * n * n)):
            assert np.array_equal(_transposed(X, n), X)
    # the direct build's vertical offset is i I but for the rounding of
    # cos(pi/2) and exp(+-i pi/2), which the halved level leaves out
    assert np.max(np.abs(_fixed_offset(0.6, np.pi / 2) - 1j * np.eye(2))) <= EPS


def test_the_other_pencils_do_not_commute_with_the_transpose():
    # why variable-h, fixed-h, a complex A and discrete time stay whole
    real = gen_test_matrix("jordan-shifted", 4, time_domain="continuous")
    n, gamma, eta = 4, 0.6, 0.05
    horizontal_m2 = _kron_pencil(*_pencil_blocks(real.A, gamma, eta, "variable-horizontal"))[1]
    assert _miss(horizontal_m2, n) > 0.1 * eta  # (beta - 1)(I (x) C - C (x) I)
    offset_h = np.kron(np.kron(_fixed_offset(gamma, 0.0), np.eye(n)).T, np.eye(2 * n))
    assert _miss(offset_h, n) > 0.5
    complex_m1 = _kron_pencil(*_pencil_blocks(random_stable(4, 4, "continuous").A, gamma, eta,
                                              "variable-vertical"))[0]
    assert _miss(complex_m1, n) > 0.1
    real_dt = gen_test_matrix("jordan-shifted", 4, time_domain="discrete")
    for variant in ("fixed-v", "variable-v"):
        _, q0, q1, q2 = _direct_dt(real_dt, variant, gamma, eta)
        # q2 commutes, q0 (and variable-v's q1) miss by O(eta)
        assert _miss(q0, n) > 0.5 * eta


@pytest.mark.parametrize("gamma", [0.1, 0.6, 1.0 - 1e-9])
def test_swap_adapted_null_rotation(gamma):
    V = _null_rotation(gamma, swap_adapted=True)
    assert np.linalg.norm(V.T @ V - np.eye(4)) <= 4 * EPS
    # row p = 2b + a of V, with a and b exchanged: the null columns have
    # parities (+, -), the range columns +
    swap = [0, 2, 1, 3]
    assert np.allclose(V[swap], V * np.array([1.0, -1.0, 1.0, 1.0]), rtol=0, atol=EPS)
    c = cert_ct._gamma_block(1, gamma)
    S = np.kron(np.eye(2), c) + np.kron(c, np.eye(2))
    assert np.linalg.norm(S @ V[:, :2]) <= 8 * EPS
    # the same null space as the SVD's rotation, which every other pencil keeps
    W = _null_rotation(gamma)
    assert np.linalg.norm(W[:, :2] @ W[:, :2].T - V[:, :2] @ V[:, :2].T) <= 1e-12
    # each half of a fixed-v pencil keeps n^2 exactly zero columns of N
    for prob in _real_problems():
        pen = cert_ct.build_fixed_pencil(prob, gamma, 0.05)
        assert pen.halves is not None and len(pen.parts) == 2
        for rows, cols in pen.parts:
            assert np.count_nonzero(~pen.N[np.ix_(rows, cols)].any(axis=0)) == prob.n ** 2


def test_halves_basis_round_trips():
    for sizes, rotated in (((4,), False), ((4,), True), ((4, 2), False), ((4, 2), True)):
        n = sum(sizes)
        halves = cert_ct._transpose_halves(sizes, rotated)
        rows = np.sort(np.concatenate([r for r, _ in halves.parts]))
        cols = np.sort(np.concatenate([c for _, c in halves.parts]))
        assert np.array_equal(rows, np.arange(4 * n * n)) and np.array_equal(rows, cols)
        assert all(len(r) == len(c) for r, c in halves.parts)
        # the halves leave the identity as it is, so the shift term needs no change
        if not rotated:
            assert np.array_equal(halves.apply(np.eye(4 * n * n)), np.eye(4 * n * n))
        if rotated:
            continue
        # on a real T's variable-v pencil, which commutes with the transpose,
        # apply is a similarity, which the QR route on m2^-1 m1 relies on:
        # it takes products and solves into the halves
        rng = np.random.default_rng(n)
        T = scipy.linalg.block_diag(*(rng.standard_normal((k, k)) for k in sizes))
        S1, _, C = _sylvester_blocks(T, 0.6)
        m1, m2 = _kron_pencil(S1, S1.T, C, C - 0.05j * np.eye(2 * n))
        H1, H2 = halves.apply(m1), halves.apply(m2)
        ref = halves.apply(m2 @ m1)
        assert np.max(np.abs(H2 @ H1 - ref)) <= 4 * EPS * np.max(np.abs(ref))
        ref = halves.apply(np.linalg.solve(m2, m1))
        err = np.max(np.abs(np.linalg.solve(H2, H1) - ref))
        assert err <= EPS * np.linalg.cond(m2) * np.max(np.abs(ref))


def test_small_problems_keep_the_whole_pencil():
    # at n <= 3 the two halves would regroup into one QZ call
    for n in (1, 2, 3):
        prob = gen_test_matrix("jordan-shifted", n, time_domain="continuous")
        for pen in (cert_ct.build_variable_pencil(prob, 0.6, 0.05),
                    cert_ct.build_fixed_pencil(prob, 0.6, 0.05)):
            assert pen.halves is None and len(pen.parts) == 1
        assert len(linalg._groups(cert_ct._transpose_halves((n,)).parts)) == 1


# --------------------------------------------------------------------------
# the halves against the whole pencil
# --------------------------------------------------------------------------

def _well_conditioned_roots(pen):
    """The real eigenvalues x > 1e-3 of the whole pencil whose first-order
    error bound under a backward error of eps, eps * kappa(x), is below
    1e-10 * max(1, x): the roots that every backward-stable QZ must place
    to 1e-8, however it orders or splits the pencil."""
    m1, m2 = pen.m1, pen.m2
    lam, left, right = scipy.linalg.eig(m1, m2, left=True, right=True)
    scale = np.linalg.norm(m1) + np.abs(lam) * np.linalg.norm(m2)
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = (np.linalg.norm(left, axis=0) * np.linalg.norm(right, axis=0) * scale
                 / np.abs(np.einsum("ij,ik,kj->j", left.conj(), m2, right)))
    keep = (np.isfinite(lam) & (lam.real > 1e-3)
            & (np.abs(lam.imag) <= 1e-8 * np.maximum(1.0, np.abs(lam.real)))
            & (EPS * kappa <= 1e-10 * np.maximum(1.0, np.abs(lam))))
    return lam[keep].real


@pytest.mark.parametrize("variant", ["fixed-v", "variable-v"])
def test_halves_agree_with_the_whole_pencil(variant, monkeypatch):
    # The same verdict, point count and large_eig_count, and every
    # well-conditioned real root of the whole pencil inside the search
    # interval [search_lo, search_hi] a candidate line of both reports to
    # 1e-8.  conftest._isolated's rule, which the split of
    # a reducible A passes, does not hold here: at the tight level
    # (eta ~ 1e-10) a Jordan block's pencil is nearly singular, and its
    # ill-conditioned roots land apart by up to 1e-2 even between two QZ
    # runs of the same whole pencil (deflated and undeflated); near the
    # barrier, the midpoint that _candidates adds between a scattered
    # barrier root and its neighbour moves with that root.
    build = {"fixed-v": lambda p, g, e: cert_ct.build_fixed_pencil(p, g, e),
             "variable-v": cert_ct.build_variable_pencil}[variant]
    for prob in _real_problems():
        n = prob.n
        orders = ([n * n + n, n * n - n] if variant == "fixed-v"
                  else [n * (2 * n + 1), n * (2 * n - 1)])
        for gamma, eta in three_levels(prob):
            halved = certify(prob, variant, gamma, eta)
            with monkeypatch.context() as m:
                _whole(m)
                fresh = MatrixProblem(prob.A, prob.time_domain)
                whole = certify(fresh, variant, gamma, eta)
                roots = _well_conditioned_roots(build(fresh, gamma, eta))
            assert halved.eig_orders == orders and whole.eig_orders == [sum(orders)]
            assert halved.large_eig_count == whole.large_eig_count
            assert (halved.empty, len(halved.points)) == (whole.empty, len(whole.points))
            for report in (halved, whole):
                lines = np.asarray(report.candidate_lines)
                for x in roots[(roots >= report.search_lo) & (roots <= report.search_hi)]:
                    assert np.min(np.abs(lines - x)) <= 1e-8 * max(1.0, x), (gamma, eta, x)


@pytest.mark.parametrize("variant", CERTIFICATE_CHOICES)
def test_pencils_that_stay_whole_are_unchanged(variant, monkeypatch):
    # a complex A, variable-h and fixed-h, and discrete time: the same QZ
    # input and eig_orders whether or not halves are allowed
    probs = [random_stable(4, 4, "continuous"), gen_test_matrix("jordan-shifted", 4),
             gen_test_matrix("jordan-shifted", 4, time_domain="discrete"),
             random_stable(4, 4, "discrete")]
    for prob in probs:
        if prob.is_continuous and not prob.A.imag.any() and variant in ("fixed-v", "variable-v"):
            continue
        gamma, eta = three_levels(prob)[1]
        if prob.is_continuous:
            build = {"fixed-v": lambda p: cert_ct.build_fixed_pencil(p, gamma, eta),
                     "fixed-h": lambda p: cert_ct.build_fixed_pencil(p, gamma, eta, 0.0),
                     "variable-v": lambda p: cert_ct.build_variable_pencil(p, gamma, eta),
                     "variable-h": lambda p: cert_ct.build_horizontal_pencil(p, gamma, eta)}
            pen = build[variant](prob)
            with monkeypatch.context() as m:
                _whole(m)
                ref = build[variant](MatrixProblem(prob.A, prob.time_domain))
            assert pen.halves is None
            assert np.array_equal(pen.M, ref.M) and np.array_equal(pen.N, ref.N)
            assert len(pen.parts) == len(ref.parts)
            assert all(np.array_equal(a, b) for (a, _), (b, _) in zip(pen.parts, ref.parts))
        report = certify(prob, variant, gamma, eta)
        with monkeypatch.context() as m:
            _whole(m)
            ref_report = certify(MatrixProblem(prob.A, prob.time_domain), variant, gamma, eta)
        assert report.eig_orders == ref_report.eig_orders == [report.large_eig_count]
        assert report.candidate_lines == ref_report.candidate_lines


# --------------------------------------------------------------------------
# soundness of the halved path
# --------------------------------------------------------------------------

_SWEEP = [(n, seed) for n in (3, 4, 5) for seed in (0, 1, 2)]


@pytest.mark.parametrize("n, seed", _SWEEP, ids=[f"n{n}-seed{s}" for n, s in _SWEEP])
def test_real_variable_certificate_bounds_the_oracle(n, seed):
    prob = real_random_stable(n, seed)
    g_grid = grid_min(prob, levels=4)[0]
    for gamma, eta in three_levels(prob):
        report = certify(prob, "variable-v", gamma, eta)
        assert report.eig_orders == ([n * (2 * n + 1), n * (2 * n - 1)] if n > 3 else [4 * n * n])
        # EMPTY certifies 1/K > gamma - eta/2, which the attained grid value refutes
        assert not report.empty or g_grid > gamma - 0.5 * eta, (gamma, eta)


@pytest.mark.parametrize("n, seed", _SWEEP, ids=[f"n{n}-seed{s}" for n, s in _SWEEP])
def test_real_backtracking_solve_does_not_undercut_the_oracle(n, seed):
    prob = real_random_stable(n, seed)
    k_grid = 1.0 / grid_min(prob, levels=4)[0]
    assert compute_kreiss(prob, "owr-bt", c=0.25).kreiss >= k_grid * (1.0 - 1e-8)
