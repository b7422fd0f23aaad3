import warnings

import numpy as np
import pytest
import scipy.linalg

from kreiss import LinearOperator, MatrixProblem, certify, gen_test_matrix, linalg, minimize
from kreiss.errors import NearSingularOperatorError
from kreiss.matio import SplitForm
from kreiss.oracle import grid_min


@pytest.fixture
def scalar_ct():
    return MatrixProblem(np.array([[-1.0]]), "continuous")


@pytest.fixture
def scalar_dt():
    return MatrixProblem(np.array([[0.5]]), "discrete")


@pytest.fixture
def jordan_ct():
    # 2x2 Jordan block at -0.3: nonnormal, K ~ 1.1333
    return gen_test_matrix("jordan-shifted", 2, time_domain="continuous", eps=0.3)


@pytest.fixture
def jordan_dt():
    # 2x2 Jordan block at 0.9: nonnormal, K ~ 2.6 (sub-1 level sets exist)
    return gen_test_matrix("jordan-shifted", 2, time_domain="discrete", eps=0.1)


def random_stable(n, seed, time_domain):
    return gen_test_matrix("random-stable-shifted", n, seed=seed, time_domain=time_domain)


def real_random_stable(n, seed):
    """Real Gaussian matrix shifted into continuous-time stability."""
    rng = np.random.default_rng([seed, 0, 1, n])
    B = rng.standard_normal((n, n))
    alpha = np.max(np.linalg.eigvals(B).real)
    return MatrixProblem(B - (alpha + 0.05 * max(1.0, abs(alpha))) * np.eye(n), "continuous")


def random_normal_stable(n, seed, time_domain):
    """Normal stable matrix: unitary conjugation of a stable diagonal."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(Z)
    if time_domain == "continuous":
        lam = -0.2 - rng.random(n) + 1j * rng.standard_normal(n)
    else:
        lam = (0.1 + 0.85 * rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    return MatrixProblem(Q @ np.diag(lam) @ Q.conj().T, time_domain)


def gathered_mass(S, n):
    """P (S (x) I_{n^2}) P^T as a dense matrix: row (a, i, b, j) of vec(W),
    a n + i + 2n (b n + j), meets the rows (a', i, b', j) with the weights
    S[2b + a, 2b' + a'].  A variable pencil's m2 is this matrix of its 4 x 4
    ``mass_core``."""
    m = 4 * n * n
    at = np.arange(m).reshape(2, n, 2, n).transpose(0, 2, 1, 3).reshape(-1)
    out = np.zeros((m, m), dtype=S.dtype)
    out[np.ix_(at, at)] = np.kron(S, np.eye(n * n))
    return out


def jordan_block(k, lam, scale):
    return np.diag(np.full(k, lam, dtype=complex)) + scale * np.diag(np.ones(k - 1), 1)


def contractive(time_domain):
    """A nonnormal 2 x 2 matrix with omega(A) = -0.5 < 0 (continuous time)
    or w(A) = 0.55 < 1 (discrete time): no point at any level below 1, K = 1."""
    if time_domain == "continuous":
        return MatrixProblem(np.array([[-1.0, 1.0], [0.0, -1.0]]), time_domain)
    return MatrixProblem(np.array([[0.3, 0.5], [0.0, 0.3]]), time_domain)


def two_block(time_domain, coupling=0.0):
    """Two nonnormal 2 x 2 Jordan blocks, uncoupled but for ``coupling`` at
    A[0, 2]: a problem that splits into blocks of orders (2, 2)."""
    if time_domain == "continuous":
        blocks = (jordan_block(2, -0.3 + 0.5j, 1.0), jordan_block(2, -0.6 - 2.0j, 1.5))
    else:
        blocks = (jordan_block(2, 0.9 * np.exp(0.3j), 0.1),
                  jordan_block(2, 0.75 * np.exp(2.5j), 0.6))
    A = scipy.linalg.block_diag(*blocks)
    A[0, 2] = coupling
    return MatrixProblem(A, time_domain)


def unsplit(monkeypatch):
    """Build every dense pencil from A itself, as if no problem split."""
    monkeypatch.setattr(MatrixProblem, "split",
                        property(lambda self: SplitForm(self.A, (self.n,), 0.0)))


def three_levels(prob):
    """(gamma, eta) of three certificate levels: just below the minimum g of
    the objective (the call a finished solve ends with), well below it and
    above it, with g capped below 1 (a normal problem's minimum is 1)."""
    g, coords = grid_min(prob, levels=3)[:2]
    g = min(g, minimize(prob, coords).value, 1.0 - 1e-3)
    return [(g * (1.0 - 0.5e-9), g * 1e-9), (2.0 * g / 3.0, 2.0 * g / 3.0),
            (g + 0.5 * (1.0 - g), 0.25 * (1.0 - g))]


def _isolated(lines, barrier, rtol=1e-3):
    """The candidate lines farther than rtol (relative) from every other line
    and from the barrier."""
    x = np.asarray(lines, dtype=float)
    if x.size == 0:
        return x
    scale = np.maximum(1.0, np.abs(x))
    gap = np.diff(x)
    nearest = np.minimum(np.r_[np.inf, gap], np.r_[gap, np.inf])
    return x[(nearest > rtol * scale) & (x - barrier > rtol * scale)]


def assert_split_reports_agree(prob, variant, levels, monkeypatch):
    """The dense report of ``prob``, whose pencils are split, against the one
    built from A (``unsplit``): the same verdict and point count, and every
    isolated candidate line of either found in the other to 1e-8 relative.

    A cluster of lines comes from a multiple root (the pair-tangency double
    root, or the roots piled at the barrier, where the pair's two points
    meet): any backward-stable QZ scatters it by eps^(1/k), so its lines
    move with the rounding of the QZ that found them, split or not."""
    barrier = 0.0 if prob.is_continuous else 1.0
    split = [certify(prob, variant, gamma, eta) for gamma, eta in levels]
    assert all(len(r.eig_orders) > 1 for r in split)
    with monkeypatch.context() as m:
        unsplit(m)
        whole = [certify(MatrixProblem(prob.A, prob.time_domain), variant, gamma, eta)
                 for gamma, eta in levels]
    for a, b in zip(split, whole):
        assert len(b.eig_orders) == 1
        assert a.large_eig_count == b.large_eig_count
        assert (a.empty, len(a.points)) == (b.empty, len(b.points)), (a.gamma, a.eta)
        for p, q in ((a, b), (b, a)):
            other = np.asarray(q.candidate_lines)
            for x in _isolated(p.candidate_lines, barrier):
                assert np.min(np.abs(other - x)) <= 1e-8 * max(1.0, abs(x)), (a.gamma, x)


def _record_lapack(monkeypatch, entry):
    """The entries ``entry(route, dtype, order)`` that are not None, of every
    eigenproblem handed to LAPACK from here on by ``linalg.eig_pencil``'s
    one call (``linalg._Plan``).  The route is "qz" for a pencil (``dggev``,
    ``zggev``) and "qr" for one matrix (``dgeev``, ``zgeev``); a plan's
    workspace query is not an eigenproblem and is not seen."""
    calls = []
    call = linalg._Plan.__call__

    def record(plan, mats):
        item = entry("qz" if len(mats) == 2 else "qr", mats[0].dtype, mats[0].shape[0])
        if item is not None:
            calls.append(item)
        return call(plan, mats)

    monkeypatch.setattr(linalg._Plan, "__call__", record)
    return calls


def record_qz(monkeypatch):
    """(dtype, order) of every pencil handed to QZ from here on
    (``_record_lapack``): the large pencils and the 1D tests' pencils."""
    return _record_lapack(monkeypatch,
                          lambda route, dtype, order: (dtype, order) if route == "qz" else None)


def record_eig(monkeypatch):
    """(route, dtype, order) of every eigenproblem handed to LAPACK from here
    on (``_record_lapack``): "qz" for a pencil, "qr" for one matrix, such
    as K = m2^-1 m1 of a variable pencil or the Hamiltonian matrix of a
    continuous-time 1D test.  A 2D test hands over its large eigenproblems
    first (one per entry of ``eig_orders``), then its 1D tests, of order
    2n."""
    return _record_lapack(monkeypatch, lambda route, dtype, order: (route, dtype, order))


class MatrixOperator(LinearOperator):
    """Dense standard eigenproblem A1 x = lambda x behind the implicit-operator
    interface, for testing the shift-and-invert sweep on known spectra."""

    def __init__(self, A1):
        self.A1 = np.asarray(A1, dtype=complex)
        self.dim = self.A1.shape[0]

    def apply(self, v):
        return self.A1 @ v

    def apply_mass(self, v):
        return np.asarray(v, dtype=complex)

    def shifted_solver(self, shift):
        with warnings.catch_warnings():
            warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
            try:
                lu, piv = scipy.linalg.lu_factor(self.A1 - shift * np.eye(self.dim))
            except scipy.linalg.LinAlgWarning as exc:  # an exactly zero pivot
                raise NearSingularOperatorError(f"shifted solve failed: {exc}") from exc

        def solve(y):
            w = scipy.linalg.lu_solve((lu, piv), np.asarray(y, dtype=complex))
            if not np.all(np.isfinite(w)):
                raise NearSingularOperatorError("shifted solve overflowed")
            return w

        return solve
