import warnings

import numpy as np
import pytest
import scipy.linalg

from kreiss import LinearOperator, MatrixProblem, gen_test_matrix
from kreiss.errors import NearSingularOperatorError


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
