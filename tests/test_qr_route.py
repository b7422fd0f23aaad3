"""The QR route of the continuous-time variable pencils.

A variable pencil's m2 = I (x) C + D (x) I acts on each index (a, i, b, j)
of W as the 4 x 4 core S on (a, b) and as the identity on (i, j), so
m2 = P (S (x) I_{n^2}) P^T exactly, for P the permutation of
``cert_ct._rotate_columns``.  When cond_2(S) is at most
``cert_ct.MASS_COND_MAX`` the pencil's eigenvalues come from QR on
K = m2^-1 m1; otherwise, and for every fixed-distance and discrete-time
test, from QZ.
"""

import numpy as np
import pytest
import scipy.linalg

from kreiss import MatrixProblem, cert_ct, certify, gen_test_matrix
from kreiss.cert_ct import (MASS_COND_MAX, _kron_pencil, _mass_solve, _pencil_blocks,
                            build_horizontal_pencil, build_variable_pencil)
from kreiss.solver import CERTIFICATE_CHOICES

from conftest import (gathered_mass, random_stable, real_random_stable, record_eig,
                      three_levels, two_block)

BUILDS = {"variable-vertical": build_variable_pencil,
          "variable-horizontal": build_horizontal_pencil}


def _problems():
    """A complex A, a real A (whose vertical pencil is halved) and a split A."""
    return [random_stable(3, 4, "continuous"), real_random_stable(4, 1),
            two_block("continuous")]


@pytest.mark.parametrize("variant", sorted(BUILDS))
def test_mass_matrix_is_the_core_gathered(variant):
    # exactly: the direct build, and the level's N (in the halves' basis
    # for a real A's vertical pencil)
    for prob in _problems():
        for gamma, eta in ((0.6, 0.3), (0.9, 1e-3), (0.5, 1e-9)):
            pen = BUILDS[variant](prob, gamma, eta)
            S = pen.mass_core
            assert S.shape == (4, 4)
            m2 = gathered_mass(S, prob.n)
            assert np.array_equal(_kron_pencil(*_pencil_blocks(prob.A, gamma, eta, variant))[1], m2)
            assert np.array_equal(pen.N, m2 if pen.halves is None else pen.halves.apply(m2))


@pytest.mark.parametrize("variant", sorted(BUILDS))
def test_mass_condition_is_the_core_condition(variant):
    prob = random_stable(3, 4, "continuous")
    # at levels where m2's SVD is accurate to 1e-12: kappa below about 1e3
    for gamma, eta in ((0.6, 0.3), (0.3, 0.1), (0.9, 0.1)):
        pen = BUILDS[variant](prob, gamma, eta)
        kappa = np.linalg.cond(pen.mass_core)
        assert kappa <= MASS_COND_MAX
        assert np.linalg.cond(pen.m2) == pytest.approx(kappa, rel=1e-12)


@pytest.mark.parametrize("variant", sorted(BUILDS))
def test_structured_inverse_solves_the_mass_matrix(variant):
    # K = m2^-1 m1 against a dense solve, in the plain basis and, for a
    # halved pencil, part by part in the halves' basis
    halved = 0
    for prob in _problems():
        gamma, eta = three_levels(prob)[1]
        pen = BUILDS[variant](prob, gamma, eta)
        K = _mass_solve(pen.mass_core, pen.m1)
        ref = scipy.linalg.solve(pen.m2, pen.m1)
        assert np.max(np.abs(K - ref)) <= 1e-12 * np.max(np.abs(ref))
        if pen.halves is not None:
            halved += 1
            H = pen.halves.apply(K)
            for r, c in pen.parts:
                part = scipy.linalg.solve(pen.N[np.ix_(r, c)], pen.M[np.ix_(r, c)])
                assert np.max(np.abs(H[np.ix_(r, c)] - part)) <= 1e-12 * np.max(np.abs(part))
    assert halved == (1 if variant == "variable-vertical" else 0)


@pytest.mark.parametrize("variant", CERTIFICATE_CHOICES)
def test_the_route_follows_the_mass_condition(variant, monkeypatch):
    # QZ at the tight level, QR at the coarse one for the variable pencils;
    # QZ for every fixed-distance and every discrete-time test
    calls = record_eig(monkeypatch)
    probs = _problems() + [gen_test_matrix("jordan-shifted", 3, time_domain="discrete"),
                           two_block("discrete")]
    for prob in probs:
        ct_variable = prob.is_continuous and variant.startswith("variable")
        for level, (gamma, eta) in zip(("tight", "coarse", "above"), three_levels(prob)):
            del calls[:]
            report = certify(prob, variant, gamma, eta)
            # a test's large eigenproblems come before its 1D tests
            large = calls[:len(report.eig_orders)]
            assert [order for _, _, order in large] == report.eig_orders
            if ct_variable:
                pen = (build_variable_pencil if variant == "variable-v"
                       else build_horizontal_pencil)(prob, gamma, eta)
                kappa = np.linalg.cond(pen.mass_core)
                qr = bool(kappa <= MASS_COND_MAX)
                assert qr is {"tight": False, "coarse": True}.get(level, qr), (level, kappa)
            else:
                qr = False
            assert {route for route, _, _ in large} == ({"qr"} if qr else {"qz"})
            assert report.eig_route == ("qr" if qr else "qz")
            assert report.mass_cond == (kappa if qr else None)
            assert sum(report.eig_orders) == report.large_eig_count


def _ct_corpus_and_stress():
    """The continuous-time instances of the acceptance corpus, and the
    stress set's: Jordan blocks, a near-boundary real matrix and the n = 8
    draw of ``test_stress``."""
    from test_acceptance import CORPUS
    from test_stress import random_matrix
    probs = [random_stable(n, seed, td) for n, seed, td in CORPUS if td == "continuous"]
    probs += [gen_test_matrix("jordan-shifted", n) for n in (2, 4, 6)]
    probs.append(MatrixProblem(np.array([[-1e-3, 1.0], [0.0, -2e-3]]), "continuous"))
    probs.append(MatrixProblem(random_matrix(8, "continuous", 2), "continuous"))
    return probs


def test_qr_and_qz_give_the_same_verdicts(monkeypatch):
    routes = set()
    for prob in _ct_corpus_and_stress():
        for gamma, eta in three_levels(prob)[1:]:
            for variant in ("variable-v", "variable-h"):
                qr = certify(prob, variant, gamma, eta)
                with monkeypatch.context() as m:
                    m.setattr(cert_ct, "MASS_COND_MAX", 0.0)
                    qz = certify(MatrixProblem(prob.A, prob.time_domain), variant, gamma, eta)
                assert qz.eig_route == "qz"
                routes.add(qr.eig_route)
                assert qr.empty == qz.empty, (prob.n, variant, gamma, eta)
    assert routes == {"qr", "qz"}
