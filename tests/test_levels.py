"""Certificate levels: every dense eigenproblem of a 2D test is an ordered
sum of its level's terms (``cert_ct.AffineLevel``), cached on the problem
(``MatrixProblem.level``) and built once per level: once per (gamma,
theta_orient) for the continuous-time fixed pencil, once per gamma for both
variable ones and for both discrete-time problems."""

import itertools

import numpy as np
import pytest
import scipy.linalg

from kreiss import MatrixProblem, cert_ct, cert_dt, certify, gen_test_matrix, solver
from kreiss.cert_ct import _kron_pencil, _null_rotation, _pencil_blocks, _rotate_columns
from kreiss.cert_dt import _ray_factor_blocks, _ray_pair
from kreiss.solver import CERTIFICATE_CHOICES

from conftest import jordan_block, random_stable, two_block
from test_stress import random_matrix

EPS = np.finfo(float).eps


def _problems(td):
    """Unsplit and split problems, complex and real; in continuous time, the
    vertical pencils of the last two are halved (``cert_ct.TransposeHalves``)."""
    if td == "continuous":
        real_blocks = (jordan_block(2, -0.4, 0.5), [[-0.3, 0.6], [-0.6, -0.3]])
        large = jordan_block(4, -0.4, 0.5)
    else:
        real_blocks = (jordan_block(2, 0.8, 0.5), [[0.3, 0.6], [-0.6, 0.3]])
        large = jordan_block(4, 0.8, 0.5)
    real_split = MatrixProblem(scipy.linalg.block_diag(*real_blocks).astype(complex), td)
    real_split_24 = MatrixProblem(scipy.linalg.block_diag(large, real_blocks[1]).astype(complex),
                                  td)
    probs = [random_stable(3, 4, td), gen_test_matrix("jordan-shifted", 3, time_domain=td),
             two_block(td), real_split, gen_test_matrix("jordan-shifted", 4, time_domain=td),
             real_split_24]
    assert [p.split.sizes for p in probs] == [(3,), (3,), (2, 2), (2, 2), (4,), (2, 4)]
    assert [bool(p.A.imag.any()) for p in probs] == [True, False, True, False, False, False]
    return probs


def _close(got, want):
    return np.max(np.abs(got - want)) <= 8 * EPS * np.max(np.abs(want))


def _direct_ct(prob, variant, gamma, eta):
    """(built pencil, m1, m2 of the direct Kronecker build from the split form)."""
    T = prob.split.T
    if variant.startswith("fixed"):
        theta = np.pi / 2 if variant == "fixed-v" else 0.0
        pen = cert_ct.build_fixed_pencil(prob, gamma, eta, theta)
        return pen, *_kron_pencil(*_pencil_blocks(T, gamma, eta, "fixed", theta))
    if variant == "variable-v":
        pen = cert_ct.build_variable_pencil(prob, gamma, eta)
        return pen, *_kron_pencil(*_pencil_blocks(T, gamma, eta, "variable-vertical"))
    pen = cert_ct.build_horizontal_pencil(prob, gamma, eta)
    return pen, *_kron_pencil(*_pencil_blocks(T, gamma, eta, "variable-horizontal"))


def _direct_dt(prob, variant, gamma, eta):
    """(built problem, q0, q1, q2 of the direct build from the split form)."""
    fixed = variant.startswith("fixed")
    build = cert_dt.build_quad_pencil_fixed if fixed else cert_dt.build_quad_pencil_variable
    delta, beta = _ray_pair(gamma, eta, "fixed" if fixed else "variable")
    C0, C1, D0, D1, E0, E1, F0, F1 = _ray_factor_blocks(prob.split.T, gamma, delta)
    kr = np.kron
    return (build(prob, gamma, eta), kr(D0.T, C0) - kr(F0.T, E0),
            beta * (kr(D1.T, C0) - kr(F1.T, E0)) + (kr(D0.T, C1) - kr(F0.T, E1)),
            beta * (kr(D1.T, C1) - kr(F1.T, E1)))


@pytest.mark.parametrize("variant", CERTIFICATE_CHOICES)
def test_level_pencils_match_the_direct_build(variant):
    # gamma = 1 - 1e-9 is owr's plateau probe, where dt-n5-seed109-owr (the
    # last problem) passes only while q0 is the direct build bitwise
    seed109 = MatrixProblem(random_matrix(5, "discrete", 109), "discrete")
    halved_problems = set()
    for td in ("continuous", "discrete"):
        for prob, gamma in itertools.product(_problems(td) + [seed109] * (td == "discrete"),
                                             (0.6, 1 - 1e-9)):
            # the first eta builds the level, the others reuse it
            for eta in (0.05, 1e-6, 1e-9):
                if td == "discrete":
                    # the quadratic problems are the direct build bitwise
                    pen, *direct = _direct_dt(prob, variant, gamma, eta)
                    for got, want in zip((pen.q0, pen.q1, pen.q2), direct):
                        assert np.array_equal(got, want), (variant, eta)
                    continue
                pen, m1, m2 = _direct_ct(prob, variant, gamma, eta)
                assert _close(pen.m1, m1) and _close(pen.m2, m2), (variant, eta)
                n, halved = prob.n, pen.halves is not None
                if halved:
                    assert variant in ("fixed-v", "variable-v") and not prob.A.imag.any()
                    halved_problems.add(prob.split.sizes)
                M, N = m1, m2
                if variant.startswith("fixed"):
                    # QZ's form: rotated columns, with N's 2n^2 zero columns exact
                    V = _null_rotation(gamma, swap_adapted=halved)
                    assert np.array_equal(pen.rotation, V)
                    M, N = _rotate_columns(m1, V, n), _rotate_columns(m2, V, n)
                    assert np.count_nonzero(~pen.N.any(axis=0)) == 2 * n * n
                    assert halved or not pen.N[:, :2 * n * n].any()
                if halved:
                    # a real A's vertical pencils: in the halves' basis, and
                    # to 8 eps, as the fixed pencil
                    M, N = pen.halves.apply(M), pen.halves.apply(N)
                if halved or variant.startswith("fixed"):
                    assert _close(pen.M, M) and _close(pen.N, N), (variant, eta)
                else:
                    # the other variable pencils are the direct build bitwise
                    assert np.array_equal(pen.M, m1) and np.array_equal(pen.N, m2)
    assert halved_problems == ({(4,), (2, 4)} if variant in ("fixed-v", "variable-v") else set())


def _same_report(a, b):
    assert (a.gamma, a.eta, a.variant, a.gamma_nudged) == (b.gamma, b.eta, b.variant,
                                                           b.gamma_nudged)
    assert a.candidate_lines == b.candidate_lines
    assert [p.coords for p in a.points] == [p.coords for p in b.points]
    assert (a.large_eig_count, a.qz_orders, a.rejected_points) == (
        b.large_eig_count, b.qz_orders, b.rejected_points)


@pytest.mark.parametrize("td", ["continuous", "discrete"])
def test_interleaved_levels_give_the_reports_of_cold_builds(td):
    probs = [random_stable(3, 4, td), two_block(td)]
    calls = [(0, "fixed-v", 0.6, 0.05), (0, "fixed-v", 0.6, 0.01), (1, "fixed-v", 0.6, 0.05),
             (0, "fixed-h", 0.6, 0.01), (0, "variable-v", 0.6, 0.01),
             (0, "fixed-v", 0.7, 0.01), (0, "variable-h", 0.7, 0.01),
             (1, "variable-v", 0.6, 0.01), (0, "fixed-v", 0.6, 0.01)]
    if td == "discrete":
        # gamma on a singular value of A: the test moves it off, and the
        # level is keyed by the moved gamma, which a call at that gamma reuses
        sv = float(probs[0].svals[-1])
        moved = cert_dt._nudge_gamma(probs[0], sv)[0]
        calls += [(0, "fixed-v", sv, 0.05), (0, "variable-v", moved, 0.01),
                  (0, "fixed-v", sv, 0.01)]
    seen = []
    for i, variant, gamma, eta in calls:
        warm = certify(probs[i], variant, gamma, eta)
        cold = certify(MatrixProblem(probs[i].A, td), variant, gamma, eta)
        _same_report(warm, cold)
        seen.append(warm)
    if td == "discrete":
        assert [r.gamma_nudged for r in seen[-3:]] == [True, False, True]
        assert seen[-3].gamma == seen[-2].gamma == moved
    # an angle the variants do not use
    prob = probs[0]
    if td == "continuous":
        warm = [cert_ct.fixed_distance_test(prob, 0.6, eta, 0.3) for eta in (0.05, 0.01)]
        for eta, rep in zip((0.05, 0.01), warm):
            _same_report(rep, cert_ct.fixed_distance_test(MatrixProblem(prob.A, td), 0.6, eta,
                                                          0.3))


def _count_builds(monkeypatch, module, name):
    """The list of argument tuples of every call to the level builder ``name``."""
    builds, build = [], getattr(module, name)

    def counting_build(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(module, name, counting_build)
    return builds


def test_variable_pencils_share_one_level(monkeypatch):
    # certify runs variable, then horizontal, at each gamma: one level serves both
    builds = _count_builds(monkeypatch, cert_ct, "_kron_level")
    prob = random_stable(3, 4, "continuous")
    for variant in ("variable-v", "variable-h", "variable-v"):
        warm = certify(prob, variant, 0.6, 0.01)
        _same_report(warm, certify(MatrixProblem(prob.A, "continuous"), variant, 0.6, 0.01))
    assert [args for args in builds if args[0] is prob] == [(prob, 0.6, None)]


@pytest.mark.parametrize("td", ["continuous", "discrete"])
def test_backtracking_builds_each_level_once(td, monkeypatch):
    # owr-bt runs the fixed-distance test at one gamma = g_k while eta
    # shrinks: one level per minimum, however many tests run there
    module, build_name, test_name = (
        (cert_ct, "_kron_level", "fixed_distance_test") if td == "continuous"
        else (cert_dt, "_quad_level", "fixed_distance_test_dt"))
    builds, gammas = _count_builds(monkeypatch, module, build_name), []
    test = getattr(module, test_name)

    def recording_test(*args, **kwargs):
        report = test(*args, **kwargs)
        gammas.append(report.gamma)
        return report

    monkeypatch.setattr(module, test_name, recording_test)
    # started near the shallower block's minimum, the solve restarts once
    prob = two_block(td)
    start = (0.5, -2.0) if td == "continuous" else None
    res = solver.solve_owr_backtracking(prob, start=start, c=0.25)
    assert res.restarts == 1 and res.certificate_calls == len(gammas) == 16
    minima = 1 + sum(1 for a, b in zip(gammas, gammas[1:]) if a != b)
    assert len(builds) == minima == 2
