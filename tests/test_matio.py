import json

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from kreiss import MatrixProblem, TimeDomain, gen_test_matrix, load_matrix, save_matrix
from kreiss.errors import (
    MissingBaseMatrixError,
    NotSquareError,
    ParseError,
    UnknownKindError,
    UnstableError,
    ZeroEigenvalueError,
)


def test_scalar_continuous_loads(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 1, "real": [[-1.0]], "imag": [[0.0]],
                                "time_domain": "continuous"}))
    prob = load_matrix(path)
    assert prob.spectral_abscissa == -1.0
    assert prob.n == 1
    assert prob.time_domain is TimeDomain.CONTINUOUS


def test_scalar_unstable_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("2.0\n")
    with pytest.raises(UnstableError):
        load_matrix(path, time_domain="continuous")


def test_discrete_scaled_identity():
    prob = MatrixProblem(0.5 * np.eye(2), "discrete")
    assert prob.spectral_radius == pytest.approx(0.5)


def test_borderline_stability_rejected():
    with pytest.raises(UnstableError):
        MatrixProblem(np.array([[0.0]]), "continuous")
    with pytest.raises(UnstableError):
        MatrixProblem(np.eye(2), "discrete")


def test_discrete_zero_eigenvalue_rejected():
    A = np.array([[0.0, 0.5], [0.0, 0.0]])
    with pytest.raises(ZeroEigenvalueError):
        MatrixProblem(A, "discrete")


def test_not_square():
    with pytest.raises(NotSquareError):
        MatrixProblem(np.ones((2, 3)), "continuous")


@pytest.mark.parametrize("fmt,ext", [("json", "json"), ("csv", "csv"), ("mm", "mtx")])
def test_round_trip(tmp_path, fmt, ext):
    rng = np.random.default_rng(5)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    A -= (np.max(np.linalg.eigvals(A).real) + 0.4) * np.eye(4)
    prob = MatrixProblem(A, "continuous")
    path = tmp_path / f"m.{ext}"
    save_matrix(prob, path, fmt)
    back = load_matrix(path, fmt=fmt, time_domain="continuous")
    if fmt == "json":
        assert np.array_equal(back.A, prob.A)
    else:
        assert np.allclose(back.A, prob.A, rtol=1e-15, atol=0)


def test_json_embeds_time_domain(tmp_path):
    prob = MatrixProblem(0.5 * np.eye(2), "discrete")
    path = tmp_path / "m.json"
    save_matrix(prob, path, "json")
    assert load_matrix(path).time_domain is TimeDomain.DISCRETE


def test_csv_complex_entries(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("-1.0+0.5i,0.25\n0.0,-2.0-1.0i\n")
    prob = load_matrix(path, time_domain="continuous")
    assert prob.A[0, 0] == -1.0 + 0.5j
    assert prob.A[1, 1] == -2.0 - 1.0j


def test_parse_errors(tmp_path):
    with pytest.raises(ParseError):
        load_matrix(tmp_path / "missing.csv", time_domain="continuous")
    ragged = tmp_path / "bad.csv"
    ragged.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ParseError):
        load_matrix(ragged, time_domain="continuous")
    noext = tmp_path / "plain"
    noext.write_text("-1.0")
    with pytest.raises(ParseError):
        load_matrix(noext)


def test_jordan_scalar():
    prob = gen_test_matrix("jordan-shifted", 1, time_domain="continuous", eps=1.0)
    assert np.array_equal(prob.A, np.array([[-1.0]]))


def test_jordan_spectrum():
    prob = gen_test_matrix("jordan-shifted", 2, time_domain="continuous", eps=0.1)
    assert prob.spectral_abscissa == pytest.approx(-0.1)
    dt = gen_test_matrix("jordan-shifted", 3, time_domain="discrete", eps=0.1)
    assert dt.spectral_radius == pytest.approx(0.9)


def test_random_stable_is_stable_and_deterministic():
    a = gen_test_matrix("random-stable-shifted", 5, seed=7, time_domain="continuous")
    b = gen_test_matrix("random-stable-shifted", 5, seed=7, time_domain="continuous")
    assert a.spectral_abscissa < 0
    assert np.array_equal(a.A, b.A)
    d = gen_test_matrix("random-stable-shifted", 5, seed=7, time_domain="discrete")
    assert d.spectral_radius < 1


def test_unknown_kind():
    with pytest.raises(UnknownKindError):
        gen_test_matrix("mystery", 3)


def test_base_matrix_kinds():
    with pytest.raises(MissingBaseMatrixError):
        gen_test_matrix("companion-shifted", 10)
    rng = np.random.default_rng(0)
    B = rng.standard_normal((6, 6))
    comp = gen_test_matrix("companion-shifted", 6, base_matrix=B)
    alpha_b = np.max(np.linalg.eigvals(B).real)
    assert np.allclose(comp.A, B - 1.001 * alpha_b * np.eye(6))
    assert comp.spectral_abscissa < 0
    # convdiff construction: B/13 + 1.1 I must land inside the unit disk
    Bd = np.diag(np.full(5, -6.5)) + np.diag(np.ones(4), 1)
    conv = gen_test_matrix("convdiff-shifted", 5, base_matrix=Bd)
    assert np.allclose(conv.A, Bd / 13.0 + 1.1 * np.eye(5))
    assert conv.spectral_radius < 1


def test_generated_problems_pass_their_own_validation():
    # construction implies validation already ran; re-validate explicitly
    for kind, td in [("jordan-shifted", "continuous"), ("jordan-shifted", "discrete"),
                     ("random-stable-shifted", "continuous"),
                     ("random-stable-shifted", "discrete")]:
        prob = gen_test_matrix(kind, 4, seed=3, time_domain=td, eps=0.2)
        MatrixProblem(prob.A, td)


def _same_invariants(prob):
    T = prob.split.T
    assert np.allclose(np.linalg.svd(T, compute_uv=False),
                       np.linalg.svd(prob.A, compute_uv=False), rtol=0, atol=1e-13)
    assert np.allclose(np.sort_complex(np.linalg.eigvals(T)),
                       np.sort_complex(prob.eigenvalues), rtol=0, atol=1e-12)


def test_split_of_normal_matrices():
    rng = np.random.default_rng(12)
    # complex normal: the Schur form is diagonal to rounding, so 1 x 1 blocks
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    prob = MatrixProblem(Q @ np.diag([-0.3, -0.5 + 1j, -0.7, -1.0 - 2j]) @ Q.conj().T,
                         "continuous")
    split = prob.split
    assert split.sizes == (1, 1, 1, 1)
    assert 0.0 < split.dropped <= split.threshold
    assert not (split.T - np.diag(np.diag(split.T))).any()
    _same_invariants(prob)
    assert prob.split is split  # computed once
    # real normal with a complex pair: the real Schur form keeps it as one
    # real 2 x 2 block, so real pencils stay real
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    A = Q @ np.array([[0.2, 0.0, 0.0], [0.0, 0.5, 0.4], [0.0, -0.4, 0.5]]) @ Q.T
    prob = MatrixProblem(A, "discrete")
    assert sorted(prob.split.sizes) == [1, 2] and not prob.split.T.imag.any()
    _same_invariants(prob)


def test_irreducible_matrices_keep_a():
    for prob in (gen_test_matrix("jordan-shifted", 4, time_domain="discrete"),
                 gen_test_matrix("random-stable-shifted", 4, seed=3),
                 MatrixProblem(np.array([[-1.0]]), "continuous")):
        split = prob.split
        assert split.T is prob.A and split.sizes == (prob.n,)
        assert split.dropped == 0.0


def test_singular_values_are_computed_once():
    prob = gen_test_matrix("random-stable-shifted", 4, seed=3)
    svals = prob.svals
    assert np.array_equal(svals, np.linalg.svd(prob.A, compute_uv=False))
    assert prob.svals is svals and not svals.flags.writeable
    assert prob.norm2 == np.linalg.norm(prob.A, 2) == svals[0]


def _barrier_minimum(prob):
    """An attained value of sigma_min(z I - A) on the barrier curve, near its
    minimum: the best point of a grid in y (or theta), polished by a bounded
    scalar search.  It bounds the stability radius from above."""
    eye = np.eye(prob.n)
    if prob.is_continuous:
        reach = 2.0 * prob.norm2 + 1.0
        grid = np.concatenate([np.linspace(-reach, reach, 801), prob.eigenvalues.imag])
        point, step = (lambda t: 1j * t), 2.0 * reach / 800
    else:
        grid = np.concatenate([np.linspace(0.0, 2.0 * np.pi, 800, endpoint=False),
                               np.angle(prob.eigenvalues)])
        point, step = (lambda t: np.exp(1j * t)), 2.0 * np.pi / 800

    def sigma_min(t):
        return np.linalg.svd(point(t) * eye - prob.A, compute_uv=False)[-1]

    values = [sigma_min(t) for t in grid]
    t0 = grid[int(np.argmin(values))]
    polished = scipy.optimize.minimize_scalar(sigma_min, bounds=(t0 - step, t0 + step),
                                              method="bounded", options={"xatol": 1e-12})
    return min(min(values), float(polished.fun))


def _gap_problems():
    from conftest import (jordan_block, random_normal_stable, random_stable,
                          real_random_stable, two_block)
    from test_acceptance import CORPUS
    from test_stress import random_matrix

    probs = [MatrixProblem(random_matrix(n, td, seed), td)
             for td, n, seed in (("continuous", 8, 2), ("discrete", 3, 321452671),
                                 ("discrete", 5, 109), ("discrete", 4, 1025))]
    probs += [random_stable(n, seed, td) for n, seed, td in CORPUS]
    # the fixtures: scalar, 2 x 2 Jordan, and a 6 x 6 Jordan block whose
    # Lyapunov solution has norm 2.5e13
    for td, scalar, eps, lam in (("continuous", -1.0, 0.3, -0.05), ("discrete", 0.5, 0.1, 0.95)):
        probs += [MatrixProblem(np.array([[scalar]]), td),
                  gen_test_matrix("jordan-shifted", 2, time_domain=td, eps=eps),
                  MatrixProblem(jordan_block(6, lam, 1.0), td),
                  random_normal_stable(3, 4, td), two_block(td), two_block(td, 0.3)]
    probs += [real_random_stable(4, seed) for seed in range(3)]
    return probs


def test_stability_gap_bounds_the_barrier_minimum():
    # the gap is a lower bound on sigma_min(z I - A) over the barrier curve,
    # so it stays below every value attained there
    probs = _gap_problems()
    assert {p.time_domain for p in probs} == set(TimeDomain)
    for prob in probs:
        gap = prob.stability_gap
        assert 0.0 < gap <= _barrier_minimum(prob), (prob.time_domain, prob.A)


def test_stability_gap_is_computed_on_first_use(monkeypatch):
    calls = []
    for name in ("solve_continuous_lyapunov", "solve_discrete_lyapunov"):
        solve = getattr(scipy.linalg, name)
        monkeypatch.setattr(scipy.linalg, name,
                            lambda *a, _f=solve, _n=name: calls.append(_n) or _f(*a))
    for td, name in (("continuous", "solve_continuous_lyapunov"),
                     ("discrete", "solve_discrete_lyapunov")):
        calls.clear()
        prob = gen_test_matrix("jordan-shifted", 3, time_domain=td)
        assert calls == []
        gap = prob.stability_gap
        assert prob.stability_gap == gap and calls == [name]


def _numerical_range_estimate(prob, samples=720):
    """omega(A) in continuous time; in discrete time a value the numerical
    radius w(A) attains, max over a theta grid of lambda_max(Re(e^{i theta} A))."""
    def top(X):
        return np.linalg.eigvalsh(0.5 * (X + X.conj().T))[-1]

    if prob.is_continuous:
        return top(prob.A)
    return max(top(np.exp(1j * t) * prob.A)
               for t in np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False))


def test_numerical_range_bound_bounds_the_numerical_range():
    # omega(A) (or w(A)) <= the bound <= ||A|| plus the rounding margin, and
    # Kittaneh's bound is tight for a normal A (w(A) = ||A||)
    probs = _gap_problems()
    assert {p.time_domain for p in probs} == set(TimeDomain)
    for prob in probs:
        bound = prob.numerical_range_bound
        margin = 1e-12 * max(1.0, prob.norm2)
        assert _numerical_range_estimate(prob) <= bound <= prob.norm2 + margin, prob.A
    from conftest import random_normal_stable

    normal = random_normal_stable(3, 4, "discrete")
    assert normal.numerical_range_bound == pytest.approx(normal.spectral_radius, rel=1e-12)


def test_numerical_range_bound_is_computed_on_first_use(monkeypatch):
    calls = []
    for name in ("eigvalsh", "norm"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _f=fn, _n=name, **k: calls.append(_n) or _f(*a, **k))
    for td, name in (("continuous", "eigvalsh"), ("discrete", "norm")):
        calls.clear()
        prob = gen_test_matrix("jordan-shifted", 3, time_domain=td)
        assert calls == [] and getattr(prob, "_numerical_range_bound", None) is None
        bound = prob.numerical_range_bound
        assert prob.numerical_range_bound == bound and calls == [name]
