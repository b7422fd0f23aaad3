"""The level-set pipeline shared by every 2D certificate.

Three properties: the candidate map gives the same guarantees for every
variant, time domain and eigensolver, the candidates it drops below the
problem's stability gap or above its numerical range's upper end carry no
point, and the benchmark's tracer (``bench/tracing.py``, loaded
read-only) still reaches every layer of it.
"""

import types
from pathlib import Path

import numpy as np
import pytest

import kreiss
from kreiss import MatrixProblem, cert_ct, cert_dt, certify, gen_test_matrix
from kreiss.cert_ct import LINE_DEDUP_ATOL
from kreiss.solver import CERTIFICATE_CHOICES

from conftest import random_normal_stable, random_stable, three_levels, two_block

JORDAN_MIN = 1.0 / 1.1333333333333333  # global min of g for the ct Jordan fixture

TRACING_PY = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    # exec the source instead of importing it: no bytecode is written under bench/
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING_PY)
    exec(compile(TRACING_PY.read_text(), str(TRACING_PY), "exec"), module.__dict__)
    return module


tracing = _load_tracing()


# --------------------------------------------------------------------------
# the candidate map
# --------------------------------------------------------------------------

def _pair_maps(variant, discrete, gamma, eta):
    """(partner, inverse) of the second point of a pair, or None without one."""
    if discrete:
        # ray pairs (r, beta*r + delta): (r, r + eta) or the variable rule
        if variant.startswith("fixed"):
            delta, beta = eta, 1.0
        else:
            delta = -eta / (1.0 + gamma)
            beta = 1.0 - delta
        return (lambda r: beta * r + delta), (lambda r: (r - delta) / beta)
    if variant == "fixed-h":
        return (lambda x: x + eta), (lambda x: x - eta)
    if variant == "variable-h":
        beta = 1.0 + eta / (1.0 + gamma)
        return (lambda x: beta * x), (lambda x: x / beta)
    return None


def _check_candidates(report, barrier, maps):
    lines = np.asarray(report.candidate_lines, dtype=float)
    assert lines.size > 0
    assert np.all(np.diff(lines) > LINE_DEDUP_ATOL)
    assert np.all(lines > barrier + LINE_DEDUP_ATOL)
    if maps is None:
        return
    partner, inverse = maps

    def present(v):
        # rounding of the pair map itself, far below the merge tolerance
        return np.min(np.abs(lines - v)) <= LINE_DEDUP_ATOL + 1e-14 * max(1.0, abs(v))

    # each line either has its partner or is the partner of another line
    for x in lines:
        assert present(partner(x)) or present(inverse(x)), x


CT_CASES = [(JORDAN_MIN + 0.02, 0.01), (JORDAN_MIN + 0.02, 1e-6)]
# dense QZ splits the variable-distance roots of these into runs closer than
# LINE_DEDUP_ATOL, and so does the sweep at (0.45, 0.01)
DT_CASES = [(0.45, 0.2), (0.5, 0.01), (0.8, 0.01), (0.45, 0.01)]


@pytest.mark.parametrize("use_dnc", [False, True])
@pytest.mark.parametrize("variant", CERTIFICATE_CHOICES)
def test_candidate_map_invariants(variant, use_dnc, jordan_ct, jordan_dt):
    for prob, cases, barrier in ((jordan_ct, CT_CASES, 0.0), (jordan_dt, DT_CASES, 1.0)):
        discrete = prob is jordan_dt
        for gamma, eta in cases:
            report = certify(prob, variant, gamma, eta, use_dnc=use_dnc)
            _check_candidates(report, barrier,
                              _pair_maps(variant, discrete, report.gamma, eta))


def _without_gap(monkeypatch):
    monkeypatch.setattr(MatrixProblem, "stability_gap", property(lambda self: 0.0))


def _without_upper_end(monkeypatch):
    monkeypatch.setattr(MatrixProblem, "numerical_range_bound",
                        property(lambda self: 1e3 * max(1.0, self.norm2)))


def test_lines_below_the_stability_gap_are_dropped(monkeypatch):
    # the ct Jordan block of order 3 at a level its owr-bt solve tests: the
    # dense pencil's roots scattered near the barrier lie below the gap, the
    # line near 0.197 inside the interval, and the line near 1.894 above its
    # upper end, 1.1 omega(A)/(1 - gamma) = 0.869 with omega(A) = 0.407
    A = np.diag(np.full(3, -0.3, dtype=complex)) + np.diag(np.ones(2), 1)
    prob = MatrixProblem(A, "continuous")
    report = certify(prob, "fixed-v", 0.484819, 7.5e-8)
    lines = np.asarray(report.candidate_lines)
    assert report.search_lo == prob.stability_gap / (1.0 + 0.484819) > 3e-5
    assert report.search_hi == pytest.approx(0.8692, abs=1e-4)
    assert np.all((lines >= report.search_lo) & (lines <= report.search_hi))
    assert np.min(np.abs(lines - 0.19724)) <= 1e-4
    assert np.min(np.abs(lines - 1.89464)) > 0.5
    with monkeypatch.context() as m:
        _without_upper_end(m)
        wide = certify(prob, "fixed-v", 0.484819, 7.5e-8)
    assert np.min(np.abs(np.asarray(wide.candidate_lines) - 1.89464)) <= 1e-4
    assert report.candidate_lines == [x for x in wide.candidate_lines if x <= report.search_hi]
    assert [p.coords for p in report.points] == [p.coords for p in wide.points]
    _without_gap(monkeypatch)
    plain = certify(prob, "fixed-v", 0.484819, 7.5e-8)
    assert plain.search_lo == 0.0 and min(plain.candidate_lines) < 3e-5
    assert report.candidate_lines == [x for x in plain.candidate_lines if x >= report.search_lo]


@pytest.mark.parametrize("time_domain", ["continuous", "discrete"])
def test_the_stability_gap_drops_no_point(time_domain, monkeypatch):
    # the benchmark's kinds (seeded random, Jordan block, normal, two
    # clusters) at three levels: the dense reports with the gap and without
    # it have the same points, verdict and rejected points
    barrier = 0.0 if time_domain == "continuous" else 1.0
    probs = [random_stable(4, 3, time_domain),
             gen_test_matrix("jordan-shifted", 4, time_domain=time_domain),
             random_normal_stable(3, 4, time_domain), two_block(time_domain)]
    variants = CERTIFICATE_CHOICES if time_domain == "continuous" else ("fixed-v", "variable-v")
    runs = [(prob, variant, gamma, eta) for prob in probs for gamma, eta in three_levels(prob)
            for variant in variants]
    reports = [certify(*run) for run in runs]
    with monkeypatch.context() as m:
        _without_gap(m)
        plain = [certify(*run) for run in runs]
    dropped = 0
    for run, a, b in zip(runs, reports, plain):
        assert a.search_lo > barrier and b.search_lo == barrier
        assert (a.empty, a.rejected_points) == (b.empty, b.rejected_points), run
        assert [p.coords for p in a.points] == [p.coords for p in b.points], run
        assert a.candidate_lines == [x for x in b.candidate_lines if x >= a.search_lo]
        dropped += len(b.candidate_lines) - len(a.candidate_lines)
    assert dropped > 0


@pytest.mark.parametrize("time_domain", ["continuous", "discrete"])
def test_the_upper_end_drops_no_point(time_domain, monkeypatch):
    # the same kinds and levels, with and without the numerical range's upper
    # end: the same points and verdict, and only fewer lines and rejected points
    probs = [random_stable(4, 3, time_domain),
             gen_test_matrix("jordan-shifted", 4, time_domain=time_domain),
             random_normal_stable(3, 4, time_domain), two_block(time_domain)]
    variants = ("fixed-v", "variable-h") if time_domain == "continuous" else ("variable-v",)
    runs = [(prob, variant, gamma, eta) for prob in probs for gamma, eta in three_levels(prob)
            for variant in variants]
    reports = [certify(*run) for run in runs]
    with monkeypatch.context() as m:
        _without_upper_end(m)
        wide = [certify(*run) for run in runs]
    dropped = 0
    for run, a, b in zip(runs, reports, wide):
        assert a.search_lo < a.search_hi < b.search_hi or a.search_hi <= a.search_lo
        assert a.empty == b.empty and a.rejected_points <= b.rejected_points, run
        assert [p.coords for p in a.points] == [p.coords for p in b.points], run
        assert a.candidate_lines == [x for x in b.candidate_lines if x <= a.search_hi]
        dropped += len(b.candidate_lines) - len(a.candidate_lines)
    assert dropped > 0


# --------------------------------------------------------------------------
# the benchmark's tracer
# --------------------------------------------------------------------------

def test_tracer_targets_resolve():
    for mod_name, attr, _ in tracing.WRAPPED:
        assert callable(getattr(getattr(kreiss, mod_name), attr)), (mod_name, attr)


def _span_names(prob, variant, gamma, use_dnc=False):
    with tracing.Tracer(kreiss) as tracer:
        report = certify(prob, variant, gamma, 0.01, use_dnc=use_dnc)
    return [span[0] for span in tracer.spans], report


@pytest.mark.parametrize("variant", CERTIFICATE_CHOICES)
def test_tracer_sees_every_certificate_layer(variant, jordan_ct, jordan_dt):
    for prob, gamma, layer in ((jordan_ct, JORDAN_MIN + 0.02, "cert_ct"),
                               (jordan_dt, 0.45, "cert_dt")):
        names, _ = _span_names(prob, variant, gamma)
        assert {f"{layer}.test", f"{layer}.pencil_build", f"{layer}.level_1d"} <= set(names)
        quadratic_solves = 1 if layer == "cert_dt" else 0
        assert names.count("linalg.eig_quadratic") == names.count("cert_dt.test") == quadratic_solves
        names, _ = _span_names(prob, variant, gamma, use_dnc=True)
        assert {f"{layer}.test", "dnc.real_eigs", "linalg.eigs_shift_invert"} <= set(names)
        assert f"{layer}.pencil_build" not in names
        assert "linalg.eig_quadratic" not in names
    # a reducible matrix: its pencil is factored part by part, still within
    # one pencil build and, in discrete time, one eig_quadratic call per test
    for td, layer in (("continuous", "cert_ct"), ("discrete", "cert_dt")):
        prob = random_normal_stable(3, 2, td)
        names, report = _span_names(prob, variant, 0.9)
        assert prob.split.sizes == (1, 1, 1) and len(report.eig_orders) > 1
        assert names.count(f"{layer}.test") == names.count(f"{layer}.pencil_build") == 1
        assert names.count("linalg.eig_quadratic") == (1 if layer == "cert_dt" else 0)


@pytest.mark.parametrize("variant", CERTIFICATE_CHOICES)
def test_tracer_counts_with_a_warm_level(variant, jordan_ct, jordan_dt, monkeypatch):
    # the second test at a level reuses the cached level, and the tracer still
    # sees its pencil build and, in discrete time, its one eig_quadratic call
    builds = []
    for module, name in ((cert_ct, "_kron_level"), (cert_dt, "_quad_level")):
        def counting_build(*args, build=getattr(module, name)):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(module, name, counting_build)
    for prob, gamma, layer in ((jordan_ct, JORDAN_MIN + 0.02, "cert_ct"),
                               (jordan_dt, 0.45, "cert_dt")):
        certify(prob, variant, gamma, 0.05)
        builds.clear()
        names, _ = _span_names(prob, variant, gamma)
        assert not builds
        assert names.count(f"{layer}.test") == names.count(f"{layer}.pencil_build") == 1
        assert names.count("linalg.eig_quadratic") == (1 if layer == "cert_dt" else 0)
        assert f"{layer}.level_1d" in names

