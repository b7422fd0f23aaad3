"""The level-set pipeline shared by every 2D certificate.

Two properties: the candidate map gives the same guarantees for every
variant, time domain and eigensolver, and the benchmark's tracer
(``bench/tracing.py``, loaded read-only) still reaches every layer of it.
"""

import types
from pathlib import Path

import numpy as np
import pytest

import kreiss
from kreiss import cert_ct, cert_dt, certify
from kreiss.cert_ct import LINE_DEDUP_ATOL
from kreiss.solver import CERTIFICATE_CHOICES

from conftest import random_normal_stable

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
        assert {f"{layer}.test", "dnc.real_eigs"} <= set(names)
        assert f"{layer}.pencil_build" not in names
        assert "linalg.eig_quadratic" not in names
    # a reducible matrix: its pencil is factored part by part, still within
    # one pencil build and, in discrete time, one eig_quadratic call per test
    for td, layer in (("continuous", "cert_ct"), ("discrete", "cert_dt")):
        prob = random_normal_stable(3, 2, td)
        names, report = _span_names(prob, variant, 0.9)
        assert prob.split.sizes == (1, 1, 1) and len(report.qz_orders) > 1
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

