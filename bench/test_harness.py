"""Tests of the benchmark harness itself.

Run from the repository root with ``python3 -m pytest bench -q``.  The
smoke test shrinks every workload to its smallest instances and runs the
whole harness, every check included; the checker tests feed it outputs
that are wrong on purpose.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from argparse import Namespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

kreiss = run._import_kreiss()

import checks  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

TINY = {
    "SOLVE_CT_NS": (4,),
    "SOLVE_DT_NS": (4,),
    "CERTIFY_SET": (("continuous", 4, ("random", "jordan")), ("discrete", 3, ("jordan",))),
    "DNC_SET": (("discrete", 3, ("rotated-normal", "plateau")),),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name, value in TINY.items():
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(run, "OUT", str(tmp_path))


def _run(capsys, workload, trace):
    run.run_workload(Namespace(workload=workload, seed=3, seconds=0.0, trace=trace))
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_every_workload_and_check(tiny, capsys, workload):
    lines, res = _run(capsys, workload, trace=0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        assert res["metrics"][spec["name"]]["unit"] == spec["unit"]
        assert res["metrics"][spec["name"]]["value"] > 0
    if workload == "solve-dnc":
        # the plateau instance exhausts the divide-and-conquer shift budget
        assert res["failed"] >= 1
        assert any("MaxShiftsError" in line or "shift-invert" in line for line in lines)
    else:
        assert res["failed"] == 0


def test_traced_run_reports_every_layer_metric(tiny, capsys):
    _, res = _run(capsys, "solve-dt", trace=1)
    assert res["correct"] is True
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for spec in SPEC["per_layer"]:
        assert res["metrics"][spec["name"]]["unit"] == spec["unit"]
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["linalg.eig_quadratic.calls"] == m["cert_dt.test.calls"] > 0
    # self times of all layers add up to the traced operations
    layers = sum(m[f"{layer}.self_s"] for layer in ("solver", "localopt", "objective",
                                                     "cert_ct", "cert_dt", "linalg", "dnc"))
    assert layers == pytest.approx(m["trace.self_sum_s"], rel=1e-9)
    assert m["trace.self_sum_s"] <= m["trace.wall_s"]


def _instance(kind, n, td):
    inst = workloads.make_instance(kreiss, 3, kind, n, td)
    workloads.build_problems(kreiss, [inst])
    return inst


def _pass(ops, outcomes):
    return (0.0, [0.0] * len(ops), outcomes, [0.0] * len(ops))


def test_checker_counts_wrong_K_and_fabricated_point():
    inst = _instance("jordan", 3, "continuous")
    solve = workloads.Op("solve", inst, "solve")
    good = workloads.run_op(kreiss, solve)
    wrong = dataclasses.replace(good, kreiss=good.kreiss * (1.0 - 1e-3))

    g = kreiss.localopt.minimize(inst.prob, kreiss.solver.default_start(inst.prob)).value
    gamma, eta = workloads.level_pairs(g)["above"]
    cert = workloads.Op("variable", inst, "variable", gamma=gamma, eta=eta, level="above")
    report = workloads.run_op(kreiss, cert)
    assert report.points
    x, y = report.points[0].coords
    fake = kreiss.objective.g_eval(inst.prob, 2.0 * x, y)
    forged = dataclasses.replace(report, points=[fake])

    ops = [solve, solve, cert, cert]
    records = run.check_ops(kreiss, checks, workloads, ops,
                            [_pass(ops, [good, wrong, report, forged])])
    assert [r["checks_failed"] for r in records[::2]] == [[], []]
    assert "K>=K_oracle" in records[1]["checks_failed"]
    assert records[3]["checks_failed"] == ["point_reverified"]
    assert run.tally(records, passes=1) == (4, 2, False)


def test_checker_flags_empty_verdict_below_the_oracle():
    inst = _instance("jordan", 3, "discrete")
    g_oracle = checks.oracle(kreiss, inst.prob)[0]
    assert checks.check_certificate(inst.prob, 0.5 * g_oracle, 0.1 * g_oracle, [], g_oracle) == []
    assert checks.check_certificate(inst.prob, 1.5 * g_oracle, 0.1 * g_oracle, [],
                                    g_oracle) == ["empty_implies_oracle"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "certify", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
