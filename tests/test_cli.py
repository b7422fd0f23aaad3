import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from kreiss import MatrixProblem, certify, gen_test_matrix, save_matrix
from kreiss.cli import main
from kreiss.solver import CERTIFICATE_CHOICES


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "kreiss", *args],
                          capture_output=True, text=True)
    return proc


@pytest.fixture(scope="module")
def jordan_file(tmp_path_factory):
    prob = gen_test_matrix("jordan-shifted", 2, time_domain="continuous", eps=0.3)
    path = tmp_path_factory.mktemp("mats") / "jordan.json"
    save_matrix(prob, path, "json")
    return str(path)


def test_kreiss_scalar(tmp_path):
    prob = MatrixProblem(np.array([[-1.0]]), "continuous")
    path = tmp_path / "s.json"
    save_matrix(prob, path, "json")
    trace_path = tmp_path / "trace.json"
    proc = run_cli("kreiss", "--input", str(path), "--method", "owr",
                   "--emit-trace", str(trace_path))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["schema_version"] == 8
    assert doc["kreiss"] == pytest.approx(1.0, abs=1e-6)
    assert doc["status"] in ("converged", "tolerance-reached")
    # omega(A) = -1 <= 0 decides K = 1 without a certificate
    assert doc["decided_by"] == "numerical-range" and doc["certificate_calls"] == 0
    assert doc["message"].startswith("numerical range proves K = 1")
    trace = json.loads(trace_path.read_text())
    assert trace["decided_by"] == "numerical-range" and trace["trace"] == []


def test_kreiss_methods_and_grid(jordan_file, tmp_path):
    trace_path = tmp_path / "trace.json"
    owr = json.loads(run_cli("kreiss", "--input", jordan_file, "--method", "owr",
                             "--emit-trace", str(trace_path)).stdout)
    grid = json.loads(run_cli("kreiss", "--input", jordan_file,
                              "--method", "grid").stdout)
    assert owr["kreiss"] == pytest.approx(1.1333333333, rel=1e-8)
    assert grid["kreiss"] == pytest.approx(owr["kreiss"], rel=1e-3)
    for key in ("kreiss", "gamma_inv", "minimizer", "restarts",
                "certificate_calls", "status", "wall_time_s", "method", "decided_by"):
        assert key in owr
    assert (owr["decided_by"], grid["decided_by"]) == ("certificate", "grid")
    # owr records its bracket too: [0, first minimum], then lb at the proof it prints
    bounds = json.loads(trace_path.read_text())["bounds"]
    assert len(bounds) == owr["certificate_calls"] + 1 and bounds[0][0] == 0.0
    assert owr["message"] == f"certified 1/K > {bounds[-1][0]:.17g}"
    assert bounds[-1][1] == pytest.approx(owr["gamma_inv"], rel=1e-15)


def test_kreiss_deterministic(jordan_file):
    a = run_cli("kreiss", "--input", jordan_file, "--method", "owr", "--seed", "3")
    b = run_cli("kreiss", "--input", jordan_file, "--method", "owr", "--seed", "3")
    da, db = json.loads(a.stdout), json.loads(b.stdout)
    da.pop("wall_time_s"), db.pop("wall_time_s")
    assert da == db


def test_start_flag_and_trace(jordan_file, tmp_path):
    trace_path = tmp_path / "trace.json"
    proc = run_cli("kreiss", "--input", jordan_file, "--method", "trisection",
                   "--tol", "1e-6", "--start", "1.0,0.0",
                   "--emit-trace", str(trace_path))
    assert proc.returncode == 0
    trace = json.loads(trace_path.read_text())
    assert trace["trace"] and trace["bounds"] and trace["schema_version"] == 8
    assert trace["decided_by"] == "certificate"
    # each certificate records the ends of the interval it searched
    prob = gen_test_matrix("jordan-shifted", 2, time_domain="continuous", eps=0.3)
    certs = [t for t in trace["trace"] if t["verdict"] != "minimized"]
    assert certs and all(t["search_lo"] == prob.stability_gap / (1.0 + t["gamma"])
                         for t in certs)
    assert all(t["search_hi"] == 1.1 * prob.numerical_range_bound / (1.0 - t["gamma"])
               for t in certs)
    # and its dense route: QR on the first, coarse levels, QZ once eta is small
    assert {t["eig_route"] for t in certs} == {"qr", "qz"}
    assert all((t["mass_cond"] is None) == (t["eig_route"] == "qz") for t in certs)
    widths = [ub - lb for lb, ub in trace["bounds"]]
    assert widths[0] > 0 and widths[-1] <= widths[0]


def test_emit_field(jordan_file, tmp_path):
    field_path = tmp_path / "field.csv"
    proc = run_cli("kreiss", "--input", jordan_file, "--emit-field", str(field_path))
    assert proc.returncode == 0
    with open(field_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "g"]
    assert len(rows) > 100


def test_certify_cmd(jordan_file):
    proc = run_cli("certify", "--input", jordan_file,
                   "--gamma", "0.9", "--eta", "0.01")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["points"] and not doc["empty"]
    below = json.loads(run_cli("certify", "--input", jordan_file,
                               "--gamma", "0.5", "--eta", "0.01").stdout)
    assert below["empty"]


@pytest.mark.parametrize("variant", CERTIFICATE_CHOICES)
@pytest.mark.parametrize("time_domain, eps, gamma", [("continuous", 0.3, 0.9),
                                                     ("discrete", 0.1, 0.45)])
def test_certify_variants_match_library(variant, time_domain, eps, gamma, tmp_path, capsys):
    prob = gen_test_matrix("jordan-shifted", 2, time_domain=time_domain, eps=eps)
    path = tmp_path / "jordan.json"
    save_matrix(prob, path, "json")
    assert main(["certify", "--input", str(path), "--gamma", str(gamma),
                 "--eta", "0.01", "--variant", variant]) == 0
    doc = json.loads(capsys.readouterr().out)
    report = certify(prob, variant, gamma, 0.01)
    assert doc["points"] and not doc["empty"]
    assert doc["candidate_lines"] == [float(x) for x in report.candidate_lines]
    assert doc["points"] == [{"coords": [float(c) for c in p.coords], "value": float(p.value)}
                             for p in report.points]
    assert doc["empty"] == report.empty
    assert doc["rejected_points"] == report.rejected_points
    assert doc["schema_version"] == 8
    assert doc["eig_orders"] == report.eig_orders
    assert sum(doc["eig_orders"]) == doc["large_eig_count"] == report.large_eig_count
    assert doc["eig_route"] == report.eig_route == "qz" and doc["mass_cond"] is None
    assert doc["gamma_nudged"] is report.gamma_nudged is False
    assert doc["search_lo"] == report.search_lo > (0.0 if time_domain == "continuous" else 1.0)
    assert doc["search_hi"] == report.search_hi > doc["search_lo"]


def test_certify_cmd_reports_the_split_and_the_nudge(tmp_path, capsys):
    # a diagonal A of order 4 splits into 1 x 1 blocks: 16 parts of 4 rows,
    # one per pair of blocks, which linalg groups by fours (MIN_GROUP_ORDER
    # = 16 rows, QZ order 24 each); gamma at a singular value of A is nudged
    prob = MatrixProblem(np.diag([0.5, -0.6, 0.7j, 0.3]), "discrete")
    path = tmp_path / "diag.json"
    save_matrix(prob, path, "json")
    assert main(["certify", "--input", str(path), "--gamma", "0.5", "--eta", "0.01"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["gamma_nudged"] is True and doc["gamma"] != 0.5
    assert doc["eig_orders"] == [24, 24, 24, 24]
    assert doc["large_eig_count"] == 6 * 4 * 4


def test_certify_cmd_reports_the_route(jordan_file):
    # variable-v at gamma = 0.6: QR on m2^-1 m1 at eta = 0.3, QZ at eta = 1e-4
    prob = gen_test_matrix("jordan-shifted", 2, time_domain="continuous", eps=0.3)
    for eta, route in ((0.3, "qr"), (1e-4, "qz")):
        doc = json.loads(run_cli("certify", "--input", jordan_file,
                                 "--gamma", "0.6", "--eta", str(eta)).stdout)
        report = certify(prob, "variable-v", 0.6, eta)
        assert doc["eig_route"] == report.eig_route == route
        assert doc["mass_cond"] == report.mass_cond
        assert (report.mass_cond is None) == (route == "qz")
        assert doc["eig_orders"] == report.eig_orders == [16]


def test_certify_gamma_validation(jordan_file):
    proc = run_cli("certify", "--input", jordan_file, "--gamma", "1.5",
                   "--eta", "0.01")
    assert proc.returncode == 1
    proc = run_cli("certify", "--input", jordan_file, "--gamma", "0.9",
                   "--eta", "0", "--variant", "fixed-v")
    assert proc.returncode == 1
    assert "eta must be positive" in proc.stderr


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tolerances_exit_1(jordan_file, value, capsys):
    assert main(["certify", "--input", jordan_file, "--gamma", "0.5", "--eta", value]) == 1
    assert "eta must be positive and finite" in capsys.readouterr().err
    for method in ("owr", "trisection"):
        assert main(["kreiss", "--input", jordan_file, "--method", method,
                     "--tol", value]) == 1
        assert "gamma_tol must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1", "2"])
def test_gamma_tol_of_1_or_more_exits_1(jordan_file, value, capsys):
    for method in ("owr", "trisection"):
        assert main(["kreiss", "--input", jordan_file, "--method", method,
                     "--tol", value]) == 1
        assert "gamma_tol must be positive and finite, and below 1" in capsys.readouterr().err


@pytest.mark.parametrize("start", ["inf,0", "nan,0", "1,-inf"])
def test_a_non_finite_start_exits_1(jordan_file, start, capsys):
    # --start inf,0 used to exit 0 with K = 1.000000002, "converged"
    for method in ("owr-bt", "owr", "trisection"):
        assert main(["kreiss", "--input", jordan_file, "--method", method,
                     "--start", start]) == 1
        out = capsys.readouterr()
        assert out.out == "" and "start coordinates must be finite" in out.err


@pytest.mark.parametrize("flags", [("--eps-min", "nan"), ("--eps-max", "inf"),
                                   ("--eps-min=-inf",), ("--eps-max", "nan")])
def test_curve_rejects_non_finite_eps(jordan_file, flags, capsys):
    # a NaN or infinite end used to end in a traceback
    assert main(["curve", "--input", jordan_file, *flags]) == 1
    assert "need 0 < eps-min < eps-max < inf" in capsys.readouterr().err


def test_curve_cmd(jordan_file, tmp_path):
    out = tmp_path / "curve.csv"
    proc = run_cli("curve", "--input", jordan_file, "--eps-min", "0.01",
                   "--eps-max", "100", "--points", "7", "--output", str(out))
    assert proc.returncode == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["eps", "ratio"]
    assert len(rows) == 8


def test_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 1, "real": [[2.0]], "imag": [[0.0]],
                               "time_domain": "continuous"}))
    assert run_cli("kreiss", "--input", str(bad)).returncode == 2
    assert run_cli("kreiss", "--bogus-flag").returncode == 1
    garbled = tmp_path / "garbled.csv"
    garbled.write_text("not,a\nnumber\n")
    assert run_cli("kreiss", "--input", str(garbled),
                   "--time", "continuous").returncode == 1


def test_main_callable_directly(jordan_file, capsys):
    code = main(["kreiss", "--input", jordan_file, "--method", "owr"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kreiss"] == pytest.approx(1.1333333333, rel=1e-8)


def test_threads_flag_and_log_env(jordan_file):
    import os
    import subprocess

    env = dict(os.environ, KREISS_LOG="info")
    proc = subprocess.run(
        [sys.executable, "-m", "kreiss", "kreiss", "--input", jordan_file,
         "--method", "owr"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["kreiss"] == pytest.approx(1.1333333333, rel=1e-8)
    assert "kreiss INFO" in proc.stderr
