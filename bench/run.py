#!/usr/bin/env python3
"""Benchmark of the kreiss package: certified solves and certificate calls.

Run from the repository root::

    python3 bench/run.py --workload solve-ct --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

One process, one caller, closed loop: each operation is issued after the
previous one returns.  A pass issues every operation of the workload once;
passes repeat while another one fits in ``--seconds`` (at least one runs),
and timings are medians over passes.  With ``--trace 1`` untraced and
traced passes alternate; the per-layer metrics come from the traced ones
and the tracing overhead is their difference.  Set-up (``import kreiss``
plus building the ``MatrixProblem``s) is timed in fresh child processes,
several times, and reported as the median.

On a shared 2-core VM the same dense QZ was measured running up to 1.7x
slower from one second to the next, and up to 40% slower for minutes,
which no setting inside a container removes; the slowdowns of two
neighbouring calls correlate strongly.  The timed loop therefore also times
a fixed calibration kernel (numpy/scipy only, mirroring the workload's own
work: dense QZ and small SVDs, or small Sylvester solves and ARPACK) before
and after every operation, and reports each operation in seconds at the
kernel's reference speed: measured seconds times the kernel's reference
time over the mean of the four kernel times nearest to it, two before and
two after.  The raw seconds and the calibration samples are kept in the
run record.

Every output is checked after the timed passes, untimed (``checks.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a full record
(environment, coverage, input properties, per-operation outcomes) and, with
tracing, the spans are written under ``bench/out/``.
"""

import os

# Pin BLAS threads before numpy loads.  One thread measured steadier than
# two on a 2-core machine for the certificate eigensolves at these sizes.
BLAS_THREADS = min(1, os.cpu_count() or 1)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("solve-ct", "solve-dt", "certify", "solve-dnc")
SETUP_REPEATS = 7
MATIO_REPEATS = 5
CHILD_TIMEOUT_S = 120
# layers whose share of the traced time the table prints
SHARE_OF = ("cert_ct.large_eig_s", "cert_dt.large_eig_s", "linalg.eig_quadratic.s",
            "dnc.real_eigs_s", "localopt.minimize.s", "cert_ct.level_1d_s", "cert_dt.level_1d_s")
# median kernel seconds on a 2-core x86-64 VM with OpenBLAS on 1 thread
CAL_REFERENCE_S = {"dense": 0.01, "dnc": 0.035}
CAL_KERNEL = {"solve-ct": "dense", "solve-dt": "dense", "certify": "dense",
              "solve-dnc": "dnc"}


def _import_kreiss():
    if not os.path.isfile(os.path.join(SRC, "kreiss", "__init__.py")):
        sys.exit(f"bench: no kreiss package under {SRC}; run from a repository checkout")
    sys.path.insert(0, SRC)
    import kreiss

    if os.path.dirname(os.path.dirname(os.path.abspath(kreiss.__file__))) != SRC:
        sys.exit(f"bench: imported kreiss from {kreiss.__file__}, not from {SRC}")
    return kreiss


def _setup_child(npz_path):
    """Child process: time a fresh ``import kreiss`` plus building the problems."""
    t0 = time.perf_counter()
    kreiss = _import_kreiss()
    import_s = time.perf_counter() - t0
    import numpy as np

    with np.load(npz_path) as data:
        mats = [(data[f"A{i}"], str(data[f"td{i}"])) for i in range(int(data["count"]))]
    t0 = time.perf_counter()
    for A, td in mats:
        kreiss.MatrixProblem(A, td)
    build_s = time.perf_counter() - t0
    print(json.dumps({"import_s": import_s, "build_s": build_s}))


def _measure_setup(insts, tag):
    """Median set-up seconds over SETUP_REPEATS fresh child processes."""
    import numpy as np

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"setup-{tag}-{os.getpid()}.npz")
    arrays = {"count": len(insts)}
    for i, inst in enumerate(insts):
        arrays[f"A{i}"] = inst.A
        arrays[f"td{i}"] = inst.time_domain
    np.savez(path, **arrays)
    totals = []
    try:
        for _ in range(SETUP_REPEATS):
            proc = subprocess.run([sys.executable, __file__, "--setup-child", path],
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                sys.exit(f"bench: set-up child failed:\n{proc.stderr}")
            rec = json.loads(proc.stdout.strip().splitlines()[-1])
            totals.append(rec["import_s"] + rec["build_s"])
    finally:
        os.remove(path)
    return statistics.median(totals), totals


class Calibration:
    """A fixed numpy/scipy kernel timed between operations to track machine speed.

    Each workload gets the kernel that mirrors its own work, because the
    two kinds slow down differently under load: ``dense`` is a QZ plus
    small SVDs, ``dnc`` small Sylvester solves plus an ARPACK run on an
    implicit operator.
    """

    def __init__(self, kind):
        import numpy as np
        import scipy.linalg
        import scipy.sparse.linalg

        rng = np.random.default_rng(0)

        def cplx(m):
            return rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))

        if kind == "dense":
            pencil = (cplx(64), cplx(64))
            small = [cplx(4) for _ in range(40)]

            def kernel():
                scipy.linalg.eigvals(*pencil)
                for M in small:
                    np.linalg.svd(M)
        else:
            sylvester = [(cplx(6), cplx(6), cplx(6)) for _ in range(40)]
            dense = cplx(100)
            start = np.ones(100, dtype=complex)

            def kernel():
                for P, Q, C in sylvester:
                    scipy.linalg.solve_sylvester(P, Q, C)
                op = scipy.sparse.linalg.LinearOperator((100, 100), matvec=lambda v: dense @ v,
                                                        dtype=complex)
                scipy.sparse.linalg.eigs(op, k=6, ncv=25, v0=start)

        self.kind = kind
        self.reference_s = CAL_REFERENCE_S[kind]
        self._kernel = kernel
        self.samples: list[float] = []

    def sample(self):
        # a warm-up call first, so what the previous operation left in the
        # caches does not reach the timed call
        self._kernel()
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]

    def scale(self):
        """Run-wide speed: the reference time over the median kernel time."""
        return self.reference_s / statistics.median(self.samples)


def _run_pass(kreiss, run_op, ops, cal, tracer=None):
    """One closed-loop pass.

    Returns (seconds of all operations, per-op seconds, outcomes, per-op
    seconds at the calibration kernel's reference speed).
    """
    times, outcomes = [], []
    kernel = [cal.sample()]
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        try:
            out = run_op(kreiss, op)
        except Exception as exc:  # a raising operation is a counted failure
            out = exc
        times.append(time.perf_counter() - t0)
        outcomes.append(out)
        kernel.append(cal.sample())
    # machine speed during operation i: the mean kernel time of the two
    # samples before it and the two after it
    calibrated = [t * cal.reference_s / statistics.mean(kernel[max(0, i - 1):i + 3])
                  for i, t in enumerate(times)]
    return sum(times), times, outcomes, calibrated


def _summary(op, out):
    """What must repeat exactly between passes for one operation's result."""
    if isinstance(out, Exception):
        return repr(out)
    if op.call.startswith("solve"):
        return (repr(out.kreiss), out.status.value, out.restarts, out.certificate_calls)
    return (repr(out.gamma), len(out.points), len(out.candidate_lines), out.rejected_points)


def _failure(op, out):
    """Why an operation failed without a wrong answer (raised or FAILED), else None."""
    if isinstance(out, Exception):
        return f"raised {type(out).__name__}: {out}"
    if op.call.startswith("solve") and out.status.value == "failed":
        return f"status failed: {out.message}"
    return None


def check_ops(kreiss, checks, workloads, ops, passes):
    """Untimed correctness gate over every operation; returns per-op records."""
    oracle = {}
    records = []
    for i, op in enumerate(ops):
        outs = [p[2][i] for p in passes]
        out = outs[0]
        inst = op.instance
        rec = {"op": op.label, "n": inst.n, "failure": _failure(op, out), "checks_failed": []}
        if len({_summary(op, o) for o in outs}) > 1:
            rec["checks_failed"].append("repeatable")
        if rec["failure"] is None:
            if id(inst) not in oracle:
                oracle[id(inst)] = (inst.g_oracle if inst.g_oracle is not None
                                    else checks.oracle(kreiss, inst.prob)[0])
            g_oracle = oracle[id(inst)]
            if op.call.startswith("solve"):
                ref = None
                if op.call == "solve-dnc":
                    ref = kreiss.solver.solve_owr_backtracking(
                        inst.prob, c=workloads.BACKTRACK_C).kreiss
                rec["checks_failed"] += checks.check_solve(kreiss, inst.prob, out.kreiss,
                                                           g_oracle, ref)
                rec.update(K=out.kreiss, restarts=out.restarts, cert_calls=out.certificate_calls)
            else:
                rec["checks_failed"] += checks.check_certificate(
                    inst.prob, out.gamma, op.eta, [p.coords for p in out.points], g_oracle)
                rec.update(points=len(out.points), gamma_nudged=out.gamma != op.gamma)
        rec["seconds"] = [p[1][i] for p in passes]
        rec["reference_seconds"] = [p[3][i] for p in passes]
        records.append(rec)
    return records


def tally(records, passes):
    """(attempted, failed, correct): every execution counts; a wrong answer is not correct."""
    failed_ops = sum(1 for r in records if r["failure"] or r["checks_failed"])
    correct = not any(r["checks_failed"] for r in records)
    return len(records) * passes, failed_ops * passes, correct


def _cert_facts(op, out):
    """(returned points?, discrete-time?, gamma nudged?) for each certificate call of an op."""
    if op.call.startswith("solve"):
        asked = [t.gamma for t in out.trace if t.phase == "certificate"]
        return [(bool(r.points), r.variant.endswith("dt"), r.gamma != g)
                for r, g in zip(out.reports, asked)]
    return [(bool(out.points), op.call == "variable-dt", out.gamma != op.gamma)]


def _share(flags):
    return sum(flags) / len(flags) if flags else None


def _properties(workloads, ops, outcomes):
    """Input properties the workload's timings depend on."""
    per_kind_n = {inst.name: {"draws": inst.draws, "missed_restarts": inst.missed_restarts}
                  for inst in workloads.instances(ops)}
    restarted, calls = [], []
    for op, out in zip(ops, outcomes):
        if isinstance(out, Exception):
            continue
        if op.call.startswith("solve"):
            restarted.append(out.restarts > 0)
        calls += _cert_facts(op, out)
    dt_calls = [c for c in calls if c[1]]
    return {
        "instances": per_kind_n,
        "levels_per_instance": sorted({op.level for op in ops if op.level}),
        "restarted_share": _share(restarted),
        "cert_calls": len(calls),
        "cert_points_share": _share([c[0] for c in calls]),
        "dt_cert_calls": len(dt_calls),
        "dt_gamma_nudged_share": _share([c[2] for c in dt_calls]),
    }


def _environment(kreiss):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        # a checkout that is not a repository must not report an enclosing one
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    src_dir = os.path.dirname(os.path.abspath(kreiss.__file__))
    lines = 0
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            with open(os.path.join(src_dir, name)) as fh:
                lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_kreiss_lines": lines,
    }


def _coverage(kreiss):
    """Which solver methods are timed, and a live probe of the ones that are not."""
    import numpy as np

    probes = {
        "2x2 Jordan block": np.array([[-0.3, 1.0], [0.0, -0.3]]),
        "2x2 normal, default start on the plateau": np.diag([-1.0, -2.0]),
    }
    probe = {}
    for name in ("solve_owr", "solve_trisection"):
        for label, A in probes.items():
            try:
                getattr(kreiss.solver, name)(kreiss.MatrixProblem(A, "continuous"))
                probe[f"{name} on {label}"] = "runs"
            except Exception as exc:  # recorded, not fatal: these are not timed
                probe[f"{name} on {label}"] = f"raises {type(exc).__name__}: {exc}"
    return {
        "timed": ["solve_owr_backtracking (dense, and use_dnc=True)",
                  "fixed_distance_test(_dt), inside every solve",
                  "variable_distance_test", "horizontal_variable_test",
                  "variable_distance_test_dt"],
        "not_timed": {
            "solve_owr, solve_trisection": (
                "raised NameError (_PLATEAU_TOL) on most inputs when this benchmark was "
                "defined; timing them would read their fix as a wall_s regression. "
                "Adding them is a benchmark change of its own."),
            "grid oracle": "used only by the correctness gate",
        },
        "probe": probe,
    }


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def _timed_passes(kreiss, workloads, tracing, ops, seconds, tracer, cal):
    """Closed-loop passes while another fits in ``seconds``; with a tracer they alternate."""
    plain, traced, layers = [], [], []
    first_spans = None
    t_begin = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        if tracer is not None and len(plain) > len(traced):
            tracer.reset()
            with tracer:
                traced.append(_run_pass(kreiss, workloads.run_op, ops, cal, tracer))
            layers.append(tracing.layer_metrics(tracer.spans))
            if first_spans is None:
                first_spans = list(tracer.spans)
        else:
            plain.append(_run_pass(kreiss, workloads.run_op, ops, cal))
        now = time.perf_counter()
        if tracer is not None and not traced:
            continue
        if now - t_begin + (now - t_pass) > seconds:
            break
    return plain, traced, layers, first_spans


def run_workload(args):
    t_launch = time.perf_counter()
    kreiss = _import_kreiss()
    sys.path.insert(0, HERE)
    import checks
    import tracing
    import workloads

    ops = workloads.build_ops(kreiss, args.workload, args.seed)
    insts = workloads.instances(ops)
    setup_s, setup_samples = _measure_setup(insts, args.workload)
    workloads.build_problems(kreiss, insts)

    cal = Calibration(CAL_KERNEL[args.workload])
    tracer = tracing.Tracer(kreiss) if args.trace else None
    plain, traced, layers, first_spans = _timed_passes(kreiss, workloads, tracing, ops,
                                                       args.seconds, tracer, cal)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    records = check_ops(kreiss, checks, workloads, ops, plain + traced)
    attempted, failed, correct = tally(records, len(plain) + len(traced))
    failing = [r for r in records if r["failure"] or r["checks_failed"]]
    small = workloads.rung_ops(ops, "small")
    large = workloads.rung_ops(ops, "large")

    def timings(seconds):
        """wall_s and op_s.* as medians over the untraced passes."""
        return {
            "wall_s": _median([sum(seconds(p)) for p in plain]),
            "op_s.small": _median([sum(seconds(p)[i] for i in small) / len(small)
                                   for p in plain]),
            "op_s.large": _median([sum(seconds(p)[i] for i in large) / len(large)
                                   for p in plain]),
        }

    raw = timings(lambda p: p[1])
    metrics = {"setup_s": (setup_s, "s")}
    metrics.update({k: (v, "s") for k, v in timings(lambda p: p[3]).items()})
    metrics["ok_frac"] = (1.0 - failed / attempted, "ratio")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    end_to_end = metrics
    if tracer is not None:
        metrics = _traced_metrics(kreiss, workloads, tracing, insts, plain, traced, layers)
        if any(tracing.count_signature(m) != tracing.count_signature(layers[0])
               for m in layers[1:]):
            correct = False
            failing.append({"op": "traced passes", "failure": None,
                            "checks_failed": ["counts_repeat"]})

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "loop": "closed, 1 caller, 1 process",
        "passes": len(plain), "traced_passes": len(traced),
        "fail_frac": failed / attempted,
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "raw_seconds": raw,
        "calibration": {"kernel": cal.kind, "reference_s": cal.reference_s,
                        "scale": cal.scale(), "samples_s": cal.samples},
        "setup_samples_s": setup_samples,
        "environment": _environment(kreiss),
        "coverage": _coverage(kreiss),
        "properties": _properties(workloads, ops, plain[0][2]),
        "operations": records,
        "known_defects": checks.known_defects(kreiss, workloads, args.workload),
    }
    if tracer is not None:
        record["per_layer"] = {k: v for k, (v, _) in metrics.items()}
        # the same metrics restricted to the operations at the largest n
        record["per_layer_largest_n"] = {
            k: v for k, (v, _) in tracing.layer_metrics(first_spans, set(large)).items()}
    record["run_s"] = time.perf_counter() - t_launch
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    if tracer is not None:
        tracer.spans[:] = first_spans
        tracer.dump(stem + "-spans.json", {"workload": args.workload, "seed": args.seed,
                                           "ops": [op.label for op in ops]})

    _print_table(record, metrics, failing)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def _traced_metrics(kreiss, workloads, tracing, insts, plain, traced, layers):
    """Per-layer metrics: counts from the first traced pass, seconds as medians (raw)."""
    metrics = {}
    for name, (value, unit) in layers[0].items():
        if unit == "s":
            value = _median([m[name][0] for m in layers])
        metrics[name] = (value, unit)
    untraced = _median([p[0] for p in plain])
    traced_wall = _median([p[0] for p in traced])
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced, "s")
    # the same overhead estimated from the wrappers alone, free of machine noise
    metrics["trace.span_cost_s"] = (metrics["trace.spans"][0] * tracing.span_cost(), "s")
    builds = []
    for _ in range(MATIO_REPEATS):
        t0 = time.perf_counter()
        workloads.build_problems(kreiss, insts)
        builds.append(time.perf_counter() - t0)
    metrics["matio.problem_build_s"] = (_median(builds), "s")
    return metrics


def _print_table(record, metrics, failing):
    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  passes {record['passes']}"
          f"+{record['traced_passes']} traced  blas {env['blas']} x{env['blas_threads']}"
          f"  nproc {env['nproc']}  commit {env['git_commit']}"
          f"  src/kreiss {env['src_kreiss_lines']} lines"
          f"  speed scale {record['calibration']['scale']:.3f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(f"  {'fail_frac':32s} {record['fail_frac']:14.6g} ratio")
    for name, value in record["raw_seconds"].items():
        print(f"  {name + ' (raw)':32s} {value:14.6g} s")
    for scope, key, total in (("all n", "per_layer", "trace.self_sum_s"),
                              ("largest n", "per_layer_largest_n", "trace.self_sum_s")):
        layer = record.get(key)
        if layer and layer[total] > 0:
            shares = ", ".join(f"{name} {layer[name] / layer[total]:.0%}" for name in SHARE_OF
                               if layer[name] > 0)
            print(f"  share of traced operation time ({scope}): {shares}")
    for rec in failing:
        why = "; ".join(filter(None, [rec["failure"], ", ".join(rec["checks_failed"])]))
        print(f"  FAILED {rec['op']}: {why}")
    for name, rec in record["known_defects"].items():
        state = ("still fails " + ", ".join(rec["checks_failed"]) if rec["checks_failed"]
                 else "fixed: widen the workload to these inputs")
        print(f"  KNOWN DEFECT {name} (inputs outside the workload): {state}")


def run_all(args):
    """Every workload in turn, each in its own process; one summary table."""
    names = ("setup_s", "wall_s", "op_s.small", "op_s.large", "fail_frac", "peak_rss_mb")
    units = {"fail_frac": "ratio", "peak_rss_mb": "MB"}
    rows, results = [], {}
    for wl in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", wl, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"bench: workload {wl} exited with {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results[wl] = res
        m = {k: v["value"] for k, v in res["metrics"].items()}
        m["fail_frac"] = res["failed"] / res["attempted"]
        rows.append((wl, m))
    print(f"{'workload':10s}" + "".join(f"{n + ' [' + units.get(n, 's') + ']':>20s}"
                                        for n in names))
    for wl, m in rows:
        print(f"{wl:10s}" + "".join(f"{m[n]:20.6g}" for n in names))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{wl}.{k}": v for wl, r in results.items() for k, v in r["metrics"].items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", metavar="NPZ", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_child:
        _setup_child(args.setup_child)
    elif args.workload is None:
        parser.error("--workload is required")
    elif args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
