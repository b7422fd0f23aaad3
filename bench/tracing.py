"""Per-layer timing of the kreiss package from outside the program.

The tracer replaces public functions with timing wrappers at the module
attributes their callers resolve at call time, and restores them after.
Names a module imported by value are rebound where they are used
(``kreiss.cert_dt.eig_quadratic`` and the three ``kreiss.dnc`` kernels);
everything else is reached through module attributes, so wrapping
``kreiss.cert_ct``, ``kreiss.cert_dt``, ``kreiss.objective`` and friends
catches solver -> certificate and localopt/certificate -> objective calls.

Spans are (name, start, end, parent, operation id, facts) records kept in
memory; ``Tracer.dump`` writes them out when the benchmark ends.  A span's
self time is its duration minus that of its direct children, so the self
times of all spans of one operation add up to its root span.
"""

from __future__ import annotations

import functools
import json
import time

# (module, attribute, span name); a span name's prefix is its layer
WRAPPED = (
    ("solver", "solve_owr_backtracking", "solver.solve"),
    ("localopt", "minimize", "localopt.minimize"),
    ("objective", "g_eval", "objective.eval"),
    ("objective", "h_eval", "objective.eval"),
    ("objective", "g_grad", "objective.grad"),
    ("objective", "h_grad", "objective.grad"),
    ("objective", "g_hess", "objective.hess"),
    ("objective", "h_hess", "objective.hess"),
    ("cert_ct", "fixed_distance_test", "cert_ct.test"),
    ("cert_ct", "variable_distance_test", "cert_ct.test"),
    ("cert_ct", "horizontal_variable_test", "cert_ct.test"),
    ("cert_ct", "build_fixed_pencil", "cert_ct.pencil_build"),
    ("cert_ct", "build_variable_pencil", "cert_ct.pencil_build"),
    ("cert_ct", "build_horizontal_pencil", "cert_ct.pencil_build"),
    ("cert_ct", "vertical_level_points", "cert_ct.level_1d"),
    ("cert_dt", "fixed_distance_test_dt", "cert_dt.test"),
    ("cert_dt", "variable_distance_test_dt", "cert_dt.test"),
    ("cert_dt", "build_quad_pencil_fixed", "cert_dt.pencil_build"),
    ("cert_dt", "build_quad_pencil_variable", "cert_dt.pencil_build"),
    ("cert_dt", "circular_level_points", "cert_dt.level_1d"),
    ("cert_dt", "eig_quadratic", "linalg.eig_quadratic"),
    ("dnc", "real_eigs_in_interval", "dnc.real_eigs"),
    ("dnc", "solve_sylvester", "linalg.solve_sylvester"),
    ("dnc", "solve_gen_sylvester", "linalg.solve_gen_sylvester"),
    ("dnc", "eigs_shift_invert", "linalg.eigs_shift_invert"),
)

LAYERS = ("solver", "localopt", "objective", "cert_ct", "cert_dt", "linalg", "dnc")

_NAME, _START, _END, _PARENT, _OP, _FACTS = range(6)


def _gamma_arg(args, kwargs):
    return kwargs["gamma"] if "gamma" in kwargs else args[1]


def _facts(name, args, kwargs, out):
    """Counts read off a wrapped call's arguments and result."""
    if name == "solver.solve":
        return {"restarts": out.restarts, "cert_calls": out.certificate_calls}
    if name == "localopt.minimize":
        return {"iterations": out.iterations, "converged": out.status.value == "converged"}
    if name.endswith(".test"):
        return {"order": out.large_eig_count, "lines": len(out.candidate_lines),
                "points": len(out.points), "rejected": out.rejected_points,
                "nudged": out.gamma != _gamma_arg(args, kwargs)}
    return None


class Tracer:
    """Installs the wrappers and records spans while installed."""

    def __init__(self, kreiss):
        self.kreiss = kreiss
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[_START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                rec[_END] = time.perf_counter()
                rec[_FACTS] = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
            rec[_END] = time.perf_counter()
            rec[_FACTS] = _facts(name, args, kwargs, out)
            return out

        return traced

    def __enter__(self):
        for mod_name, attr, name in WRAPPED:
            mod = getattr(self.kreiss, mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name))
        return self

    def __exit__(self, *exc):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)
        return False

    def reset(self):
        self.spans.clear()
        self._stack.clear()

    def dump(self, path, extra):
        doc = dict(extra)
        doc["span_fields"] = ["name", "start", "end", "parent", "op", "facts"]
        doc["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(doc, fh)


def span_cost(calls=20000):
    """Seconds one wrapper adds to a call, measured on a function that does nothing."""

    def noop():
        return None

    traced = Tracer(None)._wrap(noop, "bench.noop")
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def layer_metrics(spans, op_ids=None):
    """Per-layer metrics of one traced pass, as {name: (value, unit)}.

    With ``op_ids`` only the spans of those operations are counted.
    """
    n = len(spans)
    dur = [s[_END] - s[_START] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[_PARENT] >= 0:
            child[s[_PARENT]] += dur[i]
    self_t = [dur[i] - child[i] for i in range(n)]
    kept = [i for i in range(n) if op_ids is None or spans[i][_OP] in op_ids]

    def named(name):
        return [i for i in kept if spans[i][_NAME] == name]

    def total(idx):
        return sum(dur[i] for i in idx)

    def facts(idx, key):
        return [spans[i][_FACTS][key] for i in idx if spans[i][_FACTS] and key in spans[i][_FACTS]]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    solves = named("solver.solve")
    cert_tests = [i for i in kept if spans[i][_NAME].endswith(".test")]
    found = [i for i in cert_tests
             if spans[i][_FACTS] and spans[i][_FACTS].get("points", 0) > 0
             and spans[i][_PARENT] >= 0]
    restarts = sum(facts(solves, "restarts"))
    m["solver.solve.calls"] = (len(solves), "count")
    m["solver.solve.s"] = (total(solves), "s")
    m["solver.restarts"] = (restarts, "count")
    m["solver.cert_calls"] = (sum(facts(solves, "cert_calls")), "count")
    m["solver.restart_yield"] = (ratio(restarts, len(found)), "ratio")

    mins = named("localopt.minimize")
    m["localopt.minimize.calls"] = (len(mins), "count")
    m["localopt.minimize.s"] = (total(mins), "s")
    m["localopt.iterations"] = (sum(facts(mins, "iterations")), "count")
    m["localopt.not_converged"] = (sum(not c for c in facts(mins, "converged")), "count")

    evals, grads, hess = named("objective.eval"), named("objective.grad"), named("objective.hess")
    m["objective.evals"] = (len(evals), "count")
    m["objective.eval_s"] = (total(evals), "s")
    m["objective.grad.calls"] = (len(grads), "count")
    m["objective.hess.calls"] = (len(hess), "count")
    m["objective.deriv_s"] = (total(grads) + total(hess), "s")

    for dom in ("cert_ct", "cert_dt"):
        tests = named(f"{dom}.test")
        test_set = set(tests)
        builds = named(f"{dom}.pencil_build")
        levels = named(f"{dom}.level_1d")
        # point verification evaluates the objective directly under the test
        verify = [i for i in evals if spans[i][_PARENT] in test_set]
        orders = facts(tests, "order")
        points, rejected = sum(facts(tests, "points")), sum(facts(tests, "rejected"))
        m[f"{dom}.test.calls"] = (len(tests), "count")
        m[f"{dom}.test.s"] = (total(tests), "s")
        m[f"{dom}.pencil_build_s"] = (total(builds), "s")
        m[f"{dom}.large_eig_s"] = (total(tests) - total(builds) - total(levels)
                                   - total(verify), "s")
        m[f"{dom}.level_1d.calls"] = (len(levels), "count")
        m[f"{dom}.level_1d_s"] = (total(levels), "s")
        m[f"{dom}.verify_s"] = (total(verify), "s")
        m[f"{dom}.eig_order_max"] = (max(orders, default=0), "count")
        m[f"{dom}.eig_order3_sum"] = (float(sum(float(o) ** 3 for o in orders)), "count")
        m[f"{dom}.candidate_lines"] = (sum(facts(tests, "lines")), "count")
        m[f"{dom}.points"] = (points, "count")
        m[f"{dom}.rejected_points"] = (rejected, "count")
        m[f"{dom}.point_yield"] = (ratio(points, points + rejected), "ratio")
    m["cert_dt.gamma_nudged"] = (sum(facts(named("cert_dt.test"), "nudged")), "count")

    for kernel in ("eig_quadratic", "solve_sylvester", "solve_gen_sylvester",
                   "eigs_shift_invert"):
        idx = named(f"linalg.{kernel}")
        m[f"linalg.{kernel}.calls"] = (len(idx), "count")
        m[f"linalg.{kernel}.s"] = (total(idx), "s")

    sweeps = named("dnc.real_eigs")
    shifts = len(named("linalg.eigs_shift_invert"))
    sylv = len(named("linalg.solve_sylvester")) + len(named("linalg.solve_gen_sylvester"))
    m["dnc.real_eigs.calls"] = (len(sweeps), "count")
    m["dnc.real_eigs_s"] = (total(sweeps), "s")
    m["dnc.shifts"] = (shifts, "count")
    m["dnc.max_shifts_errors"] = (
        sum(1 for i in sweeps if (spans[i][_FACTS] or {}).get("error") == "MaxShiftsError"),
        "count")
    m["dnc.sylvester_per_shift"] = (ratio(sylv, shifts), "ratio")

    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(self_t[i] for i in kept
                                    if spans[i][_NAME].split(".", 1)[0] == layer), "s")
    m["trace.spans"] = (len(kept), "count")
    m["trace.self_sum_s"] = (sum(self_t[i] for i in kept), "s")
    return m


def count_signature(metrics):
    """The count metrics of one pass; they must repeat exactly between passes."""
    return {k: v for k, (v, unit) in metrics.items() if unit == "count"}
