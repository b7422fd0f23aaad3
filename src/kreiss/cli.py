"""Command-line front end.

Subcommands
-----------
``kreiss``   compute the Kreiss constant of a matrix file (JSON on stdout)
``certify``  run one 2D level-set test (``--variant``) directly (JSON on stdout)
``curve``    emit grid-approximated pseudospectral ratio-curve data as CSV

Exit codes: 0 success, 1 malformed flags or invalid parameters, 2 unstable
(or otherwise inadmissible) input matrix, 3 solver failure.  Set
KREISS_LOG=debug|info for diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

import numpy as np

from . import oracle, solver
from .errors import (
    KreissError,
    NotSquareError,
    ParseError,
    UnstableError,
    ZeroEigenvalueError,
)
from .matio import load_matrix
from .solver import SolveStatus

SCHEMA_VERSION = 9

_log = logging.getLogger("kreiss")


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad flags; the interface promises 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _configure_logging():
    level = os.environ.get("KREISS_LOG", "").lower()
    if level in ("debug", "info"):
        logging.basicConfig(
            stream=sys.stderr,
            level=logging.DEBUG if level == "debug" else logging.INFO,
            format="kreiss %(levelname)s: %(message)s",
        )


def _add_input_flags(p):
    p.add_argument("--input", required=True, help="matrix file")
    p.add_argument("--format", choices=("mm", "csv", "json"), default=None,
                   help="matrix file format (default: infer from extension)")
    p.add_argument("--time", choices=("continuous", "discrete"), default=None,
                   help="time domain (required unless the JSON file embeds it)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for all randomized internals (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kreiss", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    pk = sub.add_parser("kreiss", help="compute the Kreiss constant")
    _add_input_flags(pk)
    pk.add_argument("--method", choices=("owr-bt", "owr", "trisection", "grid"),
                    default="owr")
    pk.add_argument("--tol", type=float, default=1e-10,
                    help="relative tolerance gamma_tol of owr and trisection")
    pk.add_argument("--start", default=None,
                    help="starting point 'x,y' (continuous) or 'r,theta' (discrete)")
    pk.add_argument("--certificate",
                    choices=solver.CERTIFICATE_CHOICES, default=None,
                    help="certificate backend (default depends on method)")
    pk.add_argument("--dnc", choices=("on", "off"), default="off",
                    help="divide-and-conquer eigenvalue extraction (default off)")
    pk.add_argument("--emit-trace", default=None, metavar="PATH",
                    help="write the solve trace as JSON")
    pk.add_argument("--emit-field", default=None, metavar="PATH",
                    help="write an objective-value grid as CSV")

    pc = sub.add_parser("certify", help="run one 2D level-set test")
    _add_input_flags(pc)
    pc.add_argument("--gamma", type=float, required=True)
    pc.add_argument("--eta", type=float, required=True)
    pc.add_argument("--variant", choices=solver.CERTIFICATE_CHOICES,
                    default="variable-v")
    pc.add_argument("--dnc", choices=("on", "off"), default="off")

    pv = sub.add_parser("curve", help="emit ratio-curve CSV data")
    _add_input_flags(pv)
    pv.add_argument("--eps-min", type=float, default=1e-3)
    pv.add_argument("--eps-max", type=float, default=1e3)
    pv.add_argument("--points", type=int, default=40)
    pv.add_argument("--output", default=None, help="CSV path (default: stdout)")
    return parser


def _load(args):
    try:
        return load_matrix(args.input, fmt=args.format, time_domain=args.time)
    except (UnstableError, ZeroEigenvalueError) as exc:
        print(f"kreiss: inadmissible input: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except (ParseError, NotSquareError) as exc:
        print(f"kreiss: bad input: {exc}", file=sys.stderr)
        raise SystemExit(1)


def _parse_start(text):
    if text is None:
        return None
    try:
        a, b = text.split(",")
        return (float(a), float(b))
    except ValueError:
        print("kreiss: --start must look like '1.0,0.0'", file=sys.stderr)
        raise SystemExit(1)


def _point_json(pt):
    return {"coords": [float(pt.coords[0]), float(pt.coords[1])],
            "value": float(pt.value)}


def cmd_kreiss(args) -> int:
    prob = _load(args)
    start = _parse_start(args.start)
    kwargs = {}
    if args.method != "grid":
        kwargs = dict(start=start, use_dnc=args.dnc == "on", seed=args.seed)
        if args.certificate is not None:
            kwargs["certificate"] = args.certificate
        if args.method != "owr-bt":
            kwargs["gamma_tol"] = args.tol
    try:
        result = solver.compute_kreiss(prob, method=args.method, **kwargs)
    except (ValueError, KreissError) as exc:
        print(f"kreiss: {exc}", file=sys.stderr)
        return 1
    _log.info("method=%s kreiss=%.17g status=%s", result.method,
              result.kreiss, result.status.value)

    doc = {
        "schema_version": SCHEMA_VERSION,
        "kreiss": result.kreiss,
        "gamma_inv": result.gamma_inv,
        "minimizer": None if result.minimizer is None
        else [float(c) for c in result.minimizer.coords],
        "restarts": result.restarts,
        "certificate_calls": result.certificate_calls,
        "status": result.status.value,
        "method": result.method,
        "wall_time_s": result.wall_time,
        "message": result.message,
        "decided_by": result.decided_by,
    }
    print(json.dumps(doc))

    if args.emit_trace:
        trace_doc = {
            "schema_version": SCHEMA_VERSION,
            "decided_by": result.decided_by,
            "trace": [dataclasses.asdict(t) for t in result.trace],
            "bounds": [[b.lb, b.ub] for b in result.bounds_history],
            "discarded_lookaheads": result.discarded_lookaheads,
        }
        with open(args.emit_trace, "w") as fh:
            json.dump(trace_doc, fh)
    if args.emit_field:
        oracle.write_field_csv(args.emit_field, prob, oracle.field_grid(prob))
    return 0 if result.status is not SolveStatus.FAILED else 3


def cmd_certify(args) -> int:
    prob = _load(args)
    try:
        report = solver.certify(prob, args.variant, args.gamma, args.eta,
                                use_dnc=args.dnc == "on", seed=args.seed)
    except ValueError as exc:
        print(f"kreiss: invalid certificate parameters: {exc}", file=sys.stderr)
        return 1
    except KreissError as exc:
        print(f"kreiss: certificate failed: {exc}", file=sys.stderr)
        return 3

    doc = {
        "schema_version": SCHEMA_VERSION,
        "gamma": report.gamma,
        "eta": report.eta,
        "variant": report.variant,
        "candidate_lines": [float(x) for x in report.candidate_lines],
        "points": [_point_json(p) for p in report.points],
        "empty": report.empty,
        "rejected_points": report.rejected_points,
        "large_eig_count": report.large_eig_count,
        "eig_orders": [int(k) for k in report.eig_orders],
        "eig_route": report.eig_route,
        "mass_cond": report.mass_cond,
        "gamma_nudged": report.gamma_nudged,
        "search_lo": report.search_lo,
        "search_hi": report.search_hi,
    }
    print(json.dumps(doc))
    return 0


def cmd_curve(args) -> int:
    prob = _load(args)
    if not 0 < args.eps_min < args.eps_max < np.inf or args.points < 2:
        print("kreiss: need 0 < eps-min < eps-max < inf and points >= 2", file=sys.stderr)
        return 1
    eps = np.geomspace(args.eps_min, args.eps_max, args.points)
    rows = oracle.ratio_curve(prob, eps)
    if args.output:
        oracle.write_curve_csv(args.output, rows)
    else:
        print("eps,ratio")
        for e, r in rows:
            print(f"{e!r},{r!r}")
    return 0


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    if args.command == "kreiss":
        code = cmd_kreiss(args)
    elif args.command == "certify":
        code = cmd_certify(args)
    else:
        code = cmd_curve(args)
    return code


if __name__ == "__main__":
    sys.exit(main())
