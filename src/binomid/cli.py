"""Command-line front end: verify, expand, sweep, bench.

Exit statuses: 0 verified/agreed, 1 verification failure, 2 usage error.
Machine output (--format json) is one schema-stable document per
invocation: {"command", "parameters", "reports", "engine_version"}.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import __version__, verify as vfy

# Target name -> the construction and the side of it that is printed.
EXPAND_TARGETS = {
    "f": ("f", "lhs"),
    "g": ("g", "lhs"),
    "lhs": ("main", "lhs"),
    "rhs": ("main", "rhs"),
    "chebyshev": ("chebyshev", "rhs"),
    "jensen-lhs": ("jensen", "lhs"),
    "jensen-rhs": ("jensen", "rhs"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binomid",
        description="Exact symbolic verification of a generalized binomial identity.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify the main identity at one m")
    p_verify.add_argument("--m", type=int, required=True)
    p_verify.add_argument("--lemma", choices=sorted(vfy.LEMMA_NAMES),
                          help="verify a proof lemma instead of the main identity")
    p_verify.add_argument("--trials", type=int, default=0,
                          help="additionally run this many random-point checks")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")

    p_expand = sub.add_parser("expand", help="print one expression in canonical form")
    p_expand.add_argument("--target", choices=sorted(EXPAND_TARGETS), required=True)
    p_expand.add_argument("--m", type=int)
    p_expand.add_argument("--n", type=int)
    p_expand.add_argument("--format", choices=("text", "json"), default="text")

    p_sweep = sub.add_parser("sweep", help="verify m in 0..m-max plus all lemma suites")
    p_sweep.add_argument("--m-max", type=int, required=True)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--format", choices=("text", "json"), default="text")

    p_bench = sub.add_parser("bench", help="compare definitional vs closed-form cost")
    p_bench.add_argument("--m", type=int, required=True)
    p_bench.add_argument("--points", type=int, default=10)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _emit_json(command: str, parameters: dict, reports: list[dict]) -> None:
    document = {
        "command": command,
        "parameters": parameters,
        "reports": reports,
        "engine_version": __version__,
    }
    print(json.dumps(document, indent=2, sort_keys=True))


def _report_lines(report: vfy.IdentityReport) -> list[str]:
    status = "OK" if report.equal else "FAIL"
    return [
        f"{report.identity_name} m={report.parameter}: {status} "
        f"({report.term_counts[0]}/{report.term_counts[1]} terms, "
        f"{report.elapsed_micros} us)",
        f"  lhs  = {report.lhs_rendered}",
        f"  rhs  = {report.rhs_rendered}",
        f"  diff = {report.difference_rendered}",
    ]


def _cmd_verify(args, parser) -> int:
    if args.m < 0:
        parser.error("--m must be >= 0")
    if args.trials < 0:
        parser.error("--trials must be >= 0")
    name = args.lemma or "main"
    report = vfy.verify_lemma(name, args.m)
    reports = [report.to_dict()]
    ok = report.equal
    if args.trials:
        check = vfy.random_point_check(name, args.m, args.trials, args.seed)
        reports.append(check.to_dict())
        ok = ok and check.failures == 0
    if args.format == "json":
        _emit_json("verify", {"m": args.m, "lemma": args.lemma,
                              "trials": args.trials, "seed": args.seed}, reports)
    else:
        print("\n".join(_report_lines(report)))
        if args.trials:
            print(f"  random points: {check.trials - check.failures}/{check.trials} agree "
                  f"(seed={check.seed})")
    return 0 if ok else 1


def _cmd_expand(args, parser) -> int:
    name, side = EXPAND_TARGETS[args.target]
    construction = vfy.CONSTRUCTIONS[name]
    pname = construction.param
    parameter: Optional[int] = getattr(args, pname)
    if parameter is None:
        parser.error(f"target {args.target!r} requires --{pname}")
    if parameter < 0:
        parser.error(f"--{pname} must be >= 0")
    rendered = getattr(construction, side)(parameter).render()
    if args.format == "json":
        _emit_json("expand", {"target": args.target, pname: parameter},
                   [{"target": args.target, "parameter": parameter,
                     "rendered": rendered}])
    else:
        print(rendered)
    return 0


def _cmd_sweep(args, parser) -> int:
    if args.m_max < 0:
        parser.error("--m-max must be >= 0")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    reports = vfy.sweep(args.m_max, jobs=args.jobs)
    ok = all(r.equal for r in reports)
    if args.format == "json":
        _emit_json("sweep", {"m_max": args.m_max, "jobs": args.jobs},
                   [r.to_dict() for r in reports])
    else:
        for r in reports:
            status = "OK" if r.equal else "FAIL"
            print(f"{r.identity_name:10s} p={r.parameter:3d}  {status:4s} "
                  f"terms={r.term_counts[0]}/{r.term_counts[1]} "
                  f"{r.elapsed_micros} us")
        print(f"total: {len(reports)} reports, "
              f"{sum(r.elapsed_micros for r in reports)} us, "
              f"{'all OK' if ok else 'FAILURES PRESENT'}")
    return 0 if ok else 1


def _cmd_bench(args, parser) -> int:
    if args.m < 0:
        parser.error("--m must be >= 0")
    if args.points < 1:
        parser.error("--points must be >= 1")
    report = vfy.bench(args.m, args.points, args.seed)
    if args.format == "json":
        _emit_json("bench", {"m": args.m, "points": args.points, "seed": args.seed},
                   [report.to_dict()])
    else:
        for t in report.strategies:
            print(f"{t.strategy:10s} coeff_ops={t.coeff_ops:10d}  "
                  f"{t.elapsed_micros} us")
        print("agreement:", "all strategies agree at every point"
              if report.agreed else "DISAGREEMENT")
    return 0 if report.agreed else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "verify": _cmd_verify,
        "expand": _cmd_expand,
        "sweep": _cmd_sweep,
        "bench": _cmd_bench,
    }
    return handlers[args.command](args, parser)


if __name__ == "__main__":
    sys.exit(main())
