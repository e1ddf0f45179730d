"""Command-line front end: verify, expand, sweep, bench.

Exit statuses: 0 verified/agreed, 1 verification failure, 2 usage error.
Machine output (--format json) is one schema-stable document per
invocation: {"command", "parameters", "reports", "engine_version"}.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from . import __version__, verify as vfy
from .rings import check_int

# Target name -> the proof step and the side printed (0 its lhs, 1 its rhs).
EXPAND_TARGETS = {
    "f": ("f", 0),
    "g": ("g", 0),
    "lhs": ("main", 0),
    "rhs": ("main", 1),
    "chebyshev": ("chebyshev", 1),
    "jensen-lhs": ("jensen", 0),
    "jensen-rhs": ("jensen", 1),
}


def _int_at_least(minimum: int):
    """argparse ``type=``: a bad value is a usage error (exit 2) before any work."""
    def parse(text: str) -> int:
        return check_int("value", int(text), minimum)
    parse.__name__ = f"integer >= {minimum}"  # argparse names the type in its error
    return parse


def _seed(text: str) -> int:
    return vfy.check_seed(int(text))


_seed.__name__ = "seed in 0..2**64-1"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binomid",
        description="Exact symbolic verification of a generalized binomial identity.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify the main identity at one m")
    p_verify.add_argument("--m", type=_int_at_least(0), required=True)
    p_verify.add_argument("--lemma", choices=sorted(vfy.LEMMA_RANGES),
                          help="verify a proof lemma instead of the main identity")
    p_verify.add_argument("--trials", type=_int_at_least(0), default=0,
                          help="additionally run this many random-point checks")
    p_verify.add_argument("--seed", type=_seed, default=0)

    p_expand = sub.add_parser("expand", help="print one expression in canonical form")
    p_expand.add_argument("--target", choices=sorted(EXPAND_TARGETS), required=True)
    p_expand.add_argument("--m", type=_int_at_least(0))
    p_expand.add_argument("--n", type=_int_at_least(0))

    p_sweep = sub.add_parser("sweep", help="verify m in 0..m-max plus all lemma suites")
    p_sweep.add_argument("--m-max", type=_int_at_least(0), required=True)
    p_sweep.add_argument("--jobs", type=_int_at_least(1), default=1)

    p_bench = sub.add_parser("bench", help="compare definitional vs closed-form cost")
    p_bench.add_argument("--m", type=_int_at_least(0), required=True)
    p_bench.add_argument("--points", type=_int_at_least(1), default=10)
    p_bench.add_argument("--seed", type=_seed, default=0)

    for subparser, handler in ((p_verify, _cmd_verify), (p_expand, _cmd_expand),
                               (p_sweep, _cmd_sweep), (p_bench, _cmd_bench)):
        subparser.add_argument("--format", choices=("text", "json"), default="text")
        subparser.set_defaults(handler=handler, parser=subparser)
    return parser


def _emit_json(command: str, parameters: dict, reports: list[dict]) -> None:
    document = {
        "command": command,
        "parameters": parameters,
        "reports": reports,
        "engine_version": __version__,
    }
    print(json.dumps(document, indent=2, sort_keys=True))


def _cmd_verify(args):
    name = args.lemma or "main"
    build_lhs, build_rhs = vfy.builders(name)
    started = time.perf_counter()
    # Built once: the comparison and the point oracle share these sides.
    lhs, rhs = build_lhs(args.m), build_rhs(args.m)
    report = vfy.compare(name, args.m, lhs, rhs, started)
    reports, ok = [report.to_dict()], report.equal
    lines = [f"{name} m={args.m}: {'OK' if ok else 'FAIL'} ({report.term_counts[0]}/"
             f"{report.term_counts[1]} terms, {report.elapsed_micros} us)",
             f"  lhs  = {report.lhs_rendered}",
             f"  rhs  = {report.rhs_rendered}",
             f"  diff = {report.difference_rendered}"]
    if args.trials:
        check = vfy.check_pair_at_points(name, args.m, lhs, rhs, lhs.ring,
                                         args.trials, args.seed)
        reports.append(check.to_dict())
        lines.append(f"  random points: {check.trials - check.failures}/{check.trials} "
                     f"agree (seed={check.seed})")
        ok = ok and check.failures == 0
    parameters = {"m": args.m, "lemma": args.lemma, "trials": args.trials,
                  "seed": args.seed}
    return parameters, reports, lines, ok


def _cmd_expand(args):
    name, side = EXPAND_TARGETS[args.target]
    pname = vfy.CONSTRUCTIONS[name].param
    given = {option for option in ("m", "n") if getattr(args, option) is not None}
    if given != {pname}:
        args.parser.error(f"target {args.target!r} takes --{pname} and no other parameter")
    parameter = getattr(args, pname)
    rendered = vfy.builders(name)[side](parameter).render()
    report = {"target": args.target, "parameter": parameter, "rendered": rendered}
    return {"target": args.target, pname: parameter}, [report], [rendered], True


def _cmd_sweep(args):
    reports = vfy.sweep(args.m_max, jobs=args.jobs)
    ok = all(r.equal for r in reports)
    lines = [f"{r.identity_name:10s} p={r.parameter:3d}  "
             f"{'OK' if r.equal else 'FAIL':4s} "
             f"terms={r.term_counts[0]}/{r.term_counts[1]} {r.elapsed_micros} us"
             for r in reports]
    lines.append(f"total: {len(reports)} reports, "
                 f"{sum(r.elapsed_micros for r in reports)} us, "
                 f"{'all OK' if ok else 'FAILURES PRESENT'}")
    return ({"m_max": args.m_max, "jobs": args.jobs}, [r.to_dict() for r in reports],
            lines, ok)


def _cmd_bench(args):
    report = vfy.bench(args.m, args.points, args.seed)
    lines = [f"{t.strategy:10s} coeff_ops={t.coeff_ops:10d}  {t.elapsed_micros} us"
             for t in report.strategies]
    lines.append("agreement: " + ("all strategies agree at every point"
                                  if report.agreed else "DISAGREEMENT"))
    return ({"m": args.m, "points": args.points, "seed": args.seed},
            [report.to_dict()], lines, report.agreed)


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # The JSON document's parameters and reports, the lines printed in
    # their place in text format, and whether everything verified.
    parameters, reports, lines, ok = args.handler(args)
    if args.format == "json":
        _emit_json(args.command, parameters, reports)
    else:
        print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
