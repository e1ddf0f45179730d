"""One round of a workload in a fresh interpreter.

    python3 perfbench/worker.py main-sweep   --seed N --out FILE [--smoke] [--trace SPANS]
    python3 perfbench/worker.py point-oracle --seed N --out FILE [--smoke] [--trace SPANS]
    python3 perfbench/worker.py cli --out FILE [--smoke] [--trace SPANS] -- ARGS...

The first two time the workload's job in process, then run the
independent checks outside the timed region, and write one JSON object
to FILE.  ``cli`` runs binomid's command line in this process, so its
standard output is the CLI's own; it exists to trace the CLI and to
shrink its lemma ranges in smoke mode, and writes its trace summary to
FILE.  With ``--trace`` the job runs under ``tracer.Tracer`` and the
spans are written to SPANS.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from fractions import Fraction

from binomid import cli, identities as idn, rings, verify as vfy

import oracle
from tracer import Tracer

SMOKE_LEMMA_RANGE = range(0, 3)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _fraction(value) -> Fraction:
    return Fraction(int(value.numerator), int(value.denominator))


def main_sweep(seed: int, smoke: bool) -> tuple[dict, list]:
    """verify_identity(m) for m = 0..25, serially; 0..4 in smoke mode."""
    ms = range(0, 5 if smoke else 26)
    reports, seconds = [], []
    started = time.perf_counter()
    for m in ms:
        t0 = time.perf_counter()
        reports.append(vfy.verify_identity(m))
        seconds.append(time.perf_counter() - t0)
    wall = time.perf_counter() - started
    result = {
        "attempted": len(reports),
        "failed": sum(not r.equal for r in reports),
        "wall_s": wall,
        "verify_m25_s": max(seconds),
        "points_per_s": len(reports) / wall,
        "peak_rss_mb": _peak_rss_mb(),
    }
    return result, reports


def check_main_sweep(seed: int, reports: list) -> list[str]:
    rng = random.Random(seed)
    problems = []
    for report in reports:
        if report.equal:
            points = [oracle.rational_point(rng, "xyz") for _ in range(2)]
            problems += oracle.check_report_at_points(report.to_dict(), points)
    return problems


def _oracle_cases(smoke: bool):
    return (
        ("main", 3 if smoke else 10, idn.RING_XYZ, "lhs_identity", "rhs_identity"),
        ("g", 4 if smoke else 12, idn.RING_XZ, "g_def", "g_closed"),
    )


def point_oracle(seed: int, smoke: bool) -> tuple[dict, list]:
    """Build both sides, then check_pair_at_points for main at m=10 and g at
    m=12, 2000 trials each (m=3 and m=4, 30 trials in smoke mode)."""
    trials = 30 if smoke else 2000
    built, reports, check_seconds = [], [], []
    started = time.perf_counter()
    for name, m, ring, lhs_name, rhs_name in _oracle_cases(smoke):
        lhs = getattr(idn, lhs_name)(m)
        rhs = getattr(idn, rhs_name)(m)
        t0 = time.perf_counter()
        reports.append(vfy.check_pair_at_points(name, m, lhs, rhs, ring, trials, seed))
        check_seconds.append(time.perf_counter() - t0)
        built.append((lhs, rhs))
    wall = time.perf_counter() - started
    result = {
        "attempted": trials * len(reports),
        "failed": sum(r.failures for r in reports),
        "wall_s": wall,
        "verify_m25_s": max(check_seconds),
        "points_per_s": trials * len(reports) / sum(check_seconds),
        "peak_rss_mb": _peak_rss_mb(),
    }
    return result, list(zip(_oracle_cases(smoke), built, reports))


def check_point_oracle(seed: int, checked: list) -> list[str]:
    rng = random.Random(seed)
    problems = []
    for (name, m, ring, _, _), (lhs, rhs), report in checked:
        trials = report.trials
        names = "".join(ring.variables)
        if (report.seed, report.parameter) != (seed, m):
            problems.append(f"{name}: report does not echo its seed and m")
        # The program's points are the README's SplitMix64 scheme, and its
        # expanded sides evaluate there to the defining sums.
        sampled = sorted({0, 1, trials - 1, *rng.sample(range(trials), 3)})
        build_lhs, build_rhs = oracle.SIDES[name]
        for index in sampled:
            expected = oracle.oracle_point(names, seed, index)
            drawn = vfy.PointSample.draw(ring, seed, index).assignments
            if {v: _fraction(q) for v, q in drawn.items()} != expected:
                problems.append(f"{name}: point {index} is not the SplitMix64 scheme's")
            args = [expected[v] for v in names]
            if (_fraction(lhs.eval(expected)) != build_lhs(m, *args)
                    or _fraction(rhs.eval(expected)) != build_rhs(m, *args)):
                problems.append(f"{name}: sides differ from the sums at point {index}")
        # Negative control: rhs + z differs from lhs wherever z != 0.
        control_trials = min(trials, 200)
        z = ring.var("z")
        control = vfy.check_pair_at_points(name, m, lhs, rhs + z, ring,
                                           control_trials, seed)
        nonzero = [i for i in range(control_trials)
                   if oracle.oracle_point(names, seed, i)["z"] != 0]
        first = control.first_failure.index if control.first_failure else None
        if control.failures != len(nonzero) or first != (nonzero or [None])[0]:
            problems.append(f"{name}: negative control detected {control.failures} "
                            f"of {len(nonzero)} perturbed points")
    return problems


JOBS = {
    "main-sweep": (main_sweep, check_main_sweep),
    "point-oracle": (point_oracle, check_point_oracle),
}


def run_cli(argv: list[str], smoke: bool, tracer: Tracer | None) -> tuple[int, dict]:
    if smoke:
        vfy.LEMMA_RANGES = {name: SMOKE_LEMMA_RANGE for name in vfy.LEMMA_RANGES}
    status = cli.main(argv)
    sys.stdout.flush()
    summary = {"lemma_ranges": {k: [r.start, r.stop] for k, r in vfy.LEMMA_RANGES.items()}}
    if tracer is not None:
        sweep_start = tracer.first_start("verify.sweep")
        tail_start = tracer.first_start("verify.verify_lemma")
        summary["pool_wall_s"] = (0.0 if None in (sweep_start, tail_start)
                                  else (tail_start - sweep_start) / 1e9)
    return status, summary


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("job", choices=("main-sweep", "point-oracle", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace")
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    args.cli_args = argv[split + 1:]

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    rings.reset_op_count()
    if args.job == "cli":
        status, result = run_cli(args.cli_args, args.smoke, tracer)
    else:
        job, check = JOBS[args.job]
        result, outputs = job(args.seed, args.smoke)
        status = 0
    if tracer is not None:
        # The checks call the program too; keep them out of the trace.
        tracer.uninstall()
        result["layers"] = {**tracer.layer_metrics(), "rings.coeff_ops": rings.op_count()}
        tracer.write(args.trace)
    if args.job != "cli":
        result["problems"] = check(args.seed, outputs)
    with open(args.out, "w") as out:
        json.dump(result, out)
    return status


if __name__ == "__main__":
    sys.exit(main())
