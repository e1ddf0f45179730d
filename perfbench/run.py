"""The binomid benchmark: one command for every workload.

    python3 perfbench/run.py --workload {main-sweep,cli-sweep,point-oracle}
                             --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout; binomid is imported from ``src/``.
Every round of a workload runs in a fresh interpreter, so every round is
cold, as a command-line user's run is.  Rounds repeat until ``--seconds``
have passed (at least one), and each metric is the median over rounds.
The program's outputs are checked outside the timed region against
computations made apart from it (``oracle.py``).

With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics; with ``--trace 1`` one untraced and one
traced round run, and it carries the per-layer metrics instead, with the
tracing overhead.  ``--smoke`` runs tiny sizes through the same checks,
for the benchmark's own tests; its figures are never to be reported, and
its result carries ``"smoke": true``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("main-sweep", "cli-sweep", "point-oracle")
SETUP_PROBES = 15
RUN_BUDGET_S = 170.0
CLI_JOBS = 2
# Reports that cli-sweep checks against sympy's expansion.
SYMPY_MAX_PARAMETER = 6

sys.path.insert(0, str(HERE))
import oracle  # noqa: E402


class BenchError(Exception):
    """The workload could not run to its end; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(cmd: list[str], stdout_path: Path, deadline: float):
    """Run cmd from the checkout root; return (seconds, exit code, peak RSS
    in MB of the child and every descendant it waited for)."""
    # Truncating a file that holds data can stall for ~0.1 s on ext4
    # (auto_da_alloc flushes it), so every output file starts afresh.
    stdout_path.unlink(missing_ok=True)
    with open(stdout_path, "wb") as stdout:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=stdout, cwd=ROOT, env=child_env(),
                                start_new_session=True)
    remaining = deadline - time.monotonic()
    timer = threading.Timer(max(remaining, 0.0), os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - started
    finally:
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    if time.monotonic() >= deadline:
        raise BenchError(f"{cmd[1:3]} ran past the run's time budget")
    return seconds, proc.returncode, usage.ru_maxrss / 1024


def measure_setup(deadline: float) -> tuple[list[float], str]:
    """Seconds from starting a fresh interpreter until ``import binomid``
    is done, once per probe; perf_counter is CLOCK_MONOTONIC, shared by
    every process on the machine."""
    code = ("import binomid, time; t = time.perf_counter_ns(); "
            "b = type(binomid.rat(0)); print(t, b.__module__ + '.' + b.__name__)")
    out = OUT / f"probe-{os.getpid()}.txt"
    samples, backend = [], "?"
    for _ in range(SETUP_PROBES):
        started = time.perf_counter_ns()
        _, status, _ = run_child([sys.executable, "-c", code], out, deadline)
        if status != 0:
            raise BenchError("import binomid failed")
        stamp, backend = out.read_text().split()
        samples.append((int(stamp) - started) / 1e9)
    out.unlink()
    return samples, backend


def worker_round(job: str, seed: int, smoke: bool, trace_path: Path | None,
                 deadline: float) -> dict:
    out = OUT / f"round-{os.getpid()}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), job, "--seed", str(seed),
           "--out", str(out)]
    cmd += ["--smoke"] * smoke + (["--trace", str(trace_path)] if trace_path else [])
    _, status, _ = run_child(cmd, OUT / f"round-{os.getpid()}.stdout", deadline)
    if status != 0:
        raise BenchError(f"{job} round exited with {status}")
    result = json.loads(out.read_text())
    out.unlink()
    (OUT / f"round-{os.getpid()}.stdout").unlink()
    return result


def expected_cli_order(m_max: int, lemma_ranges: dict) -> list[tuple[str, int]]:
    order = [("main", m) for m in range(m_max + 1)]
    for name, (start, stop) in lemma_ranges.items():
        order += [(name, p) for p in range(start, stop)]
    return order


def cli_round(seed: int, smoke: bool, trace_path: Path | None, deadline: float) -> dict:
    """``binomid sweep --m-max 12 --jobs 2 --format json`` as a subprocess."""
    m_max = 2 if smoke else 12
    argv = ["sweep", "--m-max", str(m_max), "--jobs", str(CLI_JOBS), "--format", "json"]
    summary_path = OUT / f"cli-{os.getpid()}.summary.json"
    if smoke or trace_path:
        cmd = [sys.executable, str(HERE / "worker.py"), "cli", "--out", str(summary_path)]
        cmd += ["--smoke"] * smoke + (["--trace", str(trace_path)] if trace_path else [])
        cmd += ["--", *argv]
    else:
        cmd = [sys.executable, "-m", "binomid.cli", *argv]
    stdout_path = OUT / f"cli-{os.getpid()}.stdout"
    wall, status, peak_rss = run_child(cmd, stdout_path, deadline)
    stdout = stdout_path.read_bytes()
    stdout_path.unlink()
    summary = {}
    if summary_path.exists():
        summary = json.loads(summary_path.read_text())
        summary_path.unlink()
    try:
        document = json.loads(stdout)
    except ValueError:
        raise BenchError(f"binomid sweep exited with {status} and no JSON document")
    reports = document["reports"]

    ranges = summary.get("lemma_ranges") or {
        k: [r.start, r.stop] for k, r in oracle.LEMMA_RANGES.items()}
    expected = expected_cli_order(m_max, ranges)
    failed = sum(not r["equal"] for r in reports) + max(len(expected) - len(reports), 0)
    problems = []
    if status != 0:
        problems.append(f"binomid sweep exited with {status}")
    if (document["command"], document["parameters"]) != (
            "sweep", {"m_max": m_max, "jobs": CLI_JOBS}):
        problems.append("the JSON document does not echo the command and parameters")
    if [(r["identity_name"], r["parameter"]) for r in reports] != expected:
        problems.append(f"expected {len(expected)} reports in parameter order, "
                        f"got {len(reports)}")
    result = {
        "attempted": len(expected),
        "failed": failed,
        "wall_s": wall,
        "verify_m25_s": max(r["elapsed_micros"] for r in reports) / 1e6,
        "points_per_s": len(reports) / wall,
        "peak_rss_mb": peak_rss,
        "problems": problems,
    }
    if trace_path:
        busy = sum(r["elapsed_micros"] for r in reports if r["identity_name"] == "main") / 1e6
        pool_wall = summary["pool_wall_s"]
        layers = summary["layers"]
        layers["verify.pool_busy_s"] = busy
        layers["verify.pool_utilisation"] = busy / (CLI_JOBS * pool_wall) if pool_wall else 0.0
        layers["cli.json_bytes"] = len(stdout)
        result["layers"] = layers

    # Independent checks, outside the timed region.
    rng = random.Random(seed)
    good = [r for r in reports if r["equal"]]
    for report in good:
        point = oracle.rational_point(rng, oracle.VARIABLES[report["identity_name"]])
        problems += oracle.check_report_at_points(report, [point])
    problems += oracle.sympy_mismatches(good, SYMPY_MAX_PARAMETER)
    return result


def run_round(workload: str, seed: int, smoke: bool, trace_path: Path | None,
              deadline: float) -> dict:
    if workload == "cli-sweep":
        return cli_round(seed, smoke, trace_path, deadline)
    result = worker_round(workload, seed, smoke, trace_path, deadline)
    if trace_path:
        result["layers"].update({
            "verify.pool_busy_s": 0.0,
            "verify.pool_utilisation": 0.0,
            "cli.json_bytes": 0,
        })
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests only")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "binomid" / "__init__.py").is_file():
        print(f"binomid sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S

    try:
        setup, backend = measure_setup(deadline)
        print(f"# python {sys.version.split()[0]}, coefficient backend {backend}, "
              f"nproc {os.cpu_count()}, workload {args.workload}, seed {args.seed}"
              + (", SMOKE (not for reporting)" if args.smoke else ""))
        rounds = []
        started = time.monotonic()
        while not rounds or (not args.trace and not args.smoke
                             and time.monotonic() - started < args.seconds):
            rounds.append(run_round(args.workload, args.seed, args.smoke, None, deadline))
        if args.trace:
            spans = OUT / f"trace-{args.workload}-seed{args.seed}.csv.gz"
            traced = run_round(args.workload, args.seed, args.smoke, spans, deadline)
            rounds.append(traced)
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1

    problems = [p for r in rounds for p in r["problems"]]
    for problem in problems:
        print(f"# CHECK FAILED: {problem}")
    if args.trace:
        values = dict(traced["layers"])
        values["trace.overhead_s"] = traced["wall_s"] - rounds[0]["wall_s"]
        table = spec["per_layer"]
    else:
        values = {name: statistics.median(r[name] for r in rounds)
                  for name in ("wall_s", "verify_m25_s", "points_per_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setup)
        table = spec["end_to_end"]
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in table},
    }
    if args.smoke:
        result["smoke"] = True
    line = json.dumps(result)
    saved = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    saved.unlink(missing_ok=True)
    saved.write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
