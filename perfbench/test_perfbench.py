"""Tests of the benchmark itself, in smoke mode (tiny sizes, same checks).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    result = result_of(bench(workload, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics", "smoke"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(result["metrics"][n]["value"] > 0 for n in names)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (result_of(bench(workload, trace=1, seed=s)) for s in (3, 4))
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for name in ("rings.coeff_ops", "verify.rng_outputs", "rings.mul_calls"):
        assert first["metrics"][name] == second["metrics"][name]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("main-sweep", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_points_follow_the_readme_scheme():
    from binomid import RING_XZ, RING_XYZ, PointSample

    for ring in (RING_XYZ, RING_XZ):
        names = "".join(ring.variables)
        for index in (0, 1, 17):
            drawn = PointSample.draw(ring, 42, index).assignments
            assert drawn == oracle.oracle_point(names, 42, index)


def test_defining_sums_catch_a_wrong_render():
    from binomid import verify_lemma

    report = verify_lemma("g", 3).to_dict()
    point = {"x": Fraction(3, 7), "z": Fraction(-5, 2)}
    assert oracle.check_report_at_points(report, [point]) == []
    wrong = dict(report, rhs_rendered=report["rhs_rendered"] + " + 1/7*x^9")
    assert oracle.check_report_at_points(wrong, [point])
    assert oracle.sympy_mismatches([report], 6) == []
    assert oracle.sympy_mismatches([wrong], 6)
    malformed = dict(report, rhs_rendered=report["rhs_rendered"] + " + z")
    assert "repeated monomial" in oracle.check_report_at_points(malformed, [point])[0]


def test_parse_rendered_round_trips_signs_and_powers():
    terms = oracle.parse_rendered("-3/2*x^2*z + y - 7")
    assert terms == {(("x", 2), ("z", 1)): Fraction(-3, 2), (("y", 1),): 1, (): -7}
    assert oracle.parse_rendered("0") == {}
