"""CLI contract: exit statuses, canonical output, JSON schema stability."""

import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import binomid.verify as vfy
from binomid import __version__
from binomid.cli import main


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_m0(self, capsys):
        code, out, _ = run(capsys, "verify", "--m", "0")
        assert code == 0
        assert "x + z" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--m", "7", "--format", "json")
        assert code == 0
        document = json.loads(out)
        assert set(document) == {"command", "parameters", "reports", "engine_version"}
        assert document["command"] == "verify"
        assert document["engine_version"] == __version__
        assert document["reports"][0]["equal"] is True

    def test_negative_m_is_usage_error(self, capsys):
        # Every bounded integer option is checked when the arguments are
        # parsed, so none of these commands starts any work.
        for argv in [
            ("verify", "--m", "-1"),
            ("verify", "--m", "1", "--trials", "-1"),
            ("bench", "--m", "1", "--points", "0"),
            ("sweep", "--m-max", "0", "--jobs", "0"),
            ("sweep", "--m-max", "-1"),
            ("expand", "--target", "chebyshev", "--n", "-1"),
            ("verify", "--m", "1", "--trials", "1", "--seed", "-1"),
            ("bench", "--m", "1", "--seed", str(2**64)),
        ]:
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert "usage" in err, argv

    def test_lemma_dispatch(self, capsys):
        code, out, _ = run(capsys, "verify", "--m", "1", "--lemma", "jensen")
        assert code == 0
        assert "a + b + c" in out

    def test_with_trials(self, capsys):
        code, out, _ = run(capsys, "verify", "--m", "2", "--trials", "10",
                           "--seed", "5")
        assert code == 0
        assert "10/10 agree" in out

    def test_lemma_with_trials_runs_the_oracle(self, capsys):
        code, out, _ = run(capsys, "verify", "--m", "3", "--lemma", "f",
                           "--trials", "10", "--format", "json")
        assert code == 0
        reports = json.loads(out)["reports"]
        assert len(reports) == 2
        oracle = reports[1]
        assert oracle["identity_name"] == "f"
        assert (oracle["parameter"], oracle["trials"], oracle["failures"]) == (3, 10, 0)

    def test_trials_build_each_side_once(self, capsys, monkeypatch):
        calls = []

        def counted(build):
            def wrapper(parameter):
                calls.append(build.__name__)
                return build(parameter)
            return wrapper

        c = vfy.CONSTRUCTIONS["g"]
        lhs, rhs = counted(c.lhs), counted(c.rhs)
        # Count every route to g's builders: the registry and verify_lemma's table.
        monkeypatch.setitem(vfy.CONSTRUCTIONS, "g",
                            dataclasses.replace(c, lhs=lhs, rhs=rhs))
        monkeypatch.setitem(vfy._LEMMA_SIDES, "g", (lhs, rhs))
        code, out, _ = run(capsys, "verify", "--m", "2", "--lemma", "g", "--trials", "3")
        assert code == 0 and "3/3 agree" in out
        assert sorted(calls) == ["g_closed", "g_def"]


class TestExpand:
    def test_f_m1(self, capsys):
        code, out, _ = run(capsys, "expand", "--target", "f", "--m", "1")
        assert code == 0
        assert out.strip() == "x - z - 1"

    def test_chebyshev_n2(self, capsys):
        code, out, _ = run(capsys, "expand", "--target", "chebyshev", "--n", "2")
        assert code == 0
        assert out.strip() == "4*t^2 - 1"

    def test_g_m0(self, capsys):
        code, out, _ = run(capsys, "expand", "--target", "g", "--m", "0")
        assert code == 0
        assert out.strip() == "1"

    def test_unknown_target_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "expand", "--target", "nope", "--m", "1")
        assert code == 2

    def test_missing_parameter_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "expand", "--target", "chebyshev", "--m", "1")
        assert code == 2

    def test_parameter_the_target_does_not_take_is_usage_error(self, capsys):
        # Reported by expand's own parser, under its own usage line.
        for argv in [("--target", "f", "--m", "2", "--n", "5"), ("--target", "f")]:
            code, out, err = run(capsys, "expand", *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("usage: binomid expand "), argv
            assert "binomid expand: error: target 'f' takes --m" in err, argv


@pytest.fixture(scope="module")
def full_sweep(pooled_sweep):
    """Exit status and standard output of ``sweep --m-max 3 --jobs 2`` in
    text and in JSON.  Both commands get their reports from the session's
    pooled full-range sweep, so the lemma suites are not built again."""
    calls = []

    def shared_sweep(m_max, jobs=1):
        calls.append((m_max, jobs))
        return pooled_sweep

    outputs = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vfy, "sweep", shared_sweep)
        for fmt in ("text", "json"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["sweep", "--m-max", "3", "--jobs", "2", "--format", fmt])
            outputs[fmt] = code, out.getvalue()
    assert calls == [(3, 2), (3, 2)]
    return outputs


class TestSweep:
    def test_small_sweep(self, full_sweep):
        code, out = full_sweep["text"]
        assert code == 0
        assert "FAIL" not in out
        assert "all OK" in out

    def test_json_report_count(self, full_sweep):
        code, out = full_sweep["json"]
        assert code == 0
        document = json.loads(out)
        main_reports = [
            r for r in document["reports"] if r["identity_name"] == "main"
        ]
        assert len(main_reports) == 4


class TestBench:
    def test_basic(self, capsys):
        code, out, _ = run(capsys, "bench", "--m", "3", "--points", "10",
                           "--seed", "1")
        assert code == 0
        assert "agree" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "bench", "--m", "2", "--points", "3",
                           "--seed", "1", "--format", "json")
        assert code == 0
        document = json.loads(out)
        report = document["reports"][0]
        assert report["agreed"] is True
        names = [s["strategy"] for s in report["strategies"]]
        assert names == ["f_def", "f_closed", "g_def", "g_closed"]


def _scrub_timings(text):
    return re.sub(r'"elapsed_micros": \d+', '"elapsed_micros": 0', text)


def test_json_output_deterministic_modulo_wall_clock(capsys):
    # wall-clock fields necessarily vary; everything else must be
    # byte-identical across identical invocations
    _, first, _ = run(capsys, "verify", "--m", "4", "--trials", "20",
                      "--seed", "9", "--format", "json")
    _, second, _ = run(capsys, "verify", "--m", "4", "--trials", "20",
                       "--seed", "9", "--format", "json")
    assert _scrub_timings(first) == _scrub_timings(second)


def test_no_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 2


def test_module_entry_point():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "binomid.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)

    ok = cli("verify", "--m", "1")
    assert ok.returncode == 0
    assert ok.stdout.startswith("main m=1: OK")
    bad = cli("verify", "--m", "-1")
    assert (bad.returncode, bad.stdout) == (2, "")
    assert bad.stderr.startswith("usage: binomid verify ")


def test_no_run_time_dependencies():
    # Each subcommand runs on the standard library alone: none of the
    # test extras, nor numpy, is imported along the way.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    script = "\n".join([
        "import contextlib, io, sys",
        "import binomid",
        "from binomid.cli import main",
        "for argv in (['verify', '--m', '3', '--trials', '20'],",
        "             ['bench', '--m', '2', '--points', '3'],",
        "             ['expand', '--target', 'chebyshev', '--n', '4']):",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        assert main(argv) == 0, argv",
        "print(sorted({'sympy', 'hypothesis', 'numpy', 'pytest'} & set(sys.modules)))",
    ])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr
