"""CLI contract: exit statuses, canonical output, JSON schema stability."""

import json
import re

import pytest

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
        code, _, err = run(capsys, "verify", "--m", "-1")
        assert code == 2
        assert "usage" in err

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


class TestSweep:
    def test_small_sweep(self, capsys):
        code, out, _ = run(capsys, "sweep", "--m-max", "2")
        assert code == 0
        assert "FAIL" not in out
        assert "all OK" in out

    def test_json_report_count(self, capsys):
        code, out, _ = run(capsys, "sweep", "--m-max", "0", "--format", "json")
        assert code == 0
        document = json.loads(out)
        main_reports = [
            r for r in document["reports"] if r["identity_name"] == "main"
        ]
        assert len(main_reports) == 1


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
