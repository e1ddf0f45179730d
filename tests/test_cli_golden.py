"""Exact CLI output: text and JSON layouts pinned byte for byte.

Each case's standard output, with wall-clock figures scrubbed, must equal
``tests/golden/<name>.txt``.  The sweeps run over lemma ranges cut to
``range(0, 2)``: they pin the layout, while ``test_cli.py`` and
``test_verify.py`` cover the full ranges.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

import binomid.verify as vfy
from binomid.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "verify_m1": ("verify", "--m", "1"),
    "verify_m1_lemma_g_trials_json": (
        "verify", "--m", "1", "--lemma", "g", "--trials", "3", "--seed", "5",
        "--format", "json"),
    "bench_m1": ("bench", "--m", "1", "--points", "2", "--seed", "1"),
    "bench_m1_json": (
        "bench", "--m", "1", "--points", "2", "--seed", "1", "--format", "json"),
    "expand_chebyshev_n3_json": (
        "expand", "--target", "chebyshev", "--n", "3", "--format", "json"),
    "sweep_m1": ("sweep", "--m-max", "1"),
    "sweep_m1_json": ("sweep", "--m-max", "1", "--format", "json"),
}


def scrubbed_output(argv) -> str:
    """Standard output of ``binomid ARGV`` with timings set to 0; the
    command must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    text = re.sub(r'"elapsed_micros": \d+', '"elapsed_micros": 0', out.getvalue())
    return re.sub(r"\b\d+ us\b", "0 us", text)


@pytest.mark.parametrize("name", CASES)
def test_output_matches_golden(name, monkeypatch):
    monkeypatch.setattr(vfy, "LEMMA_RANGES",
                        {lemma: range(0, 2) for lemma in vfy.LEMMA_RANGES})
    expected = (GOLDEN / f"{name}.txt").read_text()
    assert scrubbed_output(CASES[name]) == expected
