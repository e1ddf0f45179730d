"""Verification orchestration: reports, the seeded point oracle, sweeps,
and the benchmark layer."""

import pytest

from binomid.identities import RING_XYZ, rhs_identity
from binomid.rings import Polynomial
from binomid.verify import (
    LEMMA_NAMES,
    LEMMA_RANGES,
    PointSample,
    SplitMix64,
    bench,
    check_pair_at_points,
    random_point_check,
    sweep,
    verify_identity,
    verify_lemma,
)


class TestSplitMix64:
    def test_reference_vectors_seed_1234567(self):
        gen = SplitMix64(1234567)
        assert [gen.next_u64() for _ in range(5)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ]

    def test_reference_vectors_seed_0(self):
        gen = SplitMix64(0)
        assert [gen.next_u64() for _ in range(3)] == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
        ]


class TestPointSample:
    def test_replay_is_bit_identical(self):
        a = PointSample.draw(RING_XYZ, seed=42, index=5)
        b = PointSample.draw(RING_XYZ, seed=42, index=5)
        assert a == b

    def test_indices_take_disjoint_stream_slices(self):
        # drawing index i directly equals skipping past indices 0..i-1
        from binomid.rings import rat

        gen = SplitMix64(7)
        for index in range(5001):
            expected = {}
            for name in RING_XYZ.variables:
                numerator = -999 + gen.next_u64() % 1999
                denominator = 1 + gen.next_u64() % 99
                expected[name] = rat(numerator, denominator)
            if index < 4 or index == 5000:
                sample = PointSample.draw(RING_XYZ, 7, index)
                assert sample.assignments == expected

    def test_ranges(self):
        for index in range(50):
            s = PointSample.draw(RING_XYZ, 3, index)
            for q in s.assignments.values():
                # reduced, but magnitudes can only shrink under reduction
                assert -999 <= q.numerator <= 999
                assert 1 <= q.denominator <= 99


class TestVerifyIdentity:
    def test_m0(self):
        report = verify_identity(0)
        assert report.equal
        assert report.difference_rendered == "0"
        assert report.lhs_rendered == "x + z"

    def test_m1(self):
        report = verify_identity(1)
        assert report.equal
        assert report.lhs_rendered == report.rhs_rendered
        assert report.lhs_rendered == "x^2 + x*z - 2*z^2 - x - 2*z"

    def test_term_counts_and_timing_present(self):
        report = verify_identity(2)
        assert report.term_counts == (9, 9)
        assert report.elapsed_micros >= 0


class TestVerifyLemma:
    @pytest.mark.parametrize("name", LEMMA_NAMES)
    def test_each_lemma_passes_small(self, name):
        for parameter in range(4):
            assert verify_lemma(name, parameter).equal
            assert random_point_check(name, parameter, 5, seed=1).failures == 0

    def test_jensen_m1_rendering(self):
        report = verify_lemma("jensen", 1)
        assert report.equal
        assert report.lhs_rendered == report.rhs_rendered == "a + b + c"

    def test_chebyshev_0(self):
        report = verify_lemma("chebyshev", 0)
        assert report.equal and report.lhs_rendered == "1"

    def test_telescope_1(self):
        report = verify_lemma("telescope", 1)
        assert report.equal and report.lhs_rendered == "x^2 - x"

    def test_unknown_lemma_rejected(self):
        with pytest.raises(ValueError):
            verify_lemma("nope", 1)


class TestRandomPointCheck:
    def test_main_m0(self):
        report = random_point_check("main", 0, 10, seed=42)
        assert report.failures == 0 and report.first_failure is None

    def test_main_m5(self):
        report = random_point_check("main", 5, 100, seed=7)
        assert report.failures == 0

    def test_deterministic_replay(self):
        a = random_point_check("main", 3, 25, seed=11)
        b = random_point_check("main", 3, 25, seed=11)
        assert a == b
        assert a.to_dict() == b.to_dict()

    def test_perturbed_side_fails_everywhere(self):
        lhs = rhs_identity(3)
        rhs = rhs_identity(3) + 1  # constant offset never evaluates equal
        report = check_pair_at_points("main", 3, lhs, rhs, RING_XYZ, 100, seed=7)
        assert report.failures == 100
        assert report.first_failure is not None
        assert report.first_failure.index == 0

    def test_unknown_identity_rejected(self):
        with pytest.raises(ValueError):
            random_point_check("nope", 1, 10, seed=1)

    def test_bad_trials_rejected(self):
        with pytest.raises(ValueError):
            random_point_check("main", 1, 0, seed=1)


class TestParameterValidation:
    def test_bool_and_non_int_rejected(self):
        calls = [
            (verify_identity, True),
            (verify_lemma, "f", True),
            (verify_lemma, "f", 2.0),
            (random_point_check, "main", 2, True, 0),
            (random_point_check, "main", True, 2, 0),
            (bench, 2, True, 0),
            (bench, 2.0, 1, 0),
            (sweep, True),
            (sweep, 0, True),
            (sweep, 0, 0),
        ]
        for call, *args in calls:
            with pytest.raises(ValueError):
                call(*args)


class TestSweep:
    def test_sweep0_contents(self):
        reports = sweep(0)
        main = [r for r in reports if r.identity_name == "main"]
        assert len(main) == 1 and main[0].equal
        lemma_count = sum(len(r) for r in LEMMA_RANGES.values())
        assert len(reports) == 1 + lemma_count
        assert all(r.equal for r in reports)

    def test_sweep_parallel_matches_serial(self):
        serial = [
            (r.identity_name, r.parameter, r.equal, r.lhs_rendered)
            for r in sweep(3, jobs=1)
        ]
        parallel = [
            (r.identity_name, r.parameter, r.equal, r.lhs_rendered)
            for r in sweep(3, jobs=2)
        ]
        assert serial == parallel

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sweep(-1)

    def test_jobs_capped_at_cpu_count(self, monkeypatch):
        import concurrent.futures
        import os

        import binomid.verify as vfy

        pools = []

        class InProcessPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(vfy, "LEMMA_RANGES", {n: range(0, 1) for n in LEMMA_NAMES})
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        reports = sweep(1, jobs=10**6)
        assert pools == [3]
        assert [(r.identity_name, r.parameter) for r in reports] == (
            [("main", 0), ("main", 1)] + [(n, 0) for n in LEMMA_NAMES])
        assert all(r.equal for r in reports)
        sweep(0, jobs=2)
        assert pools == [3, 2]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert len(sweep(0, jobs=8)) == 1 + len(LEMMA_NAMES)
        assert pools == [3, 2]  # an unknown CPU count counts as one: no pool


class TestBench:
    def test_constant_workload(self):
        report = bench(0, 1, seed=1)
        assert report.agreed

    def test_agreement(self):
        report = bench(1, 10, seed=1)
        assert report.agreed

    def test_closed_forms_cost_less(self):
        report = bench(12, 20, seed=4)
        ops = {t.strategy: t.coeff_ops for t in report.strategies}
        assert report.agreed
        assert ops["f_closed"] < ops["f_def"]
        assert ops["g_closed"] < ops["g_def"]

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            bench(1, 0, seed=1)
        with pytest.raises(ValueError):
            bench(-1, 1, seed=1)
