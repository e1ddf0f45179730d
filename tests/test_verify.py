"""Verification orchestration: reports, the seeded point oracle, sweeps,
and the benchmark layer."""

import inspect
import json
import tracemalloc
from functools import partial

import pytest

import binomid.identities as idn
from binomid.binomials import binom_int, binom_poly, falling_factorial, trinomial_revision_check
from binomid.identities import (
    RING_ABC,
    RING_T,
    RING_XYZ,
    RING_XZ,
    RING_Z,
    binomial_collapse,
    collapse_closed,
    g_closed,
    g_def,
    rhs_identity,
)
from binomid.rings import Polynomial, op_count
from binomid.verify import (
    CONSTRUCTIONS,
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
from reference_engine import reference_eval


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

    def test_seed_must_fit_64_bits(self):
        # SplitMix64 reduces its seed modulo 2**64, so other seeds would
        # alias a seed in range while the report echoes a different one.
        for seed in (-1, 2**64, True, 1.0):
            with pytest.raises(ValueError):
                PointSample.draw(RING_XYZ, seed, 0)
        assert PointSample.draw(RING_XYZ, 0, 0).seed == 0
        assert PointSample.draw(RING_XYZ, 2**64 - 1, 0).seed == 2**64 - 1

    def test_index_must_be_a_natural_int(self):
        # The stream is a 64-bit counter, so index -1 would alias index
        # 2**62 - 1 over (x, z), and a bool would be echoed as the index.
        for index in (-1, True, 1.0):
            with pytest.raises(ValueError):
                PointSample.draw(RING_XZ, 5, index)

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


# The ring each proof step's sides are built in.
STEP_RINGS = {"main": RING_XYZ, "f": RING_XYZ, "g": RING_XZ, "jensen": RING_ABC,
              "chebyshev": RING_T, "telescope": RING_XZ, "collapse": RING_Z}


class TestConstructions:
    def test_step_names(self):
        assert tuple(CONSTRUCTIONS) == tuple(STEP_RINGS)
        assert tuple(LEMMA_RANGES) == tuple(STEP_RINGS)[1:]

    @pytest.mark.parametrize("name", CONSTRUCTIONS)
    def test_every_side_is_a_named_identities_builder(self, name):
        c = CONSTRUCTIONS[name]
        for side in (c.lhs, c.rhs):
            assert getattr(idn, side.__name__, None) is side
            # The registry calls each side with the parameter alone; every
            # later parameter is one of the step's variables, defaulting to it.
            first, *rest = inspect.signature(side).parameters.values()
            assert first.name == c.param
            ring = STEP_RINGS[name]
            assert all(p.name in ring.variables and p.default == ring.var(p.name)
                       for p in rest)
            # main's range is the caller's, from 0.
            for parameter in (c.sweep_range or range(2))[:2]:
                poly = side(parameter)
                assert isinstance(poly, Polynomial) and poly.ring == STEP_RINGS[name]


class TestVerifyLemma:
    @pytest.mark.parametrize("name", tuple(LEMMA_RANGES))
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

    # Seeds whose z coordinate is 0 at trial 0 (1497), at trials 62 and 179
    # (837) and at trial 63 (999): the rhs + z control agrees only there.
    @pytest.mark.parametrize("trials", [1, 63, 64, 65, 200])
    @pytest.mark.parametrize("name, m, seed", [("main", 2, 1497), ("main", 2, 837),
                                               ("g", 3, 999)])
    def test_report_matches_a_per_point_reference_loop(self, name, m, seed, trials):
        c = CONSTRUCTIONS[name]
        lhs, rhs = c.lhs(m), c.rhs(m)
        ring = lhs.ring
        drawn = [PointSample.draw(ring, seed, i) for i in range(trials)]
        nonzero = [s for s in drawn if s.assignments["z"] != 0]
        for other, failing in [(rhs, []), (rhs + ring.var("z"), nonzero)]:
            assert failing == [s for s in drawn if reference_eval(lhs, s.assignments)
                               != reference_eval(other, s.assignments)]
            report = check_pair_at_points(name, m, lhs, other, ring, trials, seed)
            assert report.failures == len(failing)
            assert report.first_failure == (failing[0] if failing else None)

    def test_failing_report_serialises(self):
        # At seed 1497 trial 0 has z = 0, so rhs + z first fails at trial 1.
        c = CONSTRUCTIONS["main"]
        lhs, rhs = c.lhs(2), c.rhs(2) + RING_XYZ.var("z")
        document = check_pair_at_points("main", 2, lhs, rhs, RING_XYZ, 5, 1497).to_dict()
        sample = PointSample.draw(RING_XYZ, 1497, 1)
        assert document["first_failure"] == {
            "index": 1,
            "assignments": {k: str(v) for k, v in sample.assignments.items()},
        }
        assert json.loads(json.dumps(document)) == document

    def test_sides_from_another_ring_rejected(self):
        # g's sides live in (x, z): points drawn over (x, y, z) are not
        # their documented stream, and an (x, y, z) side is not comparable.
        lhs, rhs = g_def(2), g_closed(2)
        wide = g_def(2, *(RING_XYZ.var(v) for v in "xz"))
        for pair in [(lhs, rhs, RING_XYZ), (lhs, wide, RING_XZ), (lhs, wide, RING_XYZ),
                     (wide, rhs, RING_XZ)]:
            with pytest.raises(ValueError, match="ring mismatch"):
                check_pair_at_points("g", 2, *pair, 5, 0)

    def test_unknown_identity_rejected(self):
        with pytest.raises(ValueError):
            random_point_check("nope", 1, 10, seed=1)

    def test_bad_trials_rejected(self):
        with pytest.raises(ValueError):
            random_point_check("main", 1, 0, seed=1)

    def test_points_are_drawn_over_the_ring_of_the_built_sides(self, monkeypatch):
        import binomid.verify as vfy

        def wrong_g_closed(m):
            return g_closed(m) + RING_XZ.var("x") * RING_XZ.var("z")

        monkeypatch.setitem(vfy._LEMMA_SIDES, "g", (g_def, wrong_g_closed))
        report = random_point_check("g", 3, 4, seed=5)
        assert report.failures == 4
        assert report.first_failure == PointSample.draw(RING_XZ, 5, 0)


def _unbuildable(parameter):
    raise AssertionError("a bad seed must be rejected before any build")


@pytest.mark.parametrize("seed", [-1, 2**64, True])
def test_bad_seed_rejected_before_any_build(seed, monkeypatch):
    import dataclasses

    import binomid.verify as vfy

    for name in ("main", "f", "g"):
        c = vfy.CONSTRUCTIONS[name]
        monkeypatch.setitem(vfy.CONSTRUCTIONS, name, dataclasses.replace(
            c, lhs=_unbuildable, rhs=_unbuildable))
        monkeypatch.setitem(vfy._LEMMA_SIDES, name, (_unbuildable, _unbuildable))
    for call in (partial(random_point_check, "main", 2, 5), partial(bench, 2, 3)):
        with pytest.raises(ValueError, match="seed"):
            call(seed)


class TestParameterValidation:
    def test_bool_and_non_int_rejected(self):
        x = RING_XYZ.var("x")
        calls = [
            (verify_identity, True),
            (verify_lemma, "f", True),
            (verify_lemma, "f", 2.0),
            (random_point_check, "main", 2, True, 0),
            (random_point_check, "main", True, 2, 0),
            *[(check_pair_at_points, "main", 2, x, x + 1, RING_XYZ, trials, 7)
              for trials in (-5, 0, True)],
            (bench, 2, True, 0),
            (bench, 2.0, 1, 0),
            (sweep, True),
            (sweep, 0, True),
            (sweep, 0, 0),
            (falling_factorial, RING_XYZ.var("x"), True),
            (binom_poly, RING_XYZ.var("x"), True),
            (binom_poly, RING_XYZ.var("x"), 2.0),
            (RING_XYZ.var("x").__pow__, True),
            (binomial_collapse, True),
            (collapse_closed, True),
            (binom_int, True, 1),
            (binom_int, 2, True),
            (binom_int, 1.0, 1),
            (binom_int, 2, 1.0),
            (trinomial_revision_check, True, True, True),
            (trinomial_revision_check, 2, 1.0, 0),
        ]
        for call, *args in calls:
            with pytest.raises(ValueError):
                call(*args)


class TestSweep:
    def test_sweep0_contents(self, serial_sweep):
        main = [r for r in serial_sweep if r.identity_name == "main"]
        assert [r.parameter for r in main] == [0, 1, 2, 3]
        # main, then f, g, jensen, chebyshev, telescope and collapse
        assert len(serial_sweep) == 4 + 26 + 26 + 21 + 51 + 26 + 21 == 175
        assert all(r.equal for r in serial_sweep)

    def test_sweep_parallel_matches_serial(self, serial_sweep, pooled_sweep):
        serial = [
            (r.identity_name, r.parameter, r.equal, r.lhs_rendered)
            for r in serial_sweep
        ]
        parallel = [
            (r.identity_name, r.parameter, r.equal, r.lhs_rendered)
            for r in pooled_sweep
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
        monkeypatch.setattr(vfy, "LEMMA_RANGES", {n: range(0, 1) for n in LEMMA_RANGES})
        # Where os has no sched_getaffinity, the CPU count caps the pool.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        reports = sweep(1, jobs=10**6)
        assert pools == [3]
        assert [(r.identity_name, r.parameter) for r in reports] == (
            [("main", 0), ("main", 1)] + [(n, 0) for n in LEMMA_RANGES])
        assert all(r.equal for r in reports)
        sweep(0, jobs=2)
        assert pools == [3, 2]
        # Two CPUs, of which this process may run on one: no pool.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert len(sweep(0, jobs=8)) == 1 + len(LEMMA_RANGES)
        assert pools == [3, 2]
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert len(sweep(0, jobs=8)) == 1 + len(LEMMA_RANGES)
        assert pools == [3, 2]  # an unknown CPU count counts as one: no pool


class TestBench:
    def test_constant_workload(self):
        report = bench(0, 1, seed=1)
        assert report.agreed

    def test_agreement(self):
        report = bench(1, 10, seed=1)
        assert report.agreed

    def test_agreement_is_equality_of_the_built_sides(self, monkeypatch):
        import binomid.verify as vfy

        z = RING_XZ.var("z")
        z0, z1 = (PointSample.draw(RING_XZ, 1, i).assignments["z"] for i in (0, 1))

        def g_closed_plus_vanishing(m):
            """g's closed form plus a term that is 0 at both of bench's points."""
            return g_closed(m) + (z - z0) * (z - z1)

        monkeypatch.setitem(vfy._LEMMA_SIDES, "g", (g_def, g_closed_plus_vanishing))
        wrong = g_closed_plus_vanishing(2)
        assert check_pair_at_points("g", 2, g_def(2), wrong, RING_XZ, 2, 1).failures == 0
        assert not bench(2, 2, seed=1).agreed

    def test_memory_does_not_grow_with_points(self):
        def peak(points):
            tracemalloc.start()
            try:
                bench(1, points, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(2000) < 1.5 * peak(200)

    def test_leaves_the_op_counter_running(self):
        x = RING_XYZ.var("x")
        before = op_count()
        x * x
        report = bench(1, 2, seed=1)
        assert op_count() == before + 1 + sum(t.coeff_ops for t in report.strategies)

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
