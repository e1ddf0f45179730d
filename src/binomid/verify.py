"""Verification orchestration: the registry of the proof's constructions,
symbolic equality reports, a seeded randomized evaluation oracle,
parameter sweeps, and the benchmark layer comparing definitional sums
against their closed forms.

Randomness is SplitMix64, seeded and fully documented so reports replay
byte-identically: trial ``i`` over an ``n``-variable ring consumes
outputs ``2*n*i .. 2*n*(i+1)-1`` of the stream started at ``seed``; per
variable, the first output gives the numerator ``-999 + (u % 1999)`` and
the second the denominator ``1 + (u % 99)``.  Seeds are the ints
``0 .. 2**64-1``; any other seed raises ``ValueError`` instead of
aliasing one of them.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial
from itertools import tee
from typing import Callable, Optional

from . import identities as idn
# Unused here: perfbench/tracer.py replaces this name with its traced wrapper.
from .binomials import binom_poly
from .rings import Polynomial, Ring, check_int, op_count, rat

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def check_seed(seed: int) -> int:
    """Return ``seed`` if it is an int in 0..2**64-1, the seeds SplitMix64 tells apart."""
    if check_int("seed", seed) > _MASK64:
        raise ValueError(f"seed must be < 2**64, got {seed}")
    return seed


class SplitMix64:
    """Steele/Lea/Flood 64-bit generator; tiny, seedable, reproducible."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


@dataclass(frozen=True)
class PointSample:
    """A rational assignment to ring variables, replayable from (seed, index)."""

    assignments: dict[str, Fraction]
    seed: int
    index: int

    @classmethod
    def draw(cls, ring: Ring, seed: int, index: int) -> "PointSample":
        # The state is a counter, so skipping the 2*n*index earlier
        # outputs is adding that many increments to the seed.
        gen = SplitMix64(check_seed(seed) + 2 * len(ring) * check_int("index", index) * _GAMMA)
        assignments = {}
        for name in ring.variables:
            numerator = -999 + gen.next_u64() % 1999
            denominator = 1 + gen.next_u64() % 99
            assignments[name] = rat(numerator, denominator)
        return cls(assignments, seed, index)


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one symbolic comparison."""

    identity_name: str
    parameter: int
    equal: bool
    lhs_rendered: str
    rhs_rendered: str
    difference_rendered: str
    term_counts: tuple[int, int]
    elapsed_micros: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RandomCheckReport:
    """Outcome of the randomized point oracle."""

    identity_name: str
    parameter: int
    trials: int
    seed: int
    failures: int
    first_failure: Optional[PointSample]

    def to_dict(self) -> dict:
        """As ``asdict``, but the failing point is only its index and its
        coordinates as strings (``"-3/7"``)."""
        document = asdict(self)
        first = self.first_failure
        if first is not None:
            document["first_failure"] = {
                "index": first.index,
                "assignments": {k: str(v) for k, v in first.assignments.items()},
            }
        return document


def compare(name: str, parameter: int, lhs: Polynomial, rhs: Polynomial,
            started: float) -> IdentityReport:
    """Report on ``lhs == rhs``, timed from ``started``, taken before the build."""
    difference = lhs - rhs
    elapsed = int((time.perf_counter() - started) * 1e6)
    return IdentityReport(
        identity_name=name,
        parameter=parameter,
        equal=not difference,
        lhs_rendered=lhs.render(),
        rhs_rendered=rhs.render(),
        difference_rendered=difference.render(),
        term_counts=(len(lhs.terms), len(rhs.terms)),
        elapsed_micros=elapsed,
    )


def verify_identity(m: int) -> IdentityReport:
    """Symbolically compare both sides of the main identity at parameter m."""
    started = time.perf_counter()
    return compare("main", m, idn.lhs_identity(m), idn.rhs_identity(m), started)


@dataclass(frozen=True)
class Construction:
    """One step of the proof: two independent constructions of the same
    polynomial for every parameter value, each returned in the step's own
    ring, the range a sweep checks (``None`` for ``main``, whose range the
    caller gives), and the name of the CLI option that carries the parameter."""

    lhs: Callable[[int], Polynomial]
    rhs: Callable[[int], Polynomial]
    sweep_range: Optional[range]
    param: str = "m"


CONSTRUCTIONS: dict[str, Construction] = {
    "main": Construction(idn.lhs_identity, idn.rhs_identity, None),
    "f": Construction(idn.f_def, idn.f_closed, range(0, 26)),
    "g": Construction(idn.g_def, idn.g_closed, range(0, 26)),
    "jensen": Construction(idn.jensen_lhs, idn.jensen_rhs, range(0, 21)),
    "chebyshev": Construction(
        idn.chebyshev_closed, idn.chebyshev_recurrence, range(0, 51), "n"),
    "telescope": Construction(idn.telescoped_sum, idn.telescoped_closed, range(0, 26)),
    "collapse": Construction(idn.binomial_collapse, idn.collapse_closed, range(0, 21), "n"),
}

# Parameter ranges at which each lemma suite is verified during a sweep.
# perfbench/worker.py rebinds this name in smoke mode, so ``sweep`` and the
# CLI's ``--lemma`` choices read the module global each time they run.
LEMMA_RANGES = {name: c.sweep_range for name, c in CONSTRUCTIONS.items()
                if c.sweep_range is not None}
# Every caller reaches a step's builders here, through ``builders``, since
# perfbench/tracer.py swaps these entries for traced ones.
_LEMMA_SIDES = {name: (c.lhs, c.rhs) for name, c in CONSTRUCTIONS.items()}


def builders(name: str) -> tuple[Callable[[int], Polynomial], Callable[[int], Polynomial]]:
    """The lhs and rhs builders of the proof step ``name``."""
    try:
        return _LEMMA_SIDES[name]
    except KeyError:
        raise ValueError(f"unknown proof step {name!r}; expected one of {tuple(CONSTRUCTIONS)}")


def verify_lemma(name: str, parameter: int) -> IdentityReport:
    """Compare the two constructions of ``CONSTRUCTIONS[name]``."""
    started = time.perf_counter()
    build_lhs, build_rhs = builders(name)
    return compare(name, parameter, build_lhs(parameter), build_rhs(parameter), started)


def random_point_check(identity_name: str, m: int, trials: int,
                       seed: int) -> RandomCheckReport:
    """Evaluate both sides of an identity exactly at seeded random
    rational points and count mismatches; deterministic given the seed."""
    check_int("trials", trials, 1)
    check_seed(seed)
    build_lhs, build_rhs = builders(identity_name)
    lhs = build_lhs(m)
    return check_pair_at_points(identity_name, m, lhs, build_rhs(m), lhs.ring, trials, seed)


def check_pair_at_points(identity_name: str, m: int, lhs: Polynomial,
                         rhs: Polynomial, ring: Ring, trials: int,
                         seed: int) -> RandomCheckReport:
    """Point-oracle core, also usable on externally perturbed sides.

    Trial ``i`` compares the exact values of ``lhs`` and ``rhs`` at
    ``PointSample.draw(ring, seed, i)``; ``failures`` counts the trials
    where they differ and ``first_failure`` is the first of them.  Both
    sides are evaluated with ``Polynomial.eval_many``, which takes the
    drawn points a chunk at a time, so memory stays bounded for any
    number of trials.
    """
    check_int("trials", trials, 1)
    if not lhs.ring == rhs.ring == ring:
        raise ValueError(f"ring mismatch: {lhs.ring.variables} vs "
                         f"{rhs.ring.variables} vs {ring.variables}")
    # eval_many pulls a chunk of points at a time, so the points are drawn
    # a chunk ahead of the comparisons and tee buffers at most one chunk.
    samples, left, right = tee(map(partial(PointSample.draw, ring, seed), range(trials)), 3)
    failures = 0
    first_failure: Optional[PointSample] = None
    for sample, a, b in zip(samples, lhs.eval_many(s.assignments for s in left),
                            rhs.eval_many(s.assignments for s in right)):
        if a != b:
            failures += 1
            if first_failure is None:
                first_failure = sample
    return RandomCheckReport(identity_name, m, trials, seed, failures, first_failure)


def sweep(m_max: int, jobs: int = 1) -> list[IdentityReport]:
    """verify_identity for m in 0..m_max plus every lemma suite at its
    standard range; reports come back in this deterministic order.  With
    ``jobs > 1`` every report is computed in a process pool of at most
    one worker per CPU this process may run on."""
    check_int("m_max", m_max)
    check_int("jobs", jobs, 1)
    tasks = [("main", m) for m in range(m_max + 1)]
    tasks += [(name, p) for name, prange in LEMMA_RANGES.items() for p in prange]
    names, params = zip(*tasks)
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(jobs, cpus)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(verify_lemma, names, params))
    return list(map(verify_lemma, names, params))


@dataclass(frozen=True)
class StrategyTiming:
    strategy: str
    coeff_ops: int
    elapsed_micros: int


@dataclass(frozen=True)
class BenchReport:
    """Definitional-sum vs closed-form cost comparison at random points.

    Coefficient-operation counts are the portable metric; wall-clock is
    informational.  ``agreed`` is true iff each pair of strategies built
    the same polynomial; the evaluations only measure cost.
    """

    m: int
    points: int
    seed: int
    strategies: tuple[StrategyTiming, ...]
    agreed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def bench(m: int, points: int, seed: int) -> BenchReport:
    """Build each side of ``f`` and ``g`` and evaluate it at shared seeded
    points, counting elementary coefficient operations along the way; the
    values are dropped as they come, so memory holds one chunk of points."""
    check_int("points", points, 1)
    check_seed(seed)
    timings, agreed = [], True
    for name in ("f", "g"):
        built = []
        for build in builders(name):
            ops, started = op_count(), time.perf_counter()
            poly = build(m)
            deque(poly.eval_many(PointSample.draw(poly.ring, seed, i).assignments
                                 for i in range(points)), maxlen=0)
            elapsed = int((time.perf_counter() - started) * 1e6)
            timings.append(StrategyTiming(build.__name__, op_count() - ops, elapsed))
            built.append(poly)
        agreed = agreed and built[0] == built[1]
    return BenchReport(m, points, seed, tuple(timings), agreed)
