"""Verification orchestration: the registry of the proof's constructions,
symbolic equality reports, a seeded randomized evaluation oracle,
parameter sweeps, and the benchmark layer comparing definitional sums
against their closed forms.

Randomness is SplitMix64, seeded and fully documented so reports replay
byte-identically: trial ``i`` over an ``n``-variable ring consumes
outputs ``2*n*i .. 2*n*(i+1)-1`` of the stream started at ``seed``; per
variable, the first output gives the numerator ``-999 + (u % 1999)`` and
the second the denominator ``1 + (u % 99)``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from . import identities as idn
from .binomials import binom_poly
from .rings import Polynomial, Ring, op_count, rat, reset_op_count

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _check_int(name: str, value: int, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


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
        gen = SplitMix64(seed + 2 * len(ring) * index * _GAMMA)
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
        return {
            "identity_name": self.identity_name,
            "parameter": self.parameter,
            "equal": self.equal,
            "lhs_rendered": self.lhs_rendered,
            "rhs_rendered": self.rhs_rendered,
            "difference_rendered": self.difference_rendered,
            "term_counts": list(self.term_counts),
            "elapsed_micros": self.elapsed_micros,
        }


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
        first = None
        if self.first_failure is not None:
            first = {
                "index": self.first_failure.index,
                "assignments": {
                    k: str(v) for k, v in self.first_failure.assignments.items()
                },
            }
        return {
            "identity_name": self.identity_name,
            "parameter": self.parameter,
            "trials": self.trials,
            "seed": self.seed,
            "failures": self.failures,
            "first_failure": first,
        }


def _compare(name: str, parameter: int, lhs: Polynomial, rhs: Polynomial,
             started: float) -> IdentityReport:
    difference = lhs - rhs
    elapsed = int((time.perf_counter() - started) * 1e6)
    return IdentityReport(
        identity_name=name,
        parameter=parameter,
        equal=difference.is_zero(),
        lhs_rendered=lhs.render(),
        rhs_rendered=rhs.render(),
        difference_rendered=difference.render(),
        term_counts=(lhs.term_count(), rhs.term_count()),
        elapsed_micros=elapsed,
    )


def verify_identity(m: int) -> IdentityReport:
    """Symbolically compare both sides of the main identity at parameter m."""
    started = time.perf_counter()
    return _compare("main", m, idn.lhs_identity(m), idn.rhs_identity(m), started)


@dataclass(frozen=True)
class Construction:
    """One step of the proof: two independent constructions of the same
    polynomial in ``ring`` for every parameter value, the range a sweep
    checks (``None`` for ``main``, whose range the caller gives), and the
    name of the CLI option that carries the parameter."""

    ring: Ring
    lhs: Callable[[int], Polynomial]
    rhs: Callable[[int], Polynomial]
    sweep_range: Optional[range]
    param: str = "m"


CONSTRUCTIONS: dict[str, Construction] = {
    "main": Construction(idn.RING_XYZ, idn.lhs_identity, idn.rhs_identity, None),
    "f": Construction(idn.RING_XYZ, idn.f_def, idn.f_closed, range(0, 26)),
    "g": Construction(idn.RING_XZ, idn.g_def, idn.g_closed, range(0, 26)),
    "jensen": Construction(idn.RING_ABC, idn.jensen_lhs, idn.jensen_rhs, range(0, 21)),
    "chebyshev": Construction(
        idn.RING_T,
        lambda n: idn.chebyshev_closed(n).poly,
        lambda n: idn.chebyshev_recurrence(n).poly,
        range(0, 51),
        "n",
    ),
    "telescope": Construction(
        idn.RING_XZ,
        idn.telescoped_sum,
        lambda m: (idn.RING_XZ.var("x") - m) * binom_poly(idn.RING_XZ.var("x"), m),
        range(0, 26),
    ),
    # Substituting i -> i+j-k turns binomial_collapse(j, k) into the terms
    # of binomial_collapse(2k-j, 2k-j), so k = j for every j covers every
    # admissible (j, k).
    "collapse": Construction(
        idn.RING_Z,
        lambda j: idn.binomial_collapse(j, j),
        lambda j: idn.RING_Z.const(2**j),
        range(0, 21),
    ),
}

LEMMA_NAMES = tuple(name for name in CONSTRUCTIONS if name != "main")
# Parameter ranges at which each lemma suite is verified during a sweep.
LEMMA_RANGES = {name: CONSTRUCTIONS[name].sweep_range for name in LEMMA_NAMES}
# verify_lemma looks its builders up here rather than in CONSTRUCTIONS,
# because perfbench/tracer.py swaps these entries for traced ones.
_LEMMA_SIDES = {name: (c.lhs, c.rhs) for name, c in CONSTRUCTIONS.items()}


def verify_lemma(name: str, parameter: int) -> IdentityReport:
    """Compare the two constructions of ``CONSTRUCTIONS[name]``."""
    _check_int("parameter", parameter, 0)
    started = time.perf_counter()
    try:
        build_lhs, build_rhs = _LEMMA_SIDES[name]
    except KeyError:
        raise ValueError(f"unknown lemma {name!r}; expected one of {tuple(CONSTRUCTIONS)}")
    return _compare(name, parameter, build_lhs(parameter), build_rhs(parameter), started)


def random_point_check(identity_name: str, m: int, trials: int,
                       seed: int) -> RandomCheckReport:
    """Evaluate both sides of an identity exactly at seeded random
    rational points and count mismatches; deterministic given the seed."""
    _check_int("trials", trials, 1)
    _check_int("parameter", m, 0)
    try:
        c = CONSTRUCTIONS[identity_name]
    except KeyError:
        raise ValueError(
            f"unknown identity {identity_name!r}; expected one of {tuple(CONSTRUCTIONS)}"
        )
    return check_pair_at_points(identity_name, m, c.lhs(m), c.rhs(m), c.ring,
                                trials, seed)


def check_pair_at_points(identity_name: str, m: int, lhs: Polynomial,
                         rhs: Polynomial, ring: Ring, trials: int,
                         seed: int) -> RandomCheckReport:
    """Point-oracle core, also usable on externally perturbed sides."""
    failures = 0
    first_failure: Optional[PointSample] = None
    for index in range(trials):
        sample = PointSample.draw(ring, seed, index)
        if lhs.eval(sample.assignments) != rhs.eval(sample.assignments):
            failures += 1
            if first_failure is None:
                first_failure = sample
    return RandomCheckReport(identity_name, m, trials, seed, failures, first_failure)


def sweep(m_max: int, jobs: int = 1) -> list[IdentityReport]:
    """verify_identity for m in 0..m_max plus every lemma suite at its
    standard range; reports come back in this deterministic order.  With
    ``jobs > 1`` every report is computed in a process pool of at most
    one worker per CPU."""
    _check_int("m_max", m_max, 0)
    _check_int("jobs", jobs, 1)
    tasks = [("main", m) for m in range(m_max + 1)]
    tasks += [(name, p) for name, prange in LEMMA_RANGES.items() for p in prange]
    names, params = zip(*tasks)
    workers = min(jobs, os.cpu_count() or 1)
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
    values: tuple = field(repr=False, default=())

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "coeff_ops": self.coeff_ops,
            "elapsed_micros": self.elapsed_micros,
        }


@dataclass(frozen=True)
class BenchReport:
    """Definitional-sum vs closed-form cost comparison at random points.

    Coefficient-operation counts are the portable metric; wall-clock is
    informational.  ``agreed`` is true iff paired strategies returned
    identical rational values at every sample point.
    """

    m: int
    points: int
    seed: int
    strategies: tuple[StrategyTiming, ...]
    agreed: bool

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "points": self.points,
            "seed": self.seed,
            "strategies": [s.to_dict() for s in self.strategies],
            "agreed": self.agreed,
        }


def bench(m: int, points: int, seed: int) -> BenchReport:
    """Build each side of ``f`` and ``g`` and evaluate it at shared seeded
    points, counting elementary coefficient operations along the way."""
    _check_int("points", points, 1)
    _check_int("m", m, 0)
    timings = []
    for c in (CONSTRUCTIONS["f"], CONSTRUCTIONS["g"]):
        samples = [PointSample.draw(c.ring, seed, i) for i in range(points)]
        for build in (c.lhs, c.rhs):
            reset_op_count()
            started = time.perf_counter()
            poly = build(m)
            values = tuple(poly.eval(s.assignments) for s in samples)
            elapsed = int((time.perf_counter() - started) * 1e6)
            timings.append(StrategyTiming(build.__name__, op_count(), elapsed, values))
    reset_op_count()
    agreed = all(a.values == b.values for a, b in zip(timings[::2], timings[1::2]))
    return BenchReport(m, points, seed, tuple(timings), agreed)
