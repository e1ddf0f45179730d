"""Sparse multivariate polynomials with exact rational coefficients.

Polynomials live in a fixed, immutable ring of named variables and are
kept in canonical form at all times: no zero coefficients are stored, so
structural equality of the term maps *is* the symbolic equality test.
A polynomial holds only its ring and its terms: it is immutable, every
operation is pure, and ``eval_many``, the one evaluator, stores nothing.

Input is checked where it enters: ``Polynomial(ring, terms)``,
``Ring.const``, ``eval`` and ``eval_many`` take only int/Fraction values (no
bools) and non-negative int exponents, and ``check_int`` is the one
integer-parameter policy.  Engine-made results (sums, products and
negations) skip those checks and only drop zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, repeat
from math import lcm
from operator import floordiv, mul
from typing import Iterable, Iterator, Mapping, Union

Scalar = Union[int, Fraction]
_SCALARS = (int, Fraction)

# Counter of elementary coefficient operations.  Purely additive
# instrumentation; never affects results.  perfbench/worker.py resets it
# with ``reset_op_count`` and reads it with ``op_count``, so both stay.
_coeff_ops = 0


def reset_op_count() -> None:
    global _coeff_ops
    _coeff_ops = 0


def op_count() -> int:
    return _coeff_ops


def check_int(name: str, value: int, minimum: int = 0) -> int:
    """Return ``value`` if it is an int (not a bool) and >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def _is_scalar(value) -> bool:
    return isinstance(value, _SCALARS) and not isinstance(value, bool)


def _scalar(value: Scalar) -> Scalar:
    if not _is_scalar(value):
        raise TypeError(f"expected an int (not a bool) or Fraction, got {value!r}")
    return value


def _exact(value: Scalar) -> Fraction:
    return Fraction(_scalar(value))


# Points that eval_many evaluates together.  Larger chunks spread the
# per-term interpreter cost thinner but hold more columns in memory.
_CHUNK = 64


def _check_exponents(ring: "Ring", exps: tuple[int, ...]) -> tuple[int, ...]:
    """``exps`` as a tuple, if it is one int (not bool) >= 0 per variable of ``ring``."""
    if len(exps) != len(ring):
        raise ValueError(f"exponent vector {exps} does not match ring {ring.variables}")
    for e in exps:
        check_int("exponent", e)
    return tuple(exps)


def _coordinates(point: Mapping[str, Scalar], names: tuple[str, ...]) -> list[Scalar]:
    """The values of ``names`` in ``point``, checked as ``eval`` takes them."""
    missing = [v for v in names if v not in point]
    if missing:
        raise KeyError(f"point is missing assignments for {missing}")
    return [_scalar(point[v]) for v in names]


def _nest(terms: list, positions: tuple[int, ...]):
    """Terms ``(exps, c)`` nested by the variables at ``positions``:
    ``((e, subtree), ...)`` over the exponents ``e`` they take at the
    first position, and the sum of their ``c`` once no position is left."""
    if not positions:
        return sum(c for _, c in terms)
    groups: dict[int, list] = {}
    for exps, c in terms:
        groups.setdefault(exps[positions[0]], []).append((exps, c))
    return tuple((e, _nest(group, positions[1:])) for e, group in groups.items())


def _fold(tree, columns: list, size: int):
    """A ``_nest`` tree's integer values over a chunk of ``size`` points,
    ``columns[k][e]`` holding the ``a^e * b^(D-e)`` column of the tree's
    ``k``-th variable."""
    if not columns:
        return repeat(tree, size)
    return list(map(sum, zip(*[map(mul, columns[0][e], _fold(subtree, columns[1:], size))
                               for e, subtree in tree])))


# perfbench/run.py's setup probe calls binomid.rat(0) to name the
# coefficient backend; without it every benchmark workload fails in setup.
def rat(n: int, d: int = 1) -> Fraction:
    """Reduced rational n/d with positive denominator; d must be nonzero."""
    return Fraction(n, d)


@dataclass(frozen=True)
class Ring:
    """An ordered, immutable universe of variable names."""

    variables: tuple[str, ...]

    def __init__(self, variables: Iterable[str]):
        names = tuple(variables)
        if not all(isinstance(v, str) and v for v in names):
            raise ValueError("variable names must be nonempty strings")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names!r}")
        object.__setattr__(self, "variables", names)

    def __len__(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(f"variable {name!r} not in ring {self.variables}")

    def var(self, name: str) -> "Polynomial":
        exps = [0] * len(self.variables)
        exps[self.index(name)] = 1
        return Polynomial._canonical(self, {tuple(exps): Fraction(1)})

    def const(self, value: Scalar) -> "Polynomial":
        return Polynomial._canonical(self, {(0,) * len(self.variables): _exact(value)})

    @property
    def zero(self) -> "Polynomial":
        return Polynomial._canonical(self, {})

    @property
    def one(self) -> "Polynomial":
        return self.const(1)


class Polynomial:
    """Immutable sparse polynomial: map from exponent tuples to Fractions.

    Two polynomials are equal iff they share a ring and their canonical
    term maps coincide.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: Mapping[tuple[int, ...], Scalar]):
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in terms.items():
            exps = _check_exponents(ring, exps)
            c = _exact(coeff)
            if c:
                clean[exps] = c
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _canonical(cls, ring: Ring, terms: dict[tuple[int, ...], Fraction]) -> "Polynomial":
        """Wrap terms the engine built from canonical ones, dropping zeros."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "ring", ring)
        object.__setattr__(poly, "terms", {e: c for e, c in terms.items() if c})
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # Rebuild through the checked constructor: the default pickling of a
        # slotted object restores attributes with setattr, which raises here.
        return Polynomial, (self.ring, self.terms)

    # -- ring discipline -------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise ValueError(
                    f"ring mismatch: {self.ring.variables} vs {other.ring.variables}"
                )
            return other
        if _is_scalar(other):
            return self.ring.const(other)
        return NotImplemented  # type: ignore[return-value]

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        global _coeff_ops
        _coeff_ops += len(other.terms)
        merged = dict(self.terms)
        for exps, coeff in other.terms.items():
            merged[exps] = merged[exps] + coeff if exps in merged else coeff
        return Polynomial._canonical(self.ring, merged)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._canonical(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        global _coeff_ops
        _coeff_ops += len(self.terms) * len(other.terms)
        prod: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                prod[exps] = prod[exps] + c1 * c2 if exps in prod else c1 * c2
        return Polynomial._canonical(self.ring, prod)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        check_int("exponent", exponent)
        result = self.ring.one
        for _ in range(exponent):
            result = result * self
        return result

    # -- structure -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if _is_scalar(other):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        # A constant equals its scalar, so it must hash like it.
        if self.total_degree() <= 0:
            return hash(self.coefficient((0,) * len(self.ring)))
        return hash((self.ring, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def total_degree(self) -> int:
        """Maximum total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        """Maximum exponent of one variable; -1 for the zero polynomial."""
        i = self.ring.index(name)
        return max((e[i] for e in self.terms), default=-1)

    def coefficient(self, exps: tuple[int, ...]) -> Fraction:
        return self.terms.get(_check_exponents(self.ring, exps), Fraction(0))

    # -- evaluation ------------------------------------------------------

    def eval(self, point: Mapping[str, Scalar]) -> Fraction:
        """Exact value at a full assignment of ring variables.

        The one-point case of ``eval_many``, which scales and nests the
        terms and makes one interpreter pass per term on every call, so a
        caller with many points should pass them to ``eval_many`` together.
        """
        return next(self.eval_many((point,)))

    def eval_many(self, points: Iterable[Mapping[str, Scalar]]) -> Iterator[Fraction]:
        """Exact values at many full assignments of ring variables, lazily.

        Points are taken ``_CHUNK`` (64) at a time, so an unbounded
        iterable is fine, and each chunk is evaluated column-wise in
        integers: with ``L`` the lcm of the coefficient denominators, and
        ``a/b`` the value and ``D`` the top degree of each variable in
        this polynomial, a term ``c * v^e`` adds the integer
        ``c * L * a^e * b^(D-e)`` to a numerator over ``L * prod(b^D)``.
        The ``a^e * b^(D-e)`` columns over the chunk are built once per
        variable, and each term is then one pass over the chunk, so its
        interpreter cost is paid once per chunk rather than once per
        point.  Names in a point outside the ring are ignored; a missing
        name raises ``KeyError`` and a value that is not an int or
        Fraction (a bool included) ``TypeError``, before any value of that
        point's chunk is yielded.  Counts one coefficient operation per
        term per point.
        """
        common = lcm(*(c.denominator for c in self.terms.values()))
        degrees = tuple((i, top) for i, top in enumerate(map(max, zip(*self.terms))) if top)
        scaled = [(e, c.numerator * (common // c.denominator)) for e, c in self.terms.items()]
        tree = _nest(scaled, tuple(i for i, _ in degrees))
        points = iter(points)
        while chunk := list(islice(points, _CHUNK)):
            yield from self._eval_chunk(common, degrees, tree, chunk)

    def _eval_chunk(self, common: int, degrees: tuple, tree, chunk: list) -> list[Fraction]:
        """``eval_many``'s values at one chunk of points.  A function of its
        own, so the chunk's columns are freed before its values are yielded."""
        rows = [_coordinates(point, self.ring.variables) for point in chunk]
        global _coeff_ops
        _coeff_ops += len(self.terms) * len(chunk)
        denominators = [common] * len(chunk)
        columns = []
        for i, top in degrees:
            nums = [row[i].numerator for row in rows]
            dens = [row[i].denominator for row in rows]
            # powers[e][j] = a_j^e * b_j^(D-e), stepping e up by a/b.
            powers = [list(map(pow, dens, repeat(top)))]
            for _ in range(top):
                powers.append(list(map(mul, map(floordiv, powers[-1], dens), nums)))
            columns.append(powers)
            denominators = list(map(mul, denominators, powers[0]))
        return list(map(Fraction, _fold(tree, columns, len(chunk)), denominators))

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        """Canonical text form: graded order, ties broken by descending
        exponent vectors; stable byte-for-byte."""
        if not self.terms:
            return "0"
        ordered = sorted(self.terms, key=lambda e: (sum(e), e), reverse=True)
        pieces: list[str] = []
        for exps in ordered:
            coeff = self.terms[exps]
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.ring.variables, exps)
                if e
            ]
            mag = abs(coeff)
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    __str__ = render

    def __repr__(self) -> str:
        return f"Polynomial({self.ring.variables}: {self.render()})"
