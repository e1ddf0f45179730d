"""Sparse multivariate polynomials with exact rational coefficients.

Polynomials live in a fixed, immutable ring of named variables and are
kept in canonical form at all times: no zero coefficients are stored, so
structural equality of the term maps *is* the symbolic equality test.
All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

Scalar = Union[int, Fraction]
_SCALARS = (int, Fraction)

# Counters for elementary coefficient operations, used by the benchmark
# layer.  Purely additive instrumentation; never affects results.
_coeff_ops = 0


def reset_op_count() -> None:
    global _coeff_ops
    _coeff_ops = 0


def op_count() -> int:
    return _coeff_ops


def rat(n: int, d: int = 1) -> Fraction:
    """Reduced rational n/d with positive denominator; d must be nonzero."""
    if d == 0:
        raise ZeroDivisionError("rational with zero denominator")
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
        return Polynomial(self, {tuple(exps): Fraction(1)})

    def const(self, value: Scalar) -> "Polynomial":
        c = Fraction(value)
        if c == 0:
            return Polynomial(self, {})
        return Polynomial(self, {(0,) * len(self.variables): c})

    @property
    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

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
        width = len(ring)
        for exps, coeff in terms.items():
            if len(exps) != width:
                raise ValueError(
                    f"exponent vector {exps} does not match ring {ring.variables}"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = Fraction(coeff)
            if c != 0:
                clean[tuple(exps)] = c
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- ring discipline -------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise ValueError(
                    f"ring mismatch: {self.ring.variables} vs {other.ring.variables}"
                )
            return other
        if isinstance(other, _SCALARS):
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
            merged[exps] = merged.get(exps, Fraction(0)) + coeff
        return Polynomial(self.ring, merged)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

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
                prod[exps] = prod.get(exps, Fraction(0)) + c1 * c2
        return Polynomial(self.ring, prod)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"polynomial power needs exponent >= 0, got {exponent}")
        result = self.ring.one
        for _ in range(exponent):
            result = result * self
        return result

    # -- structure -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, _SCALARS):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def term_count(self) -> int:
        return len(self.terms)

    def total_degree(self) -> int:
        """Maximum total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        """Maximum exponent of one variable; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        i = self.ring.index(name)
        return max(e[i] for e in self.terms)

    def coefficient(self, exps: tuple[int, ...]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def embed(self, ring: Ring) -> "Polynomial":
        """Re-express this polynomial in a ring containing all its variables.

        Explicit, name-based embedding; unknown target variables get
        exponent zero.  Raises if a variable of the source ring is absent.
        """
        positions = [ring.index(v) for v in self.ring.variables]
        width = len(ring)
        terms: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in self.terms.items():
            new = [0] * width
            for pos, e in zip(positions, exps):
                new[pos] = e
            terms[tuple(new)] = coeff
        return Polynomial(ring, terms)

    # -- evaluation ------------------------------------------------------

    def eval(self, point: Mapping[str, Scalar]) -> Fraction:
        """Exact value at a full assignment of ring variables."""
        missing = [v for v in self.ring.variables if v not in point]
        if missing:
            raise KeyError(f"point is missing assignments for {missing}")
        values = [Fraction(point[v]) for v in self.ring.variables]
        global _coeff_ops
        _coeff_ops += len(self.terms)
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for value, e in zip(values, exps):
                if e:
                    term *= value**e
            total += term
        return total

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
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    __str__ = render

    def __repr__(self) -> str:
        return f"Polynomial({self.ring.variables}: {self.render()})"
