"""Binomial coefficients with polynomial upper argument, and the integer
binomial convention that makes every triangular sum in the proof
well-defined term by term (zero for negative lower index, product formula
for negative upper argument)."""

from __future__ import annotations

from math import comb, factorial, inf

from .rings import Polynomial, check_int, rat


def falling_factorial(p: Polynomial, k: int) -> Polynomial:
    """p(p-1)...(p-k+1); the empty product (k=0) is 1."""
    check_int("k", k)
    result = p.ring.one
    for step in range(k):
        result = result * (p - step)
    return result


def binom_poly(p: Polynomial, k: int) -> Polynomial:
    """Generalized binomial coefficient: falling factorial over k!.

    Rejects negative k: a negative lower index with a polynomial upper
    argument never arises here and signals a caller bug.
    """
    return falling_factorial(p, k) * rat(1, factorial(k))


def binom_int(n: int, k: int) -> int:
    """Integer binomial, total over all integers.

    Zero for k < 0; for negative n the falling-factorial product applies,
    e.g. binom_int(-1, 2) = 1.
    """
    check_int("n", n, -inf)
    if check_int("k", k, -inf) < 0:
        return 0
    if n >= 0:
        return comb(n, k)
    return (-1) ** k * comb(k - n - 1, k)


def negate_upper(p: Polynomial, k: int) -> Polynomial:
    """(-1)^k * binom(k-1-p, k); upper negation says this equals binom(p, k)."""
    return (-1) ** k * binom_poly((k - 1) - p, k)


def trinomial_revision_check(j: int, k: int, i: int) -> bool:
    """True iff binom(k,i)*binom(i,j-k) = binom(k,j-k)*binom(2k-j,k+i-j)."""
    for name, value in zip("jki", (j, k, i)):
        check_int(name, value)
    if not (0 <= i <= k <= j):
        raise ValueError(f"need 0 <= i <= k <= j, got (j,k,i)=({j},{k},{i})")
    lhs = binom_int(k, i) * binom_int(i, j - k)
    rhs = binom_int(k, j - k) * binom_int(2 * k - j, k + i - j)
    return lhs == rhs
