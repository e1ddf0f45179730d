"""Executable constructions of both sides of the main identity and of
every intermediate expression its proof passes through: the alternating
double-binomial sum f and its single-sum closed form, the triangular sum
g and its closed form, the Jensen convolution formula, Chebyshev
polynomials of the second kind, the binomial-theorem collapse, and the
telescoping finale.

Each construction is parameterized by a concrete non-negative integer m
(or degree n); the identity is polynomial in the ring variables for each
fixed m, so a sweep of m together with the lemma suite constitutes
desk-scale verification.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .binomials import binom_int, binom_poly
from .rings import Polynomial, Ring, check_int

RING_XYZ = Ring(("x", "y", "z"))
RING_XZ = Ring(("x", "z"))
RING_ABC = Ring(("a", "b", "c"))
RING_T = Ring(("t",))
RING_Z = Ring(("z",))

# Absolute tolerance of the float Chebyshev cross-check.
TRIG_TOLERANCE = 1e-9


# -- the f side ----------------------------------------------------------

def f_def(m: int) -> Polynomial:
    """Alternating sum over k of binom(x+y+kz, m-k)*binom(y+k+kz, k)."""
    check_int("m", m)
    x, y, z = (RING_XYZ.var(v) for v in "xyz")
    total = RING_XYZ.zero
    for k in range(m + 1):
        term = binom_poly(x + y + k * z, m - k) * binom_poly(y + k + k * z, k)
        total = total + (-1) ** k * term
    return total


def f_closed(m: int) -> Polynomial:
    """Single sum over j of binom(x, m-j)*(-1-z)^j, carried in (x, y, z)."""
    check_int("m", m)
    x, z = (RING_XYZ.var(v) for v in "xz")
    total = RING_XYZ.zero
    for j in range(m + 1):
        total = total + binom_poly(x, m - j) * (-1 - z) ** j
    return total


# -- the g side ----------------------------------------------------------

def g_def(m: int) -> Polynomial:
    """Triangular sum over 0 <= i <= k <= m of
    (-1)^k*binom(k,i)*binom(x+i, m-k)*(1+z)^(k+i)*(1-z)^(k-i)."""
    check_int("m", m)
    x, z = (RING_XZ.var(v) for v in "xz")
    total = RING_XZ.zero
    for k in range(m + 1):
        for i in range(k + 1):
            term = (
                binom_int(k, i)
                * binom_poly(x + i, m - k)
                * (1 + z) ** (k + i)
                * (1 - z) ** (k - i)
            )
            total = total + (-1) ** k * term
    return total


def g_closed(m: int) -> Polynomial:
    """Single sum over j of (j+1)*binom(x, m-j)*(-1-z)^j."""
    check_int("m", m)
    x, z = (RING_XZ.var(v) for v in "xz")
    total = RING_XZ.zero
    for j in range(m + 1):
        total = total + (j + 1) * binom_poly(x, m - j) * (-1 - z) ** j
    return total


# -- the two sides of the main identity ----------------------------------

def lhs_identity(m: int) -> Polynomial:
    """(x + (m+1)z) times the alternating double-binomial sum."""
    check_int("m", m)
    x, z = (RING_XYZ.var(v) for v in "xz")
    return (x + (m + 1) * z) * f_def(m)


def rhs_identity(m: int) -> Polynomial:
    """z times the triangular sum plus (x-m)*binom(x, m), in (x, y, z)."""
    return (RING_XZ.var("z") * g_def(m) + telescoped_closed(m)).embed(RING_XYZ)


# -- Jensen convolution formula ------------------------------------------

def jensen_lhs(m: int) -> Polynomial:
    """Sum over i of binom(a+b*i, i)*binom(c-b*i, m-i)."""
    check_int("m", m)
    a, b, c = (RING_ABC.var(v) for v in "abc")
    total = RING_ABC.zero
    for i in range(m + 1):
        total = total + binom_poly(a + i * b, i) * binom_poly(c - i * b, m - i)
    return total


def jensen_rhs(m: int) -> Polynomial:
    """Sum over j of binom(a+c-j, m-j)*b^j."""
    check_int("m", m)
    a, b, c = (RING_ABC.var(v) for v in "abc")
    total = RING_ABC.zero
    for j in range(m + 1):
        total = total + binom_poly(a + c - j, m - j) * b**j
    return total


# -- Chebyshev polynomials of the second kind ----------------------------

def chebyshev_closed(n: int) -> Polynomial:
    """Closed form: sum over k of (-1)^k*binom(n-k, k)*(2t)^(n-2k)."""
    check_int("n", n)
    t = RING_T.var("t")
    total = RING_T.zero
    for k in range(n // 2 + 1):
        total = total + (-1) ** k * binom_int(n - k, k) * (2 * t) ** (n - 2 * k)
    return total


def chebyshev_recurrence(n: int) -> Polynomial:
    """Three-term recurrence from U_0 = 1, U_1 = 2t; independent of the
    closed form, so the two routes cross-check each other."""
    check_int("n", n)
    t = RING_T.var("t")
    prev, cur = RING_T.zero, RING_T.one  # U_-1 and U_0
    for _ in range(n):
        prev, cur = cur, 2 * t * cur - prev
    return cur


def chebyshev_trig_check(n: int, *thetas: float) -> bool:
    """Float cross-check of U_n(cos theta) against sin((n+1)theta)/sin(theta),
    to within ``TRIG_TOLERANCE``, at every theta given.  Every theta is
    validated before U_n is built, once, by the recurrence; it is then
    evaluated exactly at each double cos(theta) in one ``eval_many`` call,
    and only its values are rounded to floats.

    Definition sanity only; never feeds the symbolic paths.
    """
    if not thetas:
        raise ValueError("at least one theta is needed")
    for theta in thetas:
        if not math.isfinite(theta) or abs(math.sin(theta)) <= 1e-6:
            raise ValueError(f"theta={theta} is not finite or too close to a multiple of pi")
    points = [{"t": Fraction(math.cos(theta))} for theta in thetas]
    values = chebyshev_recurrence(n).eval_many(points)
    return all(
        abs(float(value) - math.sin((n + 1) * theta) / math.sin(theta)) < TRIG_TOLERANCE
        for value, theta in zip(values, thetas)
    )


# -- collapse and telescoping steps --------------------------------------

def binomial_collapse(n: int) -> Polynomial:
    """Sum over i of binom(n, i)*(1+z)^i*(1-z)^(n-i), which must collapse to
    the constant 2^n.  In the proof n = 2k-j: the inner sum of binom(2k-j,
    k+i-j)*(1+z)^(k+i-j)*(1-z)^(k-i) is this sum with i shifted by k-j."""
    check_int("n", n)
    z = RING_Z.var("z")
    total = RING_Z.zero
    for i in range(n + 1):
        total = total + binom_int(n, i) * (1 + z) ** i * (1 - z) ** (n - i)
    return total


def collapse_closed(n: int) -> Polynomial:
    """The constant 2^n in (z), what the binomial collapse must equal."""
    check_int("n", n)
    return RING_Z.const(2**n)


def telescoped_sum(m: int) -> Polynomial:
    """Sum over j of (1+m-j)*binom(x,1+m-j)*(-1-z)^j
    - (m-j)*binom(x,m-j)*(-1-z)^(j+1); consecutive terms cancel, leaving
    (1+m)*binom(x, 1+m) = (x-m)*binom(x, m)."""
    check_int("m", m)
    x, z = (RING_XZ.var(v) for v in "xz")
    total = RING_XZ.zero
    for j in range(m + 1):
        total = total + (1 + m - j) * binom_poly(x, 1 + m - j) * (-1 - z) ** j
        total = total - (m - j) * binom_poly(x, m - j) * (-1 - z) ** (j + 1)
    return total


def telescoped_closed(m: int) -> Polynomial:
    """(x-m)*binom(x, m) in (x, z): what the telescoped sum leaves, and the
    last term of the right side of the main identity."""
    check_int("m", m)
    x = RING_XZ.var("x")
    return (x - m) * binom_poly(x, m)
