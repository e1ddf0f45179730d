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
from dataclasses import dataclass

from .binomials import binom_int, binom_poly
from .rings import Polynomial, Ring

RING_XYZ = Ring(("x", "y", "z"))
RING_XZ = Ring(("x", "z"))
RING_ABC = Ring(("a", "b", "c"))
RING_T = Ring(("t",))
RING_Z = Ring(("z",))


def _check_m(m: int) -> None:
    if isinstance(m, bool) or not isinstance(m, int) or m < 0:
        raise ValueError(f"parameter must be a non-negative integer, got {m}")


# -- the f side ----------------------------------------------------------

def f_def(m: int) -> Polynomial:
    """Alternating sum over k of binom(x+y+kz, m-k)*binom(y+k+kz, k)."""
    _check_m(m)
    x, y, z = (RING_XYZ.var(v) for v in "xyz")
    total = RING_XYZ.zero
    for k in range(m + 1):
        term = binom_poly(x + y + k * z, m - k) * binom_poly(y + k + k * z, k)
        total = total + (-1) ** k * term
    return total


def f_closed(m: int) -> Polynomial:
    """Single sum over j of binom(x, m-j)*(-1-z)^j, carried in (x, y, z)."""
    _check_m(m)
    x = RING_XYZ.var("x")
    z = RING_XYZ.var("z")
    total = RING_XYZ.zero
    for j in range(m + 1):
        total = total + binom_poly(x, m - j) * (-1 - z) ** j
    return total


# -- the g side ----------------------------------------------------------

def g_def(m: int) -> Polynomial:
    """Triangular sum over 0 <= i <= k <= m of
    (-1)^k*binom(k,i)*binom(x+i, m-k)*(1+z)^(k+i)*(1-z)^(k-i)."""
    _check_m(m)
    x = RING_XZ.var("x")
    z = RING_XZ.var("z")
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
    _check_m(m)
    x = RING_XZ.var("x")
    z = RING_XZ.var("z")
    total = RING_XZ.zero
    for j in range(m + 1):
        total = total + (j + 1) * binom_poly(x, m - j) * (-1 - z) ** j
    return total


# -- the two sides of the main identity ----------------------------------

def lhs_identity(m: int) -> Polynomial:
    """(x + (m+1)z) times the alternating double-binomial sum."""
    _check_m(m)
    x = RING_XYZ.var("x")
    z = RING_XYZ.var("z")
    return (x + (m + 1) * z) * f_def(m)


def rhs_identity(m: int) -> Polynomial:
    """z times the triangular sum plus (x-m)*binom(x, m), in (x, y, z)."""
    _check_m(m)
    x = RING_XYZ.var("x")
    z = RING_XYZ.var("z")
    return z * g_def(m).embed(RING_XYZ) + (x - m) * binom_poly(x, m)


# -- Jensen convolution formula ------------------------------------------

def jensen_lhs(m: int) -> Polynomial:
    """Sum over i of binom(a+b*i, i)*binom(c-b*i, m-i)."""
    _check_m(m)
    a, b, c = (RING_ABC.var(v) for v in "abc")
    total = RING_ABC.zero
    for i in range(m + 1):
        total = total + binom_poly(a + i * b, i) * binom_poly(c - i * b, m - i)
    return total


def jensen_rhs(m: int) -> Polynomial:
    """Sum over j of binom(a+c-j, m-j)*b^j."""
    _check_m(m)
    a, b, c = (RING_ABC.var(v) for v in "abc")
    total = RING_ABC.zero
    for j in range(m + 1):
        total = total + binom_poly(a + c - j, m - j) * b**j
    return total


# -- Chebyshev polynomials of the second kind ----------------------------

@dataclass(frozen=True)
class ChebyshevU:
    """Degree-n Chebyshev polynomial of the second kind in the ring (t)."""

    n: int
    poly: Polynomial

    def __post_init__(self):
        if self.poly.total_degree() != self.n:
            raise ValueError(f"U_{self.n} candidate has wrong degree")
        if self.poly.coefficient((self.n,)) != 2**self.n:
            raise ValueError(f"U_{self.n} candidate has wrong leading coefficient")


def chebyshev_closed(n: int) -> ChebyshevU:
    """Closed form: sum over k of (-1)^k*binom(n-k, k)*(2t)^(n-2k)."""
    _check_m(n)
    t = RING_T.var("t")
    total = RING_T.zero
    for k in range(n // 2 + 1):
        total = total + (-1) ** k * binom_int(n - k, k) * (2 * t) ** (n - 2 * k)
    return ChebyshevU(n, total)


def chebyshev_recurrence(n: int) -> ChebyshevU:
    """Three-term recurrence from U_0 = 1, U_1 = 2t; independent of the
    closed form, so the two routes cross-check each other."""
    _check_m(n)
    t = RING_T.var("t")
    prev, cur = RING_T.one, 2 * t
    if n == 0:
        return ChebyshevU(0, prev)
    for _ in range(n - 1):
        prev, cur = cur, 2 * t * cur - prev
    return ChebyshevU(n, cur)


def chebyshev_trig_check(n: int, theta: float, tol: float = 1e-9) -> bool:
    """Float cross-check of U_n(cos theta) against sin((n+1)theta)/sin(theta).

    Definition sanity only; never feeds the symbolic paths.
    """
    _check_m(n)
    if abs(math.sin(theta)) <= 1e-6:
        raise ValueError(f"theta={theta} too close to a multiple of pi")
    t = math.cos(theta)
    poly_val = sum(float(c) * t ** e[0] for e, c in chebyshev_recurrence(n).poly.terms.items())
    trig_val = math.sin((n + 1) * theta) / math.sin(theta)
    return abs(poly_val - trig_val) < tol


# -- collapse and telescoping steps --------------------------------------

def binomial_collapse(j: int, k: int) -> Polynomial:
    """Sum over i of binom(2k-j, k+i-j)*(1+z)^(k+i-j)*(1-z)^(k-i), which
    must collapse to the constant 2^(2k-j).

    Calls with 2k - j < 0 are rejected: those cases are annihilated by an
    outer zero factor in the enclosing sum and never need this step.
    """
    if not (0 <= k <= j):
        raise ValueError(f"need 0 <= k <= j, got (j,k)=({j},{k})")
    if 2 * k - j < 0:
        raise ValueError(f"vacuous case 2k-j<0 rejected, got (j,k)=({j},{k})")
    z = RING_Z.var("z")
    total = RING_Z.zero
    for i in range(k + 1):
        if k + i - j < 0:
            continue  # coefficient binom_int(2k-j, k+i-j) is 0
        total = total + (
            binom_int(2 * k - j, k + i - j)
            * (1 + z) ** (k + i - j)
            * (1 - z) ** (k - i)
        )
    return total


def telescoped_sum(m: int) -> Polynomial:
    """Sum over j of (1+m-j)*binom(x,1+m-j)*(-1-z)^j
    - (m-j)*binom(x,m-j)*(-1-z)^(j+1); consecutive terms cancel, leaving
    (1+m)*binom(x, 1+m) = (x-m)*binom(x, m)."""
    _check_m(m)
    x = RING_XZ.var("x")
    z = RING_XZ.var("z")
    total = RING_XZ.zero
    for j in range(m + 1):
        total = total + (1 + m - j) * binom_poly(x, 1 + m - j) * (-1 - z) ** j
        total = total - (m - j) * binom_poly(x, m - j) * (-1 - z) ** (j + 1)
    return total
