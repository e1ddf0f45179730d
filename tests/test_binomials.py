"""Binomial operations and the three lemmas: upper negation, absorption,
Pascal, trinomial revision.  Derived expectations are cross-checked with
sympy where a second route exists."""

import pytest
import sympy

from binomid.binomials import (
    binom_int,
    binom_poly,
    falling_factorial,
    negate_upper,
    trinomial_revision_check,
)
from binomid.rings import Ring, rat
from reference_engine import to_sympy

XYZ = Ring(("x", "y", "z"))
X = XYZ.var("x")
Y = XYZ.var("y")
Z = XYZ.var("z")


class TestFallingFactorial:
    def test_empty_product(self):
        assert falling_factorial(X, 0) == XYZ.one

    def test_simple(self):
        assert falling_factorial(X, 2) == X * X - X

    def test_two_variable_against_sympy(self):
        got = falling_factorial(X + Y, 2)
        x, y = sympy.symbols("x y")
        want = sympy.expand((x + y) * (x + y - 1))
        assert to_sympy(got) == want

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            falling_factorial(X, -1)


class TestBinomPoly:
    def test_k0(self):
        assert binom_poly(X, 0) == XYZ.one

    def test_k2(self):
        assert binom_poly(X, 2) == rat(1, 2) * X * X - rat(1, 2) * X

    def test_linear(self):
        assert binom_poly(X + Y, 1) == X + Y

    def test_against_sympy_binomial(self):
        x = sympy.Symbol("x")
        for k in range(7):
            want = sympy.expand(sympy.ff(x, k) / sympy.factorial(k))
            assert to_sympy(binom_poly(X, k)) == want

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            binom_poly(X, -2)


class TestBinomInt:
    def test_basic(self):
        assert binom_int(5, 2) == 10

    def test_k_above_n(self):
        assert binom_int(3, 5) == 0

    def test_negative_upper(self):
        assert binom_int(-1, 3) == -1
        assert binom_int(-1, 2) == 1

    def test_negative_lower_is_zero(self):
        assert binom_int(7, -1) == 0
        assert binom_int(-3, -2) == 0

    def test_matches_sympy_on_grid(self):
        for n in range(-10, 11):
            for k in range(0, 11):
                assert binom_int(n, k) == sympy.binomial(n, k)

    def test_integer_consistency_with_binom_poly(self):
        for n in range(-10, 11):
            for k in range(-2, 11):
                if k < 0:
                    assert binom_int(n, k) == 0
                else:
                    val = binom_poly(X, k).eval({"x": n, "y": 0, "z": 0})
                    assert binom_int(n, k) == val


class TestNegateUpper:
    def test_k1(self):
        assert negate_upper(X, 1) == X

    def test_k2(self):
        assert negate_upper(X, 2) == binom_poly(X, 2)

    def test_affine_argument(self):
        for c in range(3):
            p = Y + c * (Z + 1)
            assert negate_upper(p, c) == binom_poly(p, c)

    def test_upper_negation_sweep(self):
        cases = [X, X + Y] + [Y + c * (Z + 1) for c in range(6)]
        for p in cases:
            for k in range(9):
                assert negate_upper(p, k) == binom_poly(p, k)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            negate_upper(X, -1)


def test_absorption_identity():
    # (k+1)*binom(p, k+1) = (p-k)*binom(p, k); drives the telescoping step
    for p in (X, X + Y, Y + 2 * Z):
        for k in range(11):
            assert (k + 1) * binom_poly(p, k + 1) == (p - k) * binom_poly(p, k)


def test_pascal_rule():
    for p in (X, X + Y + Z):
        for k in range(1, 11):
            assert binom_poly(p, k) == binom_poly(p - 1, k) + binom_poly(p - 1, k - 1)


class TestTrinomialRevision:
    def test_spec_cases(self):
        assert trinomial_revision_check(2, 1, 1)
        assert trinomial_revision_check(0, 0, 0)
        assert trinomial_revision_check(3, 2, 0)  # both sides vanish

    def test_exhaustive_small(self):
        for j in range(13):
            for k in range(j + 1):
                for i in range(k + 1):
                    assert trinomial_revision_check(j, k, i)

    def test_precondition_violation_rejected(self):
        with pytest.raises(ValueError):
            trinomial_revision_check(1, 2, 0)
        with pytest.raises(ValueError):
            trinomial_revision_check(2, 1, -1)
