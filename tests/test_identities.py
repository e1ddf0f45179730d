"""The named expressions: f and g with their closed forms, both sides of
the main identity, Jensen's convolution formula, Chebyshev polynomials,
the binomial-theorem collapse, and the telescoped sum.

Where a derived expectation exists, the oracle is an independent route:
sympy expansion of the defining sum, the Chebyshev recurrence vs the
closed form, or the hand expansions frozen below.
"""

import math

import pytest
import sympy

import binomid.identities as idn
from binomid.binomials import binom_poly
from binomid.identities import (
    RING_ABC,
    RING_T,
    RING_XYZ,
    RING_XZ,
    binomial_collapse,
    chebyshev_closed,
    chebyshev_recurrence,
    chebyshev_trig_check,
    f_closed,
    f_def,
    g_closed,
    g_def,
    jensen_lhs,
    jensen_rhs,
    lhs_identity,
    rhs_identity,
    telescoped_closed,
    telescoped_sum,
)
from binomid.verify import SplitMix64
from reference_engine import to_sympy

X = RING_XYZ.var("x")
Y = RING_XYZ.var("y")
Z = RING_XYZ.var("z")
XZ_X = RING_XZ.var("x")
XZ_Z = RING_XZ.var("z")


def _sympy_f_def(m):
    x, y, z = sympy.symbols("x y z")
    total = sympy.Integer(0)
    for k in range(m + 1):
        total += (
            (-1) ** k
            * sympy.binomial(x + y + k * z, m - k)
            * sympy.binomial(y + k + k * z, k)
        )
    return sympy.expand(sympy.expand_func(total))


def _sympy_g_def(m):
    x, z = sympy.symbols("x z")
    total = sympy.Integer(0)
    for k in range(m + 1):
        for i in range(k + 1):
            total += (
                (-1) ** k
                * sympy.binomial(k, i)
                * sympy.binomial(x + i, m - k)
                * (1 + z) ** (k + i)
                * (1 - z) ** (k - i)
            )
    return sympy.expand(sympy.expand_func(total))


class TestFDef:
    def test_m0(self):
        assert f_def(0) == RING_XYZ.one

    def test_m1(self):
        assert f_def(1) == X - 1 - Z

    def test_m2_term_by_term(self):
        want = binom_poly(X, 2) - (1 + Z) * X + (1 + Z) ** 2
        assert f_def(2) == want

    @pytest.mark.parametrize("m", range(6))
    def test_matches_sympy_expansion(self, m):
        assert to_sympy(f_def(m)) == _sympy_f_def(m)

    def test_y_dependence_cancels(self):
        for m in range(8):
            assert f_def(m).degree_in("y") <= 0

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            f_def(-1)


class TestFClosed:
    def test_m0(self):
        assert f_closed(0) == RING_XYZ.one

    def test_m1(self):
        assert f_closed(1) == X - 1 - Z

    def test_m2(self):
        want = (
            sympy.Rational(1, 2) * sympy.Symbol("x") ** 2
            - sympy.Rational(1, 2) * sympy.Symbol("x")
            + sympy.Symbol("x") * (-1 - sympy.Symbol("z"))
            + (1 + sympy.Symbol("z")) ** 2
        )
        assert to_sympy(f_closed(2)) == sympy.expand(want)

    def test_equals_f_def(self):
        for m in range(10):
            assert f_closed(m) == f_def(m)


class TestGDef:
    def test_m0(self):
        assert g_def(0) == RING_XZ.one

    def test_m1(self):
        assert g_def(1) == XZ_X - 2 - 2 * XZ_Z

    @pytest.mark.parametrize("m", range(6))
    def test_matches_sympy_expansion(self, m):
        assert to_sympy(g_def(m)) == _sympy_g_def(m)

    def test_equals_g_closed(self):
        for m in range(10):
            assert g_def(m) == g_closed(m)


class TestGClosed:
    def test_m0(self):
        assert g_closed(0) == RING_XZ.one

    def test_m1(self):
        assert g_closed(1) == XZ_X - 2 - 2 * XZ_Z

    def test_m2_term_by_term(self):
        want = (
            binom_poly(XZ_X, 2)
            + 2 * XZ_X * (-1 - XZ_Z)
            + 3 * (1 + XZ_Z) ** 2
        )
        assert g_closed(2) == want


class TestMainIdentity:
    def test_m0(self):
        assert lhs_identity(0) == X + Z
        assert rhs_identity(0) == X + Z

    def test_m1_hand_expansion(self):
        want = X**2 - X + X * Z - 2 * Z - 2 * Z**2
        assert lhs_identity(1) == want
        assert rhs_identity(1) == want

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_sides_agree(self, m):
        assert lhs_identity(m) == rhs_identity(m)

    @pytest.mark.parametrize("m", range(4))
    def test_against_sympy(self, m):
        x, z = sympy.symbols("x z")
        lhs = sympy.expand((x + (m + 1) * z) * _sympy_f_def(m))
        rhs = sympy.expand(
            z * _sympy_g_def(m) + (x - m) * sympy.expand_func(sympy.binomial(x, m))
        )
        assert to_sympy(lhs_identity(m)) == lhs
        assert to_sympy(rhs_identity(m)) == rhs

    @pytest.mark.parametrize("m", range(7))
    def test_rhs_terms_build_in_the_variables_given(self, m):
        for wide, default in [(g_def(m, X, Z), g_def(m)),
                              (telescoped_closed(m, X), telescoped_closed(m))]:
            assert wide.ring == RING_XYZ
            assert wide.render() == default.render()

    def test_variables_from_two_rings_rejected(self):
        with pytest.raises(ValueError, match="ring mismatch"):
            g_def(2, X, XZ_Z)


class TestJensen:
    def test_m0(self):
        assert jensen_lhs(0) == RING_ABC.one
        assert jensen_rhs(0) == RING_ABC.one

    def test_m1(self):
        a, b, c = (RING_ABC.var(v) for v in "abc")
        assert jensen_lhs(1) == a + b + c
        assert jensen_rhs(1) == a + b + c

    @pytest.mark.parametrize("m", [2, 3, 6])
    def test_sides_agree(self, m):
        assert jensen_lhs(m) == jensen_rhs(m)

    @pytest.mark.parametrize("m", range(4))
    def test_lhs_against_sympy(self, m):
        a, b, c = sympy.symbols("a b c")
        want = sympy.expand(
            sympy.expand_func(
                sum(
                    sympy.binomial(a + b * i, i) * sympy.binomial(c - b * i, m - i)
                    for i in range(m + 1)
                )
            )
        )
        assert to_sympy(jensen_lhs(m)) == want


class TestChebyshev:
    def test_u0_u1(self):
        t = RING_T.var("t")
        assert chebyshev_closed(0) == RING_T.one
        assert chebyshev_closed(1) == 2 * t
        assert chebyshev_recurrence(0) == RING_T.one

    def test_u2_recurrence(self):
        t = RING_T.var("t")
        assert chebyshev_recurrence(2) == 4 * t**2 - 1

    def test_u4_closed_vs_recurrence(self):
        t = RING_T.var("t")
        assert chebyshev_closed(4) == 16 * t**4 - 12 * t**2 + 1
        assert chebyshev_closed(4) == chebyshev_recurrence(4)

    @pytest.mark.parametrize("n", range(13))
    def test_against_sympy(self, n):
        t = sympy.Symbol("t")
        want = sympy.expand(sympy.chebyshevu(n, t))
        assert to_sympy(chebyshev_recurrence(n)) == want

    def test_value_at_one(self):
        for n in range(13):
            val = chebyshev_recurrence(n).eval({"t": 1})
            assert val == n + 1


class TestChebyshevTrig:
    def test_n0(self):
        assert chebyshev_trig_check(0, 1.0)

    def test_examples(self):
        assert chebyshev_trig_check(3, 0.7)
        assert chebyshev_trig_check(10, 2.0)

    def test_theta_near_pi_rejected(self, monkeypatch):
        # Every theta is checked before U_n is built.
        monkeypatch.setattr(idn, "chebyshev_recurrence", None)
        for theta in (math.pi, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                chebyshev_trig_check(3, theta)
            with pytest.raises(ValueError):
                chebyshev_trig_check(3, 1.0, theta)

    def test_no_theta_rejected(self, monkeypatch):
        monkeypatch.setattr(idn, "chebyshev_recurrence", None)
        with pytest.raises(ValueError):
            chebyshev_trig_check(3)

    def test_builds_u_n_once_per_call(self, monkeypatch):
        built = []

        def counted(n):
            built.append(n)
            return chebyshev_recurrence(n)

        monkeypatch.setattr(idn, "chebyshev_recurrence", counted)
        assert chebyshev_trig_check(7, 0.3, 1.0, 2.5)
        assert built == [7]

    def test_lemma_range_at_the_acceptance_thetas(self):
        # A power-basis float sum of U_n loses the 1e-9 tolerance from n = 21.
        gen = SplitMix64(2024)
        thetas = [0.05 + (gen.next_u64() / 2**64) * 3.04 for _ in range(20)]
        for n in range(21, 51):
            assert chebyshev_trig_check(n, *thetas), n

    def test_coefficients_beyond_float_range(self):
        # U_809 has a coefficient of 2^1024 or more, which no float holds.
        assert chebyshev_trig_check(809, 1.0)


class TestCollapse:
    # The proof's (j, k) term collapses with n = 2k - j.
    def test_j0_k0(self):
        assert binomial_collapse(2 * 0 - 0) == 1

    def test_j2_k2(self):
        assert binomial_collapse(2 * 2 - 2) == 4

    def test_j3_k2(self):
        # (1-z) + (1+z)
        assert binomial_collapse(2 * 2 - 3) == 2

    def test_constant_value(self):
        for n in range(10):
            assert binomial_collapse(n) == 2**n

    def test_vacuous_and_invalid_cases_rejected(self):
        with pytest.raises(ValueError):
            binomial_collapse(-1)  # 2k - j < 0, e.g. (j, k) = (3, 1)
        with pytest.raises(ValueError):
            binomial_collapse(True)


class TestTelescopedSum:
    def test_m0(self):
        assert telescoped_sum(0) == XZ_X

    def test_m1(self):
        assert telescoped_sum(1) == XZ_X**2 - XZ_X
        assert telescoped_sum(1) == 2 * binom_poly(XZ_X, 2)

    def test_closed_form(self):
        assert telescoped_closed(0) == XZ_X
        assert telescoped_closed(1) == XZ_X**2 - XZ_X
        assert 2 * telescoped_closed(2) == XZ_X**3 - 3 * XZ_X**2 + 2 * XZ_X

    def test_m4_both_collapse_targets(self):
        got = telescoped_sum(4)
        assert got == 5 * binom_poly(XZ_X, 5)
        assert got == (XZ_X - 4) * binom_poly(XZ_X, 4)

    def test_collapse_sweep(self):
        for m in range(10):
            got = telescoped_sum(m)
            assert got == (1 + m) * binom_poly(XZ_X, 1 + m)
            assert got == (XZ_X - m) * binom_poly(XZ_X, m)
