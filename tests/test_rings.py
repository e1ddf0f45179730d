"""Core arithmetic: rationals, sparse polynomials, canonical form, render."""

import copy
import pickle
import random
from fractions import Fraction
from itertools import islice, repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomid.identities import chebyshev_closed
from binomid.rings import Polynomial, Ring, op_count, rat, reset_op_count
from reference_engine import reference_eval

XYZ = Ring(("x", "y", "z"))
X = XYZ.var("x")
Y = XYZ.var("y")
Z = XYZ.var("z")


class TestRat:
    def test_reduction(self):
        assert rat(2, 4) == rat(1, 2)

    def test_sign_normalization(self):
        q = rat(3, -6)
        assert q == rat(-1, 2)
        assert q.numerator == -1 and q.denominator == 2

    def test_unique_zero(self):
        q = rat(0, 7)
        assert q.numerator == 0 and q.denominator == 1

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            rat(1, 0)


class TestRing:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Ring(("x", "x"))

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Ring(("x", ""))

    def test_order_is_fixed(self):
        assert Ring(("x", "y")) != Ring(("y", "x"))

    def test_const_takes_only_exact_scalars(self):
        assert XYZ.const(rat(1, 2)) == rat(1, 2)
        for bad in (0.5, "1/2"):
            with pytest.raises(TypeError):
                XYZ.const(bad)


class TestBoundary:
    @pytest.mark.parametrize("exps", [(1, 0), (1, 0, 0, 0), (-1, 0, 0),
                                      (0.5, 0, 0), (1.0, 0, 0), (True, 0, 0)])
    def test_bad_exponents_rejected(self, exps):
        # The constructor and coefficient read an exponent vector alike.
        with pytest.raises(ValueError):
            Polynomial(XYZ, {exps: 1})
        with pytest.raises(ValueError):
            (3 * X + 5).coefficient(exps)

    @pytest.mark.parametrize("poly", [X, XYZ.zero])
    def test_degree_in_unknown_variable_rejected(self, poly):
        with pytest.raises(KeyError, match="'w'"):
            poly.degree_in("w")

    @pytest.mark.parametrize("exps", [(), (1,), (1, 0), (1, 0, 0, 0)])
    def test_coefficient_of_wrong_width_rejected(self, exps):
        # A short vector is not padded: it would name no term and read 0.
        with pytest.raises(ValueError, match="does not match ring"):
            X.coefficient(exps)
        assert X.coefficient((1, 0, 0)) == 1

    @pytest.mark.parametrize("coeff", [0.1, 0.0, "1", None])
    def test_inexact_coefficients_rejected(self, coeff):
        with pytest.raises(TypeError):
            Polynomial(XYZ, {(1, 0, 0): coeff})

    def test_bool_scalars_rejected(self):
        # bool is an int subclass, but True is not a coefficient.
        with pytest.raises(TypeError):
            XYZ.const(True)
        with pytest.raises(TypeError):
            Polynomial(XYZ, {(1, 0, 0): True})
        for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
            assert getattr(X, op)(True) is NotImplemented, op
        with pytest.raises(TypeError):
            X + True
        with pytest.raises(TypeError):
            False * X
        assert X != True and XYZ.one != True

    def test_exact_coefficients_accepted(self):
        p = Polynomial(XYZ, {(1, 0, 0): rat(1, 3), (0, 0, 0): 2, (0, 1, 0): 0})
        assert p == rat(1, 3) * X + 2
        assert all(type(c) is Fraction for c in p.terms.values())


class TestArithmetic:
    def test_add_cancellation(self):
        assert (X + 1) + (-X) == XYZ.one
        zero = X + (-X)
        assert not zero and not XYZ.zero and zero.degree_in("x") == -1

    def test_add_identity(self):
        p = X * X + 3 * Y
        assert p + XYZ.zero == p

    def test_add_doubles(self):
        assert X + X == 2 * X

    def test_mul(self):
        assert (1 + Z) * (1 - Z) == 1 - Z * Z

    def test_mul_identity(self):
        p = X * Y - Z
        assert p * XYZ.one == p

    def test_difference_of_squares(self):
        assert (X + Y) * (X - Y) == X * X - Y * Y

    def test_pow_zero(self):
        assert (1 + Z) ** 0 == XYZ.one

    def test_pow_two(self):
        assert (1 + Z) ** 2 == 1 + 2 * Z + Z * Z

    def test_pow_three_matches_repeated_mul(self):
        p = 1 - Z
        assert p**3 == p * p * p
        assert p**3 == 1 - 3 * Z + 3 * Z**2 - Z**3

    def test_negative_pow_rejected(self):
        with pytest.raises(ValueError):
            X ** (-1)

    def test_constants_hash_like_their_scalar(self):
        assert {3, Ring(("t",)).const(3)} == {3}
        assert {rat(1, 2), XYZ.const(rat(1, 2)), 0, XYZ.zero} == {rat(1, 2), 0}
        assert hash(X + 1) == hash(1 + X)

    def test_ring_mismatch_rejected(self):
        other = Ring(("a",)).var("a")
        with pytest.raises(ValueError):
            X + other
        with pytest.raises(ValueError):
            X * other


class TestEval:
    def test_basic(self):
        assert (X * X - X).eval({"x": 3, "y": 0, "z": 0}) == 6

    def test_zero_polynomial(self):
        value = XYZ.zero.eval({"x": rat(2, 3), "y": -1, "z": 0})
        assert type(value) is Fraction and value == 0

    def test_constant_ignores_point(self):
        assert XYZ.one.eval({"x": 99, "y": -5, "z": rat(1, 3)}) == 1
        value = XYZ.const(rat(-7, 4)).eval({"x": rat(5, 9), "y": 0, "z": -3})
        assert type(value) is Fraction and value == rat(-7, 4)

    def test_rational_point(self):
        p = (1 + Z) * (1 - Z)
        assert p.eval({"x": 0, "y": 0, "z": rat(1, 2)}) == rat(3, 4)

    def test_zero_coordinate(self):
        p = rat(2, 3) * X**3 * Z - rat(1, 5) * X + rat(4, 7)
        # x = 0 kills every term with a positive power of x; y is absent
        # from p, so its table holds only the entry 0^0 = 1.
        assert p.eval({"x": 0, "y": 0, "z": rat(3, 2)}) == rat(4, 7)
        assert p.eval({"x": rat(1, 2), "y": 0, "z": 0}) == rat(-1, 10) + rat(4, 7)
        assert (X * Z).eval({"x": 0, "y": 0, "z": 0}) == 0

    def test_negative_and_int_coordinates_give_fractions(self):
        p = X**2 * Y - rat(1, 2) * Z**3
        for point, expected in [({"x": -3, "y": 2, "z": -1}, rat(37, 2)),
                                ({"x": rat(-1, 3), "y": rat(-3, 2), "z": rat(-2, 5)},
                                 rat(-1, 6) + rat(4, 125))]:
            value = p.eval(point)
            assert type(value) is Fraction and value == expected

    def test_extra_names_ignored(self):
        p = X + 2 * Y
        assert p.eval({"x": 1, "y": rat(1, 4), "z": 0, "w": 5}) == rat(3, 2)

    def test_missing_assignment_rejected(self):
        with pytest.raises(KeyError):
            X.eval({"x": 1, "y": 2})

    def test_float_point_rejected(self):
        for bad in (0.5, "1"):
            with pytest.raises(TypeError):
                X.eval({"x": bad, "y": 0, "z": 0})

    def test_bool_coordinate_rejected(self):
        with pytest.raises(TypeError):
            X.eval({"x": True, "y": 0, "z": False})
        with pytest.raises(TypeError):
            XYZ.one.eval({"x": 1, "y": 0, "z": False})


class TestEvalMany:
    """``eval_many`` is the one evaluator and ``eval`` its one-point case;
    these pin its batches: empty rings, bad points, laziness, op counts."""

    def test_zero_variable_ring(self):
        ring = Ring(())
        for p, expected in [(ring.const(3), 3), (ring.const(rat(-2, 7)), rat(-2, 7)),
                            (ring.zero, 0), (ring.one + ring.one, 2)]:
            for point in ({}, {"x": 5}, {}):
                value = p.eval(point)
                assert type(value) is Fraction and value == expected

    def test_failed_eval_changes_no_later_value(self):
        p = rat(3, 4) * X**2 * Y - rat(1, 6) * Z + 2
        point = {"x": rat(1, 2), "y": -3, "z": rat(5, 3)}
        with pytest.raises(KeyError):
            p.eval({"x": 1, "y": 2})
        assert p.eval(point) == reference_eval(p, point)
        q = rat(3, 4) * X**2 * Y - rat(1, 6) * Z + 2
        with pytest.raises(TypeError):
            q.eval({"x": 0.5, "y": 0, "z": 0})
        assert q.eval(point) == reference_eval(q, point)
        assert q.eval({"x": 0, "y": 0, "z": 0}) == 2

    def test_bad_point_inside_a_batch(self):
        # Chunks before the bad point's chunk are yielded; then the batch
        # raises what eval raises on that point, and later batches still work.
        p = rat(3, 4) * X**2 * Y - rat(1, 6) * Z + 2
        good = [{"x": rat(i, 3), "y": -i, "z": i % 5} for i in range(130)]
        expected = [reference_eval(p, point) for point in good]
        for bad, error in [({"x": 1, "y": 2}, KeyError),
                           ({"x": 0.5, "y": 0, "z": 0}, TypeError),
                           ({"x": 1, "y": True, "z": 0}, TypeError)]:
            with pytest.raises(error) as single:
                p.eval(bad)
            for where in (0, 40, 63, 64, 129):
                values = p.eval_many(good[:where] + [bad] + good[where:])
                before = where - where % 64
                assert list(islice(values, before)) == expected[:before]
                with pytest.raises(error) as batch:
                    next(values)
                assert str(batch.value) == str(single.value)
                assert list(p.eval_many(good)) == expected

    def test_batch_is_consumed_a_chunk_at_a_time(self):
        # An endless batch: eval_many must not read it all before yielding.
        p = X**3 - rat(1, 2) * Y * Z
        point = {"x": rat(-2, 3), "y": 5, "z": rat(1, 7)}
        values = list(islice(p.eval_many(repeat(point)), 3))
        assert values == [reference_eval(p, point)] * 3

    def test_one_coefficient_operation_per_term_per_point(self):
        p = X**3 - rat(1, 2) * Y * Z + 4
        point = {"x": 2, "y": rat(1, 3), "z": -1}
        for size in (0, 1, 63, 64, 65, 130):
            reset_op_count()
            list(p.eval_many([point] * size))
            assert op_count() == 3 * size
        reset_op_count()
        p.eval(point)
        assert op_count() == 3
        reset_op_count()

    def test_polynomial_is_still_immutable(self):
        # Nothing, evaluation included, can store more than ring and terms.
        assert Polynomial.__slots__ == ("ring", "terms")
        for name in ("ring", "terms"):
            with pytest.raises(AttributeError):
                setattr(X, name, None)


class TestCopy:
    POINT = {"x": rat(-1, 2), "y": 3, "z": rat(4, 7)}

    @pytest.mark.parametrize("evaluated", [False, True])
    def test_pickle_round_trip(self, evaluated):
        p = rat(2, 3) * X**2 * Z - Y + rat(1, 5)
        if evaluated:
            p.eval(self.POINT)
        q = pickle.loads(pickle.dumps(p))
        assert q == p and hash(q) == hash(p) and q.ring == p.ring
        assert q.eval(self.POINT) == reference_eval(p, self.POINT)

    def test_copy(self):
        p = rat(2, 3) * X**2 * Z - Y + rat(1, 5)
        p.eval(self.POINT)
        for q in (copy.copy(p), copy.deepcopy(p)):
            assert q == p
            assert q.eval(self.POINT) == reference_eval(p, self.POINT)

    def test_deepcopy_of_chebyshev(self):
        u = chebyshev_closed(2)
        v = copy.deepcopy(u)
        assert v == u and v.render() == "4*t^2 - 1"


class TestRender:
    def test_examples(self):
        assert (X * X - X).render() == "x^2 - x"
        assert repr(X * X - X) == "Polynomial(('x', 'y', 'z'): x^2 - x)"
        assert XYZ.zero.render() == "0"
        ring_z = Ring(("z",))
        z = ring_z.var("z")
        assert (1 + 2 * z + z * z).render() == "z^2 + 2*z + 1"
        assert (-X**2 + 1).render() == "-x^2 + 1"
        assert XYZ.const(-1).render() == "-1"
        assert XYZ.const(rat(7, 4)).render() == "7/4"
        assert XYZ.const(rat(-7, 4)).render() == "-7/4"
        assert (-2 * X).render() == "-2*x"
        assert (-X).render() == "-x"

    def test_graded_order_with_lex_ties(self):
        # degree ties resolved by descending exponent vectors: x before z
        assert (X - 1 - Z).render() == "x - z - 1"

    def test_rational_coefficients(self):
        p = rat(1, 2) * X * X - rat(1, 2) * X
        assert p.render() == "1/2*x^2 - 1/2*x"

    def test_deterministic(self):
        p = (X + Y + Z + 1) ** 3
        assert p.render() == p.render()


def _random_poly(rng, ring, max_degree=4, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * len(ring)
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(len(ring))] += 1
        terms[tuple(exps)] = rat(rng.randint(-9, 9), rng.randint(1, 9))
    return Polynomial(ring, terms)


def test_ring_axioms_randomized():
    # associativity, commutativity, distributivity on >= 1000 cases
    rng = random.Random(20260823)
    for _ in range(1000):
        p = _random_poly(rng, XYZ)
        q = _random_poly(rng, XYZ)
        r = _random_poly(rng, XYZ)
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


@st.composite
def polynomials(draw, ring=XYZ):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(0, 3)) for _ in range(len(ring)))
        terms[exps] = rat(draw(st.integers(-20, 20)), draw(st.integers(1, 10)))
    return Polynomial(ring, terms)


@st.composite
def points(draw, ring=XYZ):
    return {
        v: rat(draw(st.integers(-30, 30)), draw(st.integers(1, 10)))
        for v in ring.variables
    }


@settings(max_examples=200)
@given(polynomials(), polynomials(), points())
def test_eval_is_a_homomorphism(p, q, s):
    assert (p * q).eval(s) == p.eval(s) * q.eval(s)
    assert (p + q).eval(s) == p.eval(s) + q.eval(s)


rationals = st.builds(rat, st.integers(-30, 30), st.integers(1, 12))


@st.composite
def polynomial_and_points(draw):
    """A polynomial in 0-3 variables and a batch of 0, 1, 63, 64, 65 or 130
    points on it, which spans up to three of ``eval_many``'s 64-point
    chunks; coordinates are zero, int or Fraction, negative or not."""
    ring = Ring(("u", "v", "w")[:draw(st.integers(0, 3))])
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 6)] * len(ring)), rationals, max_size=6))
    size = draw(st.sampled_from([0, 1, 63, 64, 65, 130]))
    rng = draw(st.randoms(use_true_random=False))
    kinds = (lambda: 0, lambda: rng.randint(-30, 30),
             lambda: rat(rng.randint(-30, 30), rng.randint(1, 12)))
    points = [{v: rng.choice(kinds)() for v in ring.variables} for _ in range(size)]
    return Polynomial(ring, terms), points


@settings(max_examples=300)
@given(polynomial_and_points())
def test_eval_matches_fraction_reference(case):
    # One point at a time, then the same points as one eval_many batch.
    p, points = case
    expected = [reference_eval(p, point) for point in points]
    assert [p.eval(point) for point in points] == expected
    values = list(p.eval_many(points))
    assert all(type(value) is Fraction for value in values)
    assert values == expected


@settings(max_examples=200)
@given(polynomials())
def test_canonical_form_soundness(p):
    assert not (p - p).terms


@settings(max_examples=200)
@given(polynomials(), polynomials())
def test_no_zero_coefficients_stored(p, q):
    # Engine results skip the constructor's checks; this pins their form.
    for r in (p, p * q, p + q, p - p, p - q, -p):
        assert all(c != 0 for c in r.terms.values())
        assert all(type(c) is Fraction for c in r.terms.values())
        assert all(len(e) == len(r.ring) and all(type(k) is int and k >= 0 for k in e)
                   for e in r.terms)
