"""Independent readings of a polynomial that the tests compare against.

``Polynomial.eval`` runs in integers over one common denominator;
``reference_eval`` is the retired term-by-term ``Fraction`` evaluator, a
direct reading of the definition.  ``to_sympy`` hands the terms to sympy,
which it imports only when called, so modules that never call it do not
import sympy.
"""

from fractions import Fraction


def reference_eval(poly, point) -> Fraction:
    """Sum of ``coeff * prod(value ** e)`` over the terms, in Fractions."""
    values = [Fraction(point[v]) for v in poly.ring.variables]
    total = Fraction(0)
    for exps, coeff in poly.terms.items():
        term = coeff
        for value, e in zip(values, exps):
            if e:
                term *= value**e
        total += term
    return total


def to_sympy(poly):
    """The expanded sympy expression of ``poly``'s terms."""
    import sympy

    syms = {v: sympy.Symbol(v) for v in poly.ring.variables}
    expr = sympy.Integer(0)
    for exps, coeff in poly.terms.items():
        term = sympy.Rational(int(coeff.numerator), int(coeff.denominator))
        for name, e in zip(poly.ring.variables, exps):
            term *= syms[name] ** e
        expr += term
    return sympy.expand(expr)
