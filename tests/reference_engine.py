"""The retired term-by-term ``Fraction`` evaluator, kept as a test oracle.

``Polynomial.eval`` now runs in integers over one common denominator; the
tests compare it against this direct reading of the definition, which
multiplies out every term in ``Fraction`` arithmetic.
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
