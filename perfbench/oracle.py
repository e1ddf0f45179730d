"""Independent checks of binomid's outputs.

Nothing here imports binomid.  The defining sums are evaluated with
``fractions.Fraction`` and this module's own falling-factorial binomial,
the SplitMix64 point scheme is re-implemented from the README, and the
program's rendered polynomials are parsed back into terms so they can be
evaluated at the same rational points.  ``sympy_mismatches`` is a second,
symbolic route for small parameters.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

# The standard lemma ranges of ``binomid sweep``, in the order the sweep
# reports them.  They define the cli-sweep workload's expected output.
LEMMA_RANGES = {
    "f": range(0, 26),
    "g": range(0, 26),
    "jensen": range(0, 21),
    "chebyshev": range(0, 51),
    "telescope": range(0, 26),
    "collapse": range(0, 21),
}

# Variables of each construction's ring, as the program renders them.
VARIABLES = {
    "main": "xyz",
    "f": "xyz",
    "g": "xz",
    "jensen": "abc",
    "chebyshev": "t",
    "telescope": "xz",
    "collapse": "z",
}


# -- Fraction evaluation of the defining sums ------------------------------

def binom(p, k: int) -> Fraction:
    """C(p, k) = p(p-1)...(p-k+1)/k! for a rational or integer p, k >= 0."""
    if k < 0:
        raise ValueError(f"binom needs k >= 0, got {k}")
    num = Fraction(1)
    for i in range(k):
        num *= p - i
    return num / factorial(k)


def binom_total(n: int, k: int) -> int:
    """Integer C(n, k), zero for k < 0, falling-factorial form for n < 0."""
    return 0 if k < 0 else int(binom(n, k))


def f_def(m, x, y, z):
    return sum((-1) ** k * binom(x + y + k * z, m - k) * binom(y + k + k * z, k)
               for k in range(m + 1))


def f_closed(m, x, y, z):
    return sum(binom(x, m - j) * (-1 - z) ** j for j in range(m + 1))


def g_def(m, x, z):
    return sum((-1) ** k * binom_total(k, i) * binom(x + i, m - k)
               * (1 + z) ** (k + i) * (1 - z) ** (k - i)
               for k in range(m + 1) for i in range(k + 1))


def g_closed(m, x, z):
    return sum((j + 1) * binom(x, m - j) * (-1 - z) ** j for j in range(m + 1))


def main_lhs(m, x, y, z):
    return (x + (m + 1) * z) * f_def(m, x, y, z)


def main_rhs(m, x, y, z):
    return z * g_def(m, x, z) + (x - m) * binom(x, m)


def jensen_lhs(m, a, b, c):
    return sum(binom(a + b * i, i) * binom(c - b * i, m - i) for i in range(m + 1))


def jensen_rhs(m, a, b, c):
    return sum(binom(a + c - j, m - j) * b ** j for j in range(m + 1))


def chebyshev_closed(n, t):
    return sum((-1) ** k * binom_total(n - k, k) * (2 * t) ** (n - 2 * k)
               for k in range(n // 2 + 1))


def chebyshev_recurrence(n, t):
    prev, cur = Fraction(1), 2 * t
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, 2 * t * cur - prev
    return cur


def telescope_lhs(m, x, z):
    return sum((1 + m - j) * binom(x, 1 + m - j) * (-1 - z) ** j
               - (m - j) * binom(x, m - j) * (-1 - z) ** (j + 1)
               for j in range(m + 1))


def telescope_rhs(m, x, z):
    return (x - m) * binom(x, m)


def collapse_lhs(j, z):
    """The k = j instance of the collapse sum, which the sweep report shows."""
    return sum(binom_total(j, i) * (1 + z) ** i * (1 - z) ** (j - i)
               for i in range(j + 1))


def collapse_rhs(j, z):
    return Fraction(2) ** j


SIDES = {
    "main": (main_lhs, main_rhs),
    "f": (f_def, f_closed),
    "g": (g_def, g_closed),
    "jensen": (jensen_lhs, jensen_rhs),
    "chebyshev": (chebyshev_closed, chebyshev_recurrence),
    "telescope": (telescope_lhs, telescope_rhs),
    "collapse": (collapse_lhs, collapse_rhs),
}


def rational_point(rng: random.Random, names: str) -> dict[str, Fraction]:
    return {v: Fraction(rng.randint(-999, 999), rng.randint(1, 99)) for v in names}


# -- rendered polynomials --------------------------------------------------

def parse_rendered(text: str) -> dict[tuple[tuple[str, int], ...], Fraction]:
    """Terms of a canonical render such as ``3/2*x^2*z - y + 7``.

    Keys are sorted ``(variable, exponent)`` tuples; the empty key is the
    constant term.  Raises ValueError on text that is not a render.
    """
    tokens = text.split(" ")
    if len(tokens) % 2 == 0:
        raise ValueError(f"malformed render: {text[:80]!r}")
    signed = [("-", tokens[0][1:]) if tokens[0].startswith("-") else ("+", tokens[0])]
    signed += [(tokens[i], tokens[i + 1]) for i in range(1, len(tokens), 2)]
    terms: dict[tuple[tuple[str, int], ...], Fraction] = {}
    for sign, body in signed:
        if sign not in "+-" or not body:
            raise ValueError(f"malformed render: {text[:80]!r}")
        coeff = Fraction(1)
        powers = []
        for factor in body.split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
            else:
                name, _, exp = factor.partition("^")
                powers.append((name, int(exp) if exp else 1))
        key = tuple(sorted(powers))
        if key in terms:
            raise ValueError(f"repeated monomial {key} in render")
        terms[key] = -coeff if sign == "-" else coeff
    if terms == {(): Fraction(0)}:
        return {}
    return terms


def evaluate(terms, point: dict[str, Fraction]) -> Fraction:
    total = Fraction(0)
    for key, coeff in terms.items():
        value = coeff
        for name, exp in key:
            value *= point[name] ** exp
        total += value
    return total


def check_report_at_points(report: dict, points: list[dict[str, Fraction]]) -> list[str]:
    """Compare a report's rendered sides with the defining sums; return
    a list of problems, empty when the report is right."""
    name, p = report["identity_name"], report["parameter"]
    build_lhs, build_rhs = SIDES[name]
    problems = []
    if report["difference_rendered"] != "0" or not report["equal"]:
        problems.append(f"{name} p={p}: program reports a nonzero difference")
    try:
        lhs = parse_rendered(report["lhs_rendered"])
        rhs = parse_rendered(report["rhs_rendered"])
    except ValueError as err:
        return problems + [f"{name} p={p}: {err}"]
    if list(report["term_counts"]) != [len(lhs), len(rhs)]:
        problems.append(f"{name} p={p}: term counts disagree with the renders")
    for point in points:
        args = [point[v] for v in VARIABLES[name]]
        if evaluate(lhs, point) != build_lhs(p, *args):
            problems.append(f"{name} p={p}: rendered lhs differs from its sum at {point}")
        if evaluate(rhs, point) != build_rhs(p, *args):
            problems.append(f"{name} p={p}: rendered rhs differs from its sum at {point}")
    return problems


# -- the SplitMix64 point scheme -------------------------------------------

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def splitmix64_output(seed: int, t: int) -> int:
    """Output number t (from 0) of the SplitMix64 stream started at seed."""
    z = (seed + (t + 1) * _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def oracle_point(names: str, seed: int, index: int) -> dict[str, Fraction]:
    """Trial ``index`` of the README's point scheme over the given variables."""
    first = 2 * len(names) * index
    point = {}
    for offset, name in enumerate(names):
        u_num = splitmix64_output(seed, first + 2 * offset)
        u_den = splitmix64_output(seed, first + 2 * offset + 1)
        point[name] = Fraction(-999 + u_num % 1999, 1 + u_den % 99)
    return point


# -- sympy expansion of each construction, for small parameters ------------

def sympy_sides(name: str, p: int):
    """Both sides of a construction as sympy expressions, expanded."""
    import sympy

    x, y, z, a, b, c, t = sympy.symbols("x y z a b c t")

    def C(upper, k):
        return sympy.ff(upper, k) / sympy.factorial(k) if k >= 0 else 0

    if name in ("main", "f"):
        f = sum((-1) ** k * C(x + y + k * z, p - k) * C(y + k + k * z, k)
                for k in range(p + 1))
    if name in ("main", "g"):
        g = sum((-1) ** k * sympy.binomial(k, i) * C(x + i, p - k)
                * (1 + z) ** (k + i) * (1 - z) ** (k - i)
                for k in range(p + 1) for i in range(k + 1))
    if name == "main":
        lhs, rhs = (x + (p + 1) * z) * f, z * g + (x - p) * C(x, p)
    elif name == "f":
        lhs, rhs = f, sum(C(x, p - j) * (-1 - z) ** j for j in range(p + 1))
    elif name == "g":
        lhs, rhs = g, sum((j + 1) * C(x, p - j) * (-1 - z) ** j for j in range(p + 1))
    elif name == "jensen":
        lhs = sum(C(a + i * b, i) * C(c - i * b, p - i) for i in range(p + 1))
        rhs = sum(C(a + c - j, p - j) * b ** j for j in range(p + 1))
    elif name == "chebyshev":
        lhs = rhs = sympy.chebyshevu(p, t)
    elif name == "telescope":
        lhs = sum((1 + p - j) * C(x, 1 + p - j) * (-1 - z) ** j
                  - (p - j) * C(x, p - j) * (-1 - z) ** (j + 1) for j in range(p + 1))
        rhs = (x - p) * C(x, p)
    elif name == "collapse":
        lhs = sum(sympy.binomial(p, i) * (1 + z) ** i * (1 - z) ** (p - i)
                  for i in range(p + 1))
        rhs = sympy.Integer(2) ** p
    else:
        raise ValueError(f"no sympy construction for {name!r}")
    return sympy.expand(lhs), sympy.expand(rhs)


def sympy_mismatches(reports: list[dict], max_parameter: int) -> list[str]:
    """Parse each report's rendered sides with sympy and compare them with
    sympy's own expansion, for every report with parameter <= max_parameter."""
    import sympy
    from sympy.parsing.sympy_parser import parse_expr

    symbols = {s.name: s for s in sympy.symbols("x y z a b c t")}
    problems = []
    for report in reports:
        name, p = report["identity_name"], report["parameter"]
        if p > max_parameter:
            continue
        expected = sympy_sides(name, p)
        for side, want in zip(("lhs", "rhs"), expected):
            text = report[f"{side}_rendered"].replace("^", "**")
            got = parse_expr(text, local_dict=symbols, evaluate=True)
            if sympy.expand(got - want) != 0:
                problems.append(f"{name} p={p}: {side} differs from sympy's expansion")
    return problems
