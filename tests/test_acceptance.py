"""Acceptance gate: every criterion at its stated range, exact tolerance
unless a float tolerance is stated.  Run with `pytest -v -s
tests/test_acceptance.py` to see one PASS line per criterion.
"""

import json
import time

from binomid.binomials import binom_poly, trinomial_revision_check
from binomid.identities import (
    RING_XYZ,
    RING_XZ,
    chebyshev_recurrence,
    chebyshev_trig_check,
    lhs_identity,
    rhs_identity,
)
from binomid.rings import Polynomial
from binomid.verify import (
    SplitMix64,
    check_pair_at_points,
    random_point_check,
    verify_identity,
)


def _ok(line):
    print(f"PASS: {line}")


def _suite(serial_sweep, name):
    """The sweep's reports on one lemma, in parameter order."""
    return [r for r in serial_sweep if r.identity_name == name]


def test_main_identity_sweep_under_budget():
    started = time.perf_counter()
    reports = [verify_identity(m) for m in range(26)]
    elapsed = time.perf_counter() - started
    assert all(r.equal for r in reports)
    assert elapsed < 60.0
    _ok(f"main identity equal for m in 0..25 ({elapsed:.1f}s < 60s)")


def test_f_simplification(serial_sweep):
    reports = _suite(serial_sweep, "f")
    assert [r.parameter for r in reports] == list(range(26))
    assert all(r.equal for r in reports)
    assert all("y" not in r.lhs_rendered for r in reports)
    _ok("f definitional sum equals closed form and has no y-term, m in 0..25")


def test_g_simplification(serial_sweep):
    reports = _suite(serial_sweep, "g")
    assert [r.parameter for r in reports] == list(range(26))
    assert all(r.equal for r in reports)
    _ok("g definitional sum equals closed form, m in 0..25")


def test_jensen_formula(serial_sweep):
    reports = _suite(serial_sweep, "jensen")
    assert [r.parameter for r in reports] == list(range(21))
    assert all(r.equal for r in reports)
    _ok("Jensen convolution formula over symbolic (a, b, c), m in 0..20")


def test_chebyshev(serial_sweep):
    reports = _suite(serial_sweep, "chebyshev")
    assert [r.parameter for r in reports] == list(range(51))
    assert all(r.equal for r in reports)
    for n in range(51):
        assert chebyshev_recurrence(n).eval({"t": 1}) == n + 1
    # 20 seeded thetas in (0.05, 3.09)
    gen = SplitMix64(2024)
    thetas = [0.05 + (gen.next_u64() / 2**64) * 3.04 for _ in range(20)]
    for n in range(51):
        assert chebyshev_trig_check(n, *thetas)
    _ok("Chebyshev closed=recurrence, U_n(1)=n+1 and the trig cross-check "
        "at 20 seeded thetas for n in 0..50")


def test_collapse_step(serial_sweep):
    # The (j, k) term collapses with n = 2k-j, which runs over 0..20 for
    # 0 <= k <= j <= 20, 2k >= j.
    reports = _suite(serial_sweep, "collapse")
    assert [r.parameter for r in reports] == list(range(21))
    assert all(r.equal for r in reports)
    _ok("inner sum collapses to 2^(2k-j) for 0 <= k <= j <= 20, 2k >= j")


def test_trinomial_revision_exhaustive():
    for j in range(31):
        for k in range(j + 1):
            for i in range(k + 1):
                assert trinomial_revision_check(j, k, i)
    _ok("trinomial revision exhaustive over 0 <= i <= k <= j <= 30")


def test_telescoping_finale(serial_sweep):
    # Each report compares the sum with (x-m)*binom(x, m); its rendered
    # sum is also checked against the other form, (1+m)*binom(x, 1+m).
    x = RING_XZ.var("x")
    reports = _suite(serial_sweep, "telescope")
    assert [r.parameter for r in reports] == list(range(26))
    assert all(r.equal for r in reports)
    for m, report in enumerate(reports):
        assert report.lhs_rendered == ((1 + m) * binom_poly(x, 1 + m)).render()
    _ok("telescoped sum equals (1+m)*binom(x,1+m) = (x-m)*binom(x,m), m in 0..25")


def test_randomized_oracle():
    for m in range(16):
        report = random_point_check("main", m, 100, seed=7)
        assert report.failures == 0
    first = random_point_check("main", 9, 100, seed=7)
    second = random_point_check("main", 9, 100, seed=7)
    assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())
    _ok("100 seeded rational points per m, m in 0..15, zero mismatches; "
        "replay byte-identical")


def test_mutation_sensitivity():
    m = 3
    lhs = lhs_identity(m)
    rhs = rhs_identity(m)
    assert lhs == rhs
    for exps in sorted(rhs.terms):
        perturbed_terms = dict(rhs.terms)
        perturbed_terms[exps] = perturbed_terms[exps] + 1
        perturbed = Polynomial(RING_XYZ, perturbed_terms)
        assert lhs != perturbed  # equal flag must flip
        report = check_pair_at_points("main", m, lhs, perturbed, RING_XYZ,
                                      100, seed=7)
        assert report.failures >= 99
    _ok("every single-coefficient perturbation of the right side flips the "
        "verdict and fails >= 99/100 random points")
