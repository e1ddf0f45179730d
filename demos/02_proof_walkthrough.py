"""Walk the proof of the identity step by step at a concrete m.

Each displayed equality in the derivation becomes a checkable statement:
the alternating double sum f collapses to a single sum (via upper
negation and the Jensen convolution formula), the triangular sum g
collapses via trinomial revision, the binomial theorem, and Chebyshev
values at 1, and the final difference telescopes.
"""

from binomid import (
    RING_XZ,
    binom_poly,
    binomial_collapse,
    chebyshev_recurrence,
    f_closed,
    f_def,
    g_closed,
    g_def,
    jensen_lhs,
    jensen_rhs,
    negate_upper,
    telescoped_closed,
    telescoped_sum,
    trinomial_revision_check,
)

M = 5
x = RING_XZ.var("x")

print(f"Step 1: upper negation, binom(p, k) = (-1)^k binom(k-1-p, k)")
p = RING_XZ.var("x") + 2 * RING_XZ.var("z")
print("  binom_poly(x+2z, 3) == negate_upper(x+2z, 3):",
      binom_poly(p, 3) == negate_upper(p, 3))

print(f"\nStep 2: Jensen convolution formula at m = {M}")
print("  jensen_lhs == jensen_rhs:", jensen_lhs(M) == jensen_rhs(M))

print(f"\nStep 3: f collapses to a single sum at m = {M}")
f = f_def(M)
print("  f_def == f_closed:", f == f_closed(M))
print("  y-dependence cancels (y-degree {}):".format(f.degree_in("y")),
      f.degree_in("y") <= 0)

print(f"\nStep 4: trinomial revision (index reshuffle inside g)")
ok = all(trinomial_revision_check(j, k, i)
         for j in range(11) for k in range(j + 1) for i in range(k + 1))
print("  exhaustive over 0 <= i <= k <= j <= 10:", ok)

print(f"\nStep 5: the inner sum collapses to a power of two, 2^n with n = 2k-j")
for j, k in [(4, 2), (4, 3), (4, 4)]:
    print(f"  j={j}, k={k}: sum = {binomial_collapse(2 * k - j)} "
          f"(expected 2^{2 * k - j})")

print(f"\nStep 6: Chebyshev values at t=1 supply the coefficients (j+1)")
print("  U_j(1) for j = 0..6:",
      [int(chebyshev_recurrence(j).eval({"t": 1})) for j in range(7)])

print(f"\nStep 7: g collapses to its weighted single sum at m = {M}")
print("  g_def == g_closed:", g_def(M) == g_closed(M))

print(f"\nStep 8: the remaining difference telescopes at m = {M}")
total = telescoped_sum(M)
print("  telescoped_sum ==", f"(1+{M})*binom(x, {M + 1}):",
      total == (1 + M) * binom_poly(x, M + 1))
print("  telescoped_sum ==", f"(x-{M})*binom(x, {M}):", total == telescoped_closed(M))
