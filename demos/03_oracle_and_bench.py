"""The randomized evaluation oracle and the definitional-vs-closed-form
benchmark.

The oracle draws seeded rational points (SplitMix64; replayable from the
seed alone) and evaluates both sides exactly; the benchmark counts
elementary coefficient operations, showing how much cheaper each closed
form is than the sum defining it.  Each pair of strategies must build the
same polynomial; the benchmark's evaluations only measure cost.
"""

from binomid import bench, random_point_check

print("Randomized oracle on the main identity (exact rational evaluation):")
for m in (0, 3, 8):
    report = random_point_check("main", m, trials=100, seed=7)
    print(f"  m={m}: {report.trials - report.failures}/{report.trials} "
          f"points agree (seed={report.seed})")

print("\nBenchmark at m = 12, 20 points, seed 4:")
report = bench(12, points=20, seed=4)
for t in report.strategies:
    print(f"  {t.strategy:10s} coeff_ops={t.coeff_ops:10d}  "
          f"wall={t.elapsed_micros} us")
print("  each closed form equals its defining sum:", report.agreed)

defs = {t.strategy: t.coeff_ops for t in report.strategies}
print(f"\n  f closed form is {defs['f_def'] / defs['f_closed']:.0f}x cheaper, "
      f"g closed form is {defs['g_def'] / defs['g_closed']:.0f}x cheaper")
