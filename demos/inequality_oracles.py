"""Spot-check the pointwise inequalities the stability analysis rests on,
then run the randomized suites."""

import numpy as np

from nsdamp import (
    Certificate,
    gronwall_constant,
    monotonicity_gap,
    verify_suite,
    young_gap,
)

# The map x -> |x|^b x is monotone: <|x|^b x - |y|^b y, x - y> dominates
# (|x|^b + |y|^b)|x - y|^2 / 2, and the gap between the two sides
# factorizes as (|x|^b - |y|^b)(|x|^2 - |y|^2)/2, which is nonnegative by
# inspection. For x = (2,0), y = (0,1), b = 3 that is (8-1)(4-1)/2 = 10.5.
x = np.array([[2.0, 0.0]])
y = np.array([[0.0, 1.0]])
print(f"monotonicity gap at a hand-checked pair: {monotonicity_gap(x, y, 3.0)[0]}")

# Young's inequality with the conjugate pair used by the uniqueness
# argument, at a point where it is exactly tight.
print(f"young gap at equality: {young_gap(np.array([8.0]), np.array([2.0]), 4/3, 4.0)[0]:.2e}")

# The growth constant entering the twin bound, for a few damping setups.
for alpha, beta in [(1.0, 4.0), (2.0, 4.0), (1.0, 5.0), (8.0, 5.0)]:
    print(f"C(alpha={alpha}, beta={beta}) = {gronwall_constant(alpha, beta)}")

print()
rows = verify_suite(seed=0)
for r in rows:
    print(f"{r.name}: {r.samples} samples")
report = Certificate([r.check for r in rows], [])
print("\n".join(report.lines()))
raise SystemExit(0 if report.passed else 1)
