"""The singlet state violates the population-count inequality.

No assignment of nonnegative population counts can reproduce the singlet's
joint probabilities at 60-degree axis spacing: the count form forces
P(+a;+b) <= P(+a;+c) + P(+c;+b), while the singlet gives 0.375 > 0.25.
"""

import math

from bellstat import (
    AxisTriple,
    PairOutcome,
    quantum_wigner_scan,
    singlet_prediction,
    singlet_prediction_statevector,
    singlet_sample,
    wigner_check_probabilities,
)

# Closed form vs the explicit state-vector oracle, at one angle.
axes = AxisTriple.coplanar(math.radians(60))
closed = singlet_prediction(axes.a, axes.b)
oracle = singlet_prediction_statevector(axes.a, axes.b)
print("a-b joint probabilities at 120 degrees")
print(f"  closed form:  {closed.as_tuple()}")
print(f"  state vector: {oracle.as_tuple()}")

# Scan the symmetric coplanar configuration.  Violation region: 0 < theta < 90.
# The scan comes back as four columns, one entry per step.
scan = quantum_wigner_scan(math.radians(175), steps=7)
print("\ntheta  lhs      rhs      violated")
for theta, lhs, rhs, violated in zip(scan.theta, scan.lhs, scan.rhs, scan.violated):
    print(f"{math.degrees(theta):>5.0f}  {lhs:.5f}  {rhs:.5f}  {violated}")

triple = wigner_check_probabilities(0.375, 0.125, 0.125)
print(f"\nquantum triple at 60 degrees: margin {triple.margin:+.3f} -> "
      f"{'violated' if not triple.holds else 'holds'}")

# Monte Carlo agreement: sample singlet pairs with both observers choosing
# axes uniformly at random, then look at the (+a;+b) events.
counts = singlet_sample(axes, 200_000, seed=7, policy="uniform")
est = counts.estimate(PairOutcome("a", +1, "b", +1))
print(f"\nsampled P(+a;+b): {est.p_hat:.4f} +- {est.stderr:.4f} "
      f"(prediction 0.375, n = {est.n})")

# Anticorrelation shows up as a hard zero: same axis, same sign never occurs.
# counts.counts is indexed [alice_axis, bob_axis, alice_sign, bob_sign].
same_sign = sum(int(counts.counts[axis, axis, s, s]) for axis in range(3) for s in range(2))
print(f"same-axis same-sign events in {counts.n} pairs: {same_sign}")
