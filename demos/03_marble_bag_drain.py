"""Draining a finite reservoir: conditional probabilities drift to certainty.

An infinite source keeps its outcome probabilities fixed forever.  A finite
bag does not: every draw reshapes what is left, and just before the last draw
the surviving population is picked with probability exactly 1.
"""

from bellstat import (
    PairOutcome,
    PopulationTable,
    ReservoirSpec,
    depletion_trajectory,
    finite_vs_infinite_divergence,
)

# Four "colors" of 25 marbles each (populations 5..8 left empty).
bag = PopulationTable.from_counts((25, 25, 25, 25, 0, 0, 0, 0))
populations, counts = depletion_trajectory(ReservoirSpec.finite(bag, seed=42))
before = counts[:-1]  # the bag just before each draw
conditional = before / before.sum(axis=1, keepdims=True)

print("step  drawn  conditional probabilities of populations 1..4")
for k in [*range(3), *range(bag.total - 5, bag.total)]:
    probs = "  ".join(f"{p:.3f}" for p in conditional[k, :4])
    print(f"{k + 1:>4}  {populations[k]:>5}  {probs}")

last = populations[-1]
print(f"\nfinal draw: population {last} "
      f"with pre-draw probability {conditional[-1, last - 1]}")

# How far does the finite bag drift from the infinite-source probabilities?
# The headline channel tracks |P_finite - P_infinite| for one outcome; the L1
# channel compares the full conditional distributions.  Scaling the bag up
# pushes both toward zero over a fixed number of draws.
outcome = PairOutcome("a", +1, "b", +1)
print(f"\n{'scale':>6}  {'mean max |dP|':>14}  {'max L1':>7}   ({outcome.label()}, 8 draws)")
for scale in (1, 10, 100, 1000):
    scaled = PopulationTable.from_counts([c * scale for c in bag.counts])
    report = finite_vs_infinite_divergence(scaled, 8, seeds=range(40), outcome=outcome)
    print(f"{scale:>6}  {report.mean_max_abs_deviation:>14.5f}  {report.max_l1_deviation:>7.4f}")

# A full drain of the unscaled bag, by contrast, always ends far from the
# infinite source: the last pre-draw distribution is a point mass.
full = finite_vs_infinite_divergence(bag, bag.total, seeds=range(10), outcome=outcome)
print(f"\nfull drain: max |dP| = {full.max_abs_deviation:.4f}, "
      f"max L1 = {full.max_l1_deviation:.4f}")
