"""Multiplicity and entropy algebra for the eight-population model.

Boltzmann entropy S = k ln(omega) turns multiplicity products into entropy
sums, so the product-form joint-multiplicity inequalities checked here have
exact entropy-additivity equivalents.  Three related inequalities are
implemented over a vector of per-population multiplicities omega_1..omega_8:

- the sum form      omega_3*omega_4 <= omega_2*omega_4 + omega_3*omega_7,
  which is only guaranteed when the multiplicities are roughly equal
  (max/min <= 2 suffices; the check reports a configurable precondition
  flag max/min <= 1 + epsilon);
- the product form  omega_3*omega_4 <= omega_2*omega_4*omega_3*omega_7;
- the entropy form  S_3 + S_4 <= S_2 + S_4 + S_3 + S_7, the product form
  rewritten through entropy additivity (it reduces to S_2 + S_7 >= 0).

The dice pair is the worked warm-up: 36 microstates, multiplicity 6 for a
total of seven, hence probability 1/6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Literal, Sequence

from .errors import ValidationError
from .populations import (
    TOL,
    InequalityReport,
    PopulationTable,
    Term,
    _report,
    population_pair_partition,
)
from .rng import stream

#: Boltzmann's constant in J/K (SI).  The default everywhere is k = 1
#: (natural units); every inequality verdict is k-invariant.
BOLTZMANN_SI = 1.380649e-23

MultiplicityPolicy = Literal["equal", "proportional"]


@dataclass(frozen=True)
class Multiplicity:
    """Number of microstates for a macrostate.  Positive; integer when counted."""

    omega: float

    def __post_init__(self) -> None:
        if not self.omega > 0:
            raise ValidationError(f"multiplicity must be positive, got {self.omega!r}")


@dataclass(frozen=True)
class Entropy:
    """Entropy value together with the Boltzmann constant it was formed with."""

    s: float
    k: float = 1.0

    def __post_init__(self) -> None:
        if not self.k > 0:
            raise ValidationError(f"Boltzmann constant must be positive, got {self.k!r}")


def entropy_from_multiplicity(m: Multiplicity, k: float = 1.0) -> Entropy:
    """S = k ln(omega)."""
    return Entropy(s=k * math.log(m.omega), k=k)


def multiplicity_from_entropy(e: Entropy) -> Multiplicity:
    """Inverse of :func:`entropy_from_multiplicity`: omega = e^(S/k)."""
    ratio = e.s / e.k
    if not math.isfinite(ratio):
        raise ValidationError(f"S/k must be finite, got {ratio!r}")
    try:
        return Multiplicity(math.exp(ratio))
    except OverflowError:
        raise ValidationError(
            f"multiplicity e^(S/k) is too large for a float, S/k = {ratio!r}"
        ) from None


def gibbs_entropy(p: Sequence[float], k: float = 1.0) -> Entropy:
    """S = -k sum(p_i ln p_i) over a normalized distribution, with 0 ln 0 = 0.

    For the uniform distribution over omega outcomes this reduces to
    k ln(omega), matching :func:`entropy_from_multiplicity`.
    """
    probs = [float(x) for x in p]
    for x in probs:
        if not x >= 0:  # phrased so a nan fails too
            raise ValidationError(f"probabilities must be nonnegative, got {x!r}")
    total = math.fsum(probs)
    if not abs(total - 1.0) <= 1e-12:
        raise ValidationError(f"probabilities must sum to 1 within 1e-12, got {total!r}")
    s = -k * math.fsum(x * math.log(x) for x in probs if x > 0.0)
    return Entropy(s=s, k=k)


def combine(m_a: Multiplicity, m_b: Multiplicity) -> Multiplicity:
    """Multiplicity of two interacting systems: the product omega_A * omega_B.

    Asserts the equivalent entropy additivity S_AB = S_A + S_B within 1e-9,
    which also guards against float overflow of the product.
    """
    combined = Multiplicity(m_a.omega * m_b.omega)
    s_ab = math.log(combined.omega) if math.isfinite(combined.omega) else math.inf
    s_sum = math.log(m_a.omega) + math.log(m_b.omega)
    if not abs(s_ab - s_sum) <= 1e-9 * max(1.0, abs(s_sum)):
        raise ValidationError(
            f"entropy additivity check failed: ln(omega_AB) = {s_ab!r}, "
            f"S_A + S_B = {s_sum!r}"
        )
    return combined


def dice_multiplicity(total: int) -> Multiplicity:
    """Multiplicity of a two-dice total: ordered pairs summing to ``total``."""
    if not 2 <= total <= 12:
        raise ValidationError(f"two-dice total must be in 2..12, got {total!r}")
    count = sum(
        1 for d1 in range(1, 7) for d2 in range(1, 7) if d1 + d2 == total
    )
    return Multiplicity(count)


def dice_probability(total: int) -> Fraction:
    """Exact probability of a two-dice total: multiplicity over 36."""
    return Fraction(int(dice_multiplicity(total).omega), 36)


@dataclass(frozen=True)
class MultiplicityVector:
    """Positive multiplicities omega_1..omega_8 aligned to the population rows."""

    omegas: tuple[float, float, float, float, float, float, float, float]

    def __post_init__(self) -> None:
        if len(self.omegas) != 8:
            raise ValidationError(f"multiplicity vector needs 8 entries, got {len(self.omegas)}")
        for w in self.omegas:
            if not w > 0:
                raise ValidationError(f"multiplicities must be positive, got {w!r}")
            if not math.isfinite(w):
                raise ValidationError(f"multiplicities must be finite, got {w!r}")

    @classmethod
    def equal(cls, omega: float = 1.0) -> "MultiplicityVector":
        return cls((float(omega),) * 8)  # type: ignore[arg-type]

    @classmethod
    def from_iterable(cls, omegas: Iterable[float]) -> "MultiplicityVector":
        try:
            return cls(tuple(float(w) for w in omegas))  # type: ignore[arg-type]
        except OverflowError:
            raise ValidationError(
                "multiplicities must be finite, got one too large for a float"
            ) from None

    @classmethod
    def from_counts(
        cls, table: PopulationTable, policy: MultiplicityPolicy = "equal"
    ) -> "MultiplicityVector":
        """Assign multiplicities from population counts.

        ``equal`` ignores the counts (all omegas 1); ``proportional`` sets
        omega_i = N_i, which requires every count to be positive.
        """
        if policy == "equal":
            return cls.equal()
        if policy == "proportional":
            if any(n <= 0 for n in table.counts):
                raise ValidationError(
                    "proportional multiplicity policy requires all counts positive"
                )
            return cls.from_iterable(table.counts)
        raise ValidationError(f"unknown multiplicity policy {policy!r}")

    def omega(self, index: int) -> float:
        if not 1 <= index <= 8:
            raise ValidationError(f"population index must be in 1..8, got {index!r}")
        return self.omegas[index - 1]

    @property
    def max_min_ratio(self) -> float:
        return max(self.omegas) / min(self.omegas)


def joint_multiplicity(v: MultiplicityVector, i: int, j: int) -> Multiplicity:
    """Joint multiplicity of two populations: the product omega_i * omega_j."""
    return Multiplicity(v.omega(i) * v.omega(j))


def multiplicity_probability(
    v: MultiplicityVector,
    i: int,
    j: int,
    normalization: Literal["outcome-classes", "raw"] = "outcome-classes",
) -> float:
    """Probability of the joint outcome {i, j} from multiplicity products.

    ``outcome-classes`` (default) divides omega_i*omega_j by the sum of the
    joint multiplicities of the four two-population classes of the measured
    axis pair, so the four outcome probabilities of that pair sum to 1.
    ``raw`` divides by the plain sum of the eight multiplicities instead.
    """
    joint = joint_multiplicity(v, i, j).omega
    if normalization == "raw":
        total = math.fsum(v.omegas)
    elif normalization == "outcome-classes":
        partition = population_pair_partition(i, j)
        total = math.fsum(math.prod(v.omega(n) for n in cls) for cls in partition)
    else:
        raise ValidationError(f"unknown normalization {normalization!r}")
    return joint / total  # total > 0: positive omegas, or products that include joint > 0


def _product_term(v: MultiplicityVector, label: str, indices: tuple[int, ...]) -> Term:
    return Term(
        label=label,
        populations=indices,
        value=math.prod(v.omega(i) for i in indices),
    )


def multiplicity_inequality(
    v: MultiplicityVector, epsilon: float = 0.05
) -> InequalityReport:
    """Check the sum form omega_3*omega_4 <= omega_2*omega_4 + omega_3*omega_7.

    Guaranteed only for roughly equal multiplicities; the report's
    ``equal_multiplicity_precondition`` records whether max/min <= 1 + epsilon.
    """
    if not math.isfinite(epsilon):
        raise ValidationError(f"epsilon must be finite, got {epsilon!r}")
    if epsilon < 0:
        raise ValidationError(f"epsilon must be nonnegative, got {epsilon!r}")
    t_34 = _product_term(v, "lhs omega_3*omega_4", (3, 4))
    t_24 = _product_term(v, "rhs omega_2*omega_4", (2, 4))
    t_37 = _product_term(v, "rhs omega_3*omega_7", (3, 7))
    return _report(
        lhs=t_34.value,
        rhs=t_24.value + t_37.value,
        terms=(t_34, t_24, t_37),
        precondition=v.max_min_ratio <= 1.0 + epsilon + TOL,
    )


def product_inequality(v: MultiplicityVector) -> InequalityReport:
    """Check the product form omega_3*omega_4 <= omega_2*omega_4*omega_3*omega_7.

    For omega > 0 this reduces to omega_2*omega_7 >= 1, so it can fail for
    sub-unit multiplicities even where the sum form holds.
    """
    t_34 = _product_term(v, "lhs omega_3*omega_4", (3, 4))
    t_2437 = _product_term(v, "rhs omega_2*omega_4*omega_3*omega_7", (2, 4, 3, 7))
    return _report(
        lhs=t_34.value,
        rhs=t_2437.value,
        terms=(t_34, t_2437),
        note="reduces to omega_2*omega_7 >= 1",
    )


def entropy_inequality(v: MultiplicityVector, k: float = 1.0) -> InequalityReport:
    """Check S_3 + S_4 <= S_2 + S_4 + S_3 + S_7 with S_i = k ln(omega_i).

    This is the product form rewritten through entropy additivity.  The
    comparison (and the reported lhs/rhs) is made on S/k so the verdict does
    not depend on the unit system; the per-population entropies at the given
    k appear in the terms.
    """
    s = [entropy_from_multiplicity(Multiplicity(w), k).s for w in v.omegas]

    def term(label: str, indices: tuple[int, ...]) -> Term:
        return Term(
            label=label,
            populations=indices,
            value=math.fsum(s[i - 1] for i in indices),
        )

    t_lhs = term("lhs S_3+S_4", (3, 4))
    t_rhs = term("rhs S_2+S_4+S_3+S_7", (2, 4, 3, 7))
    return _report(
        lhs=t_lhs.value / k,
        rhs=t_rhs.value / k,
        terms=(t_lhs, t_rhs),
        note="reduces to S_2 + S_7 >= 0; lhs/rhs are in units of k",
    )


def find_multiplicity_counterexample(
    budget: int,
    seed: int = 0,
    log10_range: tuple[float, float] = (-1.0, 2.0),
    epsilon: float = 0.05,
) -> MultiplicityVector | None:
    """Random search for a vector violating the sum-form inequality.

    Draws up to ``budget`` vectors with entries 10^u, u uniform over
    ``log10_range``, and returns the first one that
    :func:`multiplicity_inequality` finds violated (None if the budget is
    exhausted).  Vector k (from 0) is uniforms 8k to 8k+7 of
    ``stream(seed)``, so the result is deterministic given ``seed``; a
    search that finds nothing draws its whole budget.  With a degenerate
    range (lo == hi) all entries are equal and no violator exists.
    """
    if budget < 1:
        raise ValidationError(f"search budget must be >= 1, got {budget!r}")
    lo, hi = log10_range
    if hi < lo:
        raise ValidationError(f"log10_range must be ordered, got {log10_range!r}")
    if not math.isfinite(hi - lo):
        raise ValidationError(f"log10_range must be finite, got {log10_range!r}")
    rng = stream(seed)
    for _ in range(budget):
        v = MultiplicityVector.from_iterable(10.0 ** rng.uniform(lo, hi, size=8))
        if not multiplicity_inequality(v, epsilon=epsilon).holds:
            return v
    return None


def entropy_ratios(v: MultiplicityVector, k: float = 1.0) -> tuple[float, ...]:
    """Diagnostic only: the shares S_i / sum_j S_j.

    These are NOT probabilities (they can be negative for omega < 1 and the
    denominator can vanish); they are reported to show what treating entropy
    ratios as weights would look like.  A zero entropy has share 0.0, not -0.0.
    """
    s = [entropy_from_multiplicity(Multiplicity(w), k).s for w in v.omegas]
    total = math.fsum(s)
    if abs(total) < 1e-300:
        raise ValidationError("total entropy is zero; ratios undefined")
    return tuple(x / total if x else 0.0 for x in s)
