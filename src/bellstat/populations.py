"""Eight-population model for two-observer spin correlation measurements.

Alice and Bob measure spin components of anticorrelated particle pairs along
three shared axes a, b, c.  Because the pairs are perfectly anticorrelated,
every pair belongs to one of eight populations: particle 1 carries one of the
2^3 sign triples (s_a, s_b, s_c) and particle 2 carries its elementwise
negation.  Populations are indexed 1..8 in binary order of particle 1's
triple with + before -, i.e. row 1 is (+,+,+) and row 8 is (-,-,-).

Joint outcome probabilities are ratios of population counts, computed with
exact integer arithmetic.  For every nonnegative population table the Wigner
form of Bell's inequality

    P(+a;+b) <= P(+a;+c) + P(+c;+b)

holds identically, because the right-minus-left margin equals
(N_2 + N_7) / total.  Quantum singlet predictions can violate it; see
:mod:`bellstat.quantum`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterable, Literal, Sequence

from .errors import ValidationError

#: Tolerance for float-level inequality comparisons.  Far above double
#: rounding error, far below any physically meaningful margin.
TOL = 1e-12

AxisLabel = Literal["a", "b", "c"]
AXIS_LABELS: tuple[AxisLabel, ...] = ("a", "b", "c")


@dataclass(frozen=True)
class Axis:
    """A measurement direction: a label in {a, b, c} and a unit 3-vector."""

    label: AxisLabel
    direction: tuple[float, float, float]

    def __post_init__(self) -> None:
        if self.label not in AXIS_LABELS:
            raise ValidationError(f"axis label must be one of {AXIS_LABELS}, got {self.label!r}")
        if len(self.direction) != 3:
            raise ValidationError("axis direction must be a 3-vector")
        norm = math.sqrt(sum(x * x for x in self.direction))
        if not abs(norm - 1.0) <= 1e-12:  # phrased so a nan component fails too
            raise ValidationError(f"axis direction must be unit length, |v| = {norm!r}")

    @classmethod
    def unit(cls, label: AxisLabel, vector: Iterable[float]) -> "Axis":
        """Build an axis from any nonzero vector, normalizing it."""
        v = tuple(float(x) for x in vector)
        norm = math.sqrt(sum(x * x for x in v))
        if norm == 0.0:
            raise ValidationError("cannot normalize a zero vector")
        return cls(label, (v[0] / norm, v[1] / norm, v[2] / norm))


def angle_between(u: Axis, v: Axis) -> float:
    """Angle in [0, pi] between two axes, accurate near 0 and pi."""
    ux, uy, uz = u.direction
    vx, vy, vz = v.direction
    dot = ux * vx + uy * vy + uz * vz
    cx, cy, cz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    return math.atan2(math.sqrt(cx * cx + cy * cy + cz * cz), dot)


@dataclass(frozen=True)
class AxisTriple:
    """The three measurement axes, with labels exactly {a, b, c}."""

    a: Axis
    b: Axis
    c: Axis

    def __post_init__(self) -> None:
        labels = (self.a.label, self.b.label, self.c.label)
        if labels != ("a", "b", "c"):
            raise ValidationError(f"axes must carry labels ('a', 'b', 'c') in order, got {labels}")

    @classmethod
    def coplanar(cls, spacing: float) -> "AxisTriple":
        """Coplanar triple with a-c and c-b angles both ``spacing`` (radians), the
        symmetric configuration of inequality scans: directions (sin t, 0, cos t)
        of a, b and c at t = 0, ``2 * spacing`` and ``spacing``."""
        directions = [(math.sin(t), 0.0, math.cos(t)) for t in (0.0, 2.0 * spacing, spacing)]
        return cls(*map(Axis, AXIS_LABELS, directions))

    def axis(self, label: AxisLabel) -> Axis:
        if label not in AXIS_LABELS:
            raise ValidationError(f"unknown axis label {label!r}")
        return {"a": self.a, "b": self.b, "c": self.c}[label]

    def angle(self, label1: AxisLabel, label2: AxisLabel) -> float:
        return angle_between(self.axis(label1), self.axis(label2))


@dataclass(frozen=True)
class SignTriple:
    """Spin component signs (each +1 or -1) along axes a, b, c."""

    s_a: int
    s_b: int
    s_c: int

    def __post_init__(self) -> None:
        for s in (self.s_a, self.s_b, self.s_c):
            if s not in (+1, -1):
                raise ValidationError(f"signs must be +1 or -1, got {s!r}")

    def sign(self, axis: AxisLabel) -> int:
        return {"a": self.s_a, "b": self.s_b, "c": self.s_c}[axis]

    def negate(self) -> "SignTriple":
        return SignTriple(-self.s_a, -self.s_b, -self.s_c)


# Particle-1 sign triples for populations 1..8, in binary order with + first.
_PARTICLE1_TRIPLES: tuple[SignTriple, ...] = tuple(
    SignTriple(*signs) for signs in product((+1, -1), repeat=3)
)


def population_signs(index: int) -> tuple[SignTriple, SignTriple]:
    """Sign triples (particle 1, particle 2) for population ``index`` in 1..8.

    Particle 2's triple is the elementwise negation of particle 1's
    (perfect anticorrelation).
    """
    if not 1 <= index <= 8:
        raise ValidationError(f"population index must be in 1..8, got {index!r}")
    p1 = _PARTICLE1_TRIPLES[index - 1]
    return p1, p1.negate()


@dataclass(frozen=True)
class PairOutcome:
    """A joint measurement result: Alice's (axis, sign) and Bob's (axis, sign)."""

    alice_axis: AxisLabel
    alice_sign: int
    bob_axis: AxisLabel
    bob_sign: int

    def __post_init__(self) -> None:
        for axis in (self.alice_axis, self.bob_axis):
            if axis not in AXIS_LABELS:
                raise ValidationError(f"axis label must be one of {AXIS_LABELS}, got {axis!r}")
        for sign in (self.alice_sign, self.bob_sign):
            if sign not in (+1, -1):
                raise ValidationError(f"signs must be +1 or -1, got {sign!r}")

    def label(self) -> str:
        fmt = lambda s: "+" if s > 0 else "-"
        return (
            f"({fmt(self.alice_sign)}{self.alice_axis};"
            f"{fmt(self.bob_sign)}{self.bob_axis})"
        )


@lru_cache(maxsize=None)
def outcome_populations(outcome: PairOutcome) -> frozenset[int]:
    """Populations contributing to a joint outcome, by scanning all 8 rows.

    A population contributes when particle 1's sign along Alice's axis matches
    Alice's result and particle 2's sign along Bob's axis matches Bob's.
    The empty set is a valid result (e.g. same axis, same sign).
    """
    hits = []
    for i in range(1, 9):
        p1, p2 = population_signs(i)
        if (
            p1.sign(outcome.alice_axis) == outcome.alice_sign
            and p2.sign(outcome.bob_axis) == outcome.bob_sign
        ):
            hits.append(i)
    return frozenset(hits)


@lru_cache(maxsize=None)
def population_pair_partition(i: int, j: int) -> tuple[frozenset[int], ...]:
    """The four two-population outcome classes containing {i, j}.

    Each measured axis pair partitions the 8 populations into four
    two-population classes (one per joint sign combination).  Given a class
    {i, j}, returns its partition, computed by scanning outcomes.  Raises if
    {i, j} is not an outcome class of any axis pair.
    """
    target = frozenset((i, j))
    for alice_axis, bob_axis in product(AXIS_LABELS, repeat=2):
        if alice_axis == bob_axis:
            continue
        classes = frozenset(
            outcome_populations(PairOutcome(alice_axis, s1, bob_axis, s2))
            for s1 in (+1, -1)
            for s2 in (+1, -1)
        )
        if target in classes:
            return tuple(sorted(classes, key=sorted))
    raise ValidationError(
        f"populations {{{i}, {j}}} are not a joint-outcome class of any axis pair"
    )


@dataclass(frozen=True)
class PopulationTable:
    """Nonnegative pair counts N_1..N_8, indexed in the canonical row order."""

    counts: tuple[int, int, int, int, int, int, int, int]

    def __post_init__(self) -> None:
        if len(self.counts) != 8:
            raise ValidationError(f"population table needs 8 counts, got {len(self.counts)}")
        for n in self.counts:
            if not isinstance(n, int) or isinstance(n, bool):
                raise ValidationError(f"population counts must be integers, got {n!r}")
            if n < 0:
                raise ValidationError(f"population counts must be nonnegative, got {n}")

    @classmethod
    def from_counts(cls, counts: Iterable[int]) -> "PopulationTable":
        """Build a table from any integral counts (numpy integers included)."""
        converted = []
        for n in counts:
            if isinstance(n, bool):
                raise ValidationError(f"population counts must be integers, got {n!r}")
            try:
                converted.append(operator.index(n))
            except TypeError:
                raise ValidationError(
                    f"population counts must be integers, got {n!r}"
                ) from None
        return cls(tuple(converted))  # type: ignore[arg-type]

    @classmethod
    def uniform(cls, count: int = 1) -> "PopulationTable":
        return cls((count,) * 8)  # type: ignore[arg-type]

    @property
    def total(self) -> int:
        return sum(self.counts)

    def count(self, index: int) -> int:
        if not 1 <= index <= 8:
            raise ValidationError(f"population index must be in 1..8, got {index!r}")
        return self.counts[index - 1]


@dataclass(frozen=True)
class ExactProbability:
    """A probability as an exact reduced ratio plus its float value."""

    numerator: int
    denominator: int

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    @property
    def value(self) -> float:
        return self.numerator / self.denominator

    @classmethod
    def from_fraction(cls, f: Fraction) -> "ExactProbability":
        return cls(f.numerator, f.denominator)


@dataclass(frozen=True)
class Term:
    """One side (or summand) of an inequality, with its provenance."""

    label: str
    populations: tuple[int, ...]
    value: float
    outcome: PairOutcome | None = None
    numerator: int | None = None
    denominator: int | None = None


@dataclass(frozen=True)
class InequalityReport:
    """Result of an inequality check: lhs <= rhs up to the float tolerance."""

    lhs: float
    rhs: float
    margin: float
    holds: bool
    terms: tuple[Term, ...]
    equal_multiplicity_precondition: bool | None = None
    note: str = ""


@dataclass(frozen=True)
class EmpiricalEstimate:
    """Monte Carlo estimate of an outcome probability with its standard error."""

    outcome: PairOutcome
    p_hat: float
    stderr: float
    n: int

    @classmethod
    def from_hits(
        cls, outcome: PairOutcome, hits: int, n: int, bag: int | None = None
    ) -> "EmpiricalEstimate":
        """``hits / n`` with the binomial standard error
        ``sqrt(p_hat (1 - p_hat) / n)``, times ``sqrt((bag - n) / (bag - 1))``
        for draws without replacement from a ``bag`` of that many pairs
        (Cochran 1977, ch. 2): 0 once the whole bag is drawn."""
        if n < 1:
            raise ValidationError(f"sample count must be >= 1, got {n!r}")
        if not 0 <= hits <= n:
            raise ValidationError(f"hits must be in 0..{n}, got {hits!r}")
        if bag is not None and bag < n:
            raise ValidationError(f"cannot draw {n} pairs from a bag of {bag}")
        p_hat = hits / n
        variance = p_hat * (1.0 - p_hat) / n
        if bag is not None:
            variance = variance * ((bag - n) / (bag - 1)) if bag > n else 0.0
        return cls(outcome=outcome, p_hat=p_hat, stderr=math.sqrt(variance), n=n)

    @classmethod
    def from_counts(
        cls, outcome: PairOutcome, counts: Sequence[int], bag: int | None = None
    ) -> "EmpiricalEstimate":
        """The estimate from the eight per-population draw counts: the hits
        are the draws from ``outcome``'s populations, ``n`` all draws."""
        hits = sum(int(counts[i - 1]) for i in outcome_populations(outcome))
        return cls.from_hits(outcome, hits, sum(int(c) for c in counts), bag)


def holds(lhs, rhs):
    """The one verdict of every inequality check: ``lhs <= rhs`` within
    :data:`TOL`, on floats or elementwise on arrays."""
    return rhs - lhs >= -TOL


def _report(
    lhs: float,
    rhs: float,
    terms: tuple[Term, ...],
    precondition: bool | None = None,
    note: str = "",
) -> InequalityReport:
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise ValidationError(f"inequality sides must be finite, got lhs {lhs!r}, rhs {rhs!r}")
    margin = rhs - lhs
    return InequalityReport(
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        holds=holds(lhs, rhs),
        terms=terms,
        equal_multiplicity_precondition=precondition,
        note=note,
    )


def exact_fraction(table: PopulationTable, outcome: PairOutcome) -> Fraction:
    """Exact joint probability of ``outcome`` as a Fraction."""
    total = table.total
    if total == 0:
        raise ValidationError("population table is empty (total = 0); probabilities undefined")
    contributing = outcome_populations(outcome)
    return Fraction(sum(table.counts[i - 1] for i in contributing), total)


def exact_probability(table: PopulationTable, outcome: PairOutcome) -> ExactProbability:
    """Joint probability of ``outcome``: contributing counts over the total.

    Integer arithmetic throughout; the float appears only in ``.value``.
    """
    return ExactProbability.from_fraction(exact_fraction(table, outcome))


# The three outcomes of the Wigner inequality, in (lhs, rhs_1, rhs_2) order.
WIGNER_OUTCOMES: tuple[PairOutcome, PairOutcome, PairOutcome] = (
    PairOutcome("a", +1, "b", +1),
    PairOutcome("a", +1, "c", +1),
    PairOutcome("c", +1, "b", +1),
)


def wigner_check(table: PopulationTable) -> InequalityReport:
    """Check P(+a;+b) <= P(+a;+c) + P(+c;+b) on exact count probabilities.

    Holds for every valid table: the margin reduces to (N_2 + N_7) / total.
    """
    o_ab, o_ac, o_cb = WIGNER_OUTCOMES
    p_ab = exact_fraction(table, o_ab)
    p_ac = exact_fraction(table, o_ac)
    p_cb = exact_fraction(table, o_cb)

    def term(label: str, outcome: PairOutcome, p: Fraction) -> Term:
        return Term(
            label=label,
            populations=tuple(sorted(outcome_populations(outcome))),
            value=float(p),
            outcome=outcome,
            numerator=p.numerator,
            denominator=p.denominator,
        )

    rhs = p_ac + p_cb
    return _report(
        lhs=float(p_ab),
        rhs=float(rhs),
        terms=(
            term("lhs " + o_ab.label(), o_ab, p_ab),
            term("rhs " + o_ac.label(), o_ac, p_ac),
            term("rhs " + o_cb.label(), o_cb, p_cb),
        ),
    )


def wigner_check_probabilities(p_ab: float, p_ac: float, p_cb: float) -> InequalityReport:
    """Check the Wigner inequality on externally supplied probabilities.

    Accepts any probabilities in [0, 1] (e.g. quantum predictions), so unlike
    :func:`wigner_check` the result can be a violation.
    """
    for name, p in (("p_ab", p_ab), ("p_ac", p_ac), ("p_cb", p_cb)):
        if not 0.0 <= p <= 1.0:
            raise ValidationError(f"{name} must be in [0, 1], got {p!r}")
    o_ab, o_ac, o_cb = WIGNER_OUTCOMES
    return _report(
        lhs=p_ab,
        rhs=p_ac + p_cb,
        terms=(
            Term("lhs " + o_ab.label(), (), p_ab, o_ab),
            Term("rhs " + o_ac.label(), (), p_ac, o_ac),
            Term("rhs " + o_cb.label(), (), p_cb, o_cb),
        ),
    )
