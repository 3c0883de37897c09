"""Quantum singlet-state baseline that violates the Wigner inequality.

The two-spin singlet is perfectly anticorrelated along any common axis, yet
its joint probabilities at inter-axis angle theta,

    P(+n1; +n2) = P(-n1; -n2) = (1/2) sin^2(theta / 2),
    P(+n1; -n2) = P(-n1; +n2) = (1/2) cos^2(theta / 2),

violate P(+a;+b) <= P(+a;+c) + P(+c;+b) for coplanar axes with a-c and c-b
spacing theta anywhere in 0 < theta < pi/2.  No population table can
reproduce those numbers, since every table satisfies the inequality with
margin (N_2 + N_7) / total >= 0.  That facet is the only one the scans
check; a step's ``violated`` is the negation of the one verdict,
:func:`~bellstat.populations.holds`.  For pi/2 < theta < pi the singlet
numbers fit no table either: with correlations E_ac = E_cb = cos(theta) and
E_ab = cos(2 theta), they break the facet 1 + E_ab + E_ac + E_cb >= 0, whose
left side is 2 cos(theta) (1 + cos(theta)) < 0 there (Fine, PRL 48, 291
(1982)).

The float kernel is one formula, P(+u; +v) = (1/2) sin^2(angle / 2), in
libm's ``sin`` and ``pow``: :func:`singlet_prediction` takes it at the angle
between two axes, and :func:`quantum_wigner_scan` at each coplanar step's
nominal angles, mapped over whole columns with no Python frame per value.
A brute-force oracle, :func:`singlet_prediction_statevector`, evaluates
projector expectation values on the explicit 4-component singlet state; the
tests hold the two within 1e-12.

The Monte Carlo sampler (:func:`singlet_sample`) keeps its tallies as one
``(3, 3, 2, 2)`` count array, axis pair by sign pair, and its estimates use
the same binomial estimator as the reservoir's,
:meth:`~bellstat.populations.EmpiricalEstimate.from_hits`.  The tallies of
``n`` independent pairs follow a multinomial law, so it draws them as such:
one multinomial for the nine axis-pair counts, then one per drawn axis pair
for its four sign counts, each numpy's chain of conditional binomials.  Its
cost does not grow with ``n``, and it holds no per-sample array.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator, Literal, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError
from .populations import (
    AXIS_LABELS,
    Axis,
    AxisLabel,
    AxisTriple,
    EmpiricalEstimate,
    PairOutcome,
    angle_between,
    holds,
)
from .rng import stream

AxisChoicePolicy = Literal["uniform"] | tuple[AxisLabel, AxisLabel]

#: Sign order along the last two axes of ``SingletSampleCounts.counts``.
_SIGNS = (+1, -1)


@dataclass(frozen=True)
class SingletPrediction:
    """Joint sign probabilities for one axis pair, in (Alice, Bob) sign order."""

    p_pp: float
    p_pm: float
    p_mp: float
    p_mm: float

    def probability(self, alice_sign: int, bob_sign: int) -> float:
        return {
            (+1, +1): self.p_pp,
            (+1, -1): self.p_pm,
            (-1, +1): self.p_mp,
            (-1, -1): self.p_mm,
        }[(alice_sign, bob_sign)]

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p_pp, self.p_pm, self.p_mp, self.p_mm)


def _same_sign(angle: float) -> float:
    """P(+u; +v) = (1/2) sin^2(angle / 2) for axes ``angle`` radians apart."""
    return 0.5 * math.sin(angle / 2.0) ** 2


def singlet_prediction(axis1: Axis, axis2: Axis) -> SingletPrediction:
    """Singlet joint probabilities for Alice along axis1, Bob along axis2:
    the float kernel at the angle between the axes."""
    theta = angle_between(axis1, axis2)
    same, diff = _same_sign(theta), 0.5 * math.cos(theta / 2.0) ** 2
    return SingletPrediction(p_pp=same, p_pm=diff, p_mp=diff, p_mm=same)


_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
# (|01> - |10>) / sqrt(2) in the product basis |00>, |01>, |10>, |11>.
_SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)


def _projector(direction: Sequence[float], sign: int) -> np.ndarray:
    n_dot_sigma = sum(x * s for x, s in zip(direction, _PAULI))
    return 0.5 * (np.eye(2, dtype=complex) + sign * n_dot_sigma)


def singlet_prediction_statevector(axis1: Axis, axis2: Axis) -> SingletPrediction:
    """Brute-force oracle: projector expectation values on the explicit
    4-component singlet state.  Slower but assumption-free; used to verify
    :func:`singlet_prediction`.
    """
    def joint(s1: int, s2: int) -> float:
        op = np.kron(_projector(axis1.direction, s1), _projector(axis2.direction, s2))
        return float(np.real(np.vdot(_SINGLET, op @ _SINGLET)))

    return SingletPrediction(
        p_pp=joint(+1, +1),
        p_pm=joint(+1, -1),
        p_mp=joint(-1, +1),
        p_mm=joint(-1, -1),
    )


class ScanPoint(NamedTuple):
    """One spacing in an inequality scan.  ``theta`` is the a-c (= c-b) angle."""

    theta: float
    lhs: float
    rhs: float
    violated: bool


@dataclass(frozen=True)
class WignerScan:
    """An inequality scan as four equal-length arrays, one entry per step:
    float64 ``theta``, ``lhs`` and ``rhs``, and bool ``violated``.  Iterating
    it gives the steps as :class:`ScanPoint` rows of Python scalars."""

    theta: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    violated: np.ndarray

    def __len__(self) -> int:
        return len(self.theta)

    def __iter__(self) -> Iterator[ScanPoint]:
        columns = (self.theta, self.lhs, self.rhs, self.violated)
        return map(ScanPoint, *(column.tolist() for column in columns))


def _half_sin_squared(column: np.ndarray) -> np.ndarray:
    """(1/2) sin^2 of each value of a float64 column, libm's ``sin`` and
    ``pow`` through builtin maps, with no Python frame per value."""
    squares = map(math.pow, map(math.sin, memoryview(column)), repeat(2.0))
    values = np.fromiter(squares, float, len(column))
    return np.multiply(values, 0.5, out=values)


def quantum_wigner_scan(spacing: float, steps: int = 1) -> WignerScan:
    """Scan the Wigner inequality on singlet predictions over coplanar axes.

    Returns a :class:`WignerScan` of ``steps`` entries per column, with
    theta = spacing/steps, ..., spacing on coplanar axes with a-c and c-b
    angles theta (a-b angle 2*theta).  Each step checks
    P(+a;+b) <= P(+a;+c) + P(+c;+b), giving lhs = (1/2) sin^2(theta) and
    rhs = sin^2(theta/2), and flags ``violated`` where
    :func:`~bellstat.populations.holds` fails: a violation is flagged where
    0 < theta < pi/2, except below theta ~ 2e-6, where the margin
    lhs - rhs ~ theta^2 / 4 is under the 1e-12 tolerance.

    ``violated`` checks that one facet only; for theta in (pi/2, pi) the
    singlet numbers break another (see the module docstring).

    Each step is :func:`singlet_prediction`'s formula f(angle) =
    (1/2) sin^2(angle / 2) at the step's nominal angles: lhs = f(2 theta) and
    rhs = f(theta) + f(theta).  theta is ``arange(1, steps + 1) * spacing / steps``,
    the same two roundings as ``spacing * k / steps``; lhs is (1/2) sin^2(theta)
    and rhs ((1/2) sin^2(theta / 2)) * 2, two products that a subnormal square
    needs.  sin and pow are libm's: numpy's ufuncs and x*x can differ in the last bit.
    """
    if not 0.0 < spacing < math.pi:
        raise ValidationError(f"spacing must be in (0, pi), got {spacing!r}")
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral):
        raise ValidationError(f"steps must be an integer, got {steps!r}")
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps!r}")
    spacing, steps = float(spacing), int(steps)
    theta = np.arange(1.0, steps + 1) * spacing / steps
    lhs = _half_sin_squared(theta)
    rhs = _half_sin_squared(theta / 2.0)  # theta / 2 is freed before holds runs
    rhs *= 2.0
    return WignerScan(theta, lhs, rhs, np.logical_not(holds(lhs, rhs)))


@dataclass(frozen=True)
class SingletSampleCounts:
    """Empirical joint counts from a singlet sampler run.

    ``counts`` is a ``(3, 3, 2, 2)`` int64 array indexed
    ``[alice_axis, bob_axis, alice_sign, bob_sign]``: axes in a, b, c order,
    signs with +1 first.
    """

    counts: np.ndarray
    n: int
    seed: int

    def axis_pair_count(self, alice_axis: AxisLabel, bob_axis: AxisLabel) -> int:
        return int(self.counts[AXIS_LABELS.index(alice_axis), AXIS_LABELS.index(bob_axis)].sum())

    def estimate(self, outcome: PairOutcome) -> EmpiricalEstimate:
        """Empirical probability of ``outcome`` conditional on its axis pair."""
        n_pair = self.axis_pair_count(outcome.alice_axis, outcome.bob_axis)
        if n_pair == 0:
            raise ValidationError(
                f"no samples for axis pair ({outcome.alice_axis}, {outcome.bob_axis})"
            )
        hits = self.counts[
            AXIS_LABELS.index(outcome.alice_axis),
            AXIS_LABELS.index(outcome.bob_axis),
            _SIGNS.index(outcome.alice_sign),
            _SIGNS.index(outcome.bob_sign),
        ]
        return EmpiricalEstimate.from_hits(outcome, int(hits), n_pair)


def singlet_sample(
    axes: AxisTriple,
    n: int,
    seed: int,
    policy: AxisChoicePolicy = "uniform",
) -> SingletSampleCounts:
    """Sample ``n`` singlet pairs, choosing axes per ``policy``.

    Policies: ``"uniform"`` chooses Alice's and Bob's axes independently and
    uniformly from {a, b, c}; a tuple ``(alice_axis, bob_axis)`` fixes the
    pair.  Deterministic given ``seed``: from ``stream(seed)``, the uniform
    policy draws the nine axis-pair counts as one ``multinomial(n, [1/9] * 9)``
    (a fixed pair gets all ``n``); then each axis pair with m > 0, in a-b-c
    order with Alice's axis first, draws its four sign counts as one
    ``multinomial(m, ...)`` over :func:`singlet_prediction` for those axes,
    in the order (+, +), (+, -), (-, +), (-, -).
    """
    if n < 1:
        raise ValidationError(f"sample count must be >= 1, got {n!r}")
    rng = stream(seed)

    if policy == "uniform":
        per_pair = rng.multinomial(n, [1 / 9] * 9)
    elif (
        isinstance(policy, tuple)
        and len(policy) == 2
        and all(ax in AXIS_LABELS for ax in policy)
    ):
        per_pair = np.zeros(9, dtype=np.int64)
        per_pair[3 * AXIS_LABELS.index(policy[0]) + AXIS_LABELS.index(policy[1])] = n
    else:
        raise ValidationError(f"unknown axis choice policy {policy!r}")

    counts = np.zeros((9, 4), dtype=np.int64)
    for pair, m in enumerate(per_pair.tolist()):
        if m == 0:
            continue
        alice_axis, bob_axis = AXIS_LABELS[pair // 3], AXIS_LABELS[pair % 3]
        prediction = singlet_prediction(axes.axis(alice_axis), axes.axis(bob_axis))
        counts[pair] = rng.multinomial(m, prediction.as_tuple())
    return SingletSampleCounts(counts=counts.reshape(3, 3, 2, 2), n=n, seed=seed)
