"""Quantum singlet-state baseline that violates the Wigner inequality.

The two-spin singlet is perfectly anticorrelated along any common axis, yet
its joint probabilities at inter-axis angle theta,

    P(+n1; +n2) = P(-n1; -n2) = (1/2) sin^2(theta / 2),
    P(+n1; -n2) = P(-n1; +n2) = (1/2) cos^2(theta / 2),

violate P(+a;+b) <= P(+a;+c) + P(+c;+b) for coplanar axes with a-c and c-b
spacing theta anywhere in 0 < theta < pi/2.  No population table can
reproduce those numbers, since every table satisfies the inequality with
margin (N_2 + N_7) / total >= 0.

One float kernel, on plain direction tuples and with ``math`` only (numpy's
ufuncs can differ from libm in the last bit), serves :func:`singlet_prediction`
and :func:`wigner_point`; :func:`quantum_wigner_scan` runs the same operations
inline, one loop that appends each step's numbers to the four columns of a
:class:`WignerScan`, with no object per step.  A brute-force oracle,
:func:`singlet_prediction_statevector`, evaluates projector expectation values
on the explicit 4-component singlet state; the tests hold the two within 1e-12.

The Monte Carlo sampler (:func:`singlet_sample`) keeps its tallies as one
``(3, 3, 2, 2)`` count array, axis pair by sign pair, each pair's four sign
counts taken from threshold counts of its uniform draws, and its estimates use
the same binomial estimator as the reservoir's,
:meth:`~bellstat.reservoir.EmpiricalEstimate.from_hits`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Literal, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError
from .populations import (
    TOL,
    AXIS_LABELS,
    Axis,
    AxisLabel,
    AxisTriple,
    PairOutcome,
    coplanar_directions,
    direction_angle,
)
from .reservoir import EmpiricalEstimate
from .rng import stream

AxisChoicePolicy = Literal["uniform"] | tuple[AxisLabel, AxisLabel]

#: Sign order along the last two axes of ``SingletSampleCounts.counts``.
_SIGNS = (+1, -1)

#: Rows per block when tallying axis pairs, bounding the pair-index temporary.
_BLOCK = 65536


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


def _singlet(u: Sequence[float], v: Sequence[float]) -> tuple[float, float]:
    """The float kernel: (P(+u;+v), P(+u;-v)) for unit direction tuples u, v."""
    theta = direction_angle(u, v)
    return 0.5 * math.sin(theta / 2.0) ** 2, 0.5 * math.cos(theta / 2.0) ** 2


def singlet_prediction(axis1: Axis, axis2: Axis) -> SingletPrediction:
    """Singlet joint probabilities for Alice along axis1, Bob along axis2."""
    same, diff = _singlet(axis1.direction, axis2.direction)
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


def wigner_point(
    a: Sequence[float], b: Sequence[float], c: Sequence[float], theta: float
) -> ScanPoint:
    """Wigner check P(+a;+b) <= P(+a;+c) + P(+c;+b) on singlet predictions
    for the unit directions of axes a, b, c, labelled with the a-c angle
    ``theta``.  Violation is flagged where lhs > rhs + 1e-12."""
    lhs = _singlet(a, b)[0]
    rhs = _singlet(a, c)[0] + _singlet(c, b)[0]
    return ScanPoint(theta, lhs, rhs, lhs > rhs + TOL)


@dataclass(frozen=True)
class WignerScan:
    """An inequality scan as four equal-length columns, one entry per step.
    Iterating it gives the steps as :class:`ScanPoint` rows."""

    theta: list[float]
    lhs: list[float]
    rhs: list[float]
    violated: list[bool]

    def __len__(self) -> int:
        return len(self.theta)

    def __iter__(self) -> Iterator[ScanPoint]:
        return map(ScanPoint, self.theta, self.lhs, self.rhs, self.violated)


def quantum_wigner_scan(spacing: float, steps: int = 1) -> WignerScan:
    """Scan the Wigner inequality on singlet predictions over coplanar axes.

    Returns a :class:`WignerScan` of ``steps`` entries per column, with
    theta = spacing/steps, ..., spacing on coplanar axes with a-c and c-b
    angles theta (a-b angle 2*theta).  Each step is :func:`wigner_point`'s
    check on the same float kernel, giving lhs = (1/2) sin^2(theta) and
    rhs = sin^2(theta/2): a violation is flagged where 0 < theta < pi/2,
    except below theta ~ 2e-6, where the margin lhs - rhs ~ theta^2 / 4 is
    under the 1e-12 tolerance.
    """
    if not 0.0 < spacing < math.pi:
        raise ValidationError(f"spacing must be in (0, pi), got {spacing!r}")
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps!r}")
    scan = WignerScan([], [], [], [])
    sin, angle = math.sin, direction_angle
    for k in range(1, steps + 1):
        theta = float(spacing) * k / steps
        a, b, c = coplanar_directions(theta)
        # The kernel's P(+u;+v) = (1/2) sin^2(angle / 2), written out per pair.
        lhs = 0.5 * sin(angle(a, b) / 2.0) ** 2
        rhs = 0.5 * sin(angle(a, c) / 2.0) ** 2 + 0.5 * sin(angle(c, b) / 2.0) ** 2
        scan.theta.append(theta)
        scan.lhs.append(lhs)
        scan.rhs.append(rhs)
        scan.violated.append(lhs > rhs + TOL)
    return scan


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

    def alice_sign_marginal(self) -> float:
        """Fraction of all pairs where Alice measured +1."""
        return int(self.counts[:, :, 0].sum()) / self.n


def _sign_counts(u: np.ndarray, thresholds: Sequence[float]) -> list[int]:
    """Draws ``u`` per sign cell, in (+,+), (+,-), (-,+), (-,-) order, given
    the three inner cumulative probabilities: a draw falls in cell j when it
    is >= exactly j of them, as ``searchsorted(side="right")`` would place it."""
    tails = [len(u), *(np.count_nonzero(u >= t) for t in thresholds), 0]
    return [hi - lo for hi, lo in zip(tails, tails[1:])]


def singlet_sample(
    axes: AxisTriple,
    n: int,
    seed: int,
    policy: AxisChoicePolicy = "uniform",
) -> SingletSampleCounts:
    """Sample ``n`` singlet pairs, choosing axes per ``policy``.

    Policies: ``"uniform"`` draws Alice's and Bob's axes independently and
    uniformly from {a, b, c}; a tuple ``(alice_axis, bob_axis)`` fixes the
    pair.  The pairs drawn for each of the nine axis pairs, in a-b-c order
    with Alice's axis first, then get their joint signs from
    :func:`singlet_prediction` for those axes.  Deterministic given ``seed``.
    """
    if n < 1:
        raise ValidationError(f"sample count must be >= 1, got {n!r}")
    rng = stream(seed)

    if policy == "uniform":
        choices = rng.integers(0, 3, size=(n, 2))
        per_pair = sum(  # pair index 3 * alice + bob, one block of rows at a time
            np.bincount(3 * block[:, 0] + block[:, 1], minlength=9)
            for block in np.split(choices, range(_BLOCK, n, _BLOCK))
        )
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
        counts[pair] = _sign_counts(rng.random(m), np.cumsum(prediction.as_tuple()[:3]))
    return SingletSampleCounts(counts=counts.reshape(3, 3, 2, 2), n=n, seed=seed)
