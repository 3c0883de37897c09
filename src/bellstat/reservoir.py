"""Reservoir sampling of particle pairs from the eight populations.

Two source models:

- infinite: independent draws with replacement; the conditional population
  probabilities are fixed at N_i / total forever (the long-run regime in
  which all accessible macrostates stay equally accessible);
- finite: a literal bag of pairs drawn without replacement; the conditional
  probabilities drift as the bag depletes, ending at exactly 1 for whichever
  population survives last.

``simulate`` reads only :func:`population_counts`, the eight per-population
draw counts, folded chunk by chunk in infinite mode and read off the bag left
in finite mode, so no per-draw array exists.  :func:`sample` is the per-draw
column, for the drain, the divergence report and the tests: the population
(1-8) of each draw, in step order.  For a finite bag, :func:`remaining_counts`
rebuilds the counts around every draw from that column; the conditional
probabilities are its rows over their sums.  A divergence report holds two arrays with one row per seed and
one column per step.

One threshold rule places every draw here: a draw lies in cell j when exactly
j of the ascending inner thresholds are at or below it, as
``searchsorted(side="right")`` would place it.  :func:`threshold_counts`
counts the draws per cell by it.  Every empirical probability is the
estimate of :meth:`EmpiricalEstimate.from_hits`.

Reproducibility contract: draws come from numpy's Philox generator, a
counter-based RNG with a documented algorithm.  The stream for chunk ``c`` of
master seed ``s`` uses Philox key ``c * 2**64 + s``.  Infinite-mode sampling
is split into fixed chunks of 65536 draws whose boundaries depend only on the
requested sample count.  Chunks are the unit of reproducibility, drawn one
after another into consecutive slices of one array (or folded into counts),
so a shorter run is a prefix of a longer one.  All draws resolve through
integer thresholds (never float cumsums), so identical seeds give identical
sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Literal, Sequence

import numpy as np

from .errors import ValidationError
# EmpiricalEstimate is pure Python, defined in populations and exported here too.
from .populations import EmpiricalEstimate, PairOutcome, PopulationTable, outcome_populations
from .rng import stream, validate_seed

#: Draws per Philox sub-stream in infinite mode, and per ``integers`` call in finite mode.
CHUNK_SIZE = 65536

#: Composition totals must stay below this: draws are int64 Philox integers.
TOTAL_LIMIT = 2**63

ReservoirMode = Literal["infinite", "finite"]


@dataclass(frozen=True)
class ReservoirSpec:
    """A sampling source: mode, composition (counts or weights), and seed."""

    mode: ReservoirMode
    composition: PopulationTable
    seed: int

    def __post_init__(self) -> None:
        if self.mode not in ("infinite", "finite"):
            raise ValidationError(f"mode must be 'infinite' or 'finite', got {self.mode!r}")
        validate_seed(self.seed)
        if self.composition.total < 1:
            raise ValidationError(
                "composition needs at least one positive count "
                f"(mode {self.mode!r}, total {self.composition.total})"
            )
        if self.composition.total >= TOTAL_LIMIT:
            raise ValidationError(
                f"composition total must be below 2**63, got {self.composition.total}"
            )

    @classmethod
    def infinite(cls, weights: PopulationTable, seed: int) -> "ReservoirSpec":
        return cls("infinite", weights, seed)

    @classmethod
    def finite(cls, bag: PopulationTable, seed: int) -> "ReservoirSpec":
        return cls("finite", bag, seed)


def threshold_counts(draws: np.ndarray, thresholds: Sequence) -> list[int]:
    """Draws per cell, given the ascending inner thresholds of
    ``len(thresholds) + 1`` cells: a draw falls in cell j when it is >=
    exactly j of them, as ``searchsorted(side="right")`` would place it, ties
    from empty cells included."""
    tails = [len(draws), *(np.count_nonzero(draws >= t) for t in thresholds), 0]
    return [hi - lo for hi, lo in zip(tails, tails[1:])]


def _check_count(spec: ReservoirSpec, n: int) -> None:
    if n < 1:
        raise ValidationError(f"sample count must be >= 1, got {n!r}")
    if spec.mode == "finite" and n > spec.composition.total:
        raise ValidationError(f"cannot draw {n} pairs from a bag of {spec.composition.total}")


def _inner_thresholds(spec: ReservoirSpec) -> list[int]:
    """An infinite-mode draw's population is 1 plus the number of these at or
    below it: the cumulative counts without the total, as Python ints."""
    return list(accumulate(spec.composition.counts))[:-1]


def _chunks(spec: ReservoirSpec, n: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """Infinite mode's ``n`` draws, one Philox chunk at a time, as ``(start,
    stop, draws)``: chunk c holds draws ``start:stop`` from key
    ``c * 2**64 + seed``, ``CHUNK_SIZE`` of them in every chunk but the last.
    A total of at most 2**32 is drawn as uint32, a larger one as int64: below
    2**32 numpy takes both dtypes from the same 32-bit Lemire draws on the
    generator's 32-bit stream, so the values are the same, in half the bytes."""
    total = spec.composition.total
    dtype = np.uint32 if total <= 2**32 else np.int64
    for chunk, start in enumerate(range(0, n, CHUNK_SIZE)):
        stop = min(start + CHUNK_SIZE, n)
        draws = stream(spec.seed, chunk).integers(0, total, size=stop - start, dtype=dtype)
        yield start, stop, draws


def _finite_chunks(
    spec: ReservoirSpec, n: int, left: list[int]
) -> Iterator[tuple[int, int, list[int]]]:
    """Finite mode's ``n`` draws without replacement, ``CHUNK_SIZE`` at a
    time, as ``(start, stop, populations)``, while ``left``, the bag's eight
    counts, loses each pair as it is drawn.  Draw k is uniform below the total
    left before it: one ``integers`` call per chunk of bounds gives the same
    integers as one call over all ``n``, with only a chunk of Python ints
    alive, and ``u < sum(left)`` stops the scan over the counts."""
    total = spec.composition.total
    rng = stream(spec.seed)
    for start in range(0, n, CHUNK_SIZE):
        stop, chunk = min(start + CHUNK_SIZE, n), []
        for u in rng.integers(0, np.arange(total - start, total - stop, -1)).tolist():
            i = 0
            while u >= left[i]:
                u -= left[i]
                i += 1
            left[i] -= 1
            chunk.append(i + 1)
        yield start, stop, chunk


def sample(spec: ReservoirSpec, n: int) -> np.ndarray:
    """Draw ``n`` pairs from the reservoir: the populations drawn (1-8), in
    step order, as a 1-D int64 array.

    The array is allocated once and filled chunk by chunk in both modes.
    Infinite mode: i.i.d. categorical draws with probabilities N_i / total,
    one Philox sub-stream per chunk (:func:`_chunks`).  Finite mode: uniform
    draws without replacement from the bag, sequential by nature
    (:func:`_finite_chunks`); :func:`remaining_counts` gives the bag around
    each draw.
    """
    _check_count(spec, n)
    populations = np.empty(n, dtype=np.int64)

    if spec.mode == "infinite":
        inner = _inner_thresholds(spec)
        for start, stop, draws in _chunks(spec, n):
            filled = populations[start:stop]
            filled.fill(1)
            for t in inner:
                filled += draws >= t
        return populations

    for start, stop, chunk in _finite_chunks(spec, n, list(spec.composition.counts)):
        populations[start:stop] = chunk
    return populations


def population_counts(spec: ReservoirSpec, n: int) -> np.ndarray:
    """How many of the ``n`` draws of ``sample(spec, n)`` come from each
    population, as an int64 array of 8: the same numbers as
    ``np.bincount(sample(spec, n), minlength=9)[1:]``.

    Neither mode holds a per-draw array.  Infinite mode folds each chunk into
    the counts with :func:`threshold_counts`.  Finite mode runs the draws of
    :func:`_finite_chunks` and returns the bag less what is left of it.
    """
    _check_count(spec, n)
    if spec.mode == "finite":
        left = list(spec.composition.counts)
        for _ in _finite_chunks(spec, n, left):
            pass
        return np.subtract(spec.composition.counts, left, dtype=np.int64)
    counts, inner = np.zeros(8, dtype=np.int64), _inner_thresholds(spec)
    for _, _, draws in _chunks(spec, n):
        counts += threshold_counts(draws, inner)
    return counts


def remaining_counts(bag: PopulationTable, populations: np.ndarray) -> np.ndarray:
    """The ``(n + 1, 8)`` int64 counts of ``bag`` around ``n`` finite draws:
    row ``k`` is the bag before draw ``k + 1``, the last row the bag after
    the final draw.  The conditional probabilities before each draw are
    ``before / before.sum(axis=1, keepdims=True)`` with ``before = rows[:-1]``.
    The one array made holds a one-hot row per draw, then, in place, their
    running sums, then the bag's counts less those.
    """
    n = len(populations)
    rows = np.zeros((n + 1, 8), dtype=np.int64)
    rows[np.arange(1, n + 1), populations - 1] = 1
    np.cumsum(rows, axis=0, out=rows)
    return np.subtract(np.array(bag.counts, dtype=np.int64), rows, out=rows)


def empirical_probability(
    draws: np.ndarray, outcome: PairOutcome
) -> EmpiricalEstimate:
    """Fraction of draws (populations 1-8) that contribute to ``outcome``.

    It treats the draws as independent, so its ``stderr`` is the binomial
    one.  For draws without replacement from a bag of ``bag`` pairs, take
    ``EmpiricalEstimate.from_counts(outcome, counts, bag)`` on the draws'
    eight counts, which applies the finite-population correction."""
    if len(draws) == 0:
        raise ValidationError("cannot estimate from an empty draw list")
    return EmpiricalEstimate.from_counts(outcome, np.bincount(draws, minlength=9)[1:])


def depletion_trajectory(spec: ReservoirSpec) -> tuple[np.ndarray, np.ndarray]:
    """Drain a finite reservoir completely: the populations drawn and their
    :func:`remaining_counts`.

    The final draw's conditional probability for the surviving population is
    exactly 1; once only one population remains its conditional series is
    pinned there.
    """
    if spec.mode != "finite":
        raise ValidationError("depletion trajectories require a finite reservoir")
    populations = sample(spec, spec.composition.total)
    return populations, remaining_counts(spec.composition, populations)


@dataclass(frozen=True)
class DivergenceReport:
    """How far finite-mode conditional probabilities drift from infinite mode.

    Row ``i`` of each ``(len(seeds), n)`` array is the drain of ``seeds[i]``,
    column ``k`` the bag before draw ``k + 1``.  ``deviations`` tracks
    |P_finite(outcome) - P_infinite(outcome)|; ``l1_deviations`` tracks the
    L1 distance between the full 8-population conditional distributions,
    which reaches 1 when half the populations of a uniform bag are exhausted
    and tops out as the bag empties.
    """

    bag: PopulationTable
    n: int
    outcome: PairOutcome
    infinite_probability: float
    seeds: tuple[int, ...]
    deviations: np.ndarray
    l1_deviations: np.ndarray

    @property
    def max_abs_deviation(self) -> float:
        return float(self.deviations.max())

    @property
    def mean_max_abs_deviation(self) -> float:
        return math.fsum(self.deviations.max(axis=1).tolist()) / len(self.seeds)

    @property
    def max_l1_deviation(self) -> float:
        return float(self.l1_deviations.max())


def finite_vs_infinite_divergence(
    bag: PopulationTable,
    n: int,
    seeds: Sequence[int],
    outcome: PairOutcome | None = None,
) -> DivergenceReport:
    """Compare finite-mode conditional probabilities against the fixed
    infinite-mode values over ``n`` draws, one drain per seed.

    The first draw always matches infinite mode exactly, so with n = 1 every
    deviation is 0.  Seeds are reported in the given order.
    """
    if not seeds:
        raise ValidationError("at least one seed is required")
    if outcome is None:
        outcome = PairOutcome("a", +1, "b", +1)
    contributing = [i - 1 for i in outcome_populations(outcome)]
    total = bag.total
    if total < 1:
        raise ValidationError("bag must contain at least one pair")
    if n > total:
        raise ValidationError(f"cannot draw {n} pairs from a bag of {total}")
    infinite_probs = np.array([c / total for c in bag.counts])
    p_inf = math.fsum(infinite_probs[contributing].tolist())

    deviations = np.empty((len(seeds), n))
    l1_deviations = np.empty((len(seeds), n))
    for row, seed in enumerate(seeds):
        populations = sample(ReservoirSpec.finite(bag, seed), n)
        # Python-int division, correctly rounded for counts above 2**53 too.
        before = remaining_counts(bag, populations)[:-1].astype(object)
        probs = (before / before.sum(axis=1, keepdims=True)).astype(float)
        deviations[row] = [abs(math.fsum(p) - p_inf) for p in probs[:, contributing].tolist()]
        l1_deviations[row] = [math.fsum(d) for d in np.abs(probs - infinite_probs).tolist()]

    return DivergenceReport(
        bag=bag,
        n=n,
        outcome=outcome,
        infinite_probability=p_inf,
        seeds=tuple(seeds),
        deviations=deviations,
        l1_deviations=l1_deviations,
    )
