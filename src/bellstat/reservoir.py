"""Reservoir sampling of particle pairs from the eight populations.

Two source models:

- infinite: independent draws with replacement; the conditional population
  probabilities are fixed at N_i / total forever (the long-run regime in
  which all accessible macrostates stay equally accessible);
- finite: a literal bag of pairs drawn without replacement; the conditional
  probabilities drift as the bag depletes, ending at exactly 1 for whichever
  population survives last.

Reproducibility contract: draws come from numpy's Philox generator, a
counter-based RNG with a documented algorithm.  The stream for chunk ``c`` of
master seed ``s`` uses Philox key ``c * 2**64 + s``.  Infinite-mode sampling
is split into fixed chunks of 65536 draws whose boundaries depend only on the
requested sample count, and chunks are merged in order, so results are
bit-identical for any number of workers.  All draws resolve through integer
thresholds (never float cumsums), so identical seeds give identical sequences.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import ValidationError
from .populations import PairOutcome, PopulationTable, outcome_populations
from .rng import stream, validate_seed

#: Draws per independent Philox sub-stream in infinite mode.
CHUNK_SIZE = 65536

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

    @classmethod
    def infinite(cls, weights: PopulationTable, seed: int) -> "ReservoirSpec":
        return cls("infinite", weights, seed)

    @classmethod
    def finite(cls, bag: PopulationTable, seed: int) -> "ReservoirSpec":
        return cls("finite", bag, seed)


@dataclass(frozen=True, slots=True)
class DrawRecord:
    """One draw: 1-based step, population drawn, and the pre-draw state."""

    step: int
    population: int
    conditional_probabilities: tuple[float, ...]
    remaining: PopulationTable | None = None


@dataclass(frozen=True)
class EmpiricalEstimate:
    """Monte Carlo estimate of an outcome probability with its standard error."""

    outcome: PairOutcome
    p_hat: float
    stderr: float
    n: int


def _conditional_tuple(counts: Sequence[int], total: int) -> tuple[float, ...]:
    return tuple(c / total for c in counts)


def _sample_infinite_chunk(
    counts: tuple[int, ...], total: int, seed: int, chunk: int, size: int
) -> np.ndarray:
    rng = stream(seed, chunk)
    thresholds = np.cumsum(counts)
    draws = rng.integers(0, total, size=size)
    return np.searchsorted(thresholds, draws, side="right") + 1


def sample(spec: ReservoirSpec, n: int, workers: int = 1) -> list[DrawRecord]:
    """Draw ``n`` pairs from the reservoir.

    Infinite mode: i.i.d. categorical draws with probabilities N_i / total,
    chunked across Philox sub-streams (parallelizable, worker-count
    invariant).  Finite mode: uniform draws without replacement from the bag,
    sequential by nature; each record snapshots the remaining bag.
    """
    if n < 1:
        raise ValidationError(f"sample count must be >= 1, got {n!r}")
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers!r}")

    counts = spec.composition.counts
    total = spec.composition.total

    if spec.mode == "infinite":
        probs = _conditional_tuple(counts, total)
        chunks = range(math.ceil(n / CHUNK_SIZE))
        sizes = [min(CHUNK_SIZE, n - c * CHUNK_SIZE) for c in chunks]

        def run(c: int) -> np.ndarray:
            return _sample_infinite_chunk(counts, total, spec.seed, c, sizes[c])

        if workers == 1:
            parts = [run(c) for c in chunks]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                parts = list(pool.map(run, chunks))
        populations = np.concatenate(parts) if len(parts) > 1 else parts[0]
        return [
            DrawRecord(step=k, population=int(p), conditional_probabilities=probs)
            for k, p in enumerate(populations, start=1)
        ]

    # finite mode
    if n > total:
        raise ValidationError(f"cannot draw {n} pairs from a bag of {total}")
    rng = stream(spec.seed)
    current = list(counts)
    remaining_total = total
    records: list[DrawRecord] = []
    for step in range(1, n + 1):
        probs = _conditional_tuple(current, remaining_total)
        u = int(rng.integers(0, remaining_total))
        acc = 0
        population = 8
        for i, c in enumerate(current):
            acc += c
            if u < acc:
                population = i + 1
                break
        current[population - 1] -= 1
        remaining_total -= 1
        records.append(
            DrawRecord(
                step=step,
                population=population,
                conditional_probabilities=probs,
                remaining=PopulationTable.from_counts(current),
            )
        )
    return records


def empirical_probability(
    draws: Sequence[DrawRecord], outcome: PairOutcome
) -> EmpiricalEstimate:
    """Fraction of draws whose population contributes to ``outcome``."""
    if not draws:
        raise ValidationError("cannot estimate from an empty draw list")
    contributing = outcome_populations(outcome)
    hits = sum(1 for r in draws if r.population in contributing)
    n = len(draws)
    p_hat = hits / n
    return EmpiricalEstimate(
        outcome=outcome,
        p_hat=p_hat,
        stderr=math.sqrt(p_hat * (1.0 - p_hat) / n),
        n=n,
    )


def depletion_trajectory(spec: ReservoirSpec) -> list[DrawRecord]:
    """Drain a finite reservoir completely.

    The final draw's conditional probability for the surviving population is
    exactly 1; once only one population remains its conditional series is
    pinned there.
    """
    if spec.mode != "finite":
        raise ValidationError("depletion trajectories require a finite reservoir")
    return sample(spec, spec.composition.total)


@dataclass(frozen=True)
class SeedDivergence:
    """Per-seed deviation series of a finite drain from the infinite source."""

    seed: int
    deviations: tuple[float, ...]
    l1_deviations: tuple[float, ...]

    @property
    def max_abs_deviation(self) -> float:
        return max(self.deviations)

    @property
    def max_l1_deviation(self) -> float:
        return max(self.l1_deviations)


@dataclass(frozen=True)
class DivergenceReport:
    """How far finite-mode conditional probabilities drift from infinite mode.

    ``deviations`` tracks |P_finite(outcome) - P_infinite(outcome)| per step;
    ``l1_deviations`` tracks the L1 distance between the full 8-population
    conditional distributions, which reaches 1 when half the populations of a
    uniform bag are exhausted and tops out as the bag empties.
    """

    bag: PopulationTable
    n: int
    outcome: PairOutcome
    infinite_probability: float
    per_seed: tuple[SeedDivergence, ...]

    @property
    def max_abs_deviation(self) -> float:
        return max(s.max_abs_deviation for s in self.per_seed)

    @property
    def mean_max_abs_deviation(self) -> float:
        return math.fsum(s.max_abs_deviation for s in self.per_seed) / len(self.per_seed)

    @property
    def max_l1_deviation(self) -> float:
        return max(s.max_l1_deviation for s in self.per_seed)


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
    contributing = sorted(outcome_populations(outcome))
    total = bag.total
    if total < 1:
        raise ValidationError("bag must contain at least one pair")
    if n > total:
        raise ValidationError(f"cannot draw {n} pairs from a bag of {total}")
    infinite_probs = _conditional_tuple(bag.counts, total)
    p_inf = math.fsum(infinite_probs[i - 1] for i in contributing)

    def run(seed: int) -> SeedDivergence:
        records = sample(ReservoirSpec.finite(bag, seed), n)
        devs = []
        l1s = []
        for r in records:
            p_fin = math.fsum(r.conditional_probabilities[i - 1] for i in contributing)
            devs.append(abs(p_fin - p_inf))
            l1s.append(
                math.fsum(
                    abs(p - q)
                    for p, q in zip(r.conditional_probabilities, infinite_probs)
                )
            )
        return SeedDivergence(seed=seed, deviations=tuple(devs), l1_deviations=tuple(l1s))

    return DivergenceReport(
        bag=bag,
        n=n,
        outcome=outcome,
        infinite_probability=p_inf,
        per_seed=tuple(run(s) for s in seeds),
    )
