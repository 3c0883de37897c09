"""Tests for reservoir sampling: determinism, depletion, and divergence."""

import hashlib
import math
import re
import tracemalloc
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellstat import (
    CHUNK_SIZE,
    PairOutcome,
    PopulationTable,
    ReservoirSpec,
    ValidationError,
    depletion_trajectory,
    empirical_probability,
    exact_probability,
    finite_vs_infinite_divergence,
)
from bellstat.populations import outcome_populations
from bellstat.reservoir import (
    EmpiricalEstimate,
    _chunks,
    population_counts,
    remaining_counts,
    sample,
    threshold_counts,
)
from bellstat.rng import stream, validate_seed

AB = PairOutcome("a", +1, "b", +1)

# Empty populations give repeated thresholds; the second table totals ~2**61,
# far above float64's exact integers.
EMPTY_POPULATIONS = PopulationTable.from_counts((0, 40_000, 0, 0, 90_000, 0, 0, 120_000))
NEAR_2_61 = PopulationTable.from_counts(
    (2**58, 2**60, 0, 2**59 + 12_345, 3, 2**57, 0, 2**58 - 1)
)


def conditional_probabilities(bag, populations):
    """Pre-draw conditional probabilities of a finite sample, one row per draw."""
    before = remaining_counts(bag, populations)[:-1]
    return before / before.sum(axis=1, keepdims=True)


def broadcast_finite_sample(bag, seed, n):
    """Reference finite sampler: all ``n`` bounded integers from one
    broadcast ``integers`` call, then a scan of the 8 counts per draw."""
    current = list(bag.counts)
    populations = []
    for u in stream(seed).integers(0, np.arange(bag.total, bag.total - n, -1)).tolist():
        i = 0
        while u >= current[i]:
            u -= current[i]
            i += 1
        current[i] -= 1
        populations.append(i + 1)
    return np.array(populations, dtype=np.int64)


def expected_conditional(bag, population, step_target):
    """Exact oracle: expectation over all drain paths of the pre-draw
    conditional probability of ``population`` at ``step_target``."""

    def rec(state, step, path_prob):
        total = sum(state)
        if step == step_target:
            return path_prob * Fraction(state[population - 1], total)
        acc = Fraction(0)
        for i, c in enumerate(state):
            if c > 0:
                nxt = list(state)
                nxt[i] -= 1
                acc += rec(tuple(nxt), step + 1, path_prob * Fraction(c, total))
        return acc

    return rec(tuple(bag), 1, Fraction(1))


class TestSpecValidation:
    def test_empty_composition_rejected(self):
        with pytest.raises(ValidationError):
            ReservoirSpec.finite(PopulationTable.from_counts((0,) * 8), seed=1)
        with pytest.raises(ValidationError):
            ReservoirSpec.infinite(PopulationTable.from_counts((0,) * 8), seed=1)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValidationError):
            ReservoirSpec("bottomless", PopulationTable.uniform(), 1)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "7"])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValidationError):
            ReservoirSpec.finite(PopulationTable.uniform(), seed)

    def test_a_float_seed_is_named_in_the_message(self):
        with pytest.raises(ValidationError, match=r"^seed must be an integer, got 1\.5$"):
            validate_seed(1.5)

    def test_overdraw_rejected(self):
        spec = ReservoirSpec.finite(PopulationTable.uniform(), seed=1)
        with pytest.raises(ValidationError):
            sample(spec, 9)

    def test_zero_draws_rejected(self):
        spec = ReservoirSpec.infinite(PopulationTable.uniform(), seed=1)
        with pytest.raises(ValidationError):
            sample(spec, 0)


class TestDeterminism:
    def test_finite_sequences_are_reproducible(self):
        spec = ReservoirSpec.finite(PopulationTable.from_counts((3, 2, 1, 0, 1, 0, 0, 1)), seed=99)
        assert np.array_equal(sample(spec, 8), sample(spec, 8))

    def test_infinite_sequences_are_reproducible(self):
        spec = ReservoirSpec.infinite(PopulationTable.uniform(), seed=99)
        assert np.array_equal(sample(spec, 5000), sample(spec, 5000))

    def test_different_seeds_differ(self):
        bag = PopulationTable.uniform(100)
        a = sample(ReservoirSpec.infinite(bag, seed=1), 1000)
        b = sample(ReservoirSpec.infinite(bag, seed=2), 1000)
        assert not np.array_equal(a, b)

    def test_infinite_chunks_follow_the_stream_contract(self):
        # chunk c is the c-th slice of CHUNK_SIZE draws, from Philox key c * 2**64 + seed
        for bag in (PopulationTable.from_counts((3, 1, 4, 1, 5, 9, 2, 6)),
                    EMPTY_POPULATIONS, NEAR_2_61):
            n = 2 * CHUNK_SIZE + 1234
            populations = sample(ReservoirSpec.infinite(bag, seed=17), n)
            assert populations.dtype == np.int64 and len(populations) == n
            thresholds = np.cumsum(bag.counts)
            for chunk, start in enumerate(range(0, n, CHUNK_SIZE)):
                draws = stream(17, chunk).integers(0, bag.total, size=min(CHUNK_SIZE, n - start))
                expected = np.searchsorted(thresholds, draws, side="right") + 1
                assert np.array_equal(populations[start:start + CHUNK_SIZE], expected)

    def test_prefix_stability_across_lengths(self):
        # chunk boundaries depend only on position, so a shorter run is a prefix
        spec = ReservoirSpec.infinite(PopulationTable.uniform(), seed=5)
        long = sample(spec, 2000)
        short = sample(spec, 1500)
        assert np.array_equal(long[:1500], short)


def _tables_near_2_32():
    """Tables whose totals sit about 2**32, where the draws change dtype; some
    with empty trailing populations, so that thresholds equal the total."""
    totals = st.sampled_from([2**32 - 1, 2**32, 2**32 + 1]) | st.integers(1, 2**34)
    def split(total, cuts, empty):
        counts = np.diff([0, *sorted(c % (total + 1) for c in cuts[:7 - empty]), total])
        return PopulationTable.from_counts([*counts.tolist(), *[0] * empty])
    return st.builds(split, totals, st.lists(st.integers(0, 2**40), min_size=7, max_size=7),
                     st.integers(0, 6))


class TestDrawDtype:
    """Infinite chunks of a total up to 2**32 are drawn as uint32, others as
    int64; either way each draw is the default (int64) ``integers`` value."""

    @settings(max_examples=60, deadline=None)
    @given(bag=_tables_near_2_32(), seed=st.integers(0, 2**64 - 1),
           n=st.integers(1, 3000) | st.just(CHUNK_SIZE + 5))
    @example(bag=PopulationTable.from_counts((2**31, 2**31, 0, 0, 0, 0, 0, 0)), seed=3, n=2000)
    @example(bag=PopulationTable.from_counts((1, 2**32 - 2, 0, 0, 0, 0, 0, 0)), seed=4, n=2000)
    @example(bag=PopulationTable.from_counts((2**32, 1, 0, 0, 0, 0, 0, 0)), seed=5, n=2000)
    def test_draws_match_the_default_dtype(self, bag, seed, n):
        spec = ReservoirSpec.infinite(bag, seed)
        expected = []
        for chunk, (start, stop, draws) in enumerate(_chunks(spec, n)):
            assert draws.dtype == (np.uint32 if bag.total <= 2**32 else np.int64)
            default = stream(seed, chunk).integers(0, bag.total, size=stop - start)
            assert np.array_equal(draws, default)
            expected.append(np.searchsorted(np.cumsum(bag.counts), default, side="right") + 1)
        populations = sample(spec, n)
        assert np.array_equal(populations, np.concatenate(expected))
        assert np.array_equal(population_counts(spec, n), np.bincount(populations, minlength=9)[1:])


class TestFiniteDraws:
    def test_singleton_bag(self):
        bag = PopulationTable.from_counts((1, 0, 0, 0, 0, 0, 0, 0))
        populations = sample(ReservoirSpec.finite(bag, seed=3), 1)
        assert len(populations) == 1
        assert populations[0] == 1
        assert conditional_probabilities(bag, populations)[0][0] == 1.0

    def test_conservation_of_pairs(self):
        bag = PopulationTable.from_counts((3, 2, 1, 0, 1, 0, 0, 1))
        populations = sample(ReservoirSpec.finite(bag, seed=17), bag.total)
        remaining = remaining_counts(bag, populations)[1:]
        assert remaining.shape == (bag.total, 8)
        for step, (population, left) in enumerate(zip(populations, remaining), start=1):
            assert left[population - 1] >= 0
            assert left.sum() + step == bag.total

    def test_conditional_probabilities_normalized(self):
        bag = PopulationTable.from_counts((3, 2, 1, 0, 1, 0, 0, 1))
        populations = sample(ReservoirSpec.finite(bag, seed=23), bag.total)
        for row in conditional_probabilities(bag, populations):
            assert math.fsum(row) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("counts, n, seed", [
        ((300_000, 1, 150_000, 200_000, 49_999, 100_000, 100_000, 100_000), 10**6, 11),
        ((2**39, 2**38, 2**37, 2**36, 2**35, 2**34, 2**33, 2**33), 3 * 10**5, 2**64 - 1),
        ((1200, 25, 900, 650, 125, 1600, 3, 497), 5000, 5),
    ], ids=["1e6-of-1e6", "3e5-of-2^40", "5000-pair-drain"])
    def test_chunked_draws_match_one_broadcast_call(self, counts, n, seed):
        bag = PopulationTable.from_counts(counts)
        populations = sample(ReservoirSpec.finite(bag, seed), n)
        assert populations.dtype == np.int64
        assert np.array_equal(populations, broadcast_finite_sample(bag, seed, n))

    def test_first_draw_matches_infinite_mode(self):
        bag = PopulationTable.from_counts((4, 3, 2, 1, 0, 0, 5, 1))
        fin = conditional_probabilities(bag, sample(ReservoirSpec.finite(bag, seed=8), 1))[0]
        inf = [c / bag.total for c in bag.counts]  # infinite mode's fixed probabilities
        assert fin.tolist() == inf


def one_hot_remaining(bag, populations):
    """The counts around each draw as a one-hot ``taken`` matrix and its
    cumsum: the reference for :func:`remaining_counts`."""
    n = len(populations)
    taken = np.zeros((n + 1, 8), dtype=np.int64)
    taken[np.arange(1, n + 1), populations - 1] = 1
    return np.array(bag.counts, dtype=np.int64) - taken.cumsum(axis=0)


class TestRemainingCounts:
    @settings(max_examples=100)
    @given(
        bag=st.one_of(
            st.sampled_from([EMPTY_POPULATIONS, NEAR_2_61]),
            st.lists(st.integers(0, 40), min_size=8, max_size=8)
            .filter(any)
            .map(PopulationTable.from_counts),
        ),
        share=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(bag=EMPTY_POPULATIONS, share=0.0, seed=0)
    @example(bag=NEAR_2_61, share=0.0, seed=0)
    @example(bag=EMPTY_POPULATIONS, share=1.0, seed=5)
    @example(bag=NEAR_2_61, share=1.0, seed=2**64 - 1)
    def test_matches_the_one_hot_cumsum(self, bag, share, seed):
        n = round(share * min(bag.total, 3000))
        if n:
            populations = sample(ReservoirSpec.finite(bag, seed), n)
        else:
            populations = np.empty(0, dtype=np.int64)
        got = remaining_counts(bag, populations)
        assert got.dtype == np.int64 and got.shape == (n + 1, 8)
        assert np.array_equal(got, one_hot_remaining(bag, populations))


class TestDepletion:
    def test_final_draw_is_certain(self):
        bag = PopulationTable.from_counts((2, 1, 0, 0, 0, 0, 0, 0))
        for seed in range(20):
            populations, counts = depletion_trajectory(ReservoirSpec.finite(bag, seed=seed))
            last = populations[-1]
            assert conditional_probabilities(bag, populations)[-1][last - 1] == 1.0
            assert counts[-1].sum() == 0

    def test_single_pair_trajectory(self):
        bag = PopulationTable.from_counts((0, 0, 0, 0, 0, 1, 0, 0))
        populations = depletion_trajectory(ReservoirSpec.finite(bag, seed=0))[0]
        assert len(populations) == 1
        assert conditional_probabilities(bag, populations)[0][5] == 1.0

    def test_last_survivor_series_is_nondecreasing(self):
        bag = PopulationTable.from_counts((5, 3, 0, 2, 0, 0, 0, 0))
        for seed in range(10):
            populations = depletion_trajectory(ReservoirSpec.finite(bag, seed=seed))[0]
            survivor = populations[-1]
            # once every other population is gone, the survivor's conditional
            # probability climbs monotonically to exactly 1
            alone = [
                row[survivor - 1]
                for row in conditional_probabilities(bag, populations).tolist()
                if all(p == 0.0 for i, p in enumerate(row, start=1) if i != survivor)
            ]
            assert alone, "survivor never stood alone"
            assert all(x <= y for x, y in zip(alone, alone[1:]))
            assert alone[-1] == 1.0

    def test_infinite_mode_rejected(self):
        with pytest.raises(ValidationError):
            depletion_trajectory(ReservoirSpec.infinite(PopulationTable.uniform(), seed=1))


class TestExchangeability:
    def test_enumeration_oracle_gives_half_at_every_step(self):
        bag = (4, 4, 0, 0, 0, 0, 0, 0)
        for step in range(1, 9):
            assert expected_conditional(bag, 1, step) == Fraction(1, 2)

    def test_montecarlo_mean_matches_oracle(self):
        bag = PopulationTable.from_counts((4, 4, 0, 0, 0, 0, 0, 0))
        step = 4
        n_seeds = 4000
        values = []
        for seed in range(n_seeds):
            populations = sample(ReservoirSpec.finite(bag, seed=seed), step)
            values.append(conditional_probabilities(bag, populations)[step - 1][0])
        mean = math.fsum(values) / n_seeds
        # pre-draw conditional probabilities at step 4 have bounded spread;
        # 4 sigma of the sample mean with a conservative variance bound
        spread = 4 * 0.5 / math.sqrt(n_seeds)
        assert abs(mean - 0.5) <= spread

    def test_marginal_population_frequency_is_composition_share(self):
        bag = PopulationTable.from_counts((3, 1, 2, 0, 1, 0, 0, 1))
        step = 5
        n_seeds = 10_000
        hits = [0] * 8
        for seed in range(n_seeds):
            populations = sample(ReservoirSpec.finite(bag, seed=seed), step)
            hits[populations[step - 1] - 1] += 1
        for i in range(8):
            p = bag.counts[i] / bag.total
            stderr = math.sqrt(p * (1 - p) / n_seeds)
            assert abs(hits[i] / n_seeds - p) <= 4 * stderr + 1e-12


class TestPopulationCounts:
    @pytest.mark.parametrize(
        "n", [1, CHUNK_SIZE - 1, CHUNK_SIZE, CHUNK_SIZE + 1, 3 * CHUNK_SIZE + 7]
    )
    @pytest.mark.parametrize(
        "bag", [EMPTY_POPULATIONS, NEAR_2_61], ids=["empty-populations", "2^61"]
    )
    @pytest.mark.parametrize("mode", ["infinite", "finite"])
    def test_counts_are_the_sample_bincount(self, mode, bag, n):
        spec = ReservoirSpec(mode, bag, seed=2**64 - 3)
        counts = population_counts(spec, n)
        assert counts.dtype == np.int64 and counts.shape == (8,)
        assert np.array_equal(counts, np.bincount(sample(spec, n), minlength=9)[1:])

    @settings(max_examples=100)
    @given(
        bag=st.one_of(
            st.sampled_from([EMPTY_POPULATIONS, NEAR_2_61]),
            st.lists(st.integers(0, 40) | st.integers(0, 2**40), min_size=8, max_size=8)
            .filter(any)
            .map(PopulationTable.from_counts),
        ),
        share=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(bag=EMPTY_POPULATIONS, share=1.0, seed=0)
    @example(bag=NEAR_2_61, share=1.0, seed=2**64 - 1)
    @example(bag=PopulationTable.from_counts((0, 0, 0, 0, 0, 0, 0, 1)), share=1.0, seed=3)
    def test_finite_counts_are_the_sample_bincount(self, bag, share, seed):
        # The counts come from the bag left, never from the per-draw column.
        n = max(1, round(share * min(bag.total, 3000)))
        spec = ReservoirSpec.finite(bag, seed)
        counts = population_counts(spec, n)
        assert counts.dtype == np.int64 and counts.shape == (8,)
        assert np.array_equal(counts, np.bincount(sample(spec, n), minlength=9)[1:])

    @pytest.mark.parametrize("mode", ["infinite", "finite"])
    def test_zero_draws_rejected(self, mode):
        spec = ReservoirSpec(mode, PopulationTable.uniform(), seed=1)
        with pytest.raises(ValidationError, match=r"^sample count must be >= 1, got 0$"):
            population_counts(spec, 0)

    def test_infinite_counts_hold_no_per_draw_array(self):
        # the n-long int64 column alone would be 8 MB
        bag = PopulationTable.from_counts((3, 1, 4, 1, 5, 9, 2, 6))
        spec = ReservoirSpec.infinite(bag, seed=4)
        tracemalloc.start()
        try:
            population_counts(spec, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20


class TestEmpiricalProbability:
    def test_all_draws_in_contributing_population(self):
        bag = PopulationTable.from_counts((0, 0, 5, 0, 0, 0, 0, 0))
        draws = sample(ReservoirSpec.finite(bag, seed=1), 5)
        assert empirical_probability(draws, AB).p_hat == 1.0

    def test_all_draws_outside_contributing_population(self):
        bag = PopulationTable.from_counts((5, 0, 0, 0, 0, 0, 0, 0))
        draws = sample(ReservoirSpec.finite(bag, seed=1), 5)
        est = empirical_probability(draws, AB)
        assert est.p_hat == 0.0
        assert est.stderr == 0.0

    def test_empty_draw_list_rejected(self):
        with pytest.raises(ValidationError):
            empirical_probability([], AB)

    def test_infinite_uniform_estimate_converges(self):
        spec = ReservoirSpec.infinite(PopulationTable.uniform(), seed=31)
        draws = sample(spec, 100_000)
        est = empirical_probability(draws, AB)
        exact = exact_probability(PopulationTable.uniform(), AB).value
        assert abs(est.p_hat - exact) <= 4 * est.stderr


class TestFiniteStandardError:
    """Draws without replacement: the standard error of ``p_hat`` carries the
    finite-population correction ``(N - n) / (N - 1)``."""

    BAG = (2, 1, 0, 1, 1, 0, 0, 1)

    @pytest.mark.parametrize("outcome", [AB, PairOutcome("c", -1, "b", +1)])
    def test_mean_square_error_over_every_ordered_draw(self, outcome):
        # Each pair of the bag by its population; hits are pairs of outcome's.
        hit = [p in outcome_populations(outcome) for p, c in enumerate(self.BAG, 1)
               for _ in range(c)]
        big_n = len(hit)
        share = Fraction(sum(hit), big_n)
        for n in range(1, big_n + 1):
            draws = [sum(hit[i] for i in order) for order in permutations(range(big_n), n)]
            mse = sum((Fraction(h, n) - share) ** 2 for h in draws) / len(draws)
            assert mse == share * (1 - share) / n * Fraction(big_n - n, big_n - 1)
            for h in set(draws):
                p_hat = Fraction(h, n)
                variance = p_hat * (1 - p_hat) / n * Fraction(big_n - n, big_n - 1)
                est = EmpiricalEstimate.from_hits(outcome, h, n, bag=big_n)
                assert est.p_hat == h / n
                assert est.stderr == pytest.approx(math.sqrt(variance), rel=1e-15, abs=0.0)
                if n == big_n:
                    assert est.stderr == 0.0

    def test_a_bag_of_one_and_independent_draws(self):
        assert EmpiricalEstimate.from_hits(AB, 1, 1, bag=1).stderr == 0.0
        assert EmpiricalEstimate.from_hits(AB, 3, 10).stderr == math.sqrt(0.3 * 0.7 / 10)

    @pytest.mark.parametrize("hits, n, bag, message", [
        pytest.param(0, 0, None, "sample count must be >= 1, got 0", id="no-draws"),
        pytest.param(5, 3, None, "hits must be in 0..3, got 5", id="hits-above-n"),
        pytest.param(-1, 3, None, "hits must be in 0..3, got -1", id="negative-hits"),
        pytest.param(2, 3, 2, "cannot draw 3 pairs from a bag of 2", id="overdrawn-bag"),
    ])
    def test_impossible_counts_rejected(self, hits, n, bag, message):
        """Once a ZeroDivisionError, a math domain error, or a stderr of 0.0
        for more draws than the bag holds."""
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            EmpiricalEstimate.from_hits(AB, hits, n, bag=bag)

    def test_no_draws_in_the_counts_rejected(self):
        with pytest.raises(ValidationError, match="^sample count must be >= 1, got 0$"):
            EmpiricalEstimate.from_counts(AB, [0] * 8)


class TestDivergence:
    def test_single_draw_never_deviates(self):
        bag = PopulationTable.from_counts((2, 3, 4, 5, 0, 0, 1, 1))
        report = finite_vs_infinite_divergence(bag, 1, seeds=[0, 1, 2])
        assert report.max_abs_deviation == 0.0
        assert report.max_l1_deviation == 0.0

    def test_uniform_bag_l1_reaches_one_and_tops_out(self):
        bag = PopulationTable.uniform()
        report = finite_vs_infinite_divergence(bag, 8, seeds=range(6))
        for l1_deviations in report.l1_deviations:
            assert any(l1 == 1.0 for l1 in l1_deviations)
            assert l1_deviations.max() == 1.75
        # the outcome-probability channel is bounded by 1 - 2/8
        assert report.max_abs_deviation <= 0.75 + 1e-12

    def test_deviation_shrinks_with_bag_scale(self):
        seeds = list(range(30))
        n = 8
        means = []
        for scale in (1, 10, 100):
            bag = PopulationTable.uniform(scale)
            report = finite_vs_infinite_divergence(bag, n, seeds=seeds)
            means.append(report.mean_max_abs_deviation)
        assert means[0] > means[1] > means[2]

    # bag counts, n, outcome -> sha256 of deviations, of l1_deviations (float64
    # bytes over seeds 0, 5, 2**64 - 1), taken from the tuple-per-step series
    # the arrays replaced.  The last bag's counts are above 2**53: int / int
    # keeps every step's conditional probabilities equal to the infinite ones
    # (all deviations 0.0), where float64 division of the counts would not.
    PINNED = [
        ((25, 25, 25, 25, 0, 0, 0, 0), 100, PairOutcome("a", +1, "b", +1),
         "c7fce24a93cf7b96fa6b0b61117aa881028350bd4a18fb90daed3456c6718eab",
         "2dc16c2ab1458b6b653e760d6f082c449ff614208f14a02369d66c111eae5cf9"),
        ((2, 3, 4, 5, 0, 0, 1, 1), 16, PairOutcome("a", +1, "c", -1),
         "2cf2cccf748f1e497345d9826b21ec8f82f921cfc9d38b340bcc8b099b40ad4f",
         "bd9ab982d34e578e4ee8603b8ae65df8f7d62dcac97fa48faedd81952c8e792f"),
        ((7, 1, 0, 3, 9, 2, 5, 4), 20, PairOutcome("c", -1, "b", +1),
         "5d32aac74463442a78da6b8b57df5d5a5480de4bcf55d6186db272868b154d36",
         "b7e8c90128a57961f891bf6bcf60817fb0d95dc38a330d332dbfa99a157e7113"),
        ((176961584537534074, 2, 1, 87449461664771527, 2, 1, 233364146943938912, 0), 6,
         PairOutcome("a", +1, "b", +1),
         "81c611f35bff79491538b2f7cf201c7597a661a5c549633541c62bdc8af1613f",
         "81c611f35bff79491538b2f7cf201c7597a661a5c549633541c62bdc8af1613f"),
    ]

    @pytest.mark.parametrize(
        "counts, n, outcome, deviations, l1_deviations", PINNED,
        ids=["four-colors", "sparse", "mixed", "above-2-53"],
    )
    def test_series_match_pinned_digests(self, counts, n, outcome, deviations, l1_deviations):
        bag = PopulationTable.from_counts(counts)
        report = finite_vs_infinite_divergence(bag, n, seeds=[0, 5, 2**64 - 1], outcome=outcome)
        assert report.seeds == (0, 5, 2**64 - 1)
        for series, digest in ((report.deviations, deviations),
                               (report.l1_deviations, l1_deviations)):
            assert series.shape == (3, n) and series.dtype == np.float64
            assert hashlib.sha256(series.tobytes()).hexdigest() == digest

    def test_overdraw_rejected(self):
        with pytest.raises(ValidationError):
            finite_vs_infinite_divergence(PopulationTable.uniform(), 9, seeds=[1])

    def test_requires_seeds(self):
        with pytest.raises(ValidationError):
            finite_vs_infinite_divergence(PopulationTable.uniform(), 4, seeds=[])

    def test_empty_bag_rejected(self):
        with pytest.raises(ValidationError, match="^bag must contain at least one pair$"):
            finite_vs_infinite_divergence(PopulationTable.uniform(0), 1, seeds=[1])


def reference_sign_counts(u, thresholds):
    """The ``searchsorted`` + ``bincount`` cell tally that threshold counts replaced."""
    edges = np.append(thresholds, 1.0)
    return np.bincount(np.searchsorted(edges, u, side="right"), minlength=4).tolist()


class TestThresholdCounts:
    """Threshold counts place every draw in the cell ``searchsorted`` did."""

    @pytest.mark.parametrize("probabilities", [
        (0.125, 0.375, 0.375, 0.125),
        (0.0, 0.5, 0.5, 0.0),  # theta = 0: two empty cells, tied thresholds
        (0.5, 0.0, 0.0, 0.5),  # theta = pi: the middle cells are empty
        (0.25, 0.25, 0.25, 0.25),
        (0.0, 0.0, 0.0, 1.0),
    ])
    def test_ties_at_the_thresholds_and_empty_cells(self, probabilities):
        thresholds = np.cumsum(probabilities[:3])
        u = np.concatenate([
            np.random.default_rng(0).random(1000),
            thresholds, np.nextafter(thresholds, 0.0), np.nextafter(thresholds, 1.0),
            [0.0, np.nextafter(1.0, 0.0)],
        ])
        u = u[u < 1.0]
        assert threshold_counts(u, thresholds) == reference_sign_counts(u, thresholds)
