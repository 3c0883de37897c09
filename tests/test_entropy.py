"""Tests for multiplicity/entropy algebra and the inequality family."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bellstat import (
    BOLTZMANN_SI,
    Entropy,
    Multiplicity,
    MultiplicityVector,
    PairOutcome,
    PopulationTable,
    ValidationError,
    combine,
    dice_multiplicity,
    dice_probability,
    entropy_from_multiplicity,
    entropy_inequality,
    entropy_ratios,
    exact_probability,
    find_multiplicity_counterexample,
    gibbs_entropy,
    joint_multiplicity,
    multiplicity_from_entropy,
    multiplicity_inequality,
    multiplicity_probability,
    product_inequality,
)
from bellstat.rng import stream

positive_omegas = st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False)
omega_vectors = st.tuples(*([positive_omegas] * 8))


class TestBoltzmannEntropy:
    def test_single_microstate_has_zero_entropy(self):
        assert entropy_from_multiplicity(Multiplicity(1)).s == 0.0

    def test_dice_pair_entropy(self):
        e = entropy_from_multiplicity(Multiplicity(36), k=1.0)
        assert e.s == pytest.approx(3.58351893845611, abs=1e-12)

    @pytest.mark.parametrize("omega", [1.0, 6.0, 36.0, 1e6])
    def test_round_trip(self, omega):
        e = entropy_from_multiplicity(Multiplicity(omega))
        back = multiplicity_from_entropy(e)
        assert back.omega == pytest.approx(omega, rel=1e-9)

    def test_round_trip_with_si_constant(self):
        e = entropy_from_multiplicity(Multiplicity(36.0), k=BOLTZMANN_SI)
        assert multiplicity_from_entropy(e).omega == pytest.approx(36.0, rel=1e-9)

    def test_nonpositive_multiplicity_rejected(self):
        with pytest.raises(ValidationError):
            Multiplicity(0.0)
        with pytest.raises(ValidationError):
            Multiplicity(-2.0)

    @pytest.mark.parametrize("k", [0.0, -1.0])
    def test_nonpositive_boltzmann_constant_rejected(self, k):
        message = f"^Boltzmann constant must be positive, got {k}$"
        with pytest.raises(ValidationError, match=message):
            Entropy(1.0, k)

    def test_multiplicity_too_large_for_a_float_rejected(self):
        """e^1000 once raised a bare OverflowError."""
        with pytest.raises(ValidationError, match="too large for a float, S/k = 1000.0$"):
            multiplicity_from_entropy(Entropy(1000.0))

    @pytest.mark.parametrize("e, ratio", [
        (Entropy(math.inf), "inf"),
        (Entropy(1.0, k=1e-320), "inf"),  # S/k overflows in the division
        (Entropy(-1.0, k=1e-320), "-inf"),
    ])
    def test_non_finite_entropy_ratio_rejected(self, e, ratio):
        """An infinite S/k once gave Multiplicity(omega=inf) silently."""
        with pytest.raises(ValidationError, match=f"^S/k must be finite, got {ratio}$"):
            multiplicity_from_entropy(e)


class TestGibbsEntropy:
    @pytest.mark.parametrize("omega", [2, 6, 36, 1000])
    def test_uniform_distribution_matches_boltzmann_form(self, omega):
        s_gibbs = gibbs_entropy([1.0 / omega] * omega).s
        s_boltz = entropy_from_multiplicity(Multiplicity(omega)).s
        assert s_gibbs == pytest.approx(s_boltz, abs=1e-9)

    def test_degenerate_distribution_has_zero_entropy(self):
        assert gibbs_entropy([1.0, 0.0, 0.0]).s == 0.0

    def test_fair_coin(self):
        assert gibbs_entropy([0.5, 0.5]).s == pytest.approx(math.log(2), abs=1e-12)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValidationError):
            gibbs_entropy([0.5, 0.6])

    def test_negative_probability_rejected(self):
        with pytest.raises(ValidationError):
            gibbs_entropy([1.5, -0.5])

    @pytest.mark.parametrize(
        "p", [[math.nan, 1.0], [0.5, 0.5, math.nan]], ids=["nan-and-1", "halves-and-nan"]
    )
    def test_nan_probability_rejected(self, p):
        """Once S = -0.0 and ln 2: both checks were phrased so a nan passed."""
        with pytest.raises(ValidationError, match="^probabilities must be nonnegative, got nan$"):
            gibbs_entropy(p)


class TestCombine:
    def test_two_dice(self):
        assert combine(Multiplicity(6), Multiplicity(6)).omega == 36

    def test_identity_element(self):
        assert combine(Multiplicity(7.5), Multiplicity(1)).omega == 7.5

    @given(positive_omegas, positive_omegas)
    def test_entropy_additivity(self, wa, wb):
        combined = combine(Multiplicity(wa), Multiplicity(wb))
        s_sum = math.log(wa) + math.log(wb)
        assert math.log(combined.omega) == pytest.approx(s_sum, abs=1e-9)

    def test_overflowing_product_rejected(self):
        with pytest.raises(ValidationError):
            combine(Multiplicity(1e308), Multiplicity(1e308))


class TestDice:
    # Independent oracle: enumerate the 36 ordered pairs from scratch.
    ORACLE = {
        total: sum(1 for d in itertools.product(range(1, 7), repeat=2) if sum(d) == total)
        for total in range(2, 13)
    }

    def test_seven(self):
        assert dice_multiplicity(7).omega == 6
        assert dice_probability(7) == Fraction(1, 6)

    def test_snake_eyes(self):
        assert dice_multiplicity(2).omega == 1
        assert dice_probability(2) == Fraction(1, 36)

    def test_all_totals_match_enumeration(self):
        for total, count in self.ORACLE.items():
            assert dice_multiplicity(total).omega == count

    def test_completeness(self):
        assert sum(dice_multiplicity(t).omega for t in range(2, 13)) == 36

    def test_symmetry_around_seven(self):
        for t in range(2, 13):
            assert dice_multiplicity(t).omega == dice_multiplicity(14 - t).omega

    @pytest.mark.parametrize("bad", [1, 13, 0])
    def test_out_of_range_total(self, bad):
        with pytest.raises(ValidationError):
            dice_multiplicity(bad)


class TestJointMultiplicity:
    def test_unit_product(self):
        v = MultiplicityVector.equal(1.0)
        assert joint_multiplicity(v, 3, 4).omega == 1.0

    def test_plain_product(self):
        v = MultiplicityVector.from_iterable([1, 1, 2, 5, 1, 1, 1, 1])
        assert joint_multiplicity(v, 3, 4).omega == 10.0

    @given(positive_omegas)
    def test_equal_vector_gives_square(self, w):
        v = MultiplicityVector.equal(w)
        assert joint_multiplicity(v, 3, 4).omega == pytest.approx(w * w, rel=1e-12)

    def test_bad_index(self):
        with pytest.raises(ValidationError):
            joint_multiplicity(MultiplicityVector.equal(), 0, 4)


def oracle_class_normalization(v, i, j):
    """Sum the joint multiplicities of the four outcome classes containing
    {i, j}, re-deriving the classes from an independent row scan."""
    rows = []
    for signs in itertools.product((+1, -1), repeat=3):
        p1 = dict(zip("abc", signs))
        rows.append((p1, {k: -s for k, s in p1.items()}))

    def pops(a_ax, a_s, b_ax, b_s):
        return frozenset(
            n
            for n, (p1, p2) in enumerate(rows, start=1)
            if p1[a_ax] == a_s and p2[b_ax] == b_s
        )

    for a_ax in "abc":
        for b_ax in "abc":
            if a_ax == b_ax:
                continue
            classes = {pops(a_ax, s1, b_ax, s2) for s1 in (+1, -1) for s2 in (+1, -1)}
            if frozenset((i, j)) in classes:
                return sum(math.prod(v.omega(n) for n in c) for c in classes)
    raise AssertionError("pair is not an outcome class")


class TestMultiplicityProbability:
    def test_equal_multiplicities_give_one_quarter(self):
        v = MultiplicityVector.equal(3.0)
        expected = joint_multiplicity(v, 3, 4).omega / oracle_class_normalization(v, 3, 4)
        assert expected == pytest.approx(0.25, abs=1e-15)
        assert multiplicity_probability(v, 3, 4) == pytest.approx(0.25, abs=1e-15)

    @given(omega_vectors)
    def test_matches_oracle_normalization(self, omegas):
        v = MultiplicityVector.from_iterable(omegas)
        expected = joint_multiplicity(v, 3, 4).omega / oracle_class_normalization(v, 3, 4)
        assert multiplicity_probability(v, 3, 4) == pytest.approx(expected, rel=1e-12)

    def test_dominant_pair_probability_tends_to_one(self):
        v = MultiplicityVector.from_iterable([1, 1, 1e9, 1e9, 1, 1, 1, 1])
        assert multiplicity_probability(v, 3, 4) == pytest.approx(1.0, abs=1e-9)

    @given(omega_vectors)
    def test_outcome_classes_normalize_to_one(self, omegas):
        v = MultiplicityVector.from_iterable(omegas)
        partition = [(3, 4), (1, 2), (5, 6), (7, 8)]
        total = sum(multiplicity_probability(v, i, j) for i, j in partition)
        assert total == pytest.approx(1.0, rel=1e-9)

    def test_proportional_policy_matches_count_probability_for_equal_counts(self):
        table = PopulationTable.uniform(5)
        v = MultiplicityVector.from_counts(table, policy="proportional")
        p_counts = exact_probability(table, PairOutcome("a", +1, "b", +1)).value
        assert multiplicity_probability(v, 3, 4) == pytest.approx(p_counts, abs=1e-15)

    def test_product_form_diverges_from_count_form_for_unequal_counts(self):
        # the two probability constructions coincide only under equal
        # multiplicities; a ramp table separates them cleanly
        table = PopulationTable.from_counts(range(1, 9))
        v = MultiplicityVector.from_counts(table, policy="proportional")
        p_counts = exact_probability(table, PairOutcome("a", +1, "b", +1))
        assert p_counts.fraction == Fraction(7, 36)
        p_product = multiplicity_probability(v, 3, 4)
        assert p_product == pytest.approx(0.12, abs=1e-15)  # 12 / (12 + 2 + 30 + 56)
        assert abs(p_product - p_counts.value) > 0.07

    def test_raw_normalization_uses_plain_sum(self):
        v = MultiplicityVector.from_iterable([1, 2, 3, 4, 5, 6, 7, 8])
        expected = (3.0 * 4.0) / 36.0
        assert multiplicity_probability(v, 3, 4, normalization="raw") == pytest.approx(
            expected, rel=1e-12
        )

    def test_invalid_pair_rejected_for_class_normalization(self):
        with pytest.raises(ValidationError):
            multiplicity_probability(MultiplicityVector.equal(), 1, 8)

    def test_unknown_normalization_rejected(self):
        with pytest.raises(ValidationError, match="^unknown normalization 'bogus'$"):
            multiplicity_probability(MultiplicityVector.equal(), 3, 4, normalization="bogus")

    @pytest.mark.parametrize("normalization", ["outcome-classes", "raw"])
    def test_products_that_underflow_to_zero_rejected(self, normalization):
        """omega_3 * omega_4 underflows to 0 and is rejected as a multiplicity
        before any total is taken; no total is 0 while that product is positive."""
        with pytest.raises(ValidationError, match="^multiplicity must be positive, got 0.0$"):
            multiplicity_probability(MultiplicityVector.equal(1e-200), 3, 4, normalization)

    def test_proportional_policy_needs_positive_counts(self):
        with pytest.raises(ValidationError):
            MultiplicityVector.from_counts(
                PopulationTable.from_counts((1, 0, 1, 1, 1, 1, 1, 1)),
                policy="proportional",
            )


class TestMultiplicityVector:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValidationError, match="^unknown multiplicity policy 'bogus'$"):
            MultiplicityVector.from_counts(PopulationTable.uniform(), policy="bogus")

    def test_infinite_multiplicity_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            MultiplicityVector.from_iterable([math.inf] + [1.0] * 7)

    def test_count_too_large_for_a_float_rejected(self):
        table = PopulationTable.from_counts([10**400] + [1] * 7)
        with pytest.raises(ValidationError, match="too large for a float"):
            MultiplicityVector.from_counts(table, policy="proportional")


class TestMultiplicityInequality:
    def test_equal_vector_holds(self):
        report = multiplicity_inequality(MultiplicityVector.equal(2.0))
        assert report.holds
        assert report.equal_multiplicity_precondition

    def test_spiked_vector_violates(self):
        v = MultiplicityVector.from_iterable([1, 1, 10, 10, 1, 1, 1, 1])
        report = multiplicity_inequality(v)
        assert report.lhs == 100.0
        assert report.rhs == 20.0
        assert not report.holds
        assert not report.equal_multiplicity_precondition

    @given(positive_omegas, st.floats(0.0, 0.05))
    def test_nearly_equal_vectors_hold(self, base, wiggle):
        omegas = [base * (1.0 + wiggle * (i / 7.0)) for i in range(8)]
        v = MultiplicityVector.from_iterable(omegas)
        report = multiplicity_inequality(v, epsilon=0.05)
        assert report.equal_multiplicity_precondition
        assert report.holds

    def test_precondition_flag_respects_epsilon(self):
        v = MultiplicityVector.from_iterable([1.0] * 7 + [1.2])
        assert not multiplicity_inequality(v, epsilon=0.05).equal_multiplicity_precondition
        assert multiplicity_inequality(v, epsilon=0.25).equal_multiplicity_precondition

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValidationError):
            multiplicity_inequality(MultiplicityVector.equal(), epsilon=-0.1)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    def test_non_finite_epsilon_rejected(self, epsilon):
        with pytest.raises(ValidationError, match="epsilon must be finite"):
            multiplicity_inequality(MultiplicityVector.equal(), epsilon=epsilon)

    def test_overflowing_sides_rejected_not_reported_as_violation(self):
        # lhs and rhs both overflow to inf, so margin would be nan and holds False
        v = MultiplicityVector.from_iterable([1e308] * 4 + [1.0] * 4)
        with pytest.raises(ValidationError, match="must be finite"):
            multiplicity_inequality(v)


class TestProductInequality:
    def test_all_ones_is_equality(self):
        report = product_inequality(MultiplicityVector.equal(1.0))
        assert report.lhs == report.rhs == 1.0
        assert report.holds

    @given(st.tuples(*([st.floats(1.0, 1e6)] * 8)))
    def test_holds_whenever_no_multiplicity_is_below_one(self, omegas):
        assert product_inequality(MultiplicityVector.from_iterable(omegas)).holds

    def test_sub_unit_multiplicities_break_it(self):
        v = MultiplicityVector.from_iterable([1, 0.5, 1, 1, 1, 1, 0.5, 1])
        report = product_inequality(v)
        assert report.lhs == 1.0
        assert report.rhs == 0.25
        assert not report.holds


class TestEntropyInequality:
    def test_all_ones_is_equality(self):
        report = entropy_inequality(MultiplicityVector.equal(1.0))
        assert report.lhs == report.rhs == 0.0
        assert report.holds

    @given(st.tuples(*([st.floats(1.0, 1e6)] * 8)))
    def test_holds_for_nonnegative_entropies(self, omegas):
        assert entropy_inequality(MultiplicityVector.from_iterable(omegas)).holds

    def test_reduction_noted(self):
        assert "S_2 + S_7" in entropy_inequality(MultiplicityVector.equal()).note

    def test_agrees_with_product_form_across_fuzzed_vectors(self):
        rng = np.random.default_rng(7)
        omegas = 10.0 ** rng.uniform(-2, 2, size=(10_000, 8))
        for row in omegas:
            v = MultiplicityVector.from_iterable(row)
            assert product_inequality(v).holds == entropy_inequality(v).holds

    def test_verdict_is_k_invariant(self):
        for omegas in ([1, 0.5, 1, 1, 1, 1, 0.5, 1], [1, 2, 1, 1, 1, 1, 2, 1]):
            v = MultiplicityVector.from_iterable(omegas)
            assert (
                entropy_inequality(v, k=1.0).holds
                == entropy_inequality(v, k=BOLTZMANN_SI).holds
            )


class TestCounterexampleSearch:
    def test_finds_a_violator_within_budget(self):
        found = find_multiplicity_counterexample(10_000, seed=42)
        assert found is not None
        report = multiplicity_inequality(found)
        assert not report.holds
        assert not report.equal_multiplicity_precondition

    def test_equal_vectors_never_violate(self):
        assert find_multiplicity_counterexample(2_000, seed=42, log10_range=(0.0, 0.0)) is None

    def test_deterministic_given_seed(self):
        a = find_multiplicity_counterexample(10_000, seed=11)
        b = find_multiplicity_counterexample(10_000, seed=11)
        assert a == b

    def test_every_returned_vector_really_violates(self):
        for seed in range(20):
            found = find_multiplicity_counterexample(500, seed=seed)
            if found is not None:
                assert not multiplicity_inequality(found).holds

    def test_bad_budget_rejected(self):
        with pytest.raises(ValidationError):
            find_multiplicity_counterexample(0)

    def test_unordered_range_rejected(self):
        message = r"^log10_range must be ordered, got \(2\.0, -1\.0\)$"
        with pytest.raises(ValidationError, match=message):
            find_multiplicity_counterexample(5, log10_range=(2.0, -1.0))


def reference_search(budget, seed=0, log10_range=(-1.0, 2.0), epsilon=0.05):
    """The one-vector-at-a-time search, kept apart from the library's: the
    search is this loop now, and any later faster search must match it."""
    lo, hi = log10_range
    rng = stream(seed)
    for _ in range(budget):
        v = MultiplicityVector.from_iterable(10.0 ** rng.uniform(lo, hi, size=8))
        if not multiplicity_inequality(v, epsilon=epsilon).holds:
            return v
    return None


def outcome(search, *args, **kwargs):
    """The vector a search returns, or the type and message of what it raises."""
    try:
        return search(*args, **kwargs)
    except (ValidationError, OverflowError) as exc:
        return type(exc), str(exc)


class TestBlockwiseSearch:
    """The search returns the vector, or raises the error, that
    ``reference_search`` does, on 200 seeds.  The search is that loop now;
    these cases, chosen inside and across the blocks (1, 2, 4, ... 65,536
    rows) of an earlier blockwise search, are what a re-optimised search
    must match."""

    @pytest.mark.parametrize("budget, log10_range", [
        (1, (-1.0, 2.0)),
        (2, (-1.0, 2.0)),
        (7, (-1.0, 2.0)),
        (300, (0.0, 0.4)),  # hits spread over blocks 1 to 256, and 83 misses
        (300, (-0.02, 0.02)),  # no violator exists
    ])
    def test_same_vector_on_200_seeds(self, budget, log10_range):
        for seed in range(200):
            found = find_multiplicity_counterexample(budget, seed=seed, log10_range=log10_range)
            assert found == reference_search(budget, seed=seed, log10_range=log10_range)

    def test_late_hits(self):
        """Vectors 1,101 and 81,519 of seeds 2 and 3, inside the 1,024-row and
        the 65,536-row block; the budget ends inside the latter."""
        for seed in (2, 3):
            found = find_multiplicity_counterexample(90_000, seed=seed, log10_range=(0.0, 0.32))
            assert found is not None
            assert found == reference_search(90_000, seed=seed, log10_range=(0.0, 0.32))

    @pytest.mark.filterwarnings("ignore:overflow encountered in power:RuntimeWarning")
    @pytest.mark.parametrize("kwargs", [
        {"log10_range": (-330.0, -300.0)},  # entries underflow to 0
        {"log10_range": (150.0, 320.0)},  # entries or products overflow
        {"log10_range": (-1.0, 330.0)},
        {"log10_range": (-1e308, 0.0)},  # the widest range let through: entries underflow to 0
        {"epsilon": -1.0},
        {"epsilon": -1.0, "log10_range": (0.0, 0.0)},  # raises though no vector violates
        {"epsilon": math.nan, "log10_range": (-400.0, -350.0)},
    ])
    def test_same_errors(self, kwargs):
        for seed in range(200):
            expected = outcome(reference_search, 40, seed=seed, **kwargs)
            assert outcome(find_multiplicity_counterexample, 40, seed=seed, **kwargs) == expected

    @pytest.mark.parametrize("log10_range", [
        (-1e308, 1e308),  # hi - lo overflows
        (math.nan, 1.0),
        (1.0, math.nan),
        (0.0, math.inf),
        (-math.inf, 0.0),
    ])
    def test_non_finite_range_rejected(self, log10_range):
        with pytest.raises(ValidationError, match="log10_range must be finite"):
            find_multiplicity_counterexample(5, log10_range=log10_range)


class TestEntropyRatios:
    def test_shares_sum_to_one(self):
        v = MultiplicityVector.from_iterable([2, 3, 4, 5, 6, 7, 8, 9])
        shares = entropy_ratios(v)
        assert math.fsum(shares) == pytest.approx(1.0, abs=1e-12)

    def test_sub_unit_multiplicities_give_negative_shares(self):
        v = MultiplicityVector.from_iterable([0.5, 2, 2, 2, 2, 2, 2, 2])
        shares = entropy_ratios(v)
        assert shares[0] < 0

    def test_degenerate_total_rejected(self):
        with pytest.raises(ValidationError):
            entropy_ratios(MultiplicityVector.equal(1.0))
