"""Tests for the eight-population model and the Wigner inequality."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bellstat import (
    Axis,
    AxisTriple,
    PairOutcome,
    PopulationTable,
    SignTriple,
    ValidationError,
    angle_between,
    exact_probability,
    outcome_populations,
    population_pair_partition,
    population_signs,
    wigner_check,
    wigner_check_probabilities,
)
from bellstat.populations import TOL, holds

# ---------------------------------------------------------------------------
# Independent oracle: re-derive the population rows and outcome sets from
# scratch, without touching the library's representations.
# ---------------------------------------------------------------------------

ORACLE_ROWS = []
for signs in itertools.product((+1, -1), repeat=3):
    p1 = dict(zip("abc", signs))
    ORACLE_ROWS.append((p1, {k: -v for k, v in p1.items()}))


def oracle_outcome_populations(alice_axis, alice_sign, bob_axis, bob_sign):
    return frozenset(
        i
        for i, (p1, p2) in enumerate(ORACLE_ROWS, start=1)
        if p1[alice_axis] == alice_sign and p2[bob_axis] == bob_sign
    )


ALL_OUTCOMES = [
    PairOutcome(a_ax, a_s, b_ax, b_s)
    for a_ax in "abc"
    for a_s in (+1, -1)
    for b_ax in "abc"
    for b_s in (+1, -1)
]

tables = st.tuples(*([st.integers(0, 10**6)] * 8)).filter(lambda c: sum(c) > 0)


class TestPopulationSigns:
    def test_row_1(self):
        p1, p2 = population_signs(1)
        assert p1 == SignTriple(+1, +1, +1)
        assert p2 == SignTriple(-1, -1, -1)

    def test_row_4(self):
        p1, p2 = population_signs(4)
        assert p1 == SignTriple(+1, -1, -1)
        assert p2 == SignTriple(-1, +1, +1)

    def test_row_8(self):
        p1, p2 = population_signs(8)
        assert p1 == SignTriple(-1, -1, -1)
        assert p2 == SignTriple(+1, +1, +1)

    def test_all_rows_distinct_and_anticorrelated(self):
        triples = set()
        for i in range(1, 9):
            p1, p2 = population_signs(i)
            triples.add((p1.s_a, p1.s_b, p1.s_c))
            assert p2 == p1.negate()
        assert len(triples) == 8

    @pytest.mark.parametrize("bad", [0, 9, -1])
    def test_index_out_of_range(self, bad):
        with pytest.raises(ValidationError):
            population_signs(bad)


class TestSigns:
    def test_bad_sign_of_a_triple_rejected(self):
        with pytest.raises(ValidationError, match=r"^signs must be \+1 or -1, got 0$"):
            SignTriple(+1, 0, -1)

    def test_bad_axis_of_an_outcome_rejected(self):
        with pytest.raises(ValidationError, match="^axis label must be one of .*, got 'x'$"):
            PairOutcome("a", +1, "x", +1)

    def test_bad_sign_of_an_outcome_rejected(self):
        with pytest.raises(ValidationError, match=r"^signs must be \+1 or -1, got 2$"):
            PairOutcome("a", 2, "b", +1)


class TestOutcomePopulations:
    def test_plus_a_plus_b(self):
        assert outcome_populations(PairOutcome("a", +1, "b", +1)) == {3, 4}

    def test_plus_a_plus_c(self):
        assert outcome_populations(PairOutcome("a", +1, "c", +1)) == {2, 4}

    def test_plus_c_plus_b(self):
        assert outcome_populations(PairOutcome("c", +1, "b", +1)) == {3, 7}

    def test_same_axis_same_sign_is_impossible(self):
        assert outcome_populations(PairOutcome("a", +1, "a", +1)) == frozenset()

    def test_same_axis_opposite_sign(self):
        assert outcome_populations(PairOutcome("a", +1, "a", -1)) == {1, 2, 3, 4}

    def test_matches_independent_scan_for_all_outcomes(self):
        for o in ALL_OUTCOMES:
            expected = oracle_outcome_populations(
                o.alice_axis, o.alice_sign, o.bob_axis, o.bob_sign
            )
            assert outcome_populations(o) == expected

    def test_sign_flip_maps_to_complementary_rows(self):
        plus = outcome_populations(PairOutcome("a", +1, "b", +1))
        minus = outcome_populations(PairOutcome("a", -1, "b", -1))
        assert plus == {3, 4}
        assert minus == {5, 6}
        assert {9 - i for i in plus} == set(minus)


class TestPairPartition:
    def test_partition_containing_3_4(self):
        classes = [sorted(c) for c in population_pair_partition(3, 4)]
        assert classes == [[1, 2], [3, 4], [5, 6], [7, 8]]

    def test_partitions_cover_all_populations(self):
        for i, j in ((3, 4), (2, 4), (3, 7)):
            partition = population_pair_partition(i, j)
            assert sorted(n for c in partition for n in c) == list(range(1, 9))

    def test_invalid_pair_rejected(self):
        with pytest.raises(ValidationError):
            population_pair_partition(1, 8)


class TestExactProbability:
    def test_uniform_table(self):
        p = exact_probability(PopulationTable.uniform(), PairOutcome("a", +1, "b", +1))
        assert (p.numerator, p.denominator) == (1, 4)
        assert p.value == 0.25

    def test_concentrated_table(self):
        table = PopulationTable.from_counts((0, 0, 5, 5, 0, 0, 0, 0))
        p = exact_probability(table, PairOutcome("a", +1, "b", +1))
        assert p.fraction == 1

    def test_ramp_table(self):
        table = PopulationTable.from_counts(range(1, 9))
        p = exact_probability(table, PairOutcome("c", +1, "b", +1))
        assert p.fraction == Fraction(10, 36)

    def test_empty_table_is_an_error(self):
        with pytest.raises(ValidationError):
            exact_probability(
                PopulationTable.from_counts((0,) * 8), PairOutcome("a", +1, "b", +1)
            )

    @given(tables)
    def test_four_joint_outcomes_sum_to_one(self, counts):
        table = PopulationTable.from_counts(counts)
        total = sum(
            exact_probability(table, PairOutcome("a", s1, "b", s2)).fraction
            for s1 in (+1, -1)
            for s2 in (+1, -1)
        )
        assert total == 1

    @given(tables)
    def test_same_axis_same_sign_probability_zero(self, counts):
        table = PopulationTable.from_counts(counts)
        for axis in "abc":
            assert exact_probability(table, PairOutcome(axis, +1, axis, +1)).fraction == 0
            assert exact_probability(table, PairOutcome(axis, -1, axis, -1)).fraction == 0

    @given(tables)
    def test_float_matches_rational(self, counts):
        table = PopulationTable.from_counts(counts)
        for o in (PairOutcome("a", +1, "b", +1), PairOutcome("c", -1, "a", +1)):
            p = exact_probability(table, o)
            exact = p.fraction
            if exact == 0:
                assert p.value == 0.0
            else:
                assert abs(p.value - float(exact)) <= 1e-15 * float(exact)

    @given(st.tuples(*([st.integers(0, 10**6)] * 4)).filter(lambda c: sum(c) > 0))
    def test_mirror_symmetric_tables_give_equal_flipped_probabilities(self, half):
        counts = half + tuple(reversed(half))
        table = PopulationTable.from_counts(counts)
        p_plus = exact_probability(table, PairOutcome("a", +1, "b", +1)).fraction
        p_minus = exact_probability(table, PairOutcome("a", -1, "b", -1)).fraction
        assert p_plus == p_minus


class TestWignerCheck:
    def test_uniform_table(self):
        report = wigner_check(PopulationTable.uniform())
        assert report.lhs == 0.25
        assert report.rhs == 0.5
        assert report.holds

    def test_sparse_table_margin_one(self):
        report = wigner_check(PopulationTable.from_counts((0, 1, 0, 0, 0, 0, 1, 0)))
        assert report.lhs == 0.0
        assert report.rhs == 1.0
        assert report.margin == 1.0
        assert report.holds

    def test_terms_carry_population_sets(self):
        report = wigner_check(PopulationTable.uniform())
        assert [t.populations for t in report.terms] == [(3, 4), (2, 4), (3, 7)]

    @given(tables)
    def test_holds_for_every_table(self, counts):
        assert wigner_check(PopulationTable.from_counts(counts)).holds

    @given(tables)
    def test_margin_is_the_untouched_population_share(self, counts):
        table = PopulationTable.from_counts(counts)
        report = wigner_check(table)
        expected = Fraction(counts[1] + counts[6], sum(counts))
        assert math.isclose(report.margin, float(expected), rel_tol=0, abs_tol=1e-15)

    def test_empty_table_propagates(self):
        with pytest.raises(ValidationError):
            wigner_check(PopulationTable.from_counts((0,) * 8))


class TestWignerCheckProbabilities:
    def test_classical_triple_holds(self):
        assert wigner_check_probabilities(0.25, 0.25, 0.25).holds

    def test_quantum_triple_violates(self):
        report = wigner_check_probabilities(0.375, 0.125, 0.125)
        assert not report.holds
        assert report.margin == pytest.approx(-0.125, abs=1e-15)

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_zero_lhs_always_holds(self, x, y):
        assert wigner_check_probabilities(0.0, x, y).holds

    @pytest.mark.parametrize("bad", [(-0.1, 0, 0), (0, 1.1, 0), (0, 0, math.nan)])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValidationError):
            wigner_check_probabilities(*bad)


# Triples whose lhs - rhs lies within a few TOL of the tolerance itself.
_NEAR_TOL = st.tuples(
    st.floats(0.0, 0.45), st.floats(0.0, 0.45), st.floats(-3 * TOL, 3 * TOL)
).map(lambda t: (t[0] + t[1] + t[2], t[0], t[1])).filter(lambda t: 0.0 <= t[0] <= 1.0)
_TRIPLES = st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)) | _NEAR_TOL


class TestHolds:
    """The one verdict agrees with every report's ``holds``."""

    @given(_TRIPLES)
    def test_agrees_with_the_report_on_scalars(self, triple):
        report = wigner_check_probabilities(*triple)
        assert holds(report.lhs, report.rhs) is report.holds

    @given(st.lists(_TRIPLES, min_size=1, max_size=40))
    def test_agrees_with_the_report_elementwise_on_arrays(self, triples):
        reports = [wigner_check_probabilities(*t) for t in triples]
        verdicts = holds(np.array([r.lhs for r in reports]), np.array([r.rhs for r in reports]))
        assert verdicts.dtype == np.bool_
        assert verdicts.tolist() == [r.holds for r in reports]

    def test_tolerance_edge(self):
        assert holds(TOL, 0.0)
        assert not holds(math.nextafter(TOL, 1.0), 0.0)


class TestAxes:
    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValidationError):
            Axis("a", (1.0, 1.0, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_direction_rejected(self, bad):
        # abs(nan - 1) > 1e-12 is False, so a unit-length check phrased that way lets nan through
        with pytest.raises(ValidationError, match="unit length"):
            Axis("a", (bad, 0.0, 0.0))

    def test_unit_constructor_normalizes(self):
        axis = Axis.unit("a", (3.0, 4.0, 0.0))
        assert axis.direction == pytest.approx((0.6, 0.8, 0.0))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValidationError):
            Axis.unit("a", (0.0, 0.0, 0.0))

    def test_bad_label_rejected(self):
        with pytest.raises(ValidationError):
            Axis("x", (0.0, 0.0, 1.0))

    def test_direction_not_a_3_vector_rejected(self):
        with pytest.raises(ValidationError, match="^axis direction must be a 3-vector$"):
            Axis("a", (0.0, 1.0))

    def test_unknown_label_of_a_triple_rejected(self):
        with pytest.raises(ValidationError, match="^unknown axis label 'd'$"):
            AxisTriple.coplanar(1.0).axis("d")

    def test_coplanar_spacing(self):
        theta = math.radians(60.0)
        axes = AxisTriple.coplanar(theta)
        assert axes.angle("a", "c") == pytest.approx(theta, abs=1e-12)
        assert axes.angle("c", "b") == pytest.approx(theta, abs=1e-12)
        assert axes.angle("a", "b") == pytest.approx(2 * theta, abs=1e-12)

    def test_coplanar_wraps_past_pi(self):
        axes = AxisTriple.coplanar(math.radians(120.0))
        # a-b separation is 240 degrees along the circle -> 120 between axes
        assert axes.angle("a", "b") == pytest.approx(math.radians(120.0), abs=1e-12)

    def test_labels_enforced(self):
        a = Axis("a", (0.0, 0.0, 1.0))
        b = Axis("b", (0.0, 1.0, 0.0))
        with pytest.raises(ValidationError):
            AxisTriple(a, b, Axis("a", (1.0, 0.0, 0.0)))

    def test_angle_between_antiparallel(self):
        u = Axis("a", (0.0, 0.0, 1.0))
        v = Axis("b", (0.0, 0.0, -1.0))
        assert angle_between(u, v) == pytest.approx(math.pi, abs=1e-12)


class TestPopulationTable:
    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError):
            PopulationTable.from_counts((1, -1, 0, 0, 0, 0, 0, 0))

    def test_non_integer_count_rejected(self):
        with pytest.raises(ValidationError):
            PopulationTable.from_counts((1.5, 0, 0, 0, 0, 0, 0, 0))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValidationError):
            PopulationTable.from_counts((1, 2, 3))

    def test_non_integer_count_rejected_by_the_constructor(self):
        with pytest.raises(ValidationError, match="^population counts must be integers, got 1.5$"):
            PopulationTable((1.5, 0, 0, 0, 0, 0, 0, 0))

    @pytest.mark.parametrize("index", [0, 9])
    def test_count_index_out_of_range(self, index):
        message = f"^population index must be in 1..8, got {index}$"
        with pytest.raises(ValidationError, match=message):
            PopulationTable.uniform().count(index)

    def test_total_and_indexing(self):
        table = PopulationTable.from_counts(range(1, 9))
        assert table.total == 36
        assert table.count(3) == 3

    def test_fuzzed_tables_hold_in_bulk(self):
        rng = np.random.default_rng(20240817)
        counts = rng.integers(0, 10**6 + 1, size=(2000, 8))
        counts[0] = 0
        counts[0, 5] = 1
        for row in counts:
            assert wigner_check(PopulationTable.from_counts(int(x) for x in row)).holds
