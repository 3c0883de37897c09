"""Fine's feasibility oracle for the classical side, exact in Fraction.

With perfect anticorrelation a population table is a distribution of
particle 1's sign triple s = (s_a, s_b, s_c).  Its eight shares are fixed by
the three means m_x = E[s_x], the three correlations E_xy = E[s_x s_y] and
the triple moment T = E[s_a s_b s_c]:

    w(s) = (1 + sum_x s_x m_x + sum_xy s_x s_y E_xy + s_a s_b s_c T) / 8.

The cross-axis joint probabilities fix m and E, and leave T free.  Each
share is affine in T, so some table reproduces given m and E exactly when
the interval of T that keeps all eight shares >= 0 is nonempty (Fine, PRL
48, 291 (1982); Pitowsky, Quantum Probability - Quantum Logic (1989)).
"""

import math
from fractions import Fraction
from itertools import permutations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellstat import PairOutcome, PopulationTable, exact_probability
from bellstat.populations import AXIS_LABELS, population_signs
from bellstat.quantum import quantum_wigner_scan

PAIRS = (("a", "b"), ("a", "c"), ("b", "c"))

#: Particle 1's signs of populations 1..8, each as {axis: sign}.
SIGNS = [{x: population_signs(i)[0].sign(x) for x in AXIS_LABELS} for i in range(1, 9)]


def moments(table):
    """A table's means m, correlations E and triple moment T, as Fractions."""
    total = table.total
    def mean(f):
        return Fraction(sum(n * f(s) for n, s in zip(table.counts, SIGNS)), total)
    m = {x: mean(lambda s: s[x]) for x in AXIS_LABELS}
    e = {(x, y): mean(lambda s: s[x] * s[y]) for x, y in PAIRS}
    return m, e, mean(lambda s: s["a"] * s["b"] * s["c"])


def shares(m, e, t):
    """The eight population shares w(s) of these moments, in population order."""
    return [
        (1 + sum(s[x] * m[x] for x in AXIS_LABELS)
         + sum(s[x] * s[y] * e[x, y] for x, y in PAIRS) + s["a"] * s["b"] * s["c"] * t) / 8
        for s in SIGNS
    ]


def t_interval(m, e):
    """The closed interval ``(lo, hi)`` of T for which every share is >= 0;
    ``lo > hi`` when no table has these means and correlations."""
    base = shares(m, e, 0)
    # A share with s_a s_b s_c = +1 bounds T below, one with -1 above.
    lo = max(-8 * w for w, s in zip(base, SIGNS) if s["a"] * s["b"] * s["c"] == 1)
    hi = min(8 * w for w, s in zip(base, SIGNS) if s["a"] * s["b"] * s["c"] == -1)
    return lo, hi


def feasible(m, e):
    lo, hi = t_interval(m, e)
    return lo <= hi


tables = (
    st.lists(st.integers(0, 20) | st.integers(0, 2**62), min_size=8, max_size=8)
    .filter(any)
    .map(PopulationTable.from_counts)
)


class TestTableMoments:
    @settings(max_examples=200)
    @given(table=tables)
    @example(table=PopulationTable.uniform())
    @example(table=PopulationTable.from_counts((0, 0, 0, 0, 0, 0, 0, 1)))
    def test_every_tables_own_t_lies_in_its_interval(self, table):
        m, e, t = moments(table)
        lo, hi = t_interval(m, e)
        assert lo <= t <= hi
        assert shares(m, e, t) == [Fraction(n, table.total) for n in table.counts]

    @settings(max_examples=200)
    @given(table=tables)
    def test_cross_axis_probabilities_give_the_means_and_correlations(self, table):
        # Alice reads particle 1 along x, Bob particle 2 (signs negated) along y:
        # P(alpha x; beta y) = P(s_x = alpha, s_y = -beta).
        m, e, _ = moments(table)
        for x, y in permutations(AXIS_LABELS, 2):
            p = {
                (alpha, beta): exact_probability(table, PairOutcome(x, alpha, y, beta)).fraction
                for alpha in (+1, -1) for beta in (+1, -1)
            }
            assert sum(alpha * q for (alpha, _), q in p.items()) == m[x]
            assert -sum(beta * q for (_, beta), q in p.items()) == m[y]
            correlation = e[min(x, y), max(x, y)]
            assert -sum(alpha * beta * q for (alpha, beta), q in p.items()) == correlation


class TestCoplanarScan:
    """The singlet scan's numbers as moments: zero means, E_ab = 1 - 4 lhs
    and E_ac = E_cb = 1 - 2 rhs, each exact from the float it comes from."""

    @staticmethod
    def scan_moments(lhs, rhs):
        e_ac = 1 - 2 * Fraction(rhs)
        return dict.fromkeys(AXIS_LABELS, Fraction(0)), {
            ("a", "b"): 1 - 4 * Fraction(lhs), ("a", "c"): e_ac, ("b", "c"): e_ac,
        }

    @settings(max_examples=100)
    @given(
        spacing=st.floats(0.0, math.pi, exclude_min=True, exclude_max=True),
        steps=st.integers(1, 50),
    )
    @example(spacing=math.pi / 2, steps=1)
    @example(spacing=math.nextafter(math.pi, 0.0), steps=1)
    @example(spacing=math.pi - 1e-8, steps=1)
    @example(spacing=1e-9, steps=3)
    def test_violated_implies_infeasible_and_only_90_degrees_fits(self, spacing, steps):
        """A flagged violation fits no table.  Outside 1e-12 rad of 0, 90 and
        180 degrees no scan point fits a table; at 90 degrees the singlet
        numbers lhs = rhs = 1/2 fit exactly one T."""
        for point in quantum_wigner_scan(spacing, steps):
            fits = feasible(*self.scan_moments(point.lhs, point.rhs))
            if point.violated:
                assert not fits
            if min(abs(point.theta - edge) for edge in (0.0, math.pi / 2, math.pi)) > 1e-12:
                assert not fits

    def test_90_degrees_fits_one_t(self):
        m, e = self.scan_moments(Fraction(1, 2), Fraction(1, 2))
        assert t_interval(m, e) == (0, 0)
