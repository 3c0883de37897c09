"""Acceptance suite.

Each test enforces one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest -s`` to see them inline).
"""

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from bellstat import (
    AxisTriple,
    Multiplicity,
    MultiplicityVector,
    PairOutcome,
    PopulationTable,
    ReservoirSpec,
    combine,
    depletion_trajectory,
    dice_multiplicity,
    dice_probability,
    empirical_probability,
    entropy_from_multiplicity,
    entropy_inequality,
    find_multiplicity_counterexample,
    gibbs_entropy,
    multiplicity_inequality,
    outcome_populations,
    product_inequality,
    singlet_prediction_statevector,
    singlet_sample,
    quantum_wigner_scan,
    wigner_check,
)
from bellstat.cli import dumps_stable
from bellstat.reservoir import sample

AB = PairOutcome("a", +1, "b", +1)


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"[criterion {number}] FAIL: {description}")
        raise
    print(f"[criterion {number}] PASS: {description}")


def test_criterion_1_dice_arithmetic():
    with criterion(1, "dice multiplicities and probabilities, under 1 ms"):
        dice_multiplicity(7)  # warm-up
        start = time.perf_counter()
        m7 = dice_multiplicity(7)
        p7 = dice_probability(7)
        m2 = dice_multiplicity(2)
        p2 = dice_probability(2)
        total = sum(dice_multiplicity(t).omega for t in range(2, 13))
        elapsed = time.perf_counter() - start
        assert m7.omega == 6 and p7 == Fraction(1, 6)
        assert m2.omega == 1 and p2 == Fraction(1, 36)
        assert total == 36
        assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms"


def test_criterion_2_population_mapping():
    with criterion(2, "joint outcomes map to the exact population sets"):
        assert outcome_populations(PairOutcome("a", +1, "b", +1)) == {3, 4}
        assert outcome_populations(PairOutcome("a", +1, "c", +1)) == {2, 4}
        assert outcome_populations(PairOutcome("c", +1, "b", +1)) == {3, 7}


def test_criterion_3_classical_inequality_universality():
    with criterion(3, "inequality holds on 10^4 random tables, under 1 s"):
        rng = np.random.default_rng(1905)
        tables = rng.integers(0, 10**6 + 1, size=(10_000, 8))
        tables[tables.sum(axis=1) == 0, 0] = 1
        start = time.perf_counter()
        failures = sum(
            1
            for row in tables
            if not wigner_check(PopulationTable.from_counts(int(x) for x in row)).holds
        )
        elapsed = time.perf_counter() - start
        assert failures == 0
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_4_quantum_violation():
    with criterion(4, "60-degree violation vs state-vector oracle; 90-degree boundary"):
        start = time.perf_counter()
        (point,) = quantum_wigner_scan(math.radians(60))
        axes = AxisTriple.coplanar(math.radians(60))
        oracle_lhs = singlet_prediction_statevector(axes.a, axes.b).p_pp
        oracle_rhs = (
            singlet_prediction_statevector(axes.a, axes.c).p_pp
            + singlet_prediction_statevector(axes.c, axes.b).p_pp
        )
        assert abs(point.lhs - 0.375) <= 1e-12
        assert abs(point.rhs - 0.25) <= 1e-12
        assert abs(point.lhs - oracle_lhs) <= 1e-12
        assert abs(point.rhs - oracle_rhs) <= 1e-12
        assert point.violated

        grid = quantum_wigner_scan(math.radians(179), steps=179)
        flags = {round(math.degrees(p.theta)): p.violated for p in grid}
        assert flags[89] is True
        assert flags[90] is False
        assert flags[91] is False
        assert all(flags[d] == (d < 90) for d in range(1, 180))
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_5_monte_carlo_convergence():
    with criterion(5, "10^6-draw estimates within 4 standard errors, under 10 s each"):
        start = time.perf_counter()
        spec = ReservoirSpec.infinite(PopulationTable.uniform(), seed=2024)
        draws = sample(spec, 10**6)
        est = empirical_probability(draws, AB)
        assert abs(est.p_hat - 0.25) <= 4 * est.stderr
        freq = np.bincount(draws, minlength=9)[1:] / len(draws)
        stderr_pop = math.sqrt((1 / 8) * (7 / 8) / len(draws))
        assert all(abs(f - 1 / 8) <= 4 * stderr_pop for f in freq)
        elapsed_reservoir = time.perf_counter() - start
        assert elapsed_reservoir < 10.0, f"reservoir took {elapsed_reservoir:.2f} s"

        start = time.perf_counter()
        axes = AxisTriple.coplanar(math.radians(60))
        counts = singlet_sample(axes, 10**6, seed=2024, policy=("a", "b"))
        q_est = counts.estimate(AB)
        assert abs(q_est.p_hat - 0.375) <= 4 * q_est.stderr
        elapsed_singlet = time.perf_counter() - start
        assert elapsed_singlet < 10.0, f"singlet took {elapsed_singlet:.2f} s"


def test_criterion_6_marble_bag_second_law():
    with criterion(6, "every drain ends certain; draw marginals are exchangeable"):
        bags = [
            (2, 1, 0, 0, 0, 0, 0, 0),
            (1, 1, 1, 1, 1, 1, 1, 1),
            (5, 0, 3, 0, 2, 0, 0, 1),
            (25, 25, 25, 25, 0, 0, 0, 0),
        ]
        for counts in bags:
            bag = PopulationTable.from_counts(counts)
            for seed in range(10):
                populations, counts = depletion_trajectory(ReservoirSpec.finite(bag, seed=seed))
                last, before = populations[-1], counts[-2]
                assert before[last - 1] / before.sum() == 1.0

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


def test_criterion_7_multiplicity_entropy_algebra():
    with criterion(7, "entropy forms agree: uniform-Gibbs, additivity, product/entropy"):
        for omega in (2, 6, 36, 720):
            s_boltz = entropy_from_multiplicity(Multiplicity(omega)).s
            s_gibbs = gibbs_entropy([1.0 / omega] * omega).s
            assert abs(s_boltz - s_gibbs) <= 1e-9

        rng = np.random.default_rng(808)
        pairs = 10.0 ** rng.uniform(-6, 6, size=(1000, 2))
        for wa, wb in pairs:
            combined = combine(Multiplicity(wa), Multiplicity(wb))
            assert abs(math.log(combined.omega) - (math.log(wa) + math.log(wb))) <= 1e-9

        vectors = 10.0 ** rng.uniform(-2, 2, size=(10_000, 8))
        for row in vectors:
            v = MultiplicityVector.from_iterable(row)
            assert product_inequality(v).holds == entropy_inequality(v).holds


def test_criterion_8_counterexample_exists():
    with criterion(8, "a sum-form violator is found within a 10^4-sample budget"):
        found = find_multiplicity_counterexample(10_000, seed=42)
        assert found is not None
        report = multiplicity_inequality(found)
        assert not report.holds
        assert report.equal_multiplicity_precondition is False


def test_criterion_9_reproducibility():
    with criterion(9, "byte-identical payloads across runs and 1-vs-4 workers"):
        args = [
            sys.executable, "-m", "bellstat", "simulate",
            "--table", "2,1,1,1,1,1,1,1", "--samples", "70000", "--seed", "13",
        ]

        def payload(extra):
            result = subprocess.run(args + extra, capture_output=True, text=True)
            assert result.returncode == 0, result.stderr
            doc = json.loads(result.stdout)
            return dumps_stable({"config": doc["config"], "results": doc["results"]})

        first = payload([])
        second = payload([])
        one_worker = payload(["--workers", "1"])
        four_workers = payload(["--workers", "4"])
        assert first == second
        assert one_worker == four_workers == first
