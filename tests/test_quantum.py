"""Tests for the singlet predictor, its state-vector oracle, and the sampler."""

import hashlib
import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellstat import (
    AXIS_LABELS,
    Axis,
    AxisTriple,
    PairOutcome,
    PopulationTable,
    ValidationError,
    quantum_wigner_scan,
    singlet_prediction,
    singlet_prediction_statevector,
    singlet_sample,
    wigner_check,
    wigner_check_probabilities,
)
from bellstat.quantum import _sign_counts
from bellstat.rng import stream

AB = PairOutcome("a", +1, "b", +1)


def random_unit(rng):
    v = rng.normal(size=3)
    return tuple(v / np.linalg.norm(v))


class TestSingletPrediction:
    def test_zero_angle_anticorrelates_perfectly(self):
        axes = AxisTriple.coplanar(math.radians(10))
        p = singlet_prediction(axes.a, axes.a)
        assert p.p_pp == 0.0
        assert p.p_mm == 0.0
        assert p.p_pm == pytest.approx(0.5, abs=1e-15)

    def test_opposite_axes_correlate_perfectly(self):
        a = Axis("a", (0.0, 0.0, 1.0))
        b = Axis("b", (0.0, 0.0, -1.0))
        p = singlet_prediction(a, b)
        assert p.p_pp == pytest.approx(0.5, abs=1e-15)
        assert p.p_pm == pytest.approx(0.0, abs=1e-15)

    def test_120_degrees(self):
        axes = AxisTriple.coplanar(math.radians(60))
        p = singlet_prediction(axes.a, axes.b)  # a-b angle is 120 degrees
        assert p.p_pp == pytest.approx(0.375, abs=1e-12)

    def test_agrees_with_statevector_oracle_on_grid(self):
        worst = 0.0
        for theta in np.linspace(1e-9, math.pi - 1e-9, 100):
            a = Axis("a", (0.0, 0.0, 1.0))
            b = Axis("b", (math.sin(theta), 0.0, math.cos(theta)))
            closed = singlet_prediction(a, b)
            oracle = singlet_prediction_statevector(a, b)
            worst = max(
                worst,
                max(
                    abs(x - y)
                    for x, y in zip(closed.as_tuple(), oracle.as_tuple())
                ),
            )
        assert worst <= 1e-12

    def test_agrees_with_statevector_oracle_off_plane(self):
        rng = np.random.default_rng(2718)
        for _ in range(50):
            a = Axis("a", random_unit(rng))
            b = Axis("b", random_unit(rng))
            closed = singlet_prediction(a, b)
            oracle = singlet_prediction_statevector(a, b)
            for x, y in zip(closed.as_tuple(), oracle.as_tuple()):
                assert abs(x - y) <= 1e-12

    def test_normalization_and_symmetry_at_every_angle(self):
        for theta in np.linspace(0.0, math.pi, 181):
            a = Axis("a", (0.0, 0.0, 1.0))
            b = Axis("b", (math.sin(theta), 0.0, math.cos(theta)))
            p = singlet_prediction(a, b)
            assert math.fsum(p.as_tuple()) == pytest.approx(1.0, abs=1e-12)
            assert p.p_pp == p.p_mm
            assert p.p_pm == p.p_mp

    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValidationError):
            Axis("a", (0.0, 0.0, 2.0))


class TestWignerScan:
    def test_60_degree_violation(self):
        (point,) = quantum_wigner_scan(math.radians(60))
        assert point.lhs == pytest.approx(0.375, abs=1e-12)
        assert point.rhs == pytest.approx(0.25, abs=1e-12)
        assert point.violated

    def test_90_degree_boundary_has_no_violation(self):
        (point,) = quantum_wigner_scan(math.radians(90))
        assert point.lhs == pytest.approx(0.5, abs=1e-12)
        assert point.rhs == pytest.approx(0.5, abs=1e-12)
        assert not point.violated

    def test_120_degrees_holds(self):
        (point,) = quantum_wigner_scan(math.radians(120))
        assert point.lhs == pytest.approx(0.375, abs=1e-12)
        assert point.rhs == pytest.approx(0.75, abs=1e-12)
        assert not point.violated

    def test_violation_region_on_one_degree_grid(self):
        points = quantum_wigner_scan(math.radians(179), steps=179)
        for k, point in enumerate(points, start=1):
            assert point.violated == (k < 90), f"unexpected flag at {k} degrees"

    def test_scan_values_match_statevector_oracle(self):
        for point in quantum_wigner_scan(math.radians(170), steps=17):
            axes = AxisTriple.coplanar(point.theta)
            lhs = singlet_prediction_statevector(axes.a, axes.b).p_pp
            rhs = (
                singlet_prediction_statevector(axes.a, axes.c).p_pp
                + singlet_prediction_statevector(axes.c, axes.b).p_pp
            )
            assert point.lhs == pytest.approx(lhs, abs=1e-12)
            assert point.rhs == pytest.approx(rhs, abs=1e-12)

    @pytest.mark.parametrize("spacing", [0.0, math.pi, -0.5, 4.0])
    def test_out_of_range_spacing_rejected(self, spacing):
        with pytest.raises(ValidationError):
            quantum_wigner_scan(spacing)

    def test_zero_steps_rejected(self):
        with pytest.raises(ValidationError):
            quantum_wigner_scan(1.0, steps=0)


class TestScanColumns:
    def test_columns_are_the_points(self):
        scan = quantum_wigner_scan(math.radians(137), 1001)
        assert len(scan) == 1001
        assert list(scan) == list(zip(scan.theta, scan.lhs, scan.rhs, scan.violated))
        assert {type(x) for x in scan.theta + scan.lhs + scan.rhs} == {float}
        assert {type(x) for x in scan.violated} == {bool}


class TestPinnedScan:
    """SHA-256 of every scan point packed as ``<3d?`` (theta, lhs, rhs,
    violated).  The digests were taken from the scan that built an
    ``AxisTriple`` and three ``SingletPrediction``s per step, so a kernel that
    moves any value by one bit fails here."""

    DIGESTS = {
        (179, 20_000): "38cbfcb409742f5bf1c38372902afa136621570cd0f8a29ae777f4b391b9073e",
        (60, 20_000): "994bae19e675d54d3b9118fa57dc387d3a5b9661cf6e951732803778ad431865",
        (137, 33_333): "4b3514ac17233565743f93e6b0071305c2789318491ab65f67f25ed197d0b579",
    }

    @pytest.mark.parametrize("spacing_deg, steps", DIGESTS)
    def test_scan_matches_pinned_digest(self, spacing_deg, steps):
        digest = hashlib.sha256()
        for point in quantum_wigner_scan(math.radians(spacing_deg), steps):
            digest.update(struct.pack("<3d?", point.theta, point.lhs, point.rhs, point.violated))
        assert digest.hexdigest() == self.DIGESTS[spacing_deg, steps]


class TestScanOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        spacing=st.floats(0.0, math.pi, exclude_min=True, exclude_max=True),
        steps=st.integers(1, 50),
    )
    def test_scan_agrees_with_statevector_and_the_violation_region(self, spacing, steps):
        """lhs and rhs match projector expectation values on the explicit
        singlet state, and a violation is flagged exactly for theta < 90
        degrees.  Two bands are left out: 1e-9 around 90 degrees, where
        rounding decides, and theta <= 1e-5, where the true margin
        lhs - rhs ~ theta**2 / 4 falls below the 1e-12 flag tolerance."""
        points = quantum_wigner_scan(spacing, steps)
        assert len(points) == steps
        for point in points:
            axes = AxisTriple.coplanar(point.theta)
            lhs = singlet_prediction_statevector(axes.a, axes.b).p_pp
            rhs = (
                singlet_prediction_statevector(axes.a, axes.c).p_pp
                + singlet_prediction_statevector(axes.c, axes.b).p_pp
            )
            assert abs(point.lhs - lhs) <= 1e-12
            assert abs(point.rhs - rhs) <= 1e-12
            if point.theta > math.pi / 2 + 1e-9:
                assert not point.violated
            elif 1e-5 < point.theta < math.pi / 2 - 1e-9:
                assert point.violated


class TestSingletSampler:
    def test_same_axis_pairs_never_agree_in_sign(self):
        axes = AxisTriple.coplanar(math.radians(60))
        counts = singlet_sample(axes, 30_000, seed=4, policy="uniform")
        for axis in range(3):
            assert counts.counts[axis, axis, 0, 0] == 0  # (+, +)
            assert counts.counts[axis, axis, 1, 1] == 0  # (-, -)

    def test_fixed_pair_estimate_matches_prediction(self):
        axes = AxisTriple.coplanar(math.radians(60))
        counts = singlet_sample(axes, 100_000, seed=9, policy=("a", "b"))
        est = counts.estimate(AB)
        assert est.n == 100_000
        assert abs(est.p_hat - 0.375) <= 4 * est.stderr

    def test_uniform_policy_estimate_matches_prediction(self):
        axes = AxisTriple.coplanar(math.radians(60))
        counts = singlet_sample(axes, 90_000, seed=12, policy="uniform")
        est = counts.estimate(AB)
        assert abs(est.p_hat - 0.375) <= 4 * est.stderr

    def test_alice_marginal_is_unbiased(self):
        axes = AxisTriple.coplanar(math.radians(47))
        counts = singlet_sample(axes, 80_000, seed=21, policy="uniform")
        marginal = counts.alice_sign_marginal()
        stderr = math.sqrt(0.25 / counts.n)
        assert abs(marginal - 0.5) <= 4 * stderr

    def test_deterministic_given_seed(self):
        axes = AxisTriple.coplanar(math.radians(60))
        a = singlet_sample(axes, 5000, seed=77)
        b = singlet_sample(axes, 5000, seed=77)
        assert np.array_equal(a.counts, b.counts)

    def test_unknown_policy_rejected(self):
        axes = AxisTriple.coplanar(math.radians(60))
        for policy in ("alternating", "round-robin"):
            with pytest.raises(ValidationError):
                singlet_sample(axes, 10, seed=1, policy=policy)

    def test_zero_samples_rejected(self):
        axes = AxisTriple.coplanar(math.radians(60))
        with pytest.raises(ValidationError):
            singlet_sample(axes, 0, seed=1)

    def test_missing_axis_pair_estimate_rejected(self):
        axes = AxisTriple.coplanar(math.radians(60))
        counts = singlet_sample(axes, 100, seed=1, policy=("a", "b"))
        with pytest.raises(ValidationError):
            counts.estimate(PairOutcome("b", +1, "c", +1))


class TestPinnedCounts:
    """SHA-256 of ``singlet_sample(...).counts`` as int64 bytes, concatenated
    over seeds {0, 2**64 - 1} and n in {1, 9, 12345}.  The digests were taken
    from the mask-and-dict sampler that the bincount one replaced, so any
    change that moves a draw or a count fails here."""

    DIGESTS = {
        ("uniform", 1): "8af1b5466c88932e429dcd5d58ee2d353e2fd0f843ff958f99eef2413e5479a1",
        ("uniform", 45): "b7025bd14abe273725ed2b0b6a53b63cf61dd81385ca0f6319436f55ca8ed749",
        ("uniform", 60): "ae04c72321563872bdfadbc5aeb77ed8cd4456f2bccab10f86457b1b84f32ee6",
        ("uniform", 137): "408907a0e922350c938f6c3449b6df11b976ac09d6f9a7988dd5a62f29fa9a4b",
        (("a", "b"), 1): "3efe2f8a120ae2474d2adeadfa92cfda376726f7ce7261899b3708d9b70e43be",
        (("a", "b"), 45): "87cb0aa0c1f38fdb1c8e3175caac40d86edb5344f8c75d07328343220a55f847",
        (("a", "b"), 60): "5f214beb1a2ecd756d4ff15fa234e4bb730399e9b54a23eabc33908fff38b1c4",
        (("a", "b"), 137): "abbf80e329892911f484a86f8b5c7db4518a022473b39231714f16d0cb5991ce",
        (("c", "a"), 1): "23e988b81682f5504644a9e9c470ac8adaee923d5a3efe6bb9a83296b358649f",
        (("c", "a"), 45): "b9654a9c893dd8ae9ed8fb3f0a442125baf7eb8e46661b73c4c9667935904d18",
        (("c", "a"), 60): "007ae9b1a6720ad0585fd05769fc02135b358aa62b13331fcfd65d9773554f6c",
        (("c", "a"), 137): "267df1236bd3bdf5bde57297444e90c9b2b0bc27fee0ba7cea56f5684343fca2",
    }

    @pytest.mark.parametrize("policy, spacing_deg", DIGESTS)
    def test_counts_match_pinned_digest(self, policy, spacing_deg):
        axes = AxisTriple.coplanar(math.radians(spacing_deg))
        digest = hashlib.sha256()
        for seed in (0, 2**64 - 1):
            for n in (1, 9, 12345):
                counts = singlet_sample(axes, n, seed, policy).counts
                assert counts.shape == (3, 3, 2, 2) and counts.dtype == np.int64
                assert counts.sum() == n
                digest.update(counts.tobytes())
        assert digest.hexdigest() == self.DIGESTS[policy, spacing_deg]


def reference_sign_counts(u, thresholds):
    """The ``searchsorted`` + ``bincount`` cell tally that threshold counts replaced."""
    edges = np.append(thresholds, 1.0)
    return np.bincount(np.searchsorted(edges, u, side="right"), minlength=4).tolist()


def reference_singlet_counts(axes, n, seed, policy="uniform"):
    """The sampler before threshold counts, on the same stream."""
    rng = stream(seed)
    if policy == "uniform":
        choices = rng.integers(0, 3, size=(n, 2))
        per_pair = np.bincount(3 * choices[:, 0] + choices[:, 1], minlength=9)
    else:
        per_pair = np.zeros(9, dtype=np.int64)
        per_pair[3 * AXIS_LABELS.index(policy[0]) + AXIS_LABELS.index(policy[1])] = n
    counts = np.zeros((9, 4), dtype=np.int64)
    for pair, m in enumerate(per_pair.tolist()):
        if m:
            prediction = singlet_prediction(
                axes.axis(AXIS_LABELS[pair // 3]), axes.axis(AXIS_LABELS[pair % 3])
            )
            thresholds = np.cumsum(prediction.as_tuple())[:3]
            counts[pair] = reference_sign_counts(rng.random(m), thresholds)
    return counts.reshape(3, 3, 2, 2)


class TestSignCounts:
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
        assert _sign_counts(u, thresholds) == reference_sign_counts(u, thresholds)

    @pytest.mark.parametrize("geometry", [
        AxisTriple.coplanar(math.radians(60)),
        AxisTriple.coplanar(1e-9),  # theta -> 0
        AxisTriple.coplanar(math.pi / 2 - 1e-9),  # a-b angle -> pi
        AxisTriple(Axis("a", (0.0, 0.0, 1.0)), Axis("b", (0.0, 0.0, -1.0)), Axis("c", (1.0, 0.0, 0.0))),
    ])
    @pytest.mark.parametrize("policy", ["uniform", ("a", "b"), ("c", "c")])
    def test_sampler_matches_the_searchsorted_sampler(self, geometry, policy):
        for seed in (0, 1, 2**64 - 1):
            counts = singlet_sample(geometry, 30_001, seed, policy).counts
            assert np.array_equal(counts, reference_singlet_counts(geometry, 30_001, seed, policy))


class TestClassicalUnreachability:
    def test_quantum_triple_violates_the_count_bound(self):
        report = wigner_check_probabilities(0.375, 0.125, 0.125)
        assert not report.holds
        assert report.margin == pytest.approx(-0.125, abs=1e-12)

    def test_count_margin_is_always_nonnegative(self):
        # the margin identity (N_2 + N_7) / total rules out any table
        # reproducing a violating triple
        rng = np.random.default_rng(515)
        for _ in range(100):
            counts = tuple(int(x) for x in rng.integers(0, 500, size=8))
            if sum(counts) == 0:
                counts = (1,) + counts[1:]
            table = PopulationTable.from_counts(counts)
            report = wigner_check(table)
            identity = Fraction(counts[1] + counts[6], sum(counts))
            assert report.margin == pytest.approx(float(identity), abs=1e-15)
            assert identity >= 0
