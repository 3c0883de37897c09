"""Tests for the singlet predictor, its state-vector oracle, and the sampler."""

import hashlib
import math
import struct
import tracemalloc
from decimal import Decimal, localcontext
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
from bellstat.populations import WIGNER_OUTCOMES, holds
from bellstat.reservoir import threshold_counts
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

    @pytest.mark.parametrize("steps", [2.5, 2.0, True, False, "3", None])
    def test_non_integer_steps_rejected(self, steps):
        with pytest.raises(ValidationError, match="steps must be an integer"):
            quantum_wigner_scan(1.0, steps=steps)

    def test_numpy_integer_steps_accepted(self):
        scan, expected = quantum_wigner_scan(1.0, np.int64(3)), quantum_wigner_scan(1.0, 3)
        for name in ("theta", "lhs", "rhs", "violated"):
            assert getattr(scan, name).tolist() == getattr(expected, name).tolist()


class TestScanColumns:
    def test_columns_are_the_points(self):
        scan = quantum_wigner_scan(math.radians(137), 1001)
        assert len(scan) == 1001
        columns = (scan.theta, scan.lhs, scan.rhs, scan.violated)
        assert [(type(c), c.dtype, c.shape) for c in columns] == [
            (np.ndarray, np.float64, (1001,))
        ] * 3 + [(np.ndarray, np.bool_, (1001,))]
        points = list(scan)
        assert points == list(zip(*(c.tolist() for c in columns)))
        assert {type(x) for point in points for x in point[:3]} == {float}
        assert {type(point.violated) for point in points} == {bool}


def same_sign(angle):
    """The singlet's P(+u; +v) = (1/2) sin^2(angle / 2), written out."""
    return 0.5 * math.sin(angle / 2.0) ** 2


def per_step_scan(spacing, steps):
    """The scan as one loop over steps, each the formula at the step's
    nominal angles (2t, t, t): the reference the columnar scan must match
    bit for bit."""
    theta, lhs, rhs, violated = [], [], [], []
    for k in range(1, steps + 1):
        t = float(spacing) * k / steps
        ab, ac, cb = same_sign(2.0 * t), same_sign(t), same_sign(t)
        theta.append(t)
        lhs.append(ab)
        rhs.append(ac + cb)
        violated.append(ab > ac + cb + 1e-12)
    return theta, lhs, rhs, violated


def assert_scan_is(scan, expected):
    columns = [c.tolist() for c in (scan.theta, scan.lhs, scan.rhs, scan.violated)]
    assert [list(map(float.hex, c)) for c in columns[:3]] == [
        list(map(float.hex, c)) for c in expected[:3]
    ]
    assert columns[3] == expected[3]
    assert [c.dtype for c in (scan.theta, scan.lhs, scan.rhs, scan.violated)] == [
        np.float64, np.float64, np.float64, np.bool_
    ]


class TestColumnarScan:
    """The one-pass columnar scan against a per-step loop of the formula."""

    @settings(max_examples=40, deadline=None)
    @given(
        spacing=st.one_of(
            st.floats(0.0, math.pi, exclude_min=True, exclude_max=True),
            st.sampled_from([
                5e-324, 1e-320, 1e-300, 1e-8, math.pi / 2,
                math.pi - 1e-15, math.nextafter(math.pi, 0.0),
            ]),
        ),
        steps=st.one_of(
            st.integers(1, 40),
            # The edges of the 2,048-step blocks the scan once filled.
            st.sampled_from([2047, 2048, 2049, 4097]),
        ),
    )
    def test_bit_for_bit_with_the_per_step_loop(self, spacing, steps):
        assert_scan_is(quantum_wigner_scan(spacing, steps), per_step_scan(spacing, steps))

    def test_179_degrees_at_20000_steps(self):
        """A grid on which libm's pow(x, 2) and x*x differ (for 28 of its
        40,000 squares with glibc 2.36), so a square taken as a product
        fails here."""
        spacing = math.radians(179)
        assert_scan_is(quantum_wigner_scan(spacing, 20_000), per_step_scan(spacing, 20_000))

    @pytest.mark.parametrize("steps", [10**4, 10**5])
    def test_temporaries_take_at_most_8_bytes_a_step(self, steps):
        """Beyond the four columns it returns, the one pass holds at most one
        float64 column at a time: a second step-sized temporary fails here."""
        tracemalloc.start()
        try:
            scan = quantum_wigner_scan(math.radians(179), steps)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(scan) == steps
        assert peak - retained <= 8 * steps + 64 * 1024


class TestPinnedScan:
    """SHA-256 of every scan point packed as ``<3d?`` (theta, lhs, rhs,
    violated).  The digests were taken from the scan that evaluates the
    formula at each step's nominal angles, and :func:`per_step_scan` gives
    the same bytes, so a kernel that moves any value by one bit fails here."""

    DIGESTS = {
        (179, 20_000): "d0c3c68a90e75fab49776303d5211c7bc1d92a4e16cac90cb5683a6518bfee7f",
        (60, 20_000): "8d74efcc02106aa068fe0aca729d717a1d917e1c523f8a0d6ecfc7e247db0800",
        (137, 33_333): "f29fa00c9d0a23b34db74424d50311f3182ccb22bcc10c41bd9550bc8345d8d4",
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


class TestOneVerdict:
    @settings(max_examples=200, deadline=None)
    @given(spacing=st.floats(0.0, math.pi, exclude_min=True, exclude_max=True)
           | st.floats(1e-6, 3e-6))
    def test_scan_step_is_the_explicit_axes_check(self, spacing):
        """A one-step scan gives the lhs and rhs, bit for bit, that
        ``wigner_check_probabilities`` gets from the formula at 2 theta,
        theta and theta; they lie within 8 ulp of ``singlet_prediction`` on
        the same coplanar axes; and the step is flagged exactly where the one
        verdict fails.  Draws in [1e-6, 3e-6] rad put lhs - rhs near the
        tolerance."""
        (point,) = quantum_wigner_scan(spacing, 1)
        check = wigner_check_probabilities(
            same_sign(2.0 * spacing), same_sign(spacing), same_sign(spacing)
        )
        assert (point.lhs.hex(), point.rhs.hex()) == (check.lhs.hex(), check.rhs.hex())
        axes = AxisTriple.coplanar(spacing)
        kernel = wigner_check_probabilities(*(
            singlet_prediction(axes.axis(o.alice_axis), axes.axis(o.bob_axis))
            .probability(o.alice_sign, o.bob_sign)
            for o in WIGNER_OUTCOMES
        ))
        assert abs(point.lhs - kernel.lhs) <= 8 * math.ulp(kernel.lhs)
        assert abs(point.rhs - kernel.rhs) <= 8 * math.ulp(kernel.rhs)
        assert point.violated is (not holds(point.lhs, point.rhs)) is (not check.holds)


def decimal_sin(x):
    """sin of a Decimal by its Taylor series, at the context's precision."""
    term, total, n = x, x, 1
    while True:
        n += 2
        term = -term * x * x / (n * (n - 1))
        if total + term == total:
            return total
        total += term


def ulps_off(value, exact):
    """|value - exact| in units of the last place of ``exact`` rounded."""
    return abs(Decimal(value) - exact) / Decimal(math.ulp(float(exact)))


def assert_scan_within_3_ulp(scan):
    """Each lhs and rhs within 3 ulp of (1/2) sin^2(theta) and sin^2(theta/2),
    taken to 60 digits at the scan's own float theta."""
    with localcontext() as ctx:
        ctx.prec = 60
        for point in scan:
            theta = Decimal(point.theta)  # exact
            sin_theta, sin_half = decimal_sin(theta), decimal_sin(theta / 2)
            assert ulps_off(point.lhs, sin_theta * sin_theta / 2) <= 3, point
            assert ulps_off(point.rhs, sin_half * sin_half) <= 3, point


class TestScanAccuracy:
    """An oracle independent of libm: stdlib ``decimal`` with a Taylor-series
    sine.  A scan that takes the kernel on the rounded coplanar direction
    vectors is up to 5.3 ulp off on the 179-degree grid and fails here."""

    def test_179_degrees_at_20000_steps(self):
        scan = quantum_wigner_scan(math.radians(179), 20_000)
        assert_scan_within_3_ulp(list(scan)[::7])

    @settings(max_examples=40, deadline=None)
    @given(
        spacing=st.one_of(
            st.floats(0.0, math.pi, exclude_min=True, exclude_max=True),
            st.sampled_from([5e-324, 1e-300, 1e-8, math.pi / 2, math.nextafter(math.pi, 0.0)]),
        ),
        steps=st.integers(1, 40),
    )
    def test_generated_spacings(self, spacing, steps):
        assert_scan_within_3_ulp(quantum_wigner_scan(spacing, steps))


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
        marginal = int(counts.counts[:, :, 0].sum()) / counts.n  # Alice measured +1
        stderr = math.sqrt(0.25 / counts.n)
        assert abs(marginal - 0.5) <= 4 * stderr

    def test_deterministic_given_seed(self):
        axes = AxisTriple.coplanar(math.radians(60))
        a = singlet_sample(axes, 5000, seed=77)
        b = singlet_sample(axes, 5000, seed=77)
        assert np.array_equal(a.counts, b.counts)

    def test_axis_pair_counts_are_the_first_draw_of_the_stream(self):
        # the uniform policy's nine pair counts are one nine-way multinomial,
        # drawn first from stream(seed)
        axes = AxisTriple.coplanar(math.radians(60))
        for n in (1, 7, 10**8):
            counts = singlet_sample(axes, n, seed=8).counts
            assert counts.sum(axis=(2, 3)).ravel().tolist() == (
                stream(8).multinomial(n, [1 / 9] * 9).tolist()
            )

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
    from the multinomial sampler, and :func:`reference_singlet_counts` gives
    the same counts, so any change that moves a draw or a count fails here."""

    DIGESTS = {
        ("uniform", 1): "b8281e735ccc188e76bec40274891d29457579e52a1cb88f5338d7a14da2b2d3",
        ("uniform", 45): "ffb44224a12af776c7a1750b73a045c3866b623a6090f7d5f832284e1611e263",
        ("uniform", 60): "609c161bc375eae314d057091c2cbaaae7f1679ccf335e0108f95a8369887b70",
        ("uniform", 137): "dea879a7dfda7897ed90739dfcb5eee1fc7599f1e572fca18f6a1ee184950bc4",
        (("a", "b"), 1): "f7b4f7c71bf49aef4dadf563e83dc66ebee11890e29708c3e4819bff4f6a01ae",
        (("a", "b"), 45): "18945ee1f4ad9c9bf43c1face5fa6921dd70fb0b05f572e70185329a6e68e43e",
        (("a", "b"), 60): "1a201b45252b99f65d752d88d254e0aaee0052b57acef8ff37c975b86ac35b7f",
        (("a", "b"), 137): "1b1c3be5dec65836c2b0a8e530e07f77b497ee71dec83740cd6d5771b5ee13e2",
        (("c", "a"), 1): "6d208217141689c6315f83ae2b7d9b42db59fdc864588e64f0e337739d617555",
        (("c", "a"), 45): "c070c7133210258547a6953b0e5d3befc6b8b34eb961676da5ece915b6a9a013",
        (("c", "a"), 60): "a011fe74026fb6f6c912d6bcddbce92c179698b1df1d729a4b921c0b61e8cdd0",
        (("c", "a"), 137): "3a0f49a63b0f075759fa594b99bbb3f195ed82fc2c494bba00eed6f91dfce747",
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
        assert threshold_counts(u, thresholds) == reference_sign_counts(u, thresholds)

    @pytest.mark.parametrize("n, policy", [
        (2**16 - 1, "uniform"), (2**16, "uniform"), (2**16 + 1, "uniform"),
        (2**16 - 1, ("b", "c")), (2**16, ("b", "c")), (2**16 + 1, ("b", "c")),
        (9 * 2**16 + 1, "uniform"),  # some axis pair's count crosses 2**16 too
    ])
    def test_blocked_draws_match_one_call(self, n, policy):
        """Either side of 2**16, the block size of the per-sample sampler this
        one replaced, each group of counts is one ``multinomial`` call on the
        stream: the nine axis-pair counts, then each drawn pair's sign counts."""
        axes, seed = AxisTriple.coplanar(math.radians(60)), 2**64 - 1
        rng = stream(seed)
        if policy == "uniform":
            per_pair = rng.multinomial(n, [1 / 9] * 9)
        else:
            per_pair = np.zeros(9, dtype=np.int64)
            per_pair[3 * AXIS_LABELS.index(policy[0]) + AXIS_LABELS.index(policy[1])] = n
        expected = np.zeros((9, 4), dtype=np.int64)
        for pair, m in enumerate(per_pair.tolist()):
            if m:
                prediction = singlet_prediction(
                    axes.axis(AXIS_LABELS[pair // 3]), axes.axis(AXIS_LABELS[pair % 3])
                )
                expected[pair] = rng.multinomial(m, prediction.as_tuple())
        counts = singlet_sample(axes, n, seed, policy).counts
        assert np.array_equal(counts, expected.reshape(3, 3, 2, 2))
        assert np.array_equal(counts, reference_singlet_counts(axes, n, seed, policy))


def binomial_chain(rng, n, probabilities):
    """``rng.multinomial(n, probabilities)`` written out as numpy draws it:
    each cell but the last takes Binomial(left, p / remaining) of the ``left``
    samples not yet placed, ``remaining`` being 1 less the earlier cells'
    probabilities, until none are left; the last cell takes the rest."""
    counts, left, remaining = [0] * len(probabilities), n, 1.0
    for j, p in enumerate(probabilities[:-1]):
        counts[j] = int(rng.binomial(left, p / remaining))
        left -= counts[j]
        if left == 0:
            break
        remaining -= p
    counts[-1] = left
    return counts


def reference_singlet_counts(axes, n, seed, policy="uniform"):
    """The sampler's contract as binomial draws on the same stream: the nine
    axis-pair counts, then each drawn pair's four sign counts."""
    rng = stream(seed)
    if policy == "uniform":
        per_pair = binomial_chain(rng, n, [1 / 9] * 9)
    else:
        per_pair = [0] * 9
        per_pair[3 * AXIS_LABELS.index(policy[0]) + AXIS_LABELS.index(policy[1])] = n
    counts = np.zeros((9, 4), dtype=np.int64)
    for pair, m in enumerate(per_pair):
        if m:
            prediction = singlet_prediction(
                axes.axis(AXIS_LABELS[pair // 3]), axes.axis(AXIS_LABELS[pair % 3])
            )
            counts[pair] = binomial_chain(rng, m, prediction.as_tuple())
    return counts.reshape(3, 3, 2, 2)


GEOMETRIES = [
    AxisTriple.coplanar(math.radians(60)),
    AxisTriple.coplanar(1e-9),  # theta -> 0
    AxisTriple.coplanar(math.pi / 2 - 1e-9),  # a-b angle -> pi
    AxisTriple(Axis("a", (0.0, 0.0, 1.0)), Axis("b", (0.0, 0.0, -1.0)), Axis("c", (1.0, 0.0, 0.0))),
]


def z_scores(counts, trials, p):
    """(counts - trials p) / sqrt(trials p (1 - p)), for cells with 0 < p < 1."""
    return (counts - trials * p) / np.sqrt(trials * p * (1.0 - p))


class TestMultinomialDraws:
    """The sampler's counts are multinomial draws on ``stream(seed)``."""

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("policy", ["uniform", ("a", "b"), ("c", "c")])
    def test_sampler_matches_the_binomial_chain(self, geometry, policy):
        for seed in [*range(300), 2**64 - 1]:
            for n in (1, 9, 12345, 10**6, 10**8):
                counts = singlet_sample(geometry, n, seed, policy).counts
                assert np.array_equal(counts, reference_singlet_counts(geometry, n, seed, policy))

    @pytest.mark.parametrize("geometry", GEOMETRIES[1:])
    def test_degenerate_geometries_at_the_sample_cap(self, geometry):
        counts = singlet_sample(geometry, 10**8, seed=5).counts
        assert counts.dtype == np.int64 and counts.sum() == 10**8
        for axis in range(3):
            assert counts[axis, axis, 0, 0] == counts[axis, axis, 1, 1] == 0

    def test_counts_follow_their_binomial_laws(self):
        """Over 200 seeds, each axis-pair count is Binomial(n, 1/9), and each
        sign count Binomial(m, p) for its pair's count m and predicted p:
        every z-score is within 5, and per cell the 200 z-scores have a mean
        and a mean square within 5 standard errors of 0 and 1.  Cells with
        p = 0 hold no sample."""
        axes, n = AxisTriple.coplanar(math.radians(60)), 90_000
        p = np.array([
            singlet_prediction(axes.axis(alice), axes.axis(bob)).as_tuple()
            for alice in AXIS_LABELS for bob in AXIS_LABELS
        ])
        drawn = p > 0.0
        pair_z, sign_z = [], []
        for seed in range(200):
            counts = singlet_sample(axes, n, seed).counts.reshape(9, 4)
            per_pair = counts.sum(axis=1)
            assert not counts[~drawn].any()
            pair_z.append(z_scores(per_pair, n, 1 / 9))
            trials = np.repeat(per_pair, 4).reshape(p.shape)
            sign_z.append(z_scores(counts[drawn], trials[drawn], p[drawn]))
        for z in map(np.array, (pair_z, sign_z)):
            assert np.abs(z).max() <= 5.0
            assert np.abs(z.mean(axis=0)).max() <= 5.0 / math.sqrt(200)
            assert np.abs((z**2).mean(axis=0) - 1.0).max() <= 5.0 * math.sqrt(2 / 200)


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
