"""``float_bytes`` against Python's own ``format(v, ".17g")``, value for value,
each padded row read back through ``test_bytes.texts``."""

import math
import struct
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bellstat.floattext import float_bytes
from test_bytes import texts


def assert_matches(values):
    values = np.asarray(values, dtype=np.float64)
    expected = [format(v, ".17g") for v in values.tolist()]
    got = texts(float_bytes(values))
    assert len(got) == len(expected)
    wrong = [(v, g, e) for v, g, e in zip(values.tolist(), got, expected) if g != e]
    assert not wrong, wrong[:5]


def neighbours(x, steps=4):
    """``x`` and the ``steps`` doubles on each side of it."""
    out, lo, hi = [x], x, x
    for _ in range(steps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out


def test_both_sides_of_each_power_of_ten_and_of_the_fast_range_ends():
    edges = [float(10**k) if k >= 0 else float(f"1e{k}") for k in range(-5, 18)] + [1e-4, 1e16]
    values = [y for x in edges for y in neighbours(x, 8)]
    assert_matches(values)
    assert_matches([-v for v in values])


def test_zeros_subnormals_extremes_and_negatives():
    tiny = struct.unpack("<d", struct.pack("<q", 1))[0]
    assert_matches([
        0.0, -0.0, tiny, -tiny, 2.2250738585072009e-308, sys.float_info.min,
        sys.float_info.max, -sys.float_info.max, -123.456, -0.5, -1.0, -99.99999999999999,
        -1e-4, -9.999999999999999e15, 1.0, 0.1, 1 / 3, 2 / 3,
    ])


def test_non_finite_values_format_as_python_does():
    assert_matches([math.nan, math.inf, -math.inf, 0.5])


def test_count_ratios():
    rng = np.random.default_rng(1)
    totals = rng.integers(1, 10**6 + 1, 50_000)
    counts = rng.integers(0, totals + 1)
    assert_matches(counts / totals)
    assert_matches([c / t for t in range(1, 200) for c in range(t + 1)])
    assert_matches(np.arange(10**6 + 1) / 10**6)


def test_scan_angles():
    for spacing, steps in ((179.0, 20_000), (60.0, 7), (1e-3, 1000), (179.99, 99_991)):
        theta = np.arange(1.0, steps + 1)
        theta *= spacing
        theta /= steps
        assert_matches(theta)
        assert_matches(np.sin(np.radians(theta)) ** 2 / 2)


def test_random_bit_patterns():
    rng = np.random.default_rng(2)
    bits = rng.integers(-(2**63), 2**63 - 1, 200_000, dtype=np.int64, endpoint=True)
    assert_matches(bits.view(np.float64))


def test_integers_and_halves_in_the_fast_range():
    assert_matches(np.arange(-5000, 5000) / 2)
    assert_matches(np.arange(1, 10_000) * 1e12)
    assert_matches(2.0 ** np.arange(-13, 54))


def test_an_empty_array_and_a_2d_array_in_order():
    assert texts(float_bytes(np.empty(0))) == []
    grid = np.array([[0.5, -2.0, 1e-7], [3.0, 0.0, 1e20]])
    assert texts(float_bytes(grid)) == [format(v, ".17g") for v in grid.ravel().tolist()]


_FAST = st.floats(min_value=1e-4, max_value=1e16, exclude_max=True) | st.floats(
    min_value=-1e16, max_value=-1e-4, exclude_min=True
)


@settings(max_examples=200)
@given(st.lists(_FAST, min_size=1, max_size=600))
def test_floats_in_the_fast_range(values):
    assert_matches(values)
