"""``int_bytes`` and ``float_bytes``: one padded row of bytes per value, which
without its pads is ``str(v)`` or ``format(v, ".17g")``."""

import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bellstat.floattext import PAD, float_bytes, int_bytes


def texts(rows):
    assert rows.dtype == np.uint8 and rows.ndim == 2
    return [row.tobytes().replace(PAD, b"").decode("ascii") for row in rows]


def test_int_bytes_at_each_power_of_ten_and_the_int64_ends():
    values = [0, 1, -1, 2**63 - 1, -(2**63)]
    values += [s * (10**k + d) for k in range(1, 19) for d in (-1, 0, 1) for s in (1, -1)]
    values = np.array(values, dtype=np.int64)
    assert texts(int_bytes(values)) == [str(v) for v in values.tolist()]
    for v in values.tolist():  # alone, so the block's widest value is this one
        assert texts(int_bytes(np.array([v]))) == [str(v)]


def test_int_bytes_of_uint64_values_at_and_above_2_63():
    values = np.array([2**63, 2**63 + 1, 2**64 - 1, 10**19, 0, 7], dtype=np.uint64)
    assert texts(int_bytes(values)) == [str(v) for v in values.tolist()]


def test_int_bytes_uses_the_groups_the_largest_value_needs():
    assert int_bytes(np.arange(10_000)).shape == (10_000, 4)
    assert int_bytes(np.arange(10_001)).shape == (10_001, 8)
    assert int_bytes(np.arange(-5, 5)).shape == (10, 5)  # a sign column
    assert int_bytes(np.zeros((0, 3), dtype=np.int64)).shape[0] == 0


@settings(max_examples=200)
@given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=300),
       st.sampled_from([np.int64, np.int32, np.int16, np.uint8]))
def test_int_bytes_of_any_integer_dtype(values, dtype):
    info = np.iinfo(dtype)
    values = np.array([min(max(v, info.min), info.max) for v in values], dtype=dtype)
    assert texts(int_bytes(values)) == [str(v) for v in values.tolist()]


def test_float_bytes_rows_of_every_kind_of_value():
    tiny = struct.unpack("<d", struct.pack("<q", 1))[0]
    values = np.array([0.0, -0.0, 0.5, -0.5, 1.0, 100.0, 1e15 + 0.5, 9999.5, tiny, -1e300,
                       math.nan, math.inf, -math.inf, 1e-4, 1e16, 123.456, -2.5e-5])
    rows = float_bytes(values)
    assert rows.shape[1] >= 24
    assert texts(rows) == [format(v, ".17g") for v in values.tolist()]


@settings(max_examples=200)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=300))
def test_float_bytes_of_any_finite_float(values):
    assert texts(float_bytes(np.array(values))) == [format(v, ".17g") for v in values]
