"""Exact ``%.17g`` texts of a float64 array, computed in numpy.

:func:`float_texts` returns ``format(v, ".17g")`` for every value of an
array.  The values with ``1e-4 <= |v| < 1e16``, which ``%.17g`` writes in
fixed notation, take the vectorized path; the others (zeros, exponent
notation, subnormals, non-finite values) are formatted one by one.

The vectorized path finds the 17 significant digits of ``|v|`` as the
integer ``D = round(|v| * 10**s)`` with ``10**16 <= D < 10**17``, so
``E = 16 - s`` is the decimal exponent.  For ``s <= 22`` the power ``10**s``
is exact in a double, and Dekker's error-free product (Dekker, *Numer.
Math.* 18, 1971) gives ``|v| * 10**s`` exactly as ``hi + lo``.  Where
``D >= 10**16 > 2**53``, ``hi`` is an even integer and ``|lo| <= 8``, so
``D = hi + rint(lo)`` and ``rint``'s round-half-even is the tie rule of a
correctly rounded conversion: no bignum is needed (cf. Gay, "Correctly
rounded binary-decimal and decimal-binary conversions", 1990).  The guess
``E = floor(log10|v|)`` is off by at most one; it is stepped until ``D``
has 17 digits.

The digits come from a table of 4-digit groups, read as one uint32 each.
Each value gets a 40-byte row of ten groups: its digits, its digits after
the first with trailing zeros blanked (a blank is byte 0x01), and a tail of
``"."`` (blank when no fraction digit is left), ``"-"`` and NUL.  One
gather per (exponent, sign) picks the text's bytes out of the row, then a
NUL; one ``translate`` deletes the blanks and one ``split`` cuts the texts.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_BLANK, _TAIL = 10_000, 20_000

# Values per numpy pass: its temporaries, under 100 KB each, stay in cache
# and on malloc's heap.  Passes of 8,192 values ran ~10% slower.
_CHUNK = 2048

# Byte columns of a value's row: digit k at 3 + k (three "0"s before it),
# digit k >= 1 blanked at 19 + k, then ".", "-", NUL and a blank.
_DOT, _MINUS, _END, _PAD = 36, 37, 38, 39
_WIDTH = 24  # the longest text, "-0.000" and 17 digits, and its NUL
_E_MIN = -4


def _layout(e: int, negative: bool) -> list[int]:
    """The row column of each text byte for exponent ``e`` and sign."""
    sign = [_MINUS] if negative else []
    if e >= 0:
        cols = [3 + k for k in range(e + 1)] + [_DOT] + [19 + k for k in range(e + 1, 17)]
    else:
        cols = [0, _DOT] + [0] * (-e - 1) + [3] + [19 + k for k in range(1, 17)]
    cols = sign + cols + [_END]
    return cols + [_PAD] * (_WIDTH - len(cols))


# One gather per (exponent, sign), at (e - _E_MIN) * 2 + negative.
_LAYOUTS = np.array(
    [_layout(e, negative) for e in range(_E_MIN, 16) for negative in (False, True)],
    dtype=np.intp,
)

# 10**s for s = 0..22, each exact in a double, and its Veltkamp halves.
_SPLIT = 134217729.0  # 2**27 + 1
_POW10 = np.array([float(10**s) for s in range(23)])
_POW10_HIGH = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LOW = _POW10 - _POW10_HIGH

# D's fraction is its last 16 - e digits, D mod _FRACTION[16 - e].  Where
# e < 0 every digit is a fraction digit, and 10**18 > D keeps them all.
_FRACTION = np.array([10 ** min(k, 18) for k in range(21)])


@cache
def _groups() -> np.ndarray:
    """Four bytes a group, read as one uint32: 0..9999 as four digits, then
    10,000 + g with g's trailing zeros blanked, then the tails ".-\0" and
    (no fraction left) "\1-\0".  Built on first use, a column at a time."""
    table = np.empty((20_002, 4), dtype=np.uint8)
    g = np.arange(10_000)
    for k in range(4):
        table[:_BLANK, k] = np.divmod(g, 10 ** (3 - k))[0] % 10 + ord("0")
        table[_BLANK:_TAIL, k] = np.where(g % 10 ** (4 - k) == 0, 1, table[:_BLANK, k])
    table[_TAIL:] = np.frombuffer(b".-\0\1\1-\0\1", dtype=np.uint8).reshape(2, 4)
    return table.view(np.uint32).ravel()


def _scaled(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``round(a * 10**s)``, correctly rounded where it is at least 10**16."""
    hi = a * _POW10[s]
    c = a * _SPLIT  # Veltkamp: a = ah + al, each half 26 bits
    ah = c - (c - a)
    al = a - ah
    ph, pl = _POW10_HIGH[s], _POW10_LOW[s]
    lo = al * pl - (((hi - ah * ph) - al * ph) - ah * pl)
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _fixed_texts(v: np.ndarray) -> list[str]:
    """The ``%.17g`` texts of values with ``1e-4 <= |v| < 1e16``."""
    a = np.abs(v)
    e = (np.log10(a) + 5).astype(np.int64) - 5  # floor, as log10(a) >= -4
    d = _scaled(a, 16 - e)
    while (off := np.flatnonzero((d < 10**16) == (d < 10**17))).size:
        e[off] += 1 - 2 * (d[off] < 10**16)
        d[off] = _scaled(a[off], 16 - e[off])
    upper, lower = np.divmod(d, 10**8)
    lead, upper = np.divmod(upper, 10**8)
    g1, g2 = np.divmod(upper, 10**4)
    g3, g4 = np.divmod(lower, 10**4)
    groups = (
        lead, g1, g2, g3, g4,
        # A group's trailing zeros are blanked when every later group is 0.
        g1 + _BLANK * (lower + g2 == 0), g2 + _BLANK * (lower == 0), g3 + _BLANK * (g4 == 0),
        g4 + _BLANK,
        # The "." is blanked when the fraction, the last 16 - e digits, is 0.
        _TAIL + (np.divmod(d, _FRACTION[16 - e])[1] == 0),
    )
    table = _groups()
    rows = np.empty((len(v), len(groups)), dtype=np.uint32)
    for j, group in enumerate(groups):
        rows[:, j] = table.take(group)
    rows = rows.view(np.uint8)
    layout = (e - _E_MIN) * 2 + (v < 0)
    out = np.empty((len(v), _WIDTH), dtype=np.uint8)
    for k in np.flatnonzero(np.bincount(layout, minlength=len(_LAYOUTS))).tolist():
        at = np.flatnonzero(layout == k)
        out[at] = rows[at].take(_LAYOUTS[k], axis=1)
    text = out.tobytes().translate(None, b"\1").decode("ascii")
    return text.split("\0")[:-1]


def _chunked(v: np.ndarray) -> list[str]:
    """:func:`_fixed_texts` of ``v``, :data:`_CHUNK` values at a time."""
    texts: list[str] = []
    for i in range(0, len(v), _CHUNK):
        texts += _fixed_texts(v[i:i + _CHUNK])
    return texts


def float_texts(values: np.ndarray) -> list[str]:
    """``format(v, ".17g")`` of each value of a float64 array, in order."""
    v = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e16)
    if fast.all():
        return _chunked(v)
    texts = np.empty(len(v), dtype=object)
    texts[fast] = _chunked(v[fast])
    texts[~fast] = ["%.17g" % x for x in v[~fast].tolist()]
    return texts.tolist()
