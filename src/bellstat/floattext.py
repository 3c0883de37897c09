"""Exact ``%.17g`` and ``%d`` texts of numpy arrays, as padded byte matrices.

:func:`float_bytes` returns, for a float64 array, one row of bytes per value:
the ASCII of ``format(v, ".17g")`` with :data:`PAD` bytes among and after its
characters.  Deleting every ``PAD`` of row i gives value i's text, so a
caller can lay many such rows into one byte matrix and make text of it with
one ``bytes.translate``.  :func:`int_bytes` does the same for an integer
array and ``str(v)``.  A row is 24 bytes or more: four for each 4-digit group
the array's largest value needs, and a ``-`` column where a value is
negative.

The values with ``1e-4 <= |v| < 1e16``, which ``%.17g`` writes in fixed
notation, take the vectorized path, and zeros are written as ``0`` and
``-0``; the others (exponent notation, subnormals, non-finite values) are
formatted one by one.

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

The bytes come from one table of 4-byte groups, each looked up as one
uint32: 0..9999 as four digits, with leading or with trailing zeros
blanked, and a few fixed groups (``0``, ``0.``, ``.``).  ``D`` is split
where the ``.`` goes, into the integer part, written like an integer
(``0.`` below 1), and the fraction digits, left-aligned in four groups with
trailing zeros blanked; below 1 the fraction's first four digits fill the
group between them, where at or above 1 the ``.`` sits.  So every value's
text sits in the same group columns, and no byte is moved after its lookup.
"""

from __future__ import annotations

from functools import cache

import numpy as np

#: The byte that pads a text in its row; no text holds it.
PAD = b"\1"

# Offsets into the group table: 0..9999 as four digits, then with leading
# zeros blanked (0 is four blanks), then with trailing zeros blanked; then
# "0" and "0." at the end of a group, a "." before three blanks, and at
# _DOT + 1 four blanks (no fraction, so no ".").
_LEADING, _TRAILING, _ZERO, _ZERO_DOT, _DOT, _NONE = 10_000, 20_000, 30_000, 30_001, 30_002, 30_003

# Values per numpy pass: its temporaries, 32 KB each, stay in cache and on
# malloc's heap.  Passes of 2,048 or 8,192 values ran 10-25% slower.
_CHUNK = 4096

# 10**s for s = 0..22, each exact in a double, and its Veltkamp halves.
_SPLIT = 134217729.0  # 2**27 + 1
_POW10 = np.array([float(10**s) for s in range(23)])
_POW10_HIGH = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LOW = _POW10 - _POW10_HIGH
_POW10_INT = np.array([10**s for s in range(17)])


@cache
def _groups() -> np.ndarray:
    """Four bytes a group, read as one uint32 (see the offsets above).
    Built on first use, a column at a time."""
    table = np.empty((_NONE + 1, 4), dtype=np.uint8)
    g = np.arange(10_000)
    for k in range(4):
        digits = table[:_LEADING, k] = g // 10 ** (3 - k) % 10 + ord("0")
        table[_LEADING:_TRAILING, k] = np.where(g < 10 ** (3 - k), PAD[0], digits)
        table[_TRAILING:_ZERO, k] = np.where(g % 10 ** (4 - k) == 0, PAD[0], digits)
    ends = b"\1\1\1" b"0" b"\1\1" b"0." b".\1\1\1" b"\1\1\1\1"
    table[_ZERO:] = np.frombuffer(ends, dtype=np.uint8).reshape(4, 4)
    return table.view(np.uint32).ravel()


def _integer_groups(magnitude: np.ndarray, zero: int, rows: np.ndarray) -> None:
    """Fill the uint32 columns of ``rows`` with the 4-digit groups of each
    ``magnitude``, most significant first, its leading zeros blanked where no
    higher group is set; a magnitude of 0 ends in the group ``zero``."""
    table, rest = _groups(), magnitude
    for j in range(rows.shape[1]):
        group = rest
        if j + 1 < rows.shape[1]:
            rest = rest // 10_000
            group = group - rest * 10_000
        index = group.astype(np.intp)
        index += _LEADING * (magnitude < 10 ** (4 * j + 4))
        if j == 0:
            np.copyto(index, zero, where=magnitude == 0)
        rows[:, -1 - j] = table.take(index)


def _scaled(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``round(a * 10**s)``, correctly rounded where it is at least 10**16."""
    hi = a * _POW10[s]
    c = a * _SPLIT  # Veltkamp: a = ah + al, each half 26 bits
    ah = c - (c - a)
    al = a - ah
    ph, pl = _POW10_HIGH[s], _POW10_LOW[s]
    lo = al * pl - (((hi - ah * ph) - al * ph) - ah * pl)
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _fixed_rows(v: np.ndarray, rows: np.ndarray) -> None:
    """Fill ``rows``, ``k + 5`` uint32 groups a value, with the texts of values
    with ``1e-4 <= |v| < 1e16`` but their sign: ``k`` groups of the integer
    part (``0.`` below 1), then a ``.`` (below 1, the first four fraction
    digits), then the other fraction digits, left-aligned in four groups,
    trailing zeros blanked."""
    a = np.abs(v)
    e = (np.log10(a) + 5).astype(np.int64) - 5  # floor, as log10(a) >= -4
    d = _scaled(a, 16 - e)
    while (off := np.flatnonzero((d < 10**16) == (d < 10**17))).size:
        e[off] += 1 - 2 * (d[off] < 10**16)
        d[off] = _scaled(a[off], 16 - e[off])
    # d = q * 10**t + f: q is the integer part, or below 1 the fraction's
    # first four digits ("0.0001" to "0.9999"), and f * 10**(16 - t) the rest.
    small = e < 0
    t = np.where(small, 12 - e, 16 - e)
    scale = _POW10_INT[t]
    q = d // scale
    f = (d - q * scale) * _POW10_INT[16 - t]
    f1 = f // 10**8
    f2 = f - f1 * 10**8
    g1, g3 = f1 // 10**4, f2 // 10**4
    g2, g4 = f1 - g1 * 10**4, f2 - g3 * 10**4
    n_int = rows.shape[1] - 5
    _integer_groups(np.where(small, 0, q), _ZERO_DOT, rows[:, :n_int])
    end = f == 0
    table = _groups()
    groups = (
        np.where(small, q + _TRAILING * end, _DOT + end),
        # A group's trailing zeros are blanked when every later group is 0.
        g1 + _TRAILING * (g2 + f2 == 0), g2 + _TRAILING * (f2 == 0),
        g3 + _TRAILING * (g4 == 0), g4 + _TRAILING,
    )
    for j, group in enumerate(groups):
        rows[:, n_int + j] = table.take(group)


def _signed(digits: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """``digits``, a byte row a value, after a ``-`` column if any value is
    ``negative``."""
    if not negative.any():
        return digits
    out = np.empty((len(digits), digits.shape[1] + 1), dtype=np.uint8)
    out[:, 0] = np.where(negative, ord("-"), PAD[0])
    out[:, 1:] = digits
    return out


def float_bytes(values: np.ndarray) -> np.ndarray:
    """The ``(n, w)`` uint8 matrix of ``format(v, ".17g")`` of each value of a
    float64 array, in order, each row padded with :data:`PAD` (``w`` is 24
    or more: the integer parts of the largest ``|v|`` set it)."""
    v = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e16)
    # Integer part groups, with room for rounding up to the next power of 10.
    n_int = min(4, max(1, (int(np.log10(a.max(initial=1.0, where=fast))) + 5) // 4))
    fixed = v if fast.all() else v[fast]
    rows = np.empty((len(fixed), n_int + 5), dtype=np.uint32)
    for i in range(0, len(fixed), _CHUNK):
        _fixed_rows(fixed[i:i + _CHUNK], rows[i:i + _CHUNK])
    digits = rows.view(np.uint8)
    if len(fixed) < len(v):
        digits = np.full((len(v), digits.shape[1]), PAD[0], dtype=np.uint8)
        digits[fast] = rows.view(np.uint8)
        zero = np.flatnonzero(a == 0)
        digits[zero, 0] = ord("0")
        digits[zero[np.signbit(v[zero])], :2] = np.frombuffer(b"-0", dtype=np.uint8)
        rest = np.flatnonzero(~fast & (a != 0))
        texts = [("%.17g" % x).encode().ljust(digits.shape[1], PAD) for x in v[rest].tolist()]
        digits[rest] = np.frombuffer(b"".join(texts), dtype=np.uint8).reshape(-1, digits.shape[1])
    return _signed(digits, (v < 0) & fast)


def int_bytes(values: np.ndarray) -> np.ndarray:
    """The ``(n, w)`` uint8 matrix of ``str(v)`` of each value of an integer
    array, in order, each row padded with :data:`PAD`: a ``-`` column where a
    value is negative, then four digits for each 4-digit group that the
    largest ``|v|`` needs."""
    v = np.asarray(values).ravel()
    negative = v < 0
    magnitude = v.astype(np.uint64)
    np.negative(magnitude, out=magnitude, where=negative)  # exact for int64 min
    rows = np.empty((len(v), (len(str(magnitude.max(initial=0))) + 3) // 4), dtype=np.uint32)
    _integer_groups(magnitude, _ZERO, rows)
    return _signed(rows.view(np.uint8), negative)
