"""The ``repr`` of many floats at once.

:func:`repr_table` is :func:`sampdisc.discretize._fmt` vectorized: the
same bytes, without a Python call per value except for the few values
it leaves to ``_fmt``.  ``systems_io`` imports this module on its first
save, so that ``import sampdisc`` neither compiles it nor builds its
tables.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .discretize import _fmt

# values per pass, and rows per byte gather
_CHUNK = 4096
_GATHER = 512
# a tie or a half-gap comparison closer than this, in units of the 17th
# digit, is left to repr; the float64 sums of remainders err by ~1e-14
_MARGIN = 1e-9
_MANTISSA = (1 << 52) - 1
# a value's source row: its digits as a 20-digit zero-padded decimal,
# whose first byte is always "0" (bytes 0 to 19), then _WORDS
_WORDS = np.frombuffer(b".-e56\0\0\0", dtype=np.uint32)
_ZERO, _DOT, _MINUS, _E, _NUL = 0, 20, 21, 22, 25
_EXPONENT = {-5: 23, -6: 24}


def _layout(decpt: int, ndigits: int) -> list:
    """Source-row byte of each of the 24 bytes of the NUL-padded repr of
    a positive float whose ``ndigits`` shortest digits d1 d2 ... are
    worth 0.d1d2... * 10**decpt, with -5 <= decpt <= 16."""
    digits = list(range(20 - ndigits, 20))
    if decpt <= -4:
        chars = digits[:1] + ([_DOT] + digits[1:] if ndigits > 1 else [])
        chars += [_E, _MINUS, _ZERO, _EXPONENT[decpt - 1]]
    elif decpt <= 0:
        chars = [_ZERO, _DOT] + [_ZERO] * -decpt + digits
    elif decpt < ndigits:
        chars = digits[:decpt] + [_DOT] + digits[decpt:]
    else:
        chars = digits + [_ZERO] * (decpt - ndigits) + [_DOT, _ZERO]
    return chars + [_NUL] * (24 - len(chars))


def _layouts() -> np.ndarray:
    """:func:`_layout` of every (decpt, ndigits), and of its negative, in
    row ((decpt + 5) * 17 + ndigits - 1) * 2 + negative."""
    positive = np.array(
        [_layout(decpt, ndigits) for decpt in range(-5, 17) for ndigits in range(1, 18)],
        dtype=np.uint32,
    )
    # no positive repr fills all 24 bytes, so the last one is a NUL
    negative = np.roll(positive, 1, axis=1)
    negative[:, 0] = _MINUS
    layouts = np.stack([positive, negative], axis=1).reshape(-1, 24)
    # byte b of value i's source row sits at b // 4 * 4 * _CHUNK + b % 4
    # + 4 * i in the word-major source of a chunk
    return layouts // 4 * (4 * _CHUNK) + layouts % 4


_LAYOUTS = _layouts()
_POWERS = np.array([float(10**k) for k in range(23)])  # all exact
_SPLIT = _POWERS * 134217729.0  # Veltkamp's split at 2**27 + 1
_POWERS_HI = _SPLIT - (_SPLIT - _POWERS)
_POWERS_LO = _POWERS - _POWERS_HI
_POW10 = 10 ** np.arange(18, dtype=np.int64)
# the four ASCII digits of 0..9999, one uint32 each
_PLACES = np.array([1000, 100, 10, 1], dtype=np.uint16)
_QUADS = np.arange(10000, dtype=np.uint16)[:, None] // _PLACES % 10 + ord("0")
_QUADS = _QUADS.astype(np.uint8).view(np.uint32).ravel()
# 4 * i in row i: the offset of value i's source row in a chunk's source
_RAMP = 4 * np.arange(_CHUNK, dtype=np.intp)[:, None]


def repr_table(values: np.ndarray) -> np.ndarray:
    """``[_fmt(v).encode() for v in values]`` as an ``S24`` array, for
    the 1-d float64 array ``values``; no float's repr is longer than 24
    characters."""
    table = np.empty(values.size, dtype="S24")
    size = min(values.size, _CHUNK)
    # every pass writes into the same arrays, made once per call, so that
    # a long table does not allocate and free its temporaries per pass
    work = _Work(
        np.empty((_FLOATS, size)),
        np.empty((_INTS, size), dtype=np.int64),
        np.empty((_MASKS, size), dtype=bool),
        np.empty((5 + _WORDS.size, _CHUNK), dtype=np.uint32),
        np.empty((_GATHER, 24), dtype=np.uint32),
        np.empty((_GATHER, 24), dtype=np.intp),
    )
    work.words[5:] = _WORDS[:, None]
    for start in range(0, values.size, _CHUNK):
        _chunk(values[start : start + _CHUNK], table[start : start + _CHUNK], work)
    return table


class _Work(NamedTuple):
    """The arrays a call of :func:`repr_table` writes into: rows of
    floats, ints and masks of one pass, the word-major source rows, and
    one gather's layouts and byte indices."""

    floats: np.ndarray
    ints: np.ndarray
    masks: np.ndarray
    words: np.ndarray
    layouts: np.ndarray
    index: np.ndarray


_FLOATS, _INTS, _MASKS = 9, 7, 3


def _chunk(x: np.ndarray, out: np.ndarray, work: _Work) -> None:
    """Write the repr of each value of ``x`` to ``out``.

    With 10**e <= |x| < 10**(e + 1), hi + lo = |x| * 10**(16 - e) holds
    |x| in units of its 17th significant digit, exactly.  repr's digits
    are the shortest decimal strictly inside x's rounding interval, the
    nearest one if there are several.  The interval is narrower than a
    step of the 15th digit, so a decimal of 15 digits or fewer inside it
    is the 15-digit rounding of |x|; if that lies outside, the 16-digit
    rounding is next, and the 17-digit rounding always lies inside.
    Every value this cannot decide exactly gets its repr from ``_fmt``.

    Every step writes into ``work``; the comments give each step as one
    expression, whose operations the steps perform in the same order.
    """
    n = x.size
    a, scale, hi, lo, half, f1, f2, f3, f4 = work.floats[:, :n]
    e, k, whole, digits, shift, i1, i2 = work.ints[:, :n]
    ok, m1, m2 = work.masks[:, :n]
    bits = x.view(np.int64)
    # 10**(16 - e) is exact for e >= -6, and the rounding interval of a
    # power of two (also of 0.0) is lopsided:
    # ok = (|x| >= 1e-6) & (|x| < 1e16) & ((bits & _MANTISSA) != 0)
    np.abs(x, out=a)
    np.greater_equal(a, 1e-6, out=ok)
    ok &= np.less(a, 1e16, out=m1)
    ok &= np.not_equal(np.bitwise_and(bits, _MANTISSA, out=i1), 0, out=m1)
    # a = where(ok, |x|, 1.5): 1.5 stands in for every value left to _fmt
    np.copyto(a, 1.5, where=np.logical_not(ok, out=m1))
    # e = int(floor(log10(a))), k = 16 - e; a k that log10 puts out of
    # range is clipped, and the checks on hi below then fail
    np.copyto(e, np.floor(np.log10(a, out=f1), out=f1), casting="unsafe")
    np.subtract(16, e, out=k)
    np.take(_POWERS, k, out=scale, mode="clip")
    # Dekker's two-product: hi + lo = a * scale exactly, with
    # split = a * 134217729.0, a_hi = split - (split - a), a_lo = a - a_hi
    # and lo = ((a_hi * s_hi - hi) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    np.multiply(a, scale, out=hi)
    split = np.multiply(a, 134217729.0, out=f1)
    a_hi = np.subtract(split, np.subtract(split, a, out=f2), out=f2)
    a_lo = np.subtract(a, a_hi, out=f1)
    s_hi = np.take(_POWERS_HI, k, out=f3, mode="clip")
    s_lo = np.take(_POWERS_LO, k, out=f4, mode="clip")
    np.multiply(a_hi, s_hi, out=lo)
    lo -= hi
    lo += np.multiply(a_hi, s_lo, out=f2)
    lo += np.multiply(a_lo, s_hi, out=f3)
    lo += np.multiply(a_lo, s_lo, out=f4)
    # log10 may be one off next to a power of ten:
    # ok &= (hi > 1e16) | ((hi == 1e16) & (lo >= 0))
    # ok &= (hi < 1e17) | ((hi == 1e17) & (lo < 0))
    np.equal(hi, 1e16, out=m1)
    m1 &= np.greater_equal(lo, 0, out=m2)
    ok &= np.logical_or(np.greater(hi, 1e16, out=m2), m1, out=m1)
    np.equal(hi, 1e17, out=m1)
    m1 &= np.less(lo, 0, out=m2)
    ok &= np.logical_or(np.less(hi, 1e17, out=m2), m1, out=m1)
    # half the gap between a and its neighbours, in the same units:
    # half = spacing(a) * scale * 0.5
    np.spacing(a, out=half)
    half *= scale
    half *= 0.5
    np.copyto(whole, hi, casting="unsafe")
    # the 17-digit rounding, which always lies inside: j = floor(lo + 0.5),
    # ok &= abs(abs(j - lo) - 0.5) > _MARGIN, digits = whole + int(j)
    j = np.floor(np.add(lo, 0.5, out=f1), out=f1)
    _away(np.abs(np.subtract(j, lo, out=f2), out=f2), 0.5, ok, f3, m1)
    np.copyto(digits, j, casting="unsafe")
    digits += whole
    shift.fill(0)
    q, t = i2, f3
    for dropped in (1, 2):
        # the rounding to a multiple of unit, where it lies inside:
        # q = whole // unit, t = (whole - q * unit) + lo (so hi + lo =
        # q * unit + t), j = floor(t / unit + 0.5), off = abs(j * unit - t);
        # ok &= abs(off - 0.5 * unit) > _MARGIN and abs(off - half) > _MARGIN;
        # where off < half: digits = q + int(j), shift = dropped
        unit = 10**dropped
        np.floor_divide(whole, unit, out=q)
        np.add(np.subtract(whole, np.multiply(q, unit, out=i1), out=i1), lo, out=t)
        j = np.floor(np.add(np.divide(t, unit, out=f1), 0.5, out=f1), out=f1)
        off = np.multiply(j, unit, out=f2)
        np.abs(np.subtract(off, t, out=off), out=off)
        _away(off, 0.5 * unit, ok, f4, m1)
        _away(off, half, ok, f4, m1)
        inside = np.less(off, half, out=m2)
        np.copyto(i1, j, casting="unsafe")
        np.copyto(digits, np.add(q, i1, out=i1), where=inside)
        np.copyto(shift, dropped, where=inside)
    # only a 15-digit rounding can end in zeros, at most 15 of them: where
    # shift == 2, strip them, 8, 4, 2 and 1 at a time, and count them in shift
    short = np.equal(shift, 2, out=m2)
    if short.any():
        for step in (8, 4, 2, 1):
            np.floor_divide(digits, 10**step, out=q)
            exact = np.equal(np.multiply(q, 10**step, out=i1), digits, out=m1)
            exact &= short
            np.copyto(digits, q, where=exact)
            np.add(shift, step, out=shift, where=exact)
    ndigits = np.searchsorted(_POW10, digits, side="right")
    # decpt = ndigits + shift + e - 16, and the layout key =
    # ((decpt + 5) * 17 + ndigits - 1) * 2 + (bits < 0), or layout 0 for a
    # value left to _fmt, whose decpt may be out of range
    decpt = np.add(ndigits, shift, out=shift)
    decpt += e
    decpt -= 16
    key = np.add(decpt, 5, out=k)
    key *= 17
    key += ndigits
    key -= 1
    key *= 2
    key += np.less(bits, 0, out=m1)
    np.copyto(key, 0, where=np.logical_not(ok, out=m1))
    # the source rows, word-major: the groups of four digits, then _WORDS
    part, above, group = i1, i2, whole
    above.fill(0)
    for i, unit in enumerate((10**16, 10**12, 10**8, 10**4, 1)):
        # group = digits // unit - above * 10**4
        np.floor_divide(digits, unit, out=part)
        np.subtract(part, np.multiply(above, 10**4, out=group), out=group)
        _QUADS.take(group, out=work.words[i, :n], mode="clip")
        part, above = above, part
    source = work.words.view(np.uint8).ravel()
    dest = out.view(np.uint8).reshape(-1, 24)
    for start in range(0, n, _GATHER):
        rows = min(_GATHER, n - start)
        block, index = work.layouts[:rows], work.index[:rows]
        np.take(_LAYOUTS, key[start : start + rows], axis=0, out=block, mode="clip")
        # byte b of value start + i sits at block[i, b] + 4 * (start + i)
        np.add(block, _RAMP[start : start + rows], out=index)
        np.take(source, index, out=dest[start : start + rows], mode="clip")
    rest = np.flatnonzero(np.logical_not(ok, out=m1))
    out[rest] = [_fmt(v).encode() for v in x[rest].tolist()]


def _away(distance, level, ok: np.ndarray, scratch: np.ndarray, mask: np.ndarray):
    """``ok &= abs(distance - level) > _MARGIN``, through ``scratch`` and
    ``mask``."""
    np.abs(np.subtract(distance, level, out=scratch), out=scratch)
    ok &= np.greater(scratch, _MARGIN, out=mask)
