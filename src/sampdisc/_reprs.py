"""The ``repr`` of many floats at once.

:func:`repr_table` is :func:`sampdisc.discretize._fmt` vectorized: the
same bytes, without a Python call per value except for the few values
it leaves to ``_fmt``.  ``systems_io`` imports this module on its first
save, so that ``import sampdisc`` neither compiles it nor builds its
tables.
"""

from __future__ import annotations

import numpy as np

from .discretize import _fmt

# values per pass, and rows per byte gather: every temporary then stays
# below 128 KiB, glibc's default mmap threshold
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


def repr_table(values: np.ndarray) -> np.ndarray:
    """``[_fmt(v).encode() for v in values]`` as an ``S24`` array, for
    the 1-d float64 array ``values``; no float's repr is longer than 24
    characters."""
    table = np.empty(values.size, dtype="S24")
    for start in range(0, values.size, _CHUNK):
        _chunk(values[start : start + _CHUNK], table[start : start + _CHUNK])
    return table


def _chunk(x: np.ndarray, out: np.ndarray) -> None:
    """Write the repr of each value of ``x`` to ``out``.

    With 10**e <= |x| < 10**(e + 1), hi + lo = |x| * 10**(16 - e) holds
    |x| in units of its 17th significant digit, exactly.  repr's digits
    are the shortest decimal strictly inside x's rounding interval, the
    nearest one if there are several.  The interval is narrower than a
    step of the 15th digit, so a decimal of 15 digits or fewer inside it
    is the 15-digit rounding of |x|; if that lies outside, the 16-digit
    rounding is next, and the 17-digit rounding always lies inside.
    Every value this cannot decide exactly gets its repr from ``_fmt``.
    """
    bits = x.view(np.int64)
    ax = np.abs(x)
    # 10**(16 - e) is exact for e >= -6, and the rounding interval of a
    # power of two (also of 0.0) is lopsided
    ok = (ax >= 1e-6) & (ax < 1e16) & ((bits & _MANTISSA) != 0)
    # 1.5 stands in for every value left to _fmt
    a = np.where(ok, ax, 1.5)
    e = np.floor(np.log10(a)).astype(np.int64)
    k = 16 - e
    scale = _POWERS[k]
    # Dekker's two-product: hi + lo = a * scale exactly
    hi = a * scale
    split = a * 134217729.0
    a_hi = split - (split - a)
    a_lo = a - a_hi
    s_hi, s_lo = _POWERS_HI[k], _POWERS_LO[k]
    lo = ((a_hi * s_hi - hi) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    # log10 may be one off next to a power of ten
    ok &= (hi > 1e16) | ((hi == 1e16) & (lo >= 0))
    ok &= (hi < 1e17) | ((hi == 1e17) & (lo < 0))
    # half the gap between a and its neighbours, in the same units
    half = np.spacing(a) * scale * 0.5
    whole = hi.astype(np.int64)
    # the 17-digit rounding, which always lies inside
    j = np.floor(lo + 0.5)
    ok &= np.abs(np.abs(j - lo) - 0.5) > _MARGIN
    digits = whole + j.astype(np.int64)
    shift = np.zeros(x.size, dtype=np.int64)
    for dropped in (1, 2):
        # the rounding to a multiple of unit, where it lies inside
        unit = 10**dropped
        q = whole // unit
        t = (whole - q * unit) + lo  # hi + lo = q * unit + t
        j = np.floor(t / unit + 0.5)
        off = np.abs(j * unit - t)
        ok &= np.abs(off - 0.5 * unit) > _MARGIN
        ok &= np.abs(off - half) > _MARGIN
        inside = off < half
        np.copyto(digits, q + j.astype(np.int64), where=inside)
        shift[inside] = dropped
    # only a 15-digit rounding can end in zeros, at most 15 of them
    short = np.flatnonzero(shift == 2)
    stripped, zeros = digits[short], shift[short]
    for step in (8, 4, 2, 1):
        q = stripped // 10**step
        exact = q * 10**step == stripped
        np.copyto(stripped, q, where=exact)
        zeros += exact * step
    digits[short], shift[short] = stripped, zeros
    ndigits = np.searchsorted(_POW10, digits, side="right")
    decpt = ndigits + shift + e - 16
    # a value left to _fmt may have decpt out of range: it takes layout 0
    key = np.where(ok, ((decpt + 5) * 17 + ndigits - 1) * 2 + (bits < 0), 0)
    # the source rows, word-major: the groups of four digits, then _WORDS
    words = np.empty((5 + _WORDS.size, _CHUNK), dtype=np.uint32)
    above = 0
    for i, unit in enumerate((10**16, 10**12, 10**8, 10**4, 1)):
        part = digits // unit
        _QUADS.take(part - above * 10**4, out=words[i, : x.size])
        above = part
    words[5:] = _WORDS[:, None]
    source = words.view(np.uint8).ravel()
    dest = out.view(np.uint8).reshape(-1, 24)
    for start in range(0, x.size, _GATHER):
        block = _LAYOUTS.take(key[start : start + _GATHER], axis=0)
        base = 4 * np.arange(start, start + len(block))
        index = np.add(block, base[:, None], dtype=np.intp)
        np.take(source, index, out=dest[start : start + len(block)])
    rest = np.flatnonzero(~ok)
    out[rest] = [_fmt(v).encode() for v in x[rest].tolist()]
