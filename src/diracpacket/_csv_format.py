"""CSV text of whole columns, byte for byte what ``"%.17g" % v`` or ``str`` writes.

A float64 column is formatted a chunk at a time with array arithmetic in
doubles only:

* **Scale.**  With e = floor(log10|x|), P = |x| 10^(16 - e).  10^(16 - e)
  is held as a pair of doubles hi + lo, hi nearest the exact value and lo
  nearest the rest.  Dekker's exact product gives x hi = p + err, with hi
  split into two 26-bit halves and x into its top 27 and low 26 bits by a
  mask.  Then t = err + x lo is P - p to within 2^-40.  Values below
  10^-280 are first scaled by 2^200, and their powers of ten by 2^-200.
* **Certify.**  r = p + rint(t) is the 17-digit significand that
  ``%.17g`` prints when |t - rint(t)| < _BOUND and 10^16 <= r < 10^17;
  then e is its exponent too.  For -6 <= e <= 16, 10^(16 - e) is a double,
  so lo = 0 and t is exactly P - p; p >= 2^53 is even, so rint's ties to
  even are those of ``%.17g``, and no bound is needed.  r = 10^16 also
  needs P >= 10^16 - 1/20, since below that e is one too large and 10 P
  does not round up to 10^17.
* **Fall back.**  Every other value (zeros, inf, nan, near-ties where lo
  is not 0, an e off by one) is formatted by ``FLOAT % v``.
* **Assemble.**  Each value fills a 32-byte slot of four 64-bit words
  from lookup tables: a head ('-', "0.000" prefix, first digit, '.'); two
  words of 8 digits; a tail (exponent and separators).  In fixed notation
  with 1 <= e <= 15 the '.' after digit e + 1 goes in by a shift of the
  digit words, and digit 17 moves into the unused exponent byte.  A
  keep-mask per layout (sign, notation, exponent, digits left after the
  trailing zeros) keeps the bytes that ``%.17g`` prints and zeroes the
  rest, and deleting the zero bytes turns a chunk's slots into CSV bytes.

Any other column is written with ``str`` into the same slots.  The tables
are built on the first write, not at import.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

# The one text form of a float: 17 significant digits round-trip a double.
FLOAT = "%.17g"

# Rows formatted together: large enough to amortise NumPy's per-call cost,
# small enough that a chunk's slots and temporaries stay near 1 MB.
CHUNK_ROWS = 1024

# Decimal exponents of the nonzero finite doubles.
_E_MIN, _E_MAX = -324, 308
# Fixed notation for -4 <= e <= 16, exponent notation otherwise.
_FIXED_MIN, _FIXED_MAX = -4, 16
_DIGITS = 17
# Below 10^_TINY_E, x is scaled by 2^_TINY_SHIFT so that 10^(16 - e) fits a double.
_TINY_E, _TINY_SHIFT = -280, 200

# |t - rint(t)| below this certifies r; t is within 2^-40 of P - p.
_BOUND = 0.5 - 2.0**-30

_SLOT = 32
# Longest text a str or fallback value may have: bytes 0..28 of its slot.
_TEXT = 29
# Slot bytes: head 0..7 (digit 1 at 6), digits 2..17 at 8..23, tail 24..31
# ('e' at 24, exponent sign and digits at 25..28, ',' at 29, CRLF at 30, 31).
_DIGIT_2, _EXP, _SEPARATORS = 8, 24, 29

# Layouts: sign (2) x [fixed notation (21 exponents x 17 digit counts),
# exponent notation (2- or 3-digit exponent x 17)], then text of length
# 0.._TEXT.  Each has two keep-masks: ',' after it, or CRLF (last column).
_FIXED = (_FIXED_MAX - _FIXED_MIN + 1) * _DIGITS
_SIGNED = _FIXED + 2 * _DIGITS
_TEXT_LAYOUT = 2 * _SIGNED

# Slot words are little-endian on every platform, so that a shift by 8 bits
# moves each byte one place along the text.
_WORD = np.dtype("<u8")


class _Tables(NamedTuple):
    hi: np.ndarray  # 10^(16 - e), nearest double (scaled by 2^-200 below _TINY_E)
    lo: np.ndarray  # nearest double to the rest
    hi_high: np.ndarray  # hi's Veltkamp halves, 26 bits each
    hi_low: np.ndarray
    base: np.ndarray  # layout of e with one digit, positive
    tail: np.ndarray  # tail word of e
    head: np.ndarray  # head word of the first digit
    group: np.ndarray  # 4 ASCII digits of 0..9999 in bytes 0..3 of a word
    group_high: np.ndarray  # the same in bytes 4..7
    zeros: np.ndarray  # trailing zeros of a 4-digit group (4 for 0)
    shift: np.ndarray  # (4, 16): bytes below and above the '.' in the two digit words
    keep: np.ndarray  # keep-mask words (layout * 2 + last column, 4)


def _pow10() -> np.ndarray:
    """(e, [hi, lo, hi_high, hi_low]) for e in [_E_MIN, _E_MAX]."""
    rows = []
    for e in range(_E_MIN, _E_MAX + 1):
        # The exact value num / den; int / int rounds correctly.
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        if e < _TINY_E:
            den <<= _TINY_SHIFT
        hi = num / den
        a, b = hi.as_integer_ratio()
        lo = (num * b - a * den) / (den * b)
        c = hi * 134217729.0  # Veltkamp: 2^27 + 1
        high = c - (c - hi)
        rows.append((hi, lo, high, hi - high))
    return np.array(rows).T.copy()


def _ascii(*chars) -> np.ndarray:
    return np.array([ord(c) for c in chars], np.uint8)


def _words(table: np.ndarray) -> np.ndarray:
    """A (..., 8k) uint8 table as (..., k) little-endian 64-bit words."""
    return np.ascontiguousarray(table).view(_WORD)


def _group_words() -> tuple[np.ndarray, np.ndarray]:
    """Word of each 4-digit group 0..9999 (ASCII digits in bytes 0..3), and its trailing zeros."""
    digits = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1).T
    text = np.zeros((len(digits), 8), np.uint8)
    text[:, :4] = digits + ord("0")
    zeros = (digits[:, ::-1] == 0).cumprod(axis=1).sum(axis=1)
    return _words(text)[:, 0], zeros


def _head_words() -> np.ndarray:
    """Word of each first digit: '-', '0', '.', '0', '0', '0', digit, '.'."""
    text = np.tile(_ascii("-", "0", ".", "0", "0", "0", "0", "."), (10, 1))
    text[:, 6] += np.arange(10, dtype=np.uint8)
    return _words(text)[:, 0]


def _tail_words(e: np.ndarray) -> np.ndarray:
    """Word of each exponent: 'e', sign, three digits, ',', CR, LF (separators alone if fixed)."""
    text = np.tile(_ascii("e", "+", "0", "0", "0", ",", "\r", "\n"), (e.size, 1))
    text[e < 0, 1] = ord("-")
    text[:, 2:5] += (np.abs(e)[:, None] // np.array([100, 10, 1]) % 10).astype(np.uint8)
    text[(e >= _FIXED_MIN) & (e <= _FIXED_MAX), :5] = 0
    return _words(text)[:, 0]


def _shift_masks() -> np.ndarray:
    """Per e in 0..15: the digit-word bytes below the '.' and those above it.

    With 1 <= e <= 15 the '.' takes digit byte e (slot byte 8 + e) and the
    digits from there on move up one byte; e = 0 keeps every byte.
    """
    masks = np.zeros((4, 16), _WORD)
    for e in range(16):
        low = (1 << 8 * e) - 1 if e else 2**128 - 1
        high = (~low << 8) & (2**128 - 1)
        masks[:, e] = [low % 2**64, low >> 64, high % 2**64, high >> 64]
    return masks


def _keep_masks() -> np.ndarray:
    """Keep-mask words (layout * 2 + last column, 4) of every layout."""
    pos = np.arange(_SLOT)
    sign = np.repeat([False, True], _SIGNED)[:, None]
    fixed_e = np.repeat(np.arange(_FIXED_MIN, _FIXED_MAX + 1), _DIGITS)
    e = np.tile(np.concatenate([fixed_e, np.full(2 * _DIGITS, 100)]), 2)[:, None]
    big = np.repeat([False, True], _DIGITS)
    three = np.tile(np.concatenate([np.zeros(_FIXED, bool), big]), 2)[:, None]
    fixed = np.tile(np.arange(_SIGNED) < _FIXED, 2)[:, None]
    nd = np.tile(np.arange(_SIGNED) % _DIGITS + 1, 2)[:, None]

    # Digit k (1-based) sits at 6 for k = 1, else 6 + k; in fixed notation
    # with 1 <= e <= 15 the digits after the '.' sit one byte higher.
    shifted = fixed & (e >= 1) & (e <= 15)
    dot_at = np.where(shifted, _DIGIT_2 + e, 7)
    k = np.where(pos >= _DIGIT_2, pos - 6 - (shifted & (pos > dot_at)), 1)
    digit = (pos == 6) | ((pos >= _DIGIT_2) & (pos != dot_at) & (pos < _EXP + shifted))
    small = fixed & (e < 0)
    keep = (
        ((pos == 0) & sign)
        | (((pos == 1) | (pos == 2)) & small)
        | ((pos >= 3) & (pos <= 5) & small & (pos >= 7 + e))
        | (digit & ((k <= nd) | (fixed & (k <= e + 1))))
        | ((pos == dot_at) & np.where(fixed, e < nd - 1, nd > 1) & ~small)
        | (((pos == _EXP) | (pos >= _EXP + 3)) & (pos < _SEPARATORS) & ~fixed)
        | ((pos == _EXP + 1) & ~fixed)
        | ((pos == _EXP + 2) & three)
    )
    text = pos < np.arange(_TEXT + 1)[:, None]
    keep = np.concatenate([keep, text])
    separators = np.array([pos == _SEPARATORS, pos > _SEPARATORS])
    masks = keep[:, None, :] | separators[None, :, :]
    return _words(masks.astype(np.uint8) * np.uint8(255)).reshape(-1, _SLOT // 8)


@functools.cache
def _tables() -> _Tables:
    """Every lookup table of the writer, built once, on the first write."""
    e = np.arange(_E_MIN, _E_MAX + 1)
    fixed = (e >= _FIXED_MIN) & (e <= _FIXED_MAX)
    base = np.where(fixed, (e - _FIXED_MIN) * _DIGITS, _FIXED + (np.abs(e) >= 100) * _DIGITS)
    hi, lo, hi_high, hi_low = _pow10()
    group, zeros = _group_words()
    return _Tables(
        hi, lo, hi_high, hi_low, base.astype(np.intp), _tail_words(e), _head_words(),
        group, group << np.uint64(32), zeros.astype(np.intp), _shift_masks(), _keep_masks(),
    )


class Columns:
    """A CSV body held as equal-length columns; ``len()`` is its row count.

    A float64 column is written as ``FLOAT % v`` would write each value,
    any other column (ints, strings) as ``str`` would.
    """

    def __init__(self, *columns):
        self.arrays = [np.asarray(c) for c in columns]
        if len({a.shape for a in self.arrays}) != 1 or self.arrays[0].ndim != 1:
            raise ValueError("columns must be 1-D and of equal length")

    def __len__(self) -> int:
        return len(self.arrays[0])

    def write(self, fh) -> None:
        """Write the rows to the binary file fh, CRLF-terminated, CHUNK_ROWS at a time."""
        for start in range(0, len(self), CHUNK_ROWS):
            fh.write(self._chunk(start, start + CHUNK_ROWS))

    def _chunk(self, start: int, stop: int) -> bytes:
        chunk = [a[start:stop] for a in self.arrays]
        rows, width = len(chunk[0]), len(chunk)
        floats = [i for i, a in enumerate(chunk) if a.dtype == np.float64]
        if len(floats) == width:
            slots, layout = _float_slots(np.stack(chunk, axis=1).ravel())
        else:
            slots = np.empty((rows, width, _SLOT // 8), _WORD)
            layout = np.empty((rows, width), np.intp)
            if floats:
                words, kinds = _float_slots(np.stack([chunk[i] for i in floats], axis=1).ravel())
                slots[:, floats] = words.reshape(rows, len(floats), -1)
                layout[:, floats] = kinds.reshape(rows, len(floats))
            for i, a in enumerate(chunk):
                if a.dtype != np.float64:
                    slots[:, i], layout[:, i] = _text_slots(a.astype("S"))
        index = 2 * layout.reshape(rows, width) + (np.arange(width) == width - 1)
        slots &= _tables().keep.take(index.ravel(), axis=0).reshape(slots.shape)
        return slots.tobytes().translate(None, b"\0")


def _text_slots(text: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slots and layouts of a bytes array, each value written as is."""
    lengths = np.char.str_len(text)
    if lengths.size and lengths.max() > _TEXT:
        raise ValueError(f"a CSV value is longer than {_TEXT} characters")
    raw = np.zeros((text.size, _SLOT), np.uint8)
    width = min(text.itemsize, _TEXT)
    raw[:, :width] = text.view(np.uint8).reshape(text.size, text.itemsize)[:, :width]
    if np.count_nonzero(raw) != lengths.sum():
        raise ValueError("a CSV value contains a NUL character")
    raw[:, _SEPARATORS:] = _ascii(",", "\r", "\n")
    return _words(raw), _TEXT_LAYOUT + lengths


def _float_slots(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slots and layouts of the float64 values x, the bytes of FLOAT % v."""
    tables = _tables()
    magnitude = np.abs(x)
    finite = (magnitude > 0.0) & (magnitude < np.inf)
    np.copyto(magnitude, 1.0, where=~finite)
    e = np.floor(np.log10(magnitude)).astype(np.intp)
    np.multiply(magnitude, 2.0**_TINY_SHIFT, out=magnitude, where=e < _TINY_E)
    i = e - _E_MIN

    # Dekker's product, p + err = magnitude * hi exactly: the mask keeps the top
    # 27 bits of magnitude and hi's halves have 26, so each partial product is exact.
    hi = tables.hi.take(i)
    p = magnitude * hi
    high = (magnitude.view(np.uint64) & np.uint64(~(2**26 - 1) & (2**64 - 1))).view(np.float64)
    low = magnitude - high
    hi_high, hi_low = tables.hi_high.take(i), tables.hi_low.take(i)
    t = high * hi_high - p
    t += high * hi_low
    t += low * hi_high
    t += low * hi_low
    lo = tables.lo.take(i)
    t += magnitude * lo
    rounded = np.rint(t)
    r = p.astype(np.int64) + rounded.astype(np.int64)
    # r = 10^16 (a power of ten) also needs P >= 10^16 - 1/20: below that
    # e is one too large and 10 P, rounded, has other digits.
    edge = np.flatnonzero(r == 10**16)
    below = (p[edge] - 1e16) + t[edge] <= -0.04
    t -= rounded
    # With lo = 0, t is exact: a tie is a true decimal tie, and rounds to even.
    settled = (np.abs(t) < _BOUND) | (lo == 0.0)
    certified = finite & settled & (r >= 10**16) & (r < 10**17)
    certified[edge[below]] = False
    np.copyto(r, 10**16, where=~certified)

    # The digits: first, then four groups of 4 (// and a product beat np.divmod).
    top = r // 10**8
    rest = r - top * 10**8
    first = top // 10**8
    top -= first * 10**8
    g1, g3 = top // 10**4, rest // 10**4
    g2, g4 = top - g1 * 10**4, rest - g3 * 10**4
    group, group_high = tables.group, tables.group_high
    head, tail = tables.head.take(first), tables.tail.take(i)
    digits = group.take(g1) | group_high.take(g2), group.take(g3) | group_high.take(g4)

    # Fixed notation with 1 <= e <= 15: the '.' after digit e + 1, and the
    # bytes from there on one place up (digit 17 into the tail).
    dotted = np.flatnonzero((e >= 1) & (e <= 15))
    if dotted.size:
        low1, low2, high1, high2 = tables.shift.take(e[dotted], axis=1)
        a, b = digits[0][dotted], digits[1][dotted]
        eight, dots = np.uint64(8), np.uint64(0x2E2E2E2E2E2E2E2E)
        digits[0][dotted] = (a & low1) | ((a << eight) & high1) | (~(low1 | high1) & dots)
        b_up = (b << eight) | (a >> np.uint64(56))
        digits[1][dotted] = (b & low2) | (b_up & high2) | (~(low2 | high2) & dots)
        tail[dotted] |= b >> np.uint64(56)
    words = np.stack([head, *digits, tail], axis=1, dtype=_WORD)

    # Significant digits less one, once the trailing zeros are stripped.
    zeros = tables.zeros.take(g4)
    empty = np.flatnonzero(g4 == 0)
    if empty.size:
        z3, z2, z1 = (tables.zeros.take(g[empty]) for g in (g3, g2, g1))
        zeros[empty] += z3 + (z3 == 4) * (z2 + (z2 == 4) * z1)
    layout = tables.base.take(i)
    layout += _DIGITS - 1 - zeros
    layout += np.signbit(x) * _SIGNED

    fallback = np.flatnonzero(~certified)
    if fallback.size:
        text = np.array([FLOAT % v for v in x[fallback].tolist()], dtype="S")
        words[fallback], layout[fallback] = _text_slots(text)
    return words, layout
