"""CSV text of whole columns, byte for byte what ``"%.17g" % v`` or ``str`` writes.

A float64 column is formatted a chunk at a time with array arithmetic:

* **Scale.**  With e = floor(log10|x|), P = |x| 10^(16 - e) in long
  double, from a table of powers of ten each rounded once from the exact
  value.  Where P < 2^57 its error is below 2^-6.
* **Certify.**  r = rint(P) is the 17-digit significand that ``%.17g``
  prints when |P - r| < 1/2 - 2^58 epsneg, P >= 10^16 and r < 10^17; then
  e is its exponent too.
* **Fall back.**  Every other value (zeros, inf, nan, near-ties, an e off
  by one) is formatted by ``FLOAT % v``.  Where long double is a plain
  double the bound is negative and every value falls back.
* **Assemble.**  Each value fills a 48-byte slot of six 64-bit words from
  lookup tables: sign, "0.000" prefix and first digit; four 4-digit
  groups, each digit followed by a '.' slot; exponent and separators.  A
  keep-mask per layout (sign, notation, exponent, digits left after the
  trailing zeros) marks the bytes that ``%.17g`` prints, and one
  ``np.compress`` turns a chunk's slots into CSV bytes.

Any other column is written with ``str`` into the same slots.
"""

from __future__ import annotations

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

_SLOT = 48
# Longest text a str or fallback value may have: bytes 0..39 of its slot.
_TEXT = 40

# Layouts: sign (2) x [fixed notation (21 exponents x 17 digit counts),
# exponent notation (2- or 3-digit exponent x 17)], then text of length
# 0.._TEXT.  Each has two keep-masks: ',' after it, or CRLF (last column).
_FIXED = (_FIXED_MAX - _FIXED_MIN + 1) * _DIGITS
_SIGNED = _FIXED + 2 * _DIGITS
_TEXT_LAYOUT = 2 * _SIGNED


def _pow10() -> np.ndarray:
    """10^(16 - e) for e in [_E_MIN, _E_MAX], each long double nearest the exact value."""
    with np.errstate(over="ignore"):
        return np.array([f"1e{16 - e}" for e in range(_E_MIN, _E_MAX + 1)]).astype(
            np.longdouble
        )


def _ascii(*chars) -> np.ndarray:
    return np.array([ord(c) for c in chars], np.uint8)


def _words(table: np.ndarray) -> np.ndarray:
    """A (..., 8k) uint8 table as (..., k) native 64-bit words."""
    return np.ascontiguousarray(table).view(np.uint64)


def _group_words() -> tuple[np.ndarray, np.ndarray]:
    """Word of each 4-digit group 0..9999 (digits with '.' slots between), and its trailing zeros."""
    digits = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1).T
    text = np.full((len(digits), 8), ord("."), np.uint8)
    text[:, 0::2] = digits + ord("0")
    zeros = (digits[:, ::-1] == 0).cumprod(axis=1).sum(axis=1, dtype=np.uint64)
    return _words(text)[:, 0], zeros


def _head_words() -> np.ndarray:
    """Word of each first digit: '-', '0', '.', '0', '0', '0', digit, '.'."""
    text = np.tile(_ascii("-", "0", ".", "0", "0", "0", "0", "."), (10, 1))
    text[:, 6] += np.arange(10, dtype=np.uint8)
    return _words(text)[:, 0]


def _tail_words() -> tuple[np.ndarray, np.uint64]:
    """Word of each exponent ('e', sign, three digits, ',', CR, LF) and the separators alone."""
    e = np.arange(_E_MIN, _E_MAX + 1)
    text = np.tile(_ascii("e", "+", "0", "0", "0", ",", "\r", "\n"), (e.size, 1))
    text[e < 0, 1] = ord("-")
    text[:, 2:5] += (np.abs(e)[:, None] // np.array([100, 10, 1]) % 10).astype(np.uint8)
    separators = _ascii("\0", "\0", "\0", "\0", "\0", ",", "\r", "\n")
    return _words(text)[:, 0], _words(separators)[0]


def _keep_masks() -> np.ndarray:
    """Keep-mask words (layout * 2 + last column, 6) of every layout."""
    pos = np.arange(_SLOT)
    sign = np.repeat([False, True], _SIGNED)[:, None]
    fixed_e = np.repeat(np.arange(_FIXED_MIN, _FIXED_MAX + 1), _DIGITS)
    e = np.tile(np.concatenate([fixed_e, np.full(2 * _DIGITS, 100)]), 2)[:, None]
    big = np.repeat([False, True], _DIGITS)
    three = np.tile(np.concatenate([np.zeros(_FIXED, bool), big]), 2)[:, None]
    fixed = np.tile(np.arange(_SIGNED) < _FIXED, 2)[:, None]
    nd = np.tile(np.arange(_SIGNED) % _DIGITS + 1, 2)[:, None]

    # Digit k (1-based) sits at 6 for k = 1, else 8 + 2 (k - 2); its '.' slot follows.
    k = np.where(pos >= 8, (pos - 8) // 2 + 2, 1)
    digit = (pos == 6) | ((pos >= 8) & (pos < 40) & (pos % 2 == 0))
    dot = (pos == 7) | ((pos >= 8) & (pos < 40) & (pos % 2 == 1))
    small = fixed & (e < 0)
    keep = (
        ((pos == 0) & sign)
        | (((pos == 1) | (pos == 2)) & small)
        | ((pos >= 3) & (pos <= 5) & small & (pos >= 7 + e))
        | (digit & ((k <= nd) | (fixed & (k <= e + 1))))
        | (dot & (k < nd) & np.where(fixed, e == k - 1, k == 1))
        | (((pos == 40) | (pos == 41) | (pos == 43) | (pos == 44)) & ~fixed)
        | ((pos == 42) & three)
    )
    text = pos < np.arange(_TEXT + 1)[:, None]
    keep = np.concatenate([keep, text])
    separators = np.array([pos == 45, pos >= 46])
    masks = keep[:, None, :] | separators[None, :, :]
    return _words(masks.astype(np.uint8)).reshape(-1, _SLOT // 8)


_POW10 = _pow10()
_BOUND = np.longdouble(0.5) - np.longdouble(2.0) ** 58 * np.finfo(np.longdouble).epsneg
_GROUP, _TRAILING_ZEROS = _group_words()
_HEAD = _head_words()
_TAIL, _SEPARATORS = _tail_words()
_KEEP = _keep_masks()


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
        slots = np.empty((rows, width, _SLOT // 8), np.uint64)
        layout = np.empty((rows, width), np.intp)
        floats = [i for i, a in enumerate(chunk) if a.dtype == np.float64]
        if floats:
            values = np.stack([chunk[i] for i in floats], axis=1)
            words, kinds = _float_slots(values.ravel())
            slots[:, floats] = words.reshape(rows, len(floats), -1)
            layout[:, floats] = kinds.reshape(rows, len(floats))
        for i, a in enumerate(chunk):
            if a.dtype != np.float64:
                slots[:, i], layout[:, i] = _text_slots(a.astype("S"))
        keep = _KEEP[2 * layout + (np.arange(width) == width - 1)]
        return np.compress(keep.view(bool).ravel(), slots.view(np.uint8).ravel()).tobytes()


def _text_slots(text: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slots and layouts of a bytes array, each value written as is."""
    lengths = np.char.str_len(text)
    if lengths.size and lengths.max() > _TEXT:
        raise ValueError(f"a CSV value is longer than {_TEXT} characters")
    raw = np.zeros((text.size, _SLOT), np.uint8)
    width = min(text.itemsize, _TEXT)
    raw[:, :width] = text.view(np.uint8).reshape(text.size, text.itemsize)[:, :width]
    words = _words(raw)
    words[:, -1] = _SEPARATORS
    return words, _TEXT_LAYOUT + lengths


def _float_slots(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slots and layouts of the float64 values x, the bytes of FLOAT % v."""
    magnitude = np.abs(x)
    finite = np.isfinite(x) & (magnitude > 0.0)
    magnitude[~finite] = 1.0
    e = np.floor(np.log10(magnitude)).astype(np.intp)
    with np.errstate(over="ignore", invalid="ignore"):
        p = magnitude.astype(np.longdouble) * _POW10[e - _E_MIN]
        r = np.rint(p)
        certified = finite & (np.abs(p - r) < _BOUND) & (p >= 1e16) & (r < 1e17)
    digits = np.where(certified, r, 1e16).astype(np.uint64)
    first, rest = np.divmod(digits, 10**16)
    high, low = np.divmod(rest, 10**8)
    g1, g2 = np.divmod(high, 10**4)
    g3, g4 = np.divmod(low, 10**4)

    # Significant digits left once the trailing zeros are stripped.
    zeros = _TRAILING_ZEROS
    tail = zeros[g4] + (g4 == 0) * (zeros[g3] + (g3 == 0) * (zeros[g2] + (g2 == 0) * zeros[g1]))
    nd = _DIGITS - tail.astype(np.intp)
    fixed = (e >= _FIXED_MIN) & (e <= _FIXED_MAX)
    layout = np.where(fixed, (e - _FIXED_MIN) * _DIGITS, _FIXED + (np.abs(e) >= 100) * _DIGITS)
    layout += nd - 1 + np.signbit(x) * _SIGNED

    words = np.stack(
        [_HEAD[first], _GROUP[g1], _GROUP[g2], _GROUP[g3], _GROUP[g4], _TAIL[e - _E_MIN]], axis=1
    )
    fallback = np.flatnonzero(~certified)
    if fallback.size:
        text = np.array([FLOAT % v for v in x[fallback].tolist()], dtype="S")
        words[fallback], layout[fallback] = _text_slots(text)
    return words, layout
