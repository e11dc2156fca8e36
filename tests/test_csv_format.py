"""The column writer gives exactly the bytes of ``"%.17g" % v`` and ``str``.

Every float64 is compared with ``FLOAT % v``: drawn floats (nan, inf and
subnormals included), raw 64-bit patterns, a fixed edge list, exact
decimal ties (which must be certified), a value in each of the writer's
float layouts, and a run in which nothing is certified, so every value
takes the per-value fallback.
Each subcommand writes the same bytes to ``--out`` as to stdout.
"""

import io
import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diracpacket import _csv_format
from diracpacket._csv_format import CHUNK_ROWS, FLOAT, Columns
from diracpacket.cli import main


def _written(*columns) -> bytes:
    buffer = io.BytesIO()
    Columns(*columns).write(buffer)
    return buffer.getvalue()


def _expected(*columns) -> bytes:
    formats = [FLOAT if np.asarray(c).dtype == np.float64 else "%s" for c in columns]
    template = ",".join(formats) + "\r\n"
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    return "".join(template % row for row in rows).encode()


def _edge_values() -> np.ndarray:
    powers = np.array([10.0**k for k in range(-323, 309)])
    integers = np.concatenate(
        [np.arange(-1000, 1001), 2.0 ** np.arange(54), 2.0 ** np.arange(54) - 1.0]
    )
    finfo = np.finfo(np.float64)
    special = [0.0, 5e-324, finfo.smallest_normal, 1e16, 1e17, 2.0**53 + 2.0]
    values = np.concatenate(
        [
            powers,
            np.nextafter(powers, 0.0),
            np.nextafter(powers, np.inf),
            integers,
            special,
            np.nextafter(special, 0.0),
            np.nextafter(special, np.inf),
            [finfo.max, np.nextafter(finfo.max, 0.0)],
        ]
    )
    return np.concatenate([values, -values, [np.inf, -np.inf, np.nan]])


@given(st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=300))
def test_drawn_floats_match_percent_format(values):
    x = np.array(values, dtype=np.float64)
    assert _written(x) == _expected(x)


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=300))
def test_raw_bit_patterns_match_percent_format(bits):
    x = np.array(bits, dtype=np.uint64).view(np.float64)
    assert _written(x) == _expected(x)


def test_edge_values_match_percent_format():
    x = _edge_values()
    assert _written(x) == _expected(x)


def test_chunks_of_random_bit_patterns_match_percent_format():
    rng = np.random.default_rng(15)
    # 4 columns of 49 chunks and a partial one: 200,000 values.
    bits = rng.integers(0, 2**64, (4, 50_000), dtype=np.uint64)
    x = bits.view(np.float64)
    assert _written(*x) == _expected(*x)


def test_forced_fallback_gives_the_same_bytes(monkeypatch):
    rng = np.random.default_rng(16)
    x = np.concatenate([rng.normal(size=2000), rng.random(2000) * 1e-7, _edge_values()])
    expected = _expected(x)
    # A value whose power of ten is a double (lo = 0) is certified without
    # the bound, so lo gets no zeros too.
    tables = _csv_format._tables()
    patched = tables._replace(lo=np.where(tables.lo == 0.0, 5e-324, tables.lo))
    monkeypatch.setattr(_csv_format, "_tables", lambda: patched)
    monkeypatch.setattr(_csv_format, "_BOUND", -1.0)
    _, layout = _csv_format._float_slots(x)
    assert np.all(layout >= _csv_format._TEXT_LAYOUT)
    assert _written(x) == expected


def _decimal_ties() -> np.ndarray:
    """Doubles whose exact decimal has 18 significant digits, the last a 5:
    n / 2^(17 - e) for odd n, with exponent e in -6..15 (at 16 and above no
    double is such a tie)."""
    rng = np.random.default_rng(19)
    values = [36322553228610.3125]
    for e in range(-6, 16):
        k = 17 - e
        low = math.ceil(Fraction(10) ** e * 2**k)
        high = min(10 ** (e + 1) * Fraction(2) ** k, 2**53)
        n = rng.integers(low, int(high), 200) | 1
        values += (n / 2.0**k).tolist()
    return np.array(values)


def test_decimal_ties_are_certified():
    x = _decimal_ties()
    for value in x.tolist():
        digits = Decimal(value).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, value
    x = np.concatenate([x, -x])
    _, layout = _csv_format._float_slots(x)
    assert np.all(layout < _csv_format._TEXT_LAYOUT)
    assert _written(x) == _expected(x)


def test_most_values_are_certified():
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64)
    samples = {
        "normal": rng.normal(size=10_000),
        "uniform": rng.random(10_000),
        "random bits": bits[np.isfinite(bits)],
    }
    for name, x in samples.items():
        _, layout = _csv_format._float_slots(x)
        assert np.mean(layout < _csv_format._TEXT_LAYOUT) >= 0.99, name


def test_powers_of_ten_are_nearest_double_pairs():
    tables = _csv_format._tables()
    exponents = range(_csv_format._E_MIN, _csv_format._E_MAX + 1)
    for e, hi, lo, high, low in zip(
        exponents, tables.hi, tables.lo, tables.hi_high, tables.hi_low, strict=True
    ):
        exact = Fraction(10) ** (16 - e)
        if e < _csv_format._TINY_E:
            exact /= 2**_csv_format._TINY_SHIFT
        for value, target in ((hi, exact), (lo, exact - Fraction(hi))):
            error = abs(Fraction(value) - target)
            for neighbour in (np.nextafter(value, -np.inf), np.nextafter(value, np.inf)):
                assert error <= abs(Fraction(neighbour) - target), e
        # The Veltkamp halves of hi, 26 significant bits each.
        assert high + low == hi, e
        for half in (high, low):
            assert _significant_bits(half) <= 26, e


def _significant_bits(value: float) -> int:
    numerator = abs(value).as_integer_ratio()[0]
    return (numerator // (numerator & -numerator)).bit_length() if numerator else 0


def _digits_and_exponent(value: float) -> tuple[int, int]:
    """Significant digits and decimal exponent that %.17g prints for value."""
    mantissa, exponent = ("%.16e" % value).split("e")
    return len(mantissa.lstrip("-").replace(".", "").rstrip("0")), int(exponent)


def _value_printing(nd: int, e: int) -> float | None:
    """A double that %.17g prints with nd significant digits and exponent e,
    found next to decimals of nd digits, or None."""
    pairs = ["".join(pair) for pair in product("123456789", repeat=2)]
    patterns = (lead + pair * 8 for lead in "123456789" for pair in pairs)
    for digits in dict.fromkeys(pattern[:nd] for pattern in patterns):
        value = float(f"{digits[0]}.{digits[1:]}e{e}")
        for candidate in (value, np.nextafter(value, np.inf), np.nextafter(value, 0.0)):
            if _digits_and_exponent(candidate) == (nd, e):
                return float(candidate)
    return None


def _layout_values() -> np.ndarray:
    """Values of each sign, fixed-notation exponent -4..16 or 2- or 3-digit
    exponent, and digit count 1..17: every float layout of the writer."""
    values = []
    for e in [*range(-4, 17), -5, -99, 17, 99, -100, -307, 100, 307]:
        for nd in range(1, 18):
            value = _value_printing(nd, e)
            if value is not None:
                values += [value, -value]
    return np.array(values)


def test_every_layout_matches_percent_format():
    x = _layout_values()
    _, layout = _csv_format._float_slots(x)
    assert set(layout.tolist()) == set(range(_csv_format._TEXT_LAYOUT))
    # x as a middle column (',') and as the last (CRLF).
    assert _written(x, x) == _expected(x, x)


def test_import_builds_no_tables():
    code = (
        "import diracpacket.cli, diracpacket._csv_format as f; "
        "print(f._tables.cache_info().currsize)"
    )
    src = str(Path(_csv_format.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.split() == ["0"]
    _written(np.zeros(1))
    assert _csv_format._tables.cache_info().currsize == 1


def test_mixed_columns_match_the_row_template():
    rng = np.random.default_rng(18)
    rows = 2 * CHUNK_ROWS + 3
    labels = np.tile(["1", "2", "ls", "cl"], rows // 4 + 1)[:rows]
    columns = (
        rng.integers(-(10**12), 10**12, rows),
        rng.normal(size=rows),
        labels,
        rng.normal(size=rows) * 1e-300,
        rng.integers(1, 138, rows),
    )
    assert _written(*columns) == _expected(*columns)
    assert len(Columns(*columns)) == rows


def test_columns_must_be_one_dimensional_and_equal():
    with pytest.raises(ValueError, match="equal length"):
        Columns(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError, match="equal length"):
        Columns(np.zeros((2, 2)))
    assert _written(np.array(["x" * 29])) == b"x" * 29 + b"\r\n"
    for length in (30, 41):
        with pytest.raises(ValueError, match="longer than"):
            _written(np.array(["x" * length]))
    with pytest.raises(ValueError, match="NUL"):
        _written(np.array(["a\0b"]))


JOBS = [
    ("timescales", "--Z", "1:4", "--N", "2:6"),
    ("autocorr", "--Z", "1", "--N", "20", "--samples", "2100"),
    ("spin", "--Z", "92", "--N", "40", "--samples", "1500"),
    ("density", "--Z", "92", "--N", "20", "--time", "0.4", "--grid", "40"),
    ("smallnorm", "--Z", "1:4", "--N", "10:20:10"),
]


@pytest.mark.parametrize("argv", JOBS, ids=[argv[0] for argv in JOBS])
def test_out_file_and_stdout_bytes_agree(tmp_path, capsysbinary, argv):
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    capsysbinary.readouterr()
    assert main(list(argv)) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()
