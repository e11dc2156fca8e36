"""The column writer gives exactly the bytes of ``"%.17g" % v`` and ``str``.

Every float64 is compared with ``FLOAT % v``: drawn floats (nan, inf and
subnormals included), raw 64-bit patterns, a fixed edge list, and a run in
which nothing is certified, so every value takes the per-value fallback.
Each subcommand writes the same bytes to ``--out`` as to stdout.
"""

import io
from fractions import Fraction

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
    monkeypatch.setattr(_csv_format, "_BOUND", np.longdouble(-1.0))
    assert _written(x) == expected


def test_most_values_are_certified_where_long_double_is_wider():
    rng = np.random.default_rng(17)
    _, layout = _csv_format._float_slots(rng.normal(size=10_000))
    certified = np.mean(layout < _csv_format._TEXT_LAYOUT)
    if np.finfo(np.longdouble).nmant >= 63:
        assert certified > 0.9
    else:
        assert certified == 0.0


def test_powers_of_ten_are_nearest_long_doubles():
    for e, power in zip(range(_csv_format._E_MIN, _csv_format._E_MAX + 1), _csv_format._POW10):
        exact = Fraction(10) ** (16 - e)
        error = abs(Fraction(*power.as_integer_ratio()) - exact)
        for neighbour in (np.nextafter(power, np.longdouble(0)), np.nextafter(power, np.inf)):
            assert error <= abs(Fraction(*neighbour.as_integer_ratio()) - exact), e


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
    with pytest.raises(ValueError, match="longer than"):
        _written(np.array(["x" * 41]))


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
