"""End-to-end checks of the command-line front end.

Everything runs in-process through ``cli.main`` so exit codes, stdout,
stderr, and written files are all observable without spawning a shell.
"""

import contextlib
import gc
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from diracpacket import __version__, dirac_coulomb, packet
from diracpacket.cli import _MANIFEST_KEYS, main, parse_range

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run_cli(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def split_csv(text):
    """Return (manifest dict, header list, data rows) from CSV text."""
    lines = text.split("\r\n")
    assert lines[0].startswith("# ")
    manifest = json.loads(lines[0][2:])
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:] if line]
    return manifest, header, rows


# -------------------------------------------------------------- subcommands


def test_timescales_manifest_and_hierarchy(tmp_path, capsys):
    out = tmp_path / "scales.csv"
    rc, _, _ = run_cli(
        ["timescales", "--Z", "92", "--N", "20", "--out", str(out)], capsys
    )
    assert rc == 0
    manifest, header, rows = split_csv(out.read_bytes().decode("utf-8"))
    assert manifest["command"] == "timescales"
    assert manifest["params"]["Z"] == "92"
    assert manifest["params"]["N"] == "20"
    assert header == ["Z", "N", "k", "T_k_natural", "T_k_over_T1", "T_k_seconds"]
    labels = [row[2] for row in rows]
    assert labels == ["1", "2", "3", "4", "ls", "cl"]
    by_label = {row[2]: row for row in rows}
    assert float(by_label["1"][4]) == 1.0
    assert float(by_label["2"][4]) == pytest.approx(13.328321574519796, rel=1e-12)
    assert float(by_label["ls"][4]) == pytest.approx(1685.5665002458745, rel=1e-12)
    # seconds column is the natural value times the Compton time
    t1 = float(by_label["1"][3])
    assert float(by_label["1"][5]) == pytest.approx(t1 * 1.2880887e-21, rel=1e-12)


def test_csv_uses_crlf_line_endings(tmp_path, capsys):
    out = tmp_path / "scales.csv"
    rc, _, _ = run_cli(
        ["timescales", "--Z", "1", "--N", "5", "--out", str(out)], capsys
    )
    assert rc == 0
    raw = out.read_bytes()
    assert raw.count(b"\r\n") > 0
    assert raw.count(b"\n") == raw.count(b"\r\n")


def test_autocorr_series_starts_at_unity(capsys):
    rc, out, _ = run_cli(
        ["autocorr", "--Z", "92", "--N", "4", "--sigma", "0.8",
         "--samples", "5", "--tmax", "1.0"],
        capsys,
    )
    assert rc == 0
    manifest, header, rows = split_csv(out)
    assert header[0] == "t_in_selected_unit"
    assert len(rows) == 5
    assert float(rows[0][1]) == 0.0
    assert float(rows[0][4]) == pytest.approx(1.0, abs=1e-12)
    for row in rows:
        assert float(row[4]) <= 1.0 + 1e-12
        # the stored modulus squared matches the stored real/imag parts
        re, im = float(row[2]), float(row[3])
        assert float(row[4]) == pytest.approx(re * re + im * im, rel=1e-14)
    assert manifest["params"]["sigma"] == 0.8


def test_autocorr_modulus_squared_is_pythons_abs_squared(tmp_path):
    # The array expression must give abs(complex) ** 2 bit for bit; the
    # written digits round-trip, so the file carries the exact values.
    out = tmp_path / "a.csv"
    assert main(["autocorr", "--Z", "92", "--N", "20", "--samples", "200000",
                 "--out", str(out)]) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=2, usecols=(2, 3, 4))
    expected = [abs(complex(re, im)) ** 2 for re, im in data[:, :2].tolist()]
    assert data[:, 2].tobytes() == np.array(expected).tobytes()


def test_autocorr_rows_do_not_depend_on_no_small(capsys):
    # A(t) reads the eigenstate populations, not the radial integrals that
    # --no-small replaces; only the manifest records the switch.
    argv = ["autocorr", "--Z", "92", "--N", "20", "--unit", "kepler", "--tmax", "3",
            "--samples", "200"]
    runs = [run_cli(argv + switch, capsys) for switch in ([], ["--no-small"])]
    (rc, out, _), (rc_limit, out_limit, _) = runs
    assert rc == rc_limit == 0
    manifest, header, rows = split_csv(out)
    manifest_limit, header_limit, rows_limit = split_csv(out_limit)
    assert (manifest["params"]["no_small"], manifest_limit["params"]["no_small"]) == (False, True)
    assert header == header_limit and rows == rows_limit


def test_spin_series_initial_row(capsys):
    rc, out, _ = run_cli(
        ["spin", "--Z", "92", "--N", "4", "--sigma", "0.8",
         "--samples", "4", "--tmax", "2.0"],
        capsys,
    )
    assert rc == 0
    _, header, rows = split_csv(out)
    assert header == ["t", "sx", "sy", "sz", "spin_length"]
    sx, sy, sz, length = (float(v) for v in rows[0][1:])
    assert sy == 0.0
    # low shell at Z = 92: relativistic mixing shaves about 1.2% off sx
    assert sx > 0.95
    assert abs(length - math.sqrt(sx * sx + sy * sy + sz * sz)) < 1e-15


def test_spin_no_small_gives_unit_initial_spin(capsys):
    rc, out, _ = run_cli(
        ["spin", "--Z", "92", "--N", "4", "--sigma", "0.8", "--a", "1", "--b", "0",
         "--samples", "3", "--tmax", "1.0", "--no-small"],
        capsys,
    )
    assert rc == 0
    manifest, _, rows = split_csv(out)
    assert manifest["params"]["no_small"] is True
    assert float(rows[0][3]) == pytest.approx(1.0, abs=1e-12)


def test_smallnorm_sweep_monotone_in_charge(capsys):
    rc, out, _ = run_cli(
        ["smallnorm", "--Z", "1:93:10", "--N", "10", "--sigma", "0.8"], capsys
    )
    assert rc == 0
    manifest, header, rows = split_csv(out)
    assert manifest["params"]["Z"] == "1:93:10"
    assert header == ["Z", "N", "c3_norm", "c4_norm", "total"]
    assert [int(row[0]) for row in rows] == list(range(1, 93, 10))
    totals = [float(row[4]) for row in rows]
    assert all(b > a for a, b in zip(totals, totals[1:]))
    for row in rows:
        assert float(row[4]) == pytest.approx(
            float(row[2]) + float(row[3]), rel=1e-12
        )


def test_density_grid_csv(tmp_path, capsys):
    out = tmp_path / "rho.csv"
    rc, _, _ = run_cli(
        ["density", "--Z", "92", "--N", "4", "--sigma", "0.8",
         "--grid", "16", "--out", str(out)],
        capsys,
    )
    assert rc == 0
    manifest, header, rows = split_csv(out.read_bytes().decode("utf-8"))
    assert header == ["x_over_rN", "y_over_rN", "rho_up", "rho_down", "rho_total"]
    assert manifest["r_N_compton"] == pytest.approx(16 * 137.036 / 92, rel=1e-12)
    assert manifest["t_natural"] == 0.0
    assert len(rows) == 16 * 16
    data = np.array([[float(v) for v in row] for row in rows])
    assert np.all(np.isfinite(data))
    assert np.all(data[:, 2] >= 0.0)
    assert np.all(data[:, 3] >= 0.0)
    # rho_total is written from the same doubles, so it adds up exactly
    assert np.all(data[:, 4] == data[:, 2] + data[:, 3])
    assert np.max(np.abs(data[:, 0])) == pytest.approx(1.6, rel=1e-12)


# ------------------------------------------------------------ config files


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(
        {"Z": "92", "N": "4", "sigma": 0.8, "samples": 5, "tmax": 1.0}
    ))
    out = tmp_path / "series.csv"
    rc, _, _ = run_cli(
        ["autocorr", "--config", str(config), "--samples", "7", "--out", str(out)],
        capsys,
    )
    assert rc == 0
    manifest, _, rows = split_csv(out.read_bytes().decode("utf-8"))
    assert len(rows) == 7
    assert manifest["params"]["samples"] == 7
    assert manifest["params"]["tmax"] == 1.0


def test_manifest_readback_reproduces_bytes(tmp_path, capsys):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    args = ["autocorr", "--Z", "92", "--N", "4", "--sigma", "0.8",
            "--samples", "6", "--tmax", "2.0"]
    rc, _, _ = run_cli(args + ["--out", str(first)], capsys)
    assert rc == 0
    rc, _, _ = run_cli(
        ["autocorr", "--config", str(first), "--out", str(second)], capsys
    )
    assert rc == 0
    assert first.read_bytes() == second.read_bytes()


def test_unknown_config_key_rejected(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"Z": "92", "N": "4", "zeta": 3}))
    rc, _, err = run_cli(["autocorr", "--config", str(config)], capsys)
    assert rc == 2
    assert "error:" in err
    assert "zeta" in err


def test_config_key_of_another_subcommand_rejected(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"Z": "92", "N": "4", "grid": 16}))
    rc, out, err = run_cli(["autocorr", "--config", str(config)], capsys)
    assert rc == 2
    assert out == ""
    assert "error:" in err and "grid" in err


def test_manifest_of_another_subcommand_rejected(tmp_path, capsys):
    rho = tmp_path / "rho.csv"
    rc, _, _ = run_cli(
        ["density", "--Z", "92", "--N", "4", "--sigma", "0.8", "--grid", "16",
         "--out", str(rho)],
        capsys,
    )
    assert rc == 0
    rc, out, err = run_cli(["autocorr", "--config", str(rho)], capsys)
    assert rc == 2
    assert out == ""
    assert "error:" in err and "'density'" in err and "'autocorr'" in err


@pytest.mark.parametrize(
    "first_line",
    [
        "# 5", "# [1]", '# "autocorr"', "# {bad", "[1, 2]", b"\xff\xfe{}",
        '# {"command": "autocorr", "params": [1]}',
    ],
)
def test_config_that_is_not_a_json_object_names_the_file(tmp_path, capsys, first_line):
    config = tmp_path / "odd.csv"
    if isinstance(first_line, bytes):
        config.write_bytes(first_line)  # not UTF-8
    else:
        config.write_text(first_line + "\r\nt,re_A\r\n")
    rc, out, err = run_cli(["autocorr", "--config", str(config)], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and str(config) in err


@pytest.mark.parametrize(
    "command, text",
    [
        ("autocorr", '{"sigma": null}'),
        ("autocorr", '{"samples": [3]}'),
        ("autocorr", '{"samples": 1e400}'),
        ("autocorr", '{"sigma": true}'),
        ("spin", '{"no_delta": "false"}'),
        ("autocorr", '{"no_small": 1}'),
        # an integer out would be opened as a file descriptor; this one
        # cannot be open, so a regression cannot close the runner's stderr
        ("autocorr", '{"out": 987654}'),
        # argparse refuses a non-integral --samples, so the config must too
        ("autocorr", '{"samples": 2.5}'),
        ("density", '{"grid": 16.5}'),
        ("timescales", '{"kmax": 3.0}'),
    ],
)
def test_config_value_of_the_wrong_type_names_key_and_file(tmp_path, capsys, command, text):
    config = tmp_path / "typed.json"
    config.write_text(text)
    (key,) = json.loads(text)
    rc, out, err = run_cli([command, "--Z", "92", "--N", "4", "--config", str(config)], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and str(config) in err and repr(key) in err


def test_flag_of_another_subcommand_rejected(capsys):
    for argv in (
        ["timescales", "--Z", "92", "--N", "20", "--grid", "7"],
        ["smallnorm", "--Z", "92", "--N", "20", "--samples", "5"],
        ["density", "--Z", "92", "--N", "20", "--workers", "3"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


def test_help_lists_only_the_manifest_flags(capsys):
    for command, keys in _MANIFEST_KEYS.items():
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"--[\w-]+", capsys.readouterr().out)) - {"--help"}
        expected = {"--" + key.replace("_", "-") for key in keys} | {"--config", "--out"}
        assert listed == expected, command


def test_bad_unit_in_config_rejected(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"Z": "92", "N": "4", "unit": "minutes"}))
    rc, _, err = run_cli(["autocorr", "--config", str(config)], capsys)
    assert rc == 2
    assert "error:" in err and "unit" in err
    # The flag's own choices refuse it before any config is read.
    with pytest.raises(SystemExit) as exc:
        main(["autocorr", "--Z", "92", "--N", "4", "--unit", "minutes"])
    assert exc.value.code == 2 and "--unit" in capsys.readouterr().err


# ------------------------------------------------------------ failure modes


def test_stdout_without_a_buffer_gets_the_text_of_the_file(tmp_path):
    # 6,960 rows: more than one chunk of the writer.
    argv = ["timescales", "--Z", "1:40", "--N", "2:30"]
    target = tmp_path / "scales.csv"
    assert main([*argv, "--out", str(target)]) == 0
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert main(argv) == 0
    assert text.getvalue() == target.read_bytes().decode("ascii")


def test_unwritable_output_reports_and_exits(tmp_path, capsys):
    for target in (tmp_path, tmp_path / "missing" / "scales.csv"):
        rc, out, err = run_cli(
            ["timescales", "--Z", "1", "--N", "5", "--out", str(target)], capsys
        )
        assert rc == 2
        assert out == ""
        assert err.startswith("error: cannot write output") and str(target) in err
        assert "Traceback" not in err


def test_supercritical_charge_reports_and_exits(capsys):
    rc, _, err = run_cli(["timescales", "--Z", "138", "--N", "2"], capsys)
    assert rc == 2
    assert err.startswith("error:")
    assert "138" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        # The first failing point in Z-major order: Z = 138 binds no j- partner at N = 2.
        (
            ["--Z", "130:140", "--N", "2"],
            "supercritical coupling: Z*alpha = 1.00703465 >= |kappa| = 1 (Z = 138, kappa = 1)",
        ),
        (
            ["--Z", "275:280", "--N", "3:4"],
            "supercritical coupling: Z*alpha = 2.00677194 >= |kappa| = 2 (Z = 275, kappa = 2)",
        ),
        # The sweep's one bad point is its last.
        (
            ["--Z", "1:138", "--N", "2"],
            "supercritical coupling: Z*alpha = 1.00703465 >= |kappa| = 1 (Z = 138, kappa = 1)",
        ),
        (["--Z", "136:139", "--N", "1:3"], "require N >= 2 (an integer), got 1"),
        (["--Z", "1:4", "--N", "2:6", "--kmax", "7"], "require 1 <= k_max <= 6, got 7"),
        (["--Z", "1", "--N", "2", "--kmax", "0"], "require 1 <= k_max <= 6, got 0"),
    ],
    ids=[
        "supercritical-z138", "supercritical-z275", "last-point", "n-below-2", "kmax-7", "kmax-0",
    ],
)
def test_timescales_sweep_reports_its_first_bad_point(argv, message, capsys):
    rc, out, err = run_cli(["timescales", *argv], capsys)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_empty_and_malformed_ranges(capsys):
    rc, _, err = run_cli(["smallnorm", "--Z", "5:2", "--N", "10"], capsys)
    assert rc == 2
    assert "error:" in err
    rc, _, err = run_cli(["smallnorm", "--Z", "1:9:0", "--N", "10"], capsys)
    assert rc == 2
    rc, _, err = run_cli(["smallnorm", "--Z", "x", "--N", "10"], capsys)
    assert rc == 2


def test_range_rejected_where_single_value_needed(capsys):
    rc, _, err = run_cli(
        ["autocorr", "--Z", "1:5", "--N", "4", "--samples", "3"], capsys
    )
    assert rc == 2
    assert "error:" in err


def test_parameter_preconditions(capsys):
    rc, _, err = run_cli(
        ["autocorr", "--Z", "92", "--N", "4", "--samples", "1"], capsys
    )
    assert rc == 2 and "samples" in err
    rc, _, err = run_cli(
        ["autocorr", "--Z", "92", "--N", "4", "--sigma", "-1"], capsys
    )
    assert rc == 2
    rc, _, err = run_cli(
        ["autocorr", "--Z", "92", "--N", "4", "--a", "1", "--b", "1"], capsys
    )
    assert rc == 2
    rc, _, err = run_cli(["autocorr", "--Z", "92", "--N", "4", "--a", "nan"], capsys)
    assert rc == 2 and "a^2 + b^2 = 1" in err
    rc, _, err = run_cli(["autocorr", "--N", "4"], capsys)
    assert rc == 2 and "Z is required" in err
    rc, _, err = run_cli(["timescales", "--Z", "0", "--N", "5"], capsys)
    assert rc == 2 and "Z >= 1" in err
    rc, _, err = run_cli(["smallnorm", "--Z", "92", "--N", "20", "--sigma", "1e308"], capsys)
    assert rc == 2 and "sigma_g" in err and "Traceback" not in err
    # Missing and malformed inputs, and size limits, each checked before
    # its arrays are allocated.
    for argv, word in [
        (["autocorr", "--Z", "92"], "N is required"),
        (["spin", "--Z", "92", "--N", "4", "--tmin", "3", "--tmax", "3"], "tmax > tmin"),
        (["autocorr", "--Z", "92", "--N", "4", "--tmin", "inf"], "tmax > tmin"),
        (["smallnorm", "--Z", "1:2:3:4", "--N", "10"], "START:STOP[:STEP]"),
        (["smallnorm", "--Z", "92", "--N", "20", "--sigma", "1e9"], "1001 shells"),
        (["density", "--Z", "92", "--N", "20", "--grid", "100000"], "2048"),
        (["autocorr", "--Z", "92", "--N", "20", "--samples", "100000000"], "samples"),
        (["timescales", "--Z", "1:1000000000", "--N", "2"], "100000"),
        (["smallnorm", "--Z", "1:100", "--N", "2:1002"], "100000"),
        (["smallnorm", "--Z", "5", "--N", "1" + "0" * 30], "require n <= 100000"),
        (["timescales", "--Z", "5", "--N", "1" + "0" * 80], "require n <= 100000"),
        # The span 2 extent r_N past the double range: no NumPy warning first.
        (["density", "--Z", "92", "--N", "20", "--extent", "2e305"], "extent"),
        (["density", "--Z", "137", "--N", "2", "--extent", "4e307"], "extent"),
        # The origin floor, 1e-12 of extent r_N, below the normal doubles:
        # no divide-by-zero warning, and a message that names extent.
        (["density", "--Z", "1", "--N", "300", "--grid", "17", "--extent", "1e-318"], "extent"),
        (["density", "--Z", "137", "--N", "2", "--grid", "17", "--extent", "5e-324"], "extent"),
        # A normal floor, but the kappa = 1 partner's r^(gamma - 1) near the
        # origin puts the density past the double range: no overflow warning.
        (["density", "--Z", "137", "--N", "2", "--grid", "16", "--extent", "1e-170"], "extent"),
        (["density", "--Z", "137", "--N", "2", "--grid", "16", "--extent", "1e-200"], "extent"),
        # Times and sample counts are TimeGrid's checks; the command line
        # keeps only tmax > tmin, which a NaN fails.
        (["autocorr", "--Z", "92", "--N", "4", "--tmax", "inf"], "times must be finite"),
        (["autocorr", "--Z", "92", "--N", "4", "--tmin", "nan"], "tmax > tmin"),
        (["spin", "--Z", "92", "--N", "4", "--samples", "0"], "require samples >= 2"),
    ]:
        rc, out, err = run_cli(argv, capsys)
        assert rc == 2 and out == "" and word in err and "Traceback" not in err


def test_kets_built_only_for_density(tmp_path, monkeypatch, capsys):
    calls = []
    build_kets = packet._ket_table

    def counted(*args):
        calls.append(args)
        return build_kets(*args)

    monkeypatch.setattr(packet, "_ket_table", counted)
    for argv, expected in [
        (["smallnorm", "--Z", "90:92", "--N", "10:20:10"], 0),
        (["autocorr", "--Z", "92", "--N", "20", "--samples", "20"], 0),
        (["spin", "--Z", "92", "--N", "20", "--samples", "20"], 0),
        (["timescales", "--Z", "92", "--N", "20"], 0),
        (["density", "--Z", "92", "--N", "20", "--grid", "16"], 1),
    ]:
        calls.clear()
        rc, _, _ = run_cli([*argv, "--out", str(tmp_path / "out.csv")], capsys)
        assert rc == 0 and len(calls) == expected, argv[0]


def _shells(*windows):
    """The shells of the windows (first, last), in order."""
    return [n for first, last in windows for n in range(first, last + 1)]


@pytest.mark.parametrize(
    "argv, calls",
    [
        # Windows [2, 20], [10, 30], ..., [50, 70]: one call over 69 shells per charge.
        (["--Z", "1:3", "--N", "10:60:10"], [_shells((2, 70))] * 3),
        # Windows [2, 20] and [21, 41] touch; [2, 20] and [22, 42] leave out 21.
        (["--Z", "5", "--N", "10:31:21"], [_shells((2, 41))]),
        (["--Z", "5", "--N", "10:32:22"], [_shells((2, 20), (22, 42))]),
        # Windows 10,000 shells apart: one call over their 208 shells, not the
        # 90,019 shells of the span between them.
        (
            ["--Z", "5", "--N", "10:90010:10000"],
            [_shells((2, 20), *((N - 10, N + 10) for N in range(10010, 90011, 10000)))],
        ),
        # Windows [N - 1, N + 1]: the 1,101 specs come 1,001 at a time.
        (
            ["--Z", "1", "--N", "2:1102", "--sigma", "0.1"],
            [_shells((2, 1003)), _shells((1002, 1103))],
        ),
    ],
    ids=["dense", "touching", "one-shell-apart", "sparse", "long"],
)
def test_smallnorm_calls_window_rows_once_per_run(argv, calls, tmp_path, monkeypatch, capsys):
    # A run is what _sweep_tables evaluates at once: up to 1,001 consecutive
    # specs of one charge, whose windows' shells go to one _window_rows call.
    shells = []
    window_rows = packet._window_rows

    def recorded(xi, n):
        shells.append(n.tolist())
        return window_rows(xi, n)

    # Every transcendental of the array kernels goes through _each.  The
    # levels take hypot; the radial data (_radial, with log, lgamma, log1p)
    # and _overlap (log, lgamma, exp) are not needed for the small-component
    # norms, which read the binding energies only.
    transcendentals = set()
    each = dirac_coulomb._each

    def recorded_each(fn, *args):
        transcendentals.add(fn.__name__)
        return each(fn, *args)

    monkeypatch.setattr(packet, "_window_rows", recorded)
    monkeypatch.setattr(dirac_coulomb, "_each", recorded_each)
    for name in ("_radial", "_overlap"):
        monkeypatch.setattr(
            dirac_coulomb, name, lambda *args, name=name: pytest.fail(f"smallnorm evaluated {name}")
        )
    rc, _, _ = run_cli(["smallnorm", *argv, "--out", str(tmp_path / "out.csv")], capsys)
    assert rc == 0 and shells == calls
    assert transcendentals == {"hypot"}


def test_smallnorm_sweep_reports_its_first_bad_charge(tmp_path, capsys):
    out = tmp_path / "F"
    rc, stdout, err = run_cli(
        ["smallnorm", "--Z", "136:138", "--N", "10:20:10", "--out", str(out)], capsys
    )
    message = "supercritical coupling: Z*alpha = 1.00703465 >= |kappa| = 1 (Z = 138, kappa = 1)"
    assert (rc, stdout, err) == (2, "", f"error: {message}\n")
    assert not out.exists()


def test_repeated_main_calls_leave_no_cyclic_garbage(tmp_path):
    # The parser is built once per process, so a job after the first
    # leaves nothing behind for the cyclic collector.
    argv = ["autocorr", "--Z", "92", "--N", "20", "--samples", "50"]
    argv += ["--out", str(tmp_path / "a.csv")]
    assert main(argv) == 0
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        assert gc.collect() == 0
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def test_package_and_manifest_versions_agree(capsys):
    project = re.search(r'^version = "([^"]+)"$', PYPROJECT.read_text(encoding="utf-8"), re.M)
    rc, out, _ = run_cli(["timescales", "--Z", "1", "--N", "2"], capsys)
    manifest, _, _ = split_csv(out)
    assert rc == 0
    assert project.group(1) == __version__ == manifest["version"]


def test_parse_range_forms():
    assert parse_range("7", "Z") == [7]
    assert parse_range("2:6", "N") == [2, 3, 4, 5, 6]
    assert parse_range("1:10:3", "Z") == [1, 4, 7, 10]
