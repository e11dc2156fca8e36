"""The benchmark under ``bench/`` drives the real package; keep its hooks.

``bench/tracing.py`` wraps named functions on the ``cli``, ``packet`` and
``density`` modules, and ``bench/checks.py`` reads ``PacketTables`` fields
directly.  A removal in the package that broke either would make every
benchmark job fail, so both are exercised here at tiny sizes.
"""

import importlib.util
import random
import re
from pathlib import Path

import pytest

from diracpacket import PacketSpec, build_tables, cli, density, packet

BENCH = Path(__file__).resolve().parent.parent / "bench"

JOBS = [
    ("timescales", "--Z", "1:4", "--N", "2:6"),
    ("autocorr", "--Z", "1", "--N", "20", "--samples", "200", "--tmax", "10.5"),
    ("spin", "--Z", "92", "--N", "40", "--samples", "200", "--tmax", "10.3"),
    ("density", "--Z", "92", "--N", "20", "--unit", "kepler", "--time", "0.4", "--grid", "32"),
    ("smallnorm", "--Z", "1:4", "--N", "10:20:10"),
]


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


@pytest.fixture(scope="module")
def checks():
    return _load("checks")


def _attributes():
    return {
        (module.__name__, name): value
        for module in (cli, packet, density)
        for name, value in vars(module).items()
        if callable(value)
    } | {("_COMMANDS", name): value for name, value in cli._COMMANDS.items()}


def test_tracer_installs_and_restores_on_the_package(tracing, tmp_path):
    before = _attributes()
    tracer = tracing.Tracer(cli, packet, density)
    with tracer.installed():
        for argv in JOBS:
            with tracer.job():
                assert cli.main([*argv, "--out", str(tmp_path / f"{argv[0]}.csv")]) == 0
    assert _attributes() == before
    wall, _, _ = tracer.layer_times()
    for layer in (
        "cli.cmd", "cli.write", "packet.build_tables", "packet.timescales",
        "packet.autocorrelation", "packet.spin_expect", "density.density_grid",
        "dirac_coulomb.eval_radial",
    ):
        assert wall.get(layer, 0.0) > 0.0, layer
    assert tracer.counts["density.nodes"] == 32 * 32


def test_sweeps_build_no_states(tracing, tmp_path):
    # Every job works on arrays; the density reads the window's rows.
    tracer = tracing.Tracer(cli, packet, density)
    with tracer.installed():
        for argv in JOBS:
            with tracer.job():
                assert cli.main([*argv, "--out", str(tmp_path / f"{argv[0]}.csv")]) == 0
    # Eight smallnorm packets, and one each for autocorr, spin and density.
    assert tracer.counts["packet.build_tables_calls"] == 11
    assert tracer.counts["dirac_coulomb.make_circular_state_calls"] == 0
    assert tracer.counts["dirac_coulomb.overlap_calls"] == 0


def test_checks_accept_every_subcommand_output(checks, tmp_path):
    rng = random.Random(3)
    for argv in JOBS:
        out = tmp_path / f"{argv[0]}.csv"
        assert cli.main([*argv, "--out", str(out)]) == 0
        problems, errors = checks.evaluate(out, rng)
        assert problems == [], argv[0]
        # smallnorm is the one output without an independent reference.
        assert bool(errors) == (argv[0] != "smallnorm"), argv[0]


def test_tables_expose_every_field_checks_reads():
    source = (BENCH / "checks.py").read_text(encoding="utf-8")
    fields = set(re.findall(r"\btables\.(\w+)", source))
    assert {"sy_sin", "sx_cos", "k_coef", "acf_plus", "acf_minus"} <= fields
    tables = build_tables(PacketSpec(Z=92, N=20, sigma_g=2.0))
    for name in sorted(fields):
        assert hasattr(tables, name), name
