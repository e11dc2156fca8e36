"""Command-line front end: CSV output with reproducible run manifests.

Five subcommands mirror the library surface: ``timescales`` (the T(k)
hierarchy plus the spin-orbit and Kepler rows, sweepable over Z and N),
``autocorr`` (A(t) series), ``spin`` (spin expectation series),
``density`` (equatorial-plane grid in long format), and ``smallnorm``
(small-component norm surface over Z and N).

Every CSV starts with a one-line JSON manifest comment: the subcommand,
tool version, alpha, the natural-unit definition, and the full parameter
set that produced the file.  Feeding that file back through ``--config``
reruns the identical computation, so any output can be regenerated
byte-for-byte from its own header.  ``--config`` also accepts a plain
JSON file with the same flat keys; explicit flags override config values.
Each subcommand takes only the flags and config keys of its own manifest
(plus ``--config`` and ``--out``), and a manifest written by another
subcommand is rejected.

Subcommands return their output as columns: 1-D float64 arrays, or
int and string arrays.  All text comes from one float format, ``%.17g``
(17 significant digits, round-trip exact for doubles, '.' decimal
separator), or from ``str``.  The writer (``_csv_format``) formats the
columns a chunk of rows at a time, with exactly the bytes that
``"%.17g" % v`` gives, and writes them in binary with CRLF line endings
(as text to a stdout with no binary buffer), never holding the whole
file's text.

Exit status 0 when every output was written; 2 when a parameter violates
a precondition (the message names it); 1 for unexpected failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import types

import numpy as np

from . import __version__
from ._csv_format import Columns, _tables
from .constants import COMPTON_TIME_SECONDS, DEFAULT_CONSTANTS
from .density import PlaneGridSpec, density_grid
from .packet import (
    PacketSpec,
    PacketTables,
    TimeGrid,
    _TIME_UNITS,
    _sweep_tables,
    _timescale_rows,
    autocorrelation,
    build_tables,
    small_norm,
    spin_expect,
    timescales,
)

# Most time samples in one series: 5 times 200,000, whose run peaks near
# 45 MB (1,000,000 near 95 MB, mostly the series' arrays); see README.
_MAX_SAMPLES = 1_000_000

# Most (Z, N) points in one sweep (18 times the benchmark's 5,428); see README.
_MAX_SWEEP = 100_000

# Parameters echoed into the manifest, per subcommand.  Everything that
# influences the output bytes is listed, and nothing else: these are also
# the subcommand's only flags and config keys.
_MANIFEST_KEYS = {
    "timescales": ("Z", "N", "kmax"),
    "autocorr": ("Z", "N", "sigma", "a", "b", "tmin", "tmax", "samples", "unit", "no_small"),
    "spin": (
        "Z", "N", "sigma", "a", "b", "tmin", "tmax", "samples", "unit",
        "no_delta", "no_small",
    ),
    "density": ("Z", "N", "sigma", "a", "b", "time", "unit", "grid", "extent"),
    "smallnorm": ("Z", "N", "sigma", "a", "b"),
}


class CliError(Exception):
    """Parameter or configuration problem; message names the precondition."""


def parse_range(text, name: str) -> list[int]:
    """Parse an integer or an inclusive START:STOP[:STEP] range."""
    parts = str(text).split(":")
    malformed = f"{name} must be an integer or START:STOP[:STEP] range, got {text!r}"
    if len(parts) > 3:
        raise CliError(malformed)
    try:
        numbers = [int(p) for p in parts]
    except ValueError:
        raise CliError(malformed) from None
    if len(numbers) == 1:
        return numbers
    if len(numbers) == 2:
        start, stop = numbers
        step = 1
    else:
        start, stop, step = numbers
    if step <= 0:
        raise CliError(f"{name} range step must be positive, got {step}")
    if stop < start:
        raise CliError(f"{name} range is empty: {text!r}")
    values = range(start, stop + 1, step)
    if len(values) > _MAX_SWEEP:
        raise CliError(f"{name} range {text!r} has more than {_MAX_SWEEP} values")
    return list(values)


def _sweep(cfg: dict) -> tuple[list[int], list[int]]:
    """The Z and N of a sweep's points, Z-major, at most _MAX_SWEEP of them."""
    z_values = parse_range(cfg["Z"], "Z")
    n_values = parse_range(cfg["N"], "N")
    if len(z_values) * len(n_values) > _MAX_SWEEP:
        raise CliError(
            f"sweep of {len(z_values)} Z x {len(n_values)} N values has more "
            f"than {_MAX_SWEEP} points"
        )
    return [Z for Z in z_values for _ in n_values], n_values * len(z_values)


def _single(text, name: str) -> int:
    values = parse_range(text, name)
    if len(values) != 1:
        raise CliError(f"{name} must be a single integer here, got range {text!r}")
    return values[0]


def _load_config(path: str, command: str) -> dict:
    """Flat JSON config, or a CSV this command wrote whose manifest is reused."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            first = fh.readline()
            is_manifest = first.startswith("#")
            text = first[1:] if is_manifest else first + fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read config {path!r}: {exc}") from None
    what = "manifest" if is_manifest else "config"
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"{what} in {path!r} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise CliError(f"{what} in {path!r} must be a JSON object")
    if not is_manifest:
        return data
    if data.get("command") != command:
        raise CliError(
            f"manifest in {path!r} was written by {data.get('command')!r}, not {command!r}"
        )
    params = data.get("params")
    if not isinstance(params, dict):
        raise CliError(f"manifest in {path!r} carries no params object")
    return params


def _config_value_ok(key: str, value) -> bool:
    """Whether a config value has a type its flag could have produced."""
    if key == "out":
        return isinstance(value, str)
    flag = _FLAGS[key]
    if "action" in flag:
        return isinstance(value, bool)
    # int(2.5) would pass, but argparse refuses --samples 2.5 and 3.0 alike.
    if isinstance(value, bool) or (flag.get("type") is int and isinstance(value, float)):
        return False
    try:
        flag.get("type", str)(value)
    except (TypeError, ValueError, OverflowError):
        return False
    return True


def _resolve(args: argparse.Namespace) -> dict:
    """Merge defaults, config file, and explicit flags (flags win)."""
    merged = {key: _FLAGS[key].get("default") for key in _MANIFEST_KEYS[args.command]}
    merged["out"] = None
    if args.config is not None:
        config = _load_config(args.config, args.command)
        unknown = set(config) - set(merged)
        if unknown:
            raise CliError(f"unknown config keys for {args.command}: {sorted(unknown)}")
        for key, value in config.items():
            if not _config_value_ok(key, value):
                raise CliError(
                    f"config key {key!r} in {args.config!r} has a value of the "
                    f"wrong type: {value!r}"
                )
        merged.update(config)
    for key in merged:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    for key in ("Z", "N"):
        if merged[key] is None:
            raise CliError(f"{key} is required (flag --{key} or config key)")
    return merged


def _write_csv(out_path, manifest: dict, header: list[str], columns: Columns) -> None:
    """Write the manifest line, the header and the rows of columns to out_path or stdout."""
    head = f"# {json.dumps(manifest, sort_keys=True)}\r\n{','.join(header)}\r\n".encode()
    if out_path is None:
        sys.stdout.flush()
        out = getattr(sys.stdout, "buffer", None)
        if out is None:  # a text stream, such as io.StringIO; the CSV is ASCII
            out = types.SimpleNamespace(write=lambda data: sys.stdout.write(data.decode("ascii")))
        out.write(head)
        columns.write(out)
        return
    try:
        with open(out_path, "wb") as fh:
            fh.write(head)
            columns.write(fh)
    except OSError as exc:
        raise CliError(f"cannot write output {out_path!r}: {exc}") from None


def _shape(cfg: dict) -> dict:
    """The PacketSpec keywords that the sigma, a and b flags set."""
    return dict(sigma_g=float(cfg["sigma"]), a=float(cfg["a"]), b=float(cfg["b"]))


def _packet_spec(cfg: dict) -> PacketSpec:
    return PacketSpec(Z=_single(cfg["Z"], "Z"), N=_single(cfg["N"], "N"), **_shape(cfg))


def cmd_timescales(cfg: dict) -> tuple[dict, list[str], Columns]:
    z_points, n_points = _sweep(cfg)
    kmax = int(cfg["kmax"])
    t, t_ls, t_cl = _timescale_rows(z_points, n_points, kmax, DEFAULT_CONSTANTS, "j_plus")
    # One row per point and label: k = 1..kmax, then ls and cl.
    times = np.column_stack([t, t_ls, t_cl])
    labels = [str(k) for k in range(1, kmax + 1)] + ["ls", "cl"]
    columns = Columns(
        np.repeat(z_points, len(labels)),
        np.repeat(n_points, len(labels)),
        np.tile(labels, len(z_points)),
        times.ravel(),
        (times / t[:, :1]).ravel(),
        (times * COMPTON_TIME_SECONDS).ravel(),
    )
    header = ["Z", "N", "k", "T_k_natural", "T_k_over_T1", "T_k_seconds"]
    return {}, header, columns


def _time_grid(cfg: dict) -> tuple[PacketTables, np.ndarray, TimeGrid]:
    """The packet's tables, the sample times in --unit, and the same grid in
    natural units.  TimeGrid and unit_scale check the rest of the times."""
    spec = _packet_spec(cfg)
    tables = build_tables(spec, nonrelativistic_radial=bool(cfg["no_small"]))
    tmin = float(cfg["tmin"])
    tmax = float(cfg["tmax"])
    samples = int(cfg["samples"])
    if samples > _MAX_SAMPLES:
        raise CliError(f"samples must be at most {_MAX_SAMPLES}, got {samples}")
    # Negated so that a NaN time, which compares false, fails.
    if not tmax > tmin:
        raise CliError(f"need tmax > tmin, got [{tmin}, {tmax}]")
    scales = timescales(spec.Z, spec.N, constants=spec.constants)
    grid = TimeGrid(tmin, tmax, samples, scales.unit_scale(cfg["unit"]))
    return tables, np.linspace(tmin, tmax, samples), grid


def cmd_autocorr(cfg: dict) -> tuple[dict, list[str], Columns]:
    tables, t_unit, grid = _time_grid(cfg)
    amp = autocorrelation(tables, grid)
    # Python's abs(a) ** 2 bit for bit: hypot, then pow(x, 2.0).  np.abs(amp)
    # ** 2 differs in the last bit for about a third of all values.
    abs_sq = np.float_power(np.hypot(amp.real, amp.imag), 2.0)
    columns = Columns(t_unit, grid.values, amp.real, amp.imag, abs_sq)
    header = ["t_in_selected_unit", "t_natural", "re_A", "im_A", "abs_A_squared"]
    return {}, header, columns


def cmd_spin(cfg: dict) -> tuple[dict, list[str], Columns]:
    tables, t_unit, grid = _time_grid(cfg)
    sx, sy, sz = spin_expect(tables, grid, include_delta=not cfg["no_delta"])
    length = np.sqrt(sx * sx + sy * sy + sz * sz)
    header = ["t", "sx", "sy", "sz", "spin_length"]
    return {}, header, Columns(t_unit, sx, sy, sz, length)


def cmd_density(cfg: dict) -> tuple[dict, list[str], Columns]:
    spec = _packet_spec(cfg)
    tables = build_tables(spec)
    scales = timescales(spec.Z, spec.N, constants=spec.constants)
    t_nat = float(cfg["time"]) * scales.unit_scale(cfg["unit"])
    grid_spec = PlaneGridSpec(extent=float(cfg["extent"]), resolution=int(cfg["grid"]))
    grid = density_grid(tables, grid_spec, t_nat)
    r_n = grid.r_n
    x, y = grid.x / r_n, grid.y / r_n
    # Long format, row-major: x varies fastest, as in spin_up[i, j] at (x[j], y[i]).
    columns = Columns(
        np.tile(x, y.size),
        np.repeat(y, x.size),
        *(values.ravel() for values in (grid.spin_up, grid.spin_down, grid.total)),
    )
    header = ["x_over_rN", "y_over_rN", "rho_up", "rho_down", "rho_total"]
    extra = {
        "r_N_compton": r_n,
        "t_natural": t_nat,
        "t_kepler": t_nat / scales.t_cl,
        "t_tls": t_nat / scales.t_ls,
        "t_seconds": t_nat * COMPTON_TIME_SECONDS,
    }
    return extra, header, columns


def cmd_smallnorm(cfg: dict) -> tuple[dict, list[str], Columns]:
    z, n = _sweep(cfg)
    shape = _shape(cfg)
    # Lazy: _sweep_tables computes one charge's shell rows at a time, and
    # yields the packets' tables in the order of specs.
    specs = (PacketSpec(Z=Z, N=N, **shape) for Z, N in zip(z, n))
    norms = np.empty((3, len(z)))
    for i, tables in enumerate(_sweep_tables(specs)):
        norm = small_norm(tables)
        norms[:, i] = norm.c3_norm, norm.c4_norm, norm.total
    header = ["Z", "N", "c3_norm", "c4_norm", "total"]
    return {}, header, Columns(z, n, *norms)


_COMMANDS = {
    "timescales": cmd_timescales,
    "autocorr": cmd_autocorr,
    "spin": cmd_spin,
    "density": cmd_density,
    "smallnorm": cmd_smallnorm,
}


# Every flag's argparse settings and the default that a run without the
# flag or config key uses (echoed into the manifest).
_FLAGS = {
    "Z": dict(help="nuclear charge, or START:STOP[:STEP] where sweepable"),
    "N": dict(help="mean principal quantum number, or a range where sweepable"),
    "sigma": dict(type=float, default=PacketSpec.sigma_g, help="Gaussian width of |w_n|^2"),
    "a": dict(type=float, default=PacketSpec.a, help="spin-up amplitude"),
    "b": dict(type=float, default=PacketSpec.b, help="spin-down amplitude"),
    "tmin": dict(type=float, default=0.0, help="series start time in --unit"),
    "tmax": dict(type=float, default=10.0, help="series end time in --unit"),
    "samples": dict(type=int, default=2000, help="number of time samples"),
    "unit": dict(choices=_TIME_UNITS, default="tls", help="time unit for inputs/outputs"),
    "time": dict(type=float, default=0.0, help="sample time in --unit"),
    "grid": dict(type=int, default=PlaneGridSpec.resolution, help="nodes per axis"),
    "extent": dict(type=float, default=PlaneGridSpec.extent, help="half-width in r_N units"),
    "kmax": dict(type=int, default=4, help="highest derivative order"),
    "no_delta": dict(
        action="store_const", const=True, default=False,
        help="drop the cross-shell correction terms",
    ),
    "no_small": dict(
        action="store_const", const=True, default=False,
        help="diagnostics: replace radial integrals by their limit values "
        "(large-component overlaps 1, small-component integrals 0)",
    ),
}


# Built once per process: each parser is a web of reference cycles, which
# a new one per main call would leave to the cyclic collector.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracpacket",
        description="Circular Dirac-Coulomb wave packets: time scales, "
        "autocorrelation, spin dynamics, and spatial densities as CSV.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("timescales", "T(k) hierarchy, spin-orbit and Kepler times; Z/N sweepable"),
        ("autocorr", "autocorrelation series A(t)"),
        ("spin", "spin expectation series"),
        ("density", "equatorial-plane density grid (long CSV)"),
        ("smallnorm", "small-component norm over Z/N sweeps"),
    ]:
        p = sub.add_parser(name, help=help_text)
        for key in _MANIFEST_KEYS[name]:
            flag = dict(_FLAGS[key])
            if "default" in flag:
                # None marks "not given", so a config value can fill it.
                flag["help"] += f" (default {flag['default']})"
                flag["default"] = None
            p.add_argument("--" + key.replace("_", "-"), dest=key, **flag)
        p.add_argument("--config", help="JSON config file, or a CSV written by this subcommand")
        p.add_argument("--out", help="output CSV path (default: stdout)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args)
        # The writer's tables live for the process; built before the command's
        # arrays, they sit below them, so the heap is trimmed when they are freed.
        _tables()
        extra, header, columns = _COMMANDS[args.command](cfg)
        params = {}
        for key in _MANIFEST_KEYS[args.command]:
            value = cfg[key]
            params[key] = str(value) if key in ("Z", "N") else value
        manifest = {
            "command": args.command,
            "version": __version__,
            "alpha": DEFAULT_CONSTANTS.alpha,
            "time_unit_seconds": COMPTON_TIME_SECONDS,
            "units": "natural units m_e = hbar = c = 1",
            "params": params,
        }
        manifest.update(extra)
        _write_csv(cfg["out"], manifest, header, columns)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    sys.exit(main())
