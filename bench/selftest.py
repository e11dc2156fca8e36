#!/usr/bin/env python3
"""Fast self-test of the benchmark at tiny sizes.

Run from the repository root:

    python3 bench/selftest.py

Runs every workload at tiny sizes, untraced and traced, and checks that:

* each run is correct and prints exactly the metrics BENCHMARK.json names,
  with their units;
* the traced runs leave every wrapped function restored;
* the computed counts repeat exactly across seeds;
* an output corrupted inside the CLI counts as a failed job.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

# Per-layer metrics that are computed, not timed, so must repeat exactly.
COMPUTED = (
    "cli.rows",
    "packet.phase_evals",
    "packet.phase_bytes",
    "packet.build_tables_calls",
    "packet.timescales_calls",
    "dirac_coulomb.make_circular_state_calls",
    "dirac_coulomb.state_reuse_ratio",
    "dirac_coulomb.overlap_calls",
    "dirac_coulomb.eval_radial_calls",
    "dirac_coulomb.eval_radial_points",
    "density.nodes",
    "density.ket_node_madds",
    "density.radial_distinct_ratio",
)


def _bench(workload: str, seed: int, trace: int) -> dict:
    args = argparse.Namespace(workload=workload, seed=seed, seconds=0.2, trace=trace)
    return run.benchmark(args, run.TINY)["result"]


def _callables(lib) -> dict:
    snapshot = {}
    for module in (lib.cli, lib.packet, lib.density):
        for name, value in vars(module).items():
            if callable(value):
                snapshot[(module.__name__, name)] = value
    for name, value in lib.cli._COMMANDS.items():
        snapshot[("_COMMANDS", name)] = value
    return snapshot


@contextlib.contextmanager
def _patched(module, attr: str, replacement):
    original = getattr(module, attr)
    setattr(module, attr, replacement(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


def _negative_density(original):
    def density_grid(*args, **kwargs):
        grid = original(*args, **kwargs)
        spin_up = grid.spin_up.copy()
        spin_up[0, 0] = -1.0
        return dataclasses.replace(grid, spin_up=spin_up)

    return density_grid


def _scaled_autocorrelation(original):
    def autocorrelation(*args, **kwargs):
        return 1.01 * original(*args, **kwargs)

    return autocorrelation


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems: list[str] = []
    lib = run.load_library()
    before = _callables(lib)

    for workload in run.WORKLOADS:
        computed = []
        for seed in (1, 2):
            for trace in (0, 1):
                result = _bench(workload, seed, trace)
                where = f"{workload} seed {seed} trace {trace}"
                if not result["correct"] or result["failed"]:
                    problems.append(f"{where}: {result['failed']} failed jobs")
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                if units != expected[trace]:
                    problems.append(f"{where}: metrics {units} != {expected[trace]}")
                if trace:
                    computed.append({k: result["metrics"][k]["value"] for k in COMPUTED})
        if computed[0] != computed[1]:
            problems.append(f"{workload}: computed counts differ: {computed}")

    if _callables(lib) != before:
        problems.append("a traced run left a wrapped function in place")

    for module, attr, corrupt, workload in (
        (lib.cli, "density_grid", _negative_density, "density_plane"),
        (lib.cli, "autocorrelation", _scaled_autocorrelation, "time_series"),
    ):
        with _patched(module, attr, corrupt):
            result = _bench(workload, 1, 0)
        if result["correct"] or result["failed"] < 1:
            problems.append(f"corrupted {attr} output was not counted as failed")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
