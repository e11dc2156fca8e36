#!/usr/bin/env python3
"""Benchmark of the ``diracpacket`` command line.

Run from the repository root:

    python3 bench/run.py --workload density_plane --seed 1 --seconds 20 --trace 0

Each workload is a fixed list of CLI jobs.  One pass runs every job once,
in this process, through ``diracpacket.cli.main(argv + ["--out", file])``.
After an untimed warm-up pass the benchmark repeats passes for
``--seconds`` of wall time.  Outside the timed region it checks every
output (see ``checks.py``), reruns each job from its own manifest with
``--config`` and requires identical bytes, and compares outputs with
independent references.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes traced by ``tracing.py`` and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  A fuller record
(environment, inputs, pass times, output SHA-256 digests, reference
errors) goes to ``.bench_out/results/``.  See ``README.md`` for the
workloads and for which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5
# A fresh interpreter imports the package and builds the CLI parser.
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import diracpacket.cli as cli; cli._build_parser(); "
    "print(repr(time.perf_counter() - t0))"
)
# Reference errors below this are beyond double precision; ref_digits is
# capped there instead of becoming infinite.
_ERR_FLOOR = 1e-17


@dataclass(frozen=True)
class Sizes:
    grid: int
    samples: int
    z_sweep: str
    n_smallnorm: str
    n_timescales: str


FULL = Sizes(grid=512, samples=200_000, z_sweep="1:92", n_smallnorm="10:60:10", n_timescales="2:60")
TINY = Sizes(grid=32, samples=2_000, z_sweep="1:4", n_smallnorm="10:20:10", n_timescales="2:6")


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]


def density_plane(rng: random.Random, sizes: Sizes) -> list[Job]:
    time_kepler = repr(rng.random())
    return [
        Job("density", ("density", "--Z", "92", "--N", "20", "--unit", "kepler",
                        "--time", time_kepler, "--grid", str(sizes.grid))),
    ]


def time_series(rng: random.Random, sizes: Sizes) -> list[Job]:
    samples = str(sizes.samples)
    return [
        Job("autocorr", ("autocorr", "--Z", "1", "--N", "20", "--samples", samples,
                         "--tmax", repr(10.0 + rng.random()))),
        Job("spin", ("spin", "--Z", "92", "--N", "40", "--samples", samples,
                     "--tmax", repr(10.0 + rng.random()))),
    ]


def param_sweep(rng: random.Random, sizes: Sizes) -> list[Job]:
    return [
        Job("smallnorm", ("smallnorm", "--Z", sizes.z_sweep, "--N", sizes.n_smallnorm)),
        Job("timescales", ("timescales", "--Z", sizes.z_sweep, "--N", sizes.n_timescales)),
    ]


WORKLOADS = {
    "density_plane": density_plane,
    "time_series": time_series,
    "param_sweep": param_sweep,
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ops_ok_ratio": "ratio",
    "ref_digits": "digits",
}

PER_LAYER_UNITS = {
    "cli.dispatch_s": "s",
    "cli.format_s": "s",
    "cli.write_s": "s",
    "cli.rows": "count",
    "cli.bytes": "bytes",
    "packet.autocorrelation_s": "s",
    "packet.spin_expect_s": "s",
    "packet.phase_evals": "count",
    "packet.phase_bytes": "bytes",
    "packet.build_tables_s": "s",
    "packet.build_tables_self_s": "s",
    "packet.build_tables_calls": "count",
    "packet.timescales_s": "s",
    "packet.timescales_calls": "count",
    "dirac_coulomb.make_circular_state_s": "s",
    "dirac_coulomb.make_circular_state_calls": "count",
    "dirac_coulomb.state_reuse_ratio": "ratio",
    "dirac_coulomb.overlap_s": "s",
    "dirac_coulomb.overlap_calls": "count",
    "dirac_coulomb.eval_radial_s": "s",
    "dirac_coulomb.eval_radial_busy_s": "s",
    "dirac_coulomb.eval_radial_calls": "count",
    "dirac_coulomb.eval_radial_points": "count",
    "density.density_grid_s": "s",
    "density.self_s": "s",
    "density.nodes": "count",
    "density.ket_node_madds": "count",
    "density.radial_distinct_ratio": "ratio",
    "trace_overhead_ratio": "ratio",
    "trace.accounted_ratio": "ratio",
}

# Per-layer time metrics: (metric, span name, "wall" | "self" | "busy").
_LAYER_TIMES = (
    ("cli.dispatch_s", "cli.job", "self"),
    ("cli.format_s", "cli.cmd", "self"),
    ("cli.write_s", "cli.write", "wall"),
    ("packet.autocorrelation_s", "packet.autocorrelation", "wall"),
    ("packet.spin_expect_s", "packet.spin_expect", "wall"),
    ("packet.build_tables_s", "packet.build_tables", "wall"),
    ("packet.build_tables_self_s", "packet.build_tables", "self"),
    ("packet.timescales_s", "packet.timescales", "wall"),
    ("dirac_coulomb.make_circular_state_s", "dirac_coulomb.make_circular_state", "wall"),
    ("dirac_coulomb.overlap_s", "dirac_coulomb.overlap", "wall"),
    ("dirac_coulomb.eval_radial_s", "dirac_coulomb.eval_radial", "wall"),
    ("dirac_coulomb.eval_radial_busy_s", "dirac_coulomb.eval_radial", "busy"),
    ("density.density_grid_s", "density.density_grid", "wall"),
    ("density.self_s", "density.density_grid", "self"),
)


# ------------------------------------------------------------------ set-up


def load_library():
    """Import diracpacket from this checkout's src/, never from elsewhere."""
    if not (SRC / "diracpacket" / "cli.py").is_file():
        raise SystemExit(f"error: no diracpacket sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import diracpacket
    import diracpacket.cli
    import diracpacket.density
    import diracpacket.packet

    if Path(diracpacket.__file__).resolve().parent != SRC / "diracpacket":
        raise SystemExit(f"error: imported diracpacket from {diracpacket.__file__}")
    return diracpacket


def measure_setup(repeats: int = SETUP_REPEATS) -> list[float]:
    """Seconds to import diracpacket and build its parser, fresh each time."""
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _blas_info() -> dict:
    """OpenBLAS build string and thread count, read from the loaded library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        paths = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return {"blas": config().decode(), "blas_threads": threads()}
    return {"blas": None, "blas_threads": None}


def environment(seed: int) -> dict:
    import mpmath
    import numpy as np

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    env = {
        "seed": seed,
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "density_grid_default_workers": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "machine": platform.machine(),
    }
    env.update(_blas_info())
    return env


# ---------------------------------------------------------------- running


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _data_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b"")) - 2


def _run_pass(cli, jobs, outdir: Path, tracer=None) -> list[int]:
    codes = []
    for job in jobs:
        argv = [*job.argv, "--out", str(outdir / f"{job.name}.csv")]
        if tracer is None:
            codes.append(cli.main(argv))
        else:
            with tracer.job():
                codes.append(cli.main(argv))
    return codes


def run_workload(lib, jobs: list[Job], seconds: float, trace: bool, workdir: Path,
                 rng: random.Random) -> dict:
    """Warm-up, timed passes, then checks; returns metrics and a record."""
    import checks
    import tracing

    cli = lib.cli
    warm_dir, pass_dir, trip_dir = workdir / "warm", workdir / "pass", workdir / "trip"
    for d in (warm_dir, pass_dir, trip_dir):
        d.mkdir(parents=True, exist_ok=True)
    failures: list[str] = []
    attempted = 0

    codes = _run_pass(cli, jobs, warm_dir)
    attempted += len(jobs)
    for job, code in zip(jobs, codes):
        if code != 0:
            failures.append(f"{job.name}: warm-up exit status {code}")
    digests = {
        job.name: _sha256(warm_dir / f"{job.name}.csv") if code == 0 else None
        for job, code in zip(jobs, codes)
    }
    rows_per_pass = sum(
        _data_rows(warm_dir / f"{job.name}.csv") for job, code in zip(jobs, codes) if code == 0
    )

    tracer = tracing.Tracer(cli, lib.packet, lib.density) if trace else None
    modes = (None, tracer) if trace else (None,)
    plain_times: list[float] = []
    traced_times: list[float] = []
    start = time.perf_counter()
    while not plain_times or time.perf_counter() - start < seconds:
        for mode in modes:
            if mode is None:
                t0 = time.perf_counter()
                codes = _run_pass(cli, jobs, pass_dir)
                plain_times.append(time.perf_counter() - t0)
            else:
                with mode.installed():
                    t0 = time.perf_counter()
                    codes = _run_pass(cli, jobs, pass_dir, mode)
                    traced_times.append(time.perf_counter() - t0)
            attempted += len(jobs)
            for job, code in zip(jobs, codes):
                if code != 0:
                    failures.append(f"{job.name}: exit status {code}")
                elif _sha256(pass_dir / f"{job.name}.csv") != digests[job.name]:
                    failures.append(f"{job.name}: output differs from the warm-up pass")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors: dict[str, list] = {}
    for job in jobs:
        warm = warm_dir / f"{job.name}.csv"
        if digests[job.name] is None:
            continue
        # Invariants and reference belong to the warm-up job already counted.
        problems, job_errors = checks.evaluate(warm, rng)
        for quantity, err in job_errors.items():
            errors[f"{job.name}.{quantity}"] = err
        if problems:
            failures.append(f"{job.name}: " + "; ".join(problems))
        attempted += 1
        trip = trip_dir / f"{job.name}.csv"
        code = cli.main([job.argv[0], "--config", str(warm), "--out", str(trip)])
        if code != 0 or _sha256(trip) != digests[job.name]:
            failures.append(f"{job.name}: --config round trip is not byte-identical")

    return {
        "attempted": attempted,
        "failures": failures,
        "digests": digests,
        "rows_per_pass": rows_per_pass,
        "plain_times": plain_times,
        "traced_times": traced_times,
        "peak_rss_mb": peak_rss_mb,
        "errors": errors,
        "tracer": tracer,
    }


# ---------------------------------------------------------------- metrics


def reference_summary(errors: dict) -> dict:
    import numpy as np

    summary = {}
    for quantity, err in errors.items():
        err = np.abs(np.asarray(err, dtype=float))
        summary[quantity] = {
            "rms": float(np.sqrt(np.mean(err * err))),
            "max": float(np.max(err)),
            "points": int(err.size),
        }
    return summary


def end_to_end_metrics(run: dict, setup_times: list[float], refs: dict) -> dict:
    failed = len(run["failures"])
    worst_rms = max((q["rms"] for q in refs.values()), default=_ERR_FLOOR)
    values = {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(run["plain_times"]),
        "rows_per_s": run["rows_per_pass"] / statistics.median(run["plain_times"]),
        "peak_rss_mb": run["peak_rss_mb"],
        "ops_ok_ratio": (run["attempted"] - failed) / run["attempted"],
        "ref_digits": -math.log10(max(worst_rms, _ERR_FLOOR)),
    }
    return {k: {"value": values[k], "unit": END_TO_END_UNITS[k]} for k in END_TO_END_UNITS}


def per_layer_metrics(run: dict) -> dict:
    tracer = run["tracer"]
    passes = len(run["traced_times"])
    wall, own, busy = tracer.layer_times()
    kinds = {"wall": wall, "self": own, "busy": busy}
    values = {
        metric: kinds[kind].get(span, 0.0) / passes for metric, span, kind in _LAYER_TIMES
    }
    for key, unit in PER_LAYER_UNITS.items():
        if unit in ("count", "bytes"):
            values[key] = tracer.counts.get(key, 0) // passes
    values["dirac_coulomb.state_reuse_ratio"] = (
        statistics.median(tracer.reuse_ratios) if tracer.reuse_ratios else 0.0
    )
    values["density.radial_distinct_ratio"] = (
        statistics.median(tracer.radial_ratios) if tracer.radial_ratios else 0.0
    )
    traced_pass = statistics.median(run["traced_times"])
    values["trace_overhead_ratio"] = traced_pass / statistics.median(run["plain_times"]) - 1.0
    values["trace.accounted_ratio"] = sum(own.values()) / sum(run["traced_times"])
    return {k: {"value": values[k], "unit": PER_LAYER_UNITS[k]} for k in PER_LAYER_UNITS}


# ------------------------------------------------------------------- main


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def benchmark(args: argparse.Namespace, sizes: Sizes = FULL) -> dict:
    """Run one workload and return the result line plus the full record."""
    lib = load_library()
    rng = random.Random(args.seed)
    jobs = WORKLOADS[args.workload](rng, sizes)
    workdir = OUT / f"run-{os.getpid()}"
    try:
        setup_times = measure_setup()
        run = run_workload(lib, jobs, args.seconds, bool(args.trace), workdir, rng)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    refs = reference_summary(run["errors"])
    if args.trace:
        metrics = per_layer_metrics(run)
    else:
        metrics = end_to_end_metrics(run, setup_times, refs)
    failed = len(run["failures"])
    result = {
        "correct": failed == 0,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "jobs": {job.name: list(job.argv) for job in jobs},
        "output_sha256": run["digests"],
        "setup_times_s": setup_times,
        "pass_times_s": run["plain_times"],
        "traced_pass_times_s": run["traced_times"],
        "rows_per_pass": run["rows_per_pass"],
        "ops_failed_ratio": failed / run["attempted"],
        "failures": run["failures"],
        "reference": refs,
        "ref_max_err": max((q["max"] for q in refs.values()), default=0.0),
        "result": result,
    }
    return {"result": result, "record": record}


def main(argv=None) -> int:
    args = parse_args(argv)
    outcome = benchmark(args)
    record, result = outcome["record"], outcome["result"]
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(results_dir / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for key, metric in result["metrics"].items():
        print(f"{key:40s} {metric['value']:>16.6g} {metric['unit']}")
    for job, digest in record["output_sha256"].items():
        print(f"sha256 {job:12s} {digest}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
