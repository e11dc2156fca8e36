"""Output checks and reference errors for the benchmark's CLI jobs.

Two kinds of check run on every job's output, outside the timed region:

* invariants: properties any correct output has, such as A(0) = 1,
  rho >= 0 or positive time scales.  A violated invariant fails the job.
* reference errors: the output compared with an independent reference.
  They are measured, not gated; the benchmark reports them as
  ``ref_digits``.

References for ``autocorr``, ``spin`` and ``timescales`` use energies from
the Sommerfeld formula at 50 digits in mpmath, with the fine-structure
constant taken from the file's own manifest, and reduce every phase
E * t modulo 2 pi exactly (see ``_cycles``).  Only the time-independent
coefficient tables of ``build_tables`` are reused.  ``density`` is compared
with the library's pointwise ``amplitudes`` path at a seeded subset of
nodes; both share the phase factors exp(-i E t), so that error measures the
grid kernel alone.
"""

from __future__ import annotations

import json
import math

import mpmath
import numpy as np

from diracpacket import PacketSpec, amplitudes, build_tables, timescales
from diracpacket.cli import parse_range

_MP_DIGITS = 50
_TOL = 1e-12
# Stride of the density nodes compared with the pointwise path; the offset
# inside one stride cell is drawn from the seed.
_NODE_STRIDE = 16
# (Z, N) pairs of a time-scale sweep compared with the reference, drawn
# from the seed; mpmath derivatives cost about 0.4 ms per pair.
_SWEEP_PAIRS = 600

HEADERS = {
    "autocorr": ["t_in_selected_unit", "t_natural", "re_A", "im_A", "abs_A_squared"],
    "spin": ["t", "sx", "sy", "sz", "spin_length"],
    "density": ["x_over_rN", "y_over_rN", "rho_up", "rho_down", "rho_total"],
    "smallnorm": ["Z", "N", "c3_norm", "c4_norm", "total"],
    "timescales": ["Z", "N", "k", "T_k_natural", "T_k_over_T1", "T_k_seconds"],
}


class Output:
    """One CSV written by the CLI: manifest, header and columns."""

    def __init__(self, path):
        with open(path, "r", encoding="utf-8", newline="") as fh:
            first = fh.readline()
            second = fh.readline()
        if not first.startswith("# "):
            raise ValueError("first line is not a manifest comment")
        self.manifest = json.loads(first[2:])
        self.params = self.manifest["params"]
        self.command = self.manifest["command"]
        self.header = second.rstrip("\r\n").split(",")
        text = self.command == "timescales"
        data = np.loadtxt(
            path, delimiter=",", skiprows=2, ndmin=2, dtype=str if text else float
        )
        self.columns = {name: data[:, i] for i, name in enumerate(self.header)}
        self.rows = data.shape[0]

    def col(self, name: str) -> np.ndarray:
        return self.columns[name]


# ------------------------------------------------------------ invariants


def evaluate(path, rng) -> tuple[list[str], dict[str, np.ndarray]]:
    """Invariant violations and reference errors of one CLI output.

    The reference is only computed for an output whose invariants hold.
    Errors are per quantity: |A|^2 and the spin components are
    dimensionless and compared absolutely, rho_total relative to the
    grid's peak, and T_k relative to the reference value.  Commands
    without a reference give no errors.
    """
    try:
        out = Output(path)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {exc}"], {}
    expected = HEADERS.get(out.command)
    if out.header != expected:
        return [f"header {out.header} != {expected}"], {}
    problems = _CHECKS[out.command](out)
    if out.command != "timescales":
        values = np.column_stack(list(out.columns.values()))
        if not np.all(np.isfinite(values)):
            problems.append("non-finite value")
    reference = _REFERENCES.get(out.command)
    if problems or reference is None:
        return problems, {}
    try:
        with mpmath.workdps(_MP_DIGITS):
            return [], reference(out, rng)
    except ValueError as exc:
        return [str(exc)], {}


def _check_autocorr(out: Output) -> list[str]:
    problems = []
    if out.rows != int(out.params["samples"]):
        problems.append(f"{out.rows} rows for {out.params['samples']} samples")
    a2 = out.col("abs_A_squared")
    if out.col("t_natural")[0] == 0.0:
        if abs(out.col("re_A")[0] - 1.0) > _TOL or abs(out.col("im_A")[0]) > _TOL:
            problems.append("A(0) != 1")
    else:
        problems.append("series does not start at t = 0")
    if np.max(a2) > 1.0 + _TOL:
        problems.append(f"|A|^2 = {np.max(a2)!r} > 1")
    return problems


def _check_spin(out: Output) -> list[str]:
    problems = []
    if out.rows != int(out.params["samples"]):
        problems.append(f"{out.rows} rows for {out.params['samples']} samples")
    length = out.col("spin_length")
    if not length[0] > 0.99:
        problems.append(f"initial spin length {length[0]!r} <= 0.99")
    if np.max(length) > 1.0 + _TOL:
        problems.append(f"spin length {np.max(length)!r} > 1")
    return problems


def _check_density(out: Output) -> list[str]:
    problems = []
    res = int(out.params["grid"])
    if out.rows != res * res:
        problems.append(f"{out.rows} rows for a {res}^2 grid")
    up, down, total = out.col("rho_up"), out.col("rho_down"), out.col("rho_total")
    if np.min(up) < 0.0 or np.min(down) < 0.0:
        problems.append("negative density")
    if not np.array_equal(total, up + down):
        problems.append("rho_total != rho_up + rho_down")
    return problems


def _check_smallnorm(out: Output) -> list[str]:
    problems = []
    z_values = parse_range(out.params["Z"], "Z")
    n_values = parse_range(out.params["N"], "N")
    if out.rows != len(z_values) * len(n_values):
        return [f"{out.rows} rows for {len(z_values)} x {len(n_values)} packets"]
    c3, c4, total = out.col("c3_norm"), out.col("c4_norm"), out.col("total")
    if not (np.all(total > 0.0) and np.all(total < 1.0)):
        problems.append("small-component norm outside (0, 1)")
    if not np.array_equal(total, c3 + c4):
        problems.append("total != c3_norm + c4_norm")
    by_z = total.reshape(len(z_values), len(n_values))
    if len(z_values) > 1 and not np.all(np.diff(by_z, axis=0) > 0.0):
        problems.append("small-component norm does not rise with Z")
    return problems


def _check_timescales(out: Output) -> list[str]:
    z_values = parse_range(out.params["Z"], "Z")
    n_values = parse_range(out.params["N"], "N")
    per_pair = int(out.params["kmax"]) + 2
    if out.rows != len(z_values) * len(n_values) * per_pair:
        return [f"{out.rows} rows for {len(z_values)} x {len(n_values)} pairs"]
    try:
        t_k = out.col("T_k_natural").astype(float)
    except ValueError:
        return ["unparsable T_k"]
    if not (np.all(np.isfinite(t_k)) and np.all(t_k > 0.0)):
        return ["T_k not finite and positive"]
    return []


_CHECKS = {
    "autocorr": _check_autocorr,
    "spin": _check_spin,
    "density": _check_density,
    "smallnorm": _check_smallnorm,
    "timescales": _check_timescales,
}


# ------------------------------------------------------------ references


def _sommerfeld(xi, n_prime: int, kappa):
    """Dirac-Coulomb energy (n' + gamma) / sqrt((n' + gamma)^2 + xi^2)."""
    d = n_prime + mpmath.sqrt(kappa * kappa - xi * xi)
    return d / mpmath.sqrt(d * d + xi * xi)


def _split(a):
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _cycles(t: np.ndarray, freq) -> np.ndarray:
    """frac(t * freq / (2 pi)) for exact double times t and an mpf frequency.

    The frequency in cycles per unit time is split into two doubles; the
    leading product is formed exactly (Dekker's two-product), so the
    fractional part carries no error from the size of t * freq.
    """
    c = freq / (2 * mpmath.pi)
    c1 = float(c)
    c2 = float(c - c1)
    p = t * c1
    t_hi, t_lo = _split(t)
    c_hi, c_lo = _split(c1)
    e = ((t_hi * c_hi - p) + t_hi * c_lo + t_lo * c_hi) + t_lo * c_lo
    f = (p - np.rint(p)) + e + t * c2
    return f - np.rint(f)


def _tables(out: Output):
    p = out.params
    spec = PacketSpec(
        Z=int(p["Z"]), N=int(p["N"]), sigma_g=float(p["sigma"]),
        a=float(p["a"]), b=float(p["b"]),
    )
    return build_tables(spec, nonrelativistic_radial=bool(p.get("no_small")))


def _shell_energies(out: Output, n_values):
    xi = int(out.params["Z"]) * mpmath.mpf(out.manifest["alpha"])
    e_plus = [_sommerfeld(xi, 0, -int(n)) for n in n_values]
    e_minus = [_sommerfeld(xi, 1, int(n) - 1) for n in n_values]
    return e_plus, e_minus


def _ref_autocorr(out: Output, rng) -> dict[str, np.ndarray]:
    tables = _tables(out)
    e_plus, e_minus = _shell_energies(out, tables.weights.n)
    t = out.col("t_natural")
    # |A|^2 ignores a global phase, so phases run relative to one energy.
    base = e_plus[0]
    amp = np.zeros(t.shape, dtype=complex)
    for coefs, energies in ((tables.acf_plus, e_plus), (tables.acf_minus, e_minus)):
        for coef, energy in zip(coefs, energies):
            amp += coef * np.exp(-2j * np.pi * _cycles(t, energy - base))
    return {"abs_A_squared": out.col("abs_A_squared") - np.abs(amp) ** 2}


def _ref_spin(out: Output, rng) -> dict[str, np.ndarray]:
    tables = _tables(out)
    e_plus, e_minus = _shell_energies(out, tables.weights.n)
    t = _spin_times(out, tables)
    sx = np.full(t.shape, math.fsum(tables.sx_const))
    sy = np.zeros(t.shape)
    sz = np.full(t.shape, math.fsum(tables.sz_const))
    for l_index in range(len(e_plus)):
        phase = 2 * np.pi * _cycles(t, e_plus[l_index] - e_minus[l_index])
        sx += tables.sx_cos[l_index] * np.cos(phase)
        sy += tables.sy_sin[l_index] * np.sin(phase)
        sz += tables.sz_cos[l_index] * np.cos(phase)
    if not out.params.get("no_delta"):
        for l_index, k in enumerate(tables.k_coef):
            phase = 2 * np.pi * _cycles(t, e_plus[l_index] - e_minus[l_index + 2])
            sx += k * np.cos(phase)
            sy += k * np.sin(phase)
    return {"sx": out.col("sx") - sx, "sy": out.col("sy") - sy, "sz": out.col("sz") - sz}


def _spin_times(out: Output, tables) -> np.ndarray:
    """Natural-unit sample times, rebuilt as the CLI builds them."""
    p = out.params
    spec = tables.spec
    scale = timescales(spec.Z, spec.N, constants=spec.constants).unit_scale(p["unit"])
    t_unit = np.linspace(float(p["tmin"]), float(p["tmax"]), int(p["samples"]))
    if not np.array_equal(t_unit, out.col("t")):
        raise ValueError("spin time column does not match its manifest")
    return t_unit * scale


def _ref_density(out: Output, rng) -> dict[str, np.ndarray]:
    p = out.params
    res = int(p["grid"])
    r_n = float(out.manifest["r_N_compton"])
    half = float(p["extent"]) * r_n
    axis = np.linspace(-half, half, res)
    rows = np.arange(rng.randrange(_NODE_STRIDE), res, _NODE_STRIDE)
    cols = np.arange(rng.randrange(_NODE_STRIDE), res, _NODE_STRIDE)
    i, j = np.meshgrid(rows, cols, indexing="ij")
    x, y = axis[j], axis[i]
    flat = (i * res + j).ravel()
    if not (
        np.allclose(out.col("x_over_rN")[flat], (x / r_n).ravel(), rtol=0.0, atol=1e-12)
        and np.allclose(out.col("y_over_rN")[flat], (y / r_n).ravel(), rtol=0.0, atol=1e-12)
    ):
        raise ValueError("density node coordinates do not match the manifest")
    r = np.maximum(np.hypot(x, y), half * 1e-12)
    comps = amplitudes(
        _tables(out), r, np.full(r.shape, 0.5 * np.pi), np.arctan2(y, x),
        float(out.manifest["t_natural"]),
    )
    rho = sum(c.real * c.real + c.imag * c.imag for c in comps).ravel()
    total = out.col("rho_total")
    return {"rho_total": (total[flat] - rho) / np.max(total)}


def _ref_timescales(out: Output, rng) -> dict[str, np.ndarray]:
    alpha = mpmath.mpf(out.manifest["alpha"])
    kmax = int(out.params["kmax"])
    two_pi = 2 * mpmath.pi
    pairs = [
        (z, n)
        for z in parse_range(out.params["Z"], "Z")
        for n in parse_range(out.params["N"], "N")
    ]
    chosen = sorted(rng.sample(range(len(pairs)), min(_SWEEP_PAIRS, len(pairs))))
    rows, ref = [], []
    for index in chosen:
        z, n = pairs[index]
        xi = z * alpha
        derivs = list(mpmath.diffs(lambda m: _sommerfeld(xi, 0, m), n, kmax))
        ref += [two_pi * math.factorial(k) / abs(derivs[k]) for k in range(1, kmax + 1)]
        split = _sommerfeld(xi, 0, -n) - _sommerfeld(xi, 1, n - 1)
        ref += [two_pi / split, two_pi * n**3 / (xi * xi)]
        rows += range(index * (kmax + 2), (index + 1) * (kmax + 2))
    got = out.col("T_k_natural")[rows].astype(float)
    return {"T_k_natural": got / np.array([float(v) for v in ref]) - 1.0}


_REFERENCES = {
    "autocorr": _ref_autocorr,
    "spin": _ref_spin,
    "density": _ref_density,
    "timescales": _ref_timescales,
}

