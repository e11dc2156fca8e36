"""Property tests over the advertised domain, Z = 1..137.

Every packet drawn here is checked, on a time array and on a TimeGrid, for
the invariants that hold for any spin amplitudes and shell weights:
A(0) = 1, |A| <= 1, unitarity of the four component norms, a spin vector
no longer than 1 whose sigma_z is n1 - n2 + n3 - n4 of those norms to
rounding, and a small-component population in [0, 1).  The tables
built as arrays over the window must equal, bit for bit, the tables
assembled from the scalar binding energies, splittings and overlaps of the
window's states, for N up to 500, and the rows of a sub-range of shells
must be a slice of the rows of the whole range.  A sweep's tables, sliced
from one _window_rows call per run of windows of a charge, must equal
those of each spec's own window, bit for bit.  Both comparisons run over
TABLE_NAMES, every table stored or derived on first read, not over the
dataclass fields, which hold the stored ones only.  Specs that PacketSpec
rejects (supercritical window shells) are skipped.
"""

import math
from dataclasses import fields

import numpy as np
from hypothesis import example, given, reject
from hypothesis import strategies as st

from diracpacket import (
    PacketSpec,
    TimeGrid,
    autocorrelation,
    binding_energy,
    build_tables,
    component_norms,
    fine_splitting,
    overlap_closed_form,
    overlap_set,
    small_norm,
    spin_expect,
    timescales,
)
from diracpacket.constants import DEFAULT_CONSTANTS
from diracpacket.dirac_coulomb import _coupling, _window_rows
from diracpacket.packet import PacketTables, _LimitTables, _sweep_tables, build_weights
from oracles import ket_states

TOL = 1e-12

# Every table of PacketTables: the stored ones, then those derived on first read.
TABLE_NAMES = (
    "e_plus", "e_minus", "omega", "g_plus", "g_minus", "f_plus", "f_minus",
    "g_pm", "f_prime", "omega_tilde", "k_coef", "acf_plus", "acf_minus",
    "norm1_const", "norm2_const", "norm2_cos", "norm3", "norm4",
    "sx_const", "sx_cos", "sy_sin", "sz_const", "sz_cos",
)


def _assert_same_bits(got, want, name) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape, name
    assert got.tobytes() == want.tobytes(), name


def _assert_same_tables(got: PacketTables, want: PacketTables) -> None:
    stored = {f.name for f in fields(got) if isinstance(getattr(got, f.name), np.ndarray)}
    assert stored <= set(TABLE_NAMES)
    for name in TABLE_NAMES:
        _assert_same_bits(getattr(got, name), getattr(want, name), name)


def _spec(**kwargs) -> PacketSpec:
    try:
        return PacketSpec(**kwargs)
    except ValueError:
        reject()


@given(
    Z=st.integers(1, 137),
    N=st.integers(2, 800),
    sigma_g=st.floats(0.3, 4.0),
    theta=st.floats(0.0, 2.0 * math.pi),
)
# The corners of the domain, whatever the derandomized draw.
@example(Z=1, N=2, sigma_g=0.3, theta=1.0)
@example(Z=1, N=800, sigma_g=4.0, theta=1.0)
@example(Z=137, N=2, sigma_g=4.0, theta=1.0)
@example(Z=137, N=800, sigma_g=0.3, theta=1.0)
def test_packet_invariants(Z, N, sigma_g, theta):
    spec = _spec(Z=Z, N=N, sigma_g=sigma_g, a=math.cos(theta), b=math.sin(theta))
    tables = build_tables(spec)
    t_ls = timescales(Z, N).t_ls
    # sigma_z and n1 - n2 + n3 - n4 combine the same nonnegative norm terms
    # of the S shells, which add up to 1: each side's shell sums round by at
    # most (S - 1) eps / 2 in any order, and a few more roundings join them.
    z_bound = (tables.weights.n.size + 4) * np.finfo(float).eps
    # The same invariants through the direct path and the factored grid path.
    for t in (np.linspace(0.0, 10.0 * t_ls, 400), TimeGrid(0.0, 10.0, 400, t_ls)):
        amp = autocorrelation(tables, t)
        assert abs(amp[0] - 1.0) <= TOL
        assert np.max(np.abs(amp)) <= 1.0 + TOL

        n1, n2, n3, n4 = component_norms(tables, t)
        assert np.max(np.abs(n1 + n2 + n3 + n4 - 1.0)) <= TOL

        sx, sy, sz = spin_expect(tables, t)
        assert np.max(np.sqrt(sx * sx + sy * sy + sz * sz)) <= 1.0 + TOL
        assert np.max(np.abs(sz - (n1 - n2 + n3 - n4))) <= z_bound

    assert 0.0 <= small_norm(tables).total < 1.0


@given(
    Z=st.integers(1, 137),
    N=st.integers(2, 800),
    shells=st.integers(1, 4),
    below=st.integers(0, 3),
)
# |A(0) - 1| was 1.05e-12 here while the same-state overlaps carried lgamma(c).
@example(Z=3, N=165, shells=1, below=0)
# The corners of the domain, whatever the derandomized draw.
@example(Z=1, N=2, shells=4, below=0)
@example(Z=1, N=800, shells=4, below=3)
@example(Z=137, N=2, shells=4, below=0)
@example(Z=137, N=800, shells=4, below=3)
def test_cross_arrays_cover_orbitals_two_shells_apart(Z, N, shells, below):
    below = min(below, shells - 1)
    spec = _spec(Z=Z, N=N, window=(N - below, N - below + shells - 1))
    tables = build_tables(spec)
    assert len(tables.weights.n - 1) == shells
    assert len(tables.k_coef) == len(tables.omega_tilde) == max(0, shells - 2)
    assert abs(autocorrelation(tables, 0.0) - 1.0) <= TOL


@given(
    Z=st.integers(1, 137),
    N=st.integers(2, 500),
    sigma_g=st.floats(0.3, 4.0),
    theta=st.floats(0.0, 2.0 * math.pi),
)
def test_array_tables_match_scalar_states_bit_for_bit(Z, N, sigma_g, theta):
    spec = _spec(Z=Z, N=N, sigma_g=sigma_g, a=math.cos(theta), b=math.sin(theta))
    tables = build_tables(spec)
    # The kets' states, one per window row: the j+ rows, then the j- rows.
    by_row = dict(zip(tables.kets.row.tolist(), ket_states(tables)))
    count = tables.weights.n.size
    plus = [by_row[row] for row in range(count)]
    minus = [by_row[row] for row in range(count, 2 * count)]
    sets = [overlap_set(p, m) for p, m in zip(plus, minus)]
    same_l = {
        name: np.array([getattr(o, name) for o in sets])
        for name in ("g_plus", "g_minus", "g_pm", "f_plus", "f_minus")
    }
    f_prime = np.array([overlap_closed_form(p, m, "ff") for p, m in zip(plus, minus[2:])])
    # The cross-state integrals are derived from tables.rows on first read.
    _assert_same_bits(tables.g_pm, same_l.pop("g_pm"), "g_pm")
    _assert_same_bits(tables.f_prime, f_prime, "f_prime")
    rebuilt = PacketTables(
        spec,
        tables.weights,
        e_plus=np.array([binding_energy(s.Z, s.n_prime, s.kappa) for s in plus]),
        e_minus=np.array([binding_energy(s.Z, s.n_prime, s.kappa) for s in minus]),
        omega=np.array([fine_splitting(Z, int(n)) for n in tables.weights.n]),
        **same_l,
    )
    _assert_same_tables(tables, rebuilt)


@given(
    Z=st.integers(1, 137),
    start=st.integers(2, 500),
    shells=st.integers(1, 60),
    data=st.data(),
)
def test_window_rows_of_a_sub_range_are_a_slice(Z, start, shells, data):
    a = data.draw(st.integers(0, shells - 1))
    b = data.draw(st.integers(a + 1, shells))
    xi = _coupling(Z, 1, start - 1, DEFAULT_CONSTANTS)
    n = np.arange(start, start + shells)
    whole = _window_rows(xi, n, False)
    part = _window_rows(xi, n[a:b], False)
    # Seven per-shell arrays: the energies and the same-state integrals.
    assert len(part) == len(whole) == 7
    for got, want in zip(part, whole):
        _assert_same_bits(got, want[a:b], "rows")
    # The cross-state integrals come from each window's radial rows: g_pm
    # per shell, F' over all but the last two shells.
    whole = build_tables(PacketSpec(Z=Z, N=start, window=(start, start + shells - 1)))
    part = build_tables(PacketSpec(Z=Z, N=start + a, window=(start + a, start + b - 1)))
    _assert_same_bits(part.g_pm, whole.g_pm[a:b], "g_pm")
    _assert_same_bits(part.f_prime, whole.f_prime[a : max(a, b - 2)], "f_prime")


@st.composite
def _charge_groups(draw):
    """Specs charge by charge, each window placed against the one before it."""
    specs = []
    for _ in range(draw(st.integers(1, 3))):
        Z = draw(st.integers(1, 137))
        lo, hi = 2, draw(st.integers(2, 500))
        for _ in range(draw(st.integers(1, 5))):
            place = draw(st.sampled_from(["default", "repeat", "overlap", "touch", "apart"]))
            start = {
                "overlap": lambda: draw(st.integers(lo, hi)),
                "touch": lambda: hi + 1,
                "apart": lambda: hi + draw(st.integers(2, 40)),
            }.get(place)
            if start is not None:
                lo = min(start(), 500)
                hi = lo + draw(st.integers(0, 40))
            theta = draw(st.floats(0.0, 2.0 * math.pi))
            sigma_g = draw(st.floats(0.3, 4.0))
            spec = dict(Z=Z, sigma_g=sigma_g, a=math.cos(theta), b=math.sin(theta))
            if place == "default":
                # A centroid near n = 2 clamps the default window there.
                specs.append(PacketSpec(N=draw(st.integers(2, 500)), **spec))
            else:
                N = draw(st.integers(lo, min(hi, 500)))
                specs.append(PacketSpec(N=N, window=(lo, hi), **spec))
            lo, hi = specs[-1].window
    return specs


@given(specs=_charge_groups())
def test_sweep_tables_match_each_window_bit_for_bit(specs):
    for nonrelativistic_radial in (False, True):
        swept = list(_sweep_tables(iter(specs), nonrelativistic_radial))
        assert [tables.spec for tables in swept] == specs
        for spec, tables in zip(specs, swept):
            # One _window_rows call over the spec's own window.
            weights = build_weights(spec)
            xi = _coupling(spec.Z, 1, int(weights.n[0]) - 1, spec.constants)
            rows = _window_rows(xi, weights.n, nonrelativistic_radial)
            expected = (_LimitTables if nonrelativistic_radial else PacketTables)(
                spec, weights, *rows
            )
            _assert_same_bits(tables.weights.n, weights.n, "weights.n")
            _assert_same_bits(tables.weights.w, weights.w, "weights.w")
            _assert_same_tables(tables, expected)
