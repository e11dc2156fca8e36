"""Packet tables, autocorrelation, unitarity, spin expectations, time scales.

The heavy checks here run a from-scratch oracle over the raw ket
expansion (nothing shared with the per-l coefficient arrays except the
states themselves) and extended-precision finite differences for the
energy derivatives.
"""

import cmath
import math
import warnings
from collections import defaultdict
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from diracpacket import (
    COMPTON_TIME_SECONDS,
    DEFAULT_CONSTANTS,
    Branch,
    PacketSpec,
    PhysicalConstants,
    PlaneGridSpec,
    SupercriticalChargeError,
    TimeGrid,
    autocorrelation,
    build_tables,
    component_norms,
    fine_splitting,
    make_circular_state,
    overlap_closed_form,
    overlap_set,
    small_norm,
    spin_expect,
    timescales,
)
from diracpacket import packet
from diracpacket.packet import _sweep_tables, build_weights
from oracles import autocorrelation_oracle, ket_states


# ---------------------------------------------------------------- weights


def test_weights_normalized():
    for sigma in (0.8, 1.5, 2.0, 3.3):
        w = build_weights(PacketSpec(Z=92, N=20, sigma_g=sigma))
        assert float(np.dot(w.w, w.w)) == pytest.approx(1.0, abs=1e-14)


def test_default_window():
    spec = PacketSpec(Z=92, N=20, sigma_g=2.0)
    assert spec.window == (10, 30)
    # the low edge clamps at 2 so every shell keeps its j_minus partner
    assert PacketSpec(Z=1, N=3, sigma_g=2.0).window == (2, 13)


def test_gaussian_profile_ratio():
    weights = build_weights(PacketSpec(Z=92, N=20, sigma_g=2.0))
    w = dict(zip(weights.n.tolist(), weights.w.tolist()))
    # |w_n|^2 is the Gaussian, so w21^2/w20^2 = exp(-1/(2 sigma^2))
    assert w[21] ** 2 / w[20] ** 2 == pytest.approx(math.exp(-1.0 / 8.0), rel=1e-12)
    assert w[19] ** 2 / w[20] ** 2 == pytest.approx(math.exp(-1.0 / 8.0), rel=1e-12)


def test_spec_validation():
    with pytest.raises(ValueError):
        PacketSpec(Z=0, N=20)
    with pytest.raises(ValueError):
        PacketSpec(Z=92, N=1)
    with pytest.raises(ValueError):
        PacketSpec(Z=92, N=20, sigma_g=0.0)
    with pytest.raises(ValueError):
        PacketSpec(Z=92, N=20, a=1.0, b=1.0)  # a^2 + b^2 != 1
    with pytest.raises(ValueError):
        PacketSpec(Z=92, N=20, a=math.nan, b=0.5)
    with pytest.raises(ValueError):
        PacketSpec(Z=92, N=20, window=(1, 30))
    with pytest.raises(ValueError):
        PacketSpec(Z=92, N=20, window=(25, 30))  # centroid outside
    with pytest.raises(ValueError):
        PacketSpec(Z=140, N=4)  # window reaches a supercritical shell
    with pytest.raises(ValueError, match=r"window\[0\] >= 2 \(an integer\)"):
        PacketSpec(Z=92, N=20, window=(2.5, 30))
    with pytest.raises(ValueError, match=r"window\[1\] >= 2 \(an integer\)"):
        PacketSpec(Z=92, N=20, window=(10, 30.5))
    with pytest.raises(ValueError, match="empty shell window"):
        PacketSpec(Z=92, N=20, window=(30, 10))
    with pytest.raises(ValueError, match="sigma_g"):
        PacketSpec(Z=92, N=20, sigma_g=1e308)  # 5 sigma_g overflows
    with pytest.raises(ValueError, match="Z >= 1"):
        PacketSpec(Z=True, N=20)
    # The window's first shell checks the charge: its j_minus partner has kappa = 1.
    with pytest.raises(SupercriticalChargeError, match="kappa = 1\\)"):
        PacketSpec(Z=140, N=4)
    # At most 1,001 shells: sigma_g = 100 with the default window fits.
    assert PacketSpec(Z=92, N=600, sigma_g=100.0).window == (100, 1100)
    assert PacketSpec(Z=92, N=20, window=(2, 1002)).window == (2, 1002)
    with pytest.raises(ValueError, match="1001 shells"):
        PacketSpec(Z=92, N=20, window=(2, 1003))
    with pytest.raises(ValueError, match="1001 shells"):
        PacketSpec(Z=92, N=20, sigma_g=1e9)  # window (2, 5000000020)


def test_spec_keeps_its_coupling_out_of_init_eq_and_repr():
    weak = PhysicalConstants(alpha=1e-3)
    spec = PacketSpec(Z=92, N=20, constants=weak)
    assert spec.xi == 92 * 1e-3 == PacketSpec(Z=92, N=20, window=(2, 30), constants=weak).xi
    assert spec == PacketSpec(Z=92, N=20, constants=weak) and "xi" not in repr(spec)
    with pytest.raises(TypeError):
        PacketSpec(Z=92, N=20, xi=0.5)


def test_shell_number_limit():
    # No state above shell n = 100,000; past int64, np.arange over the window
    # made an object array that np.exp could not take.
    limit = 100_000
    assert make_circular_state(1, limit, Branch.J_PLUS).n == limit
    with pytest.raises(ValueError, match=f"require n <= {limit}, got {limit + 1}"):
        make_circular_state(1, limit + 1, Branch.J_PLUS)
    assert PacketSpec(Z=137, N=limit - 10).window == (limit - 20, limit)
    # The default window of N = limit - 9 ends at limit + 1.
    with pytest.raises(ValueError, match=f"require n <= {limit}, got {limit + 1}"):
        PacketSpec(Z=137, N=limit - 9)
    with pytest.raises(ValueError, match=f"require n <= {limit}"):
        PacketSpec(Z=5, N=10**30)


def test_weak_coupling_packet_raises_no_warning():
    # gamma + kappa rounds to 0 on the kappa = -n rows here; only the
    # kappa > 0 rows may evaluate the rewrite of P_g that divides by it.
    spec = PacketSpec(Z=1, N=100, constants=PhysicalConstants(alpha=1e-6))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tables = build_tables(spec)
    assert np.all(np.isfinite(tables.acf_plus)) and np.all(np.isfinite(tables.sz_const))


# ----------------------------------------------------------------- tables


def test_table_layout(tables_u92_n4):
    tab = tables_u92_n4
    n_shells = len(tab.weights.n - 1)
    assert tab.spec.window == (2, 8)
    assert n_shells == 7
    assert np.all(np.diff(tab.weights.n - 1) == 1)
    # ten kets per shell: 3 + 2 large, 3 + 2 small
    assert len(tab.kets) == 10 * n_shells
    # cross arrays cover the orbitals with l + 2 still inside the window
    assert len(tab.k_coef) == n_shells - 2
    assert len(tab.omega_tilde) == n_shells - 2


def test_kets_are_built_on_first_read():
    tab = build_tables(PacketSpec(Z=92, N=20, sigma_g=2.0))
    assert "kets" not in vars(tab)
    kets = tab.kets
    assert len(kets) == 10 * tab.weights.n.size
    assert tab.kets is kets


@pytest.mark.parametrize("a, b", [(math.sqrt(0.5), math.sqrt(0.5)), (0.6, -0.8), (-1.0, 0.0), (0.0, 1.0)])
def test_ket_table_matches_the_scalar_expansion(a, b):
    # The expansion of the packet module docstring, one shell at a time in
    # Python floats; the table's coefficients must equal it exactly.
    tab = build_tables(PacketSpec(Z=54, N=12, sigma_g=1.5, a=a, b=b))
    expected = []
    for shell, (w, l) in enumerate(zip(tab.weights.w.tolist(), (tab.weights.n - 1).tolist())):
        p, m = shell, shell + tab.weights.n.size
        two_l = 2.0 * l
        s = math.sqrt(two_l) / (two_l + 1.0)
        expected += [
            (1, l, l, 1j * w * a, 0, p),
            (1, l, l - 1, 1j * w * b * s, 0, p),
            (1, l, l - 1, -1j * w * b * s, 0, m),
            (2, l, l, 1j * w * b / (two_l + 1.0), 0, p),
            (2, l, l, 1j * w * b * two_l / (two_l + 1.0), 0, m),
            (3, l + 1, l, w * a / math.sqrt(two_l + 3.0), 1, p),
            (3, l + 1, l - 1, w * b * math.sqrt(2.0 / ((two_l + 1.0) * (two_l + 3.0))), 1, p),
            (3, l - 1, l - 1, -w * b * math.sqrt(two_l / (two_l + 1.0)), 1, m),
            (4, l + 1, l + 1, -w * a * math.sqrt((two_l + 2.0) / (two_l + 3.0)), 1, p),
            (4, l + 1, l, -w * b / math.sqrt(two_l + 3.0), 1, p),
        ]
    kets = tab.kets
    got = zip(kets.component.tolist(), kets.l_ang.tolist(), kets.m_ang.tolist(),
              kets.coef.tolist(), kets.part.tolist(), kets.row.tolist())
    assert len(kets) == len(expected)
    assert list(got) == expected


def test_rows_are_built_on_first_read():
    tab = build_tables(PacketSpec(Z=92, N=20, sigma_g=2.0))
    assert "rows" not in vars(tab)
    rows = tab.rows
    assert tab.rows is rows


def test_sweep_tables_stream_charge_by_charge():
    drawn = []

    def specs():
        for Z in (1, 2):
            for N in (10, 20, 30):
                drawn.append((Z, N))
                yield PacketSpec(Z=Z, N=N)

    sweep = _sweep_tables(specs())
    first = [next(sweep) for _ in range(3)]
    # Seeing where the first charge ends draws one spec of the second, no more.
    assert drawn == [(1, 10), (1, 20), (1, 30), (2, 10)]
    rest = list(sweep)
    assert [(t.spec.Z, t.spec.N) for t in first + rest] == drawn


def test_sweep_tables_share_rows_between_charges_of_equal_coupling(monkeypatch):
    # Z alpha is 0.008 for both charges, so one run of rows serves the two.
    specs = [
        PacketSpec(Z=2, N=10, constants=PhysicalConstants(alpha=0.004)),
        PacketSpec(Z=4, N=10, constants=PhysicalConstants(alpha=0.002)),
    ]
    calls = []
    window_rows = packet._window_rows

    def recorded(xi, n, nonrelativistic_radial):
        calls.append(xi)
        return window_rows(xi, n, nonrelativistic_radial)

    monkeypatch.setattr(packet, "_window_rows", recorded)
    first, second = _sweep_tables(specs)
    assert calls == [0.008]
    for name in ("e_plus", "omega", "acf_minus", "k_coef", "norm3"):
        assert getattr(first, name).tobytes() == getattr(second, name).tobytes(), name


def test_tables_compare_and_hash_by_identity():
    spec = PacketSpec(Z=92, N=20, sigma_g=2.0)
    first, second = build_tables(spec), build_tables(spec)
    assert first == first and first != second
    assert len({first, second, first}) == 2
    assert first.weights == first.weights and first.weights != second.weights
    assert len({first.weights, second.weights}) == 2


def test_rows_pair_with_window_shells(tables_u92_n20):
    # Row i is the j+ partner of shell n[i], row n.size + i its j- partner,
    # field for field the state make_circular_state builds.
    rows = tables_u92_n20.rows
    n = tables_u92_n20.weights.n.tolist()
    states = [make_circular_state(92, shell, branch) for branch in Branch for shell in n]
    assert rows.lam.shape == (2 * len(n),)
    for i, state in enumerate(states):
        for name, value in rows._asdict().items():
            assert np.asarray(getattr(state, name)).tobytes() == value[..., i].tobytes(), name


def test_omega_is_fine_splitting(tables_u92_n20):
    tab = tables_u92_n20
    for idx, l in enumerate(tab.weights.n - 1):
        assert tab.omega[idx] == pytest.approx(
            fine_splitting(92, int(l) + 1), rel=1e-13
        )


def test_overlap_set_at_window_centre():
    # the radial integrals behind the (92, 20) tables at l = 19
    ov = overlap_set(
        make_circular_state(92, 20, Branch.J_PLUS),
        make_circular_state(92, 20, Branch.J_MINUS),
    )
    assert 0.0 < ov.f_plus < ov.g_plus
    assert 0.0 < ov.g_pm < 1.0


# --------------------------------------------------------- autocorrelation


def test_autocorrelation_at_zero(tables_u92_n20, tables_u92_n40, tables_h_n20):
    # the sum over ~27 shells of closed-form overlaps rounds at ~2e-14
    for tab in (tables_u92_n20, tables_u92_n40, tables_h_n20):
        assert abs(autocorrelation(tab, 0.0) - 1.0) < 2e-13


def test_autocorrelation_bounded(tables_u92_n20):
    rng = np.random.default_rng(3)
    t_ls = 2.0 * math.pi / fine_splitting(92, 20)
    t = rng.uniform(0.0, 12.0 * t_ls, size=10_000)
    a = autocorrelation(tables_u92_n20, t)
    assert a.shape == t.shape
    assert float(np.max(np.abs(a))) <= 1.0 + 1e-12


def test_autocorrelation_time_reversal(tables_u92_n20):
    rng = np.random.default_rng(5)
    for t in rng.uniform(0.0, 1e9, size=20):
        fwd = autocorrelation(tables_u92_n20, float(t))
        bwd = autocorrelation(tables_u92_n20, -float(t))
        assert abs(bwd - fwd.conjugate()) < 1e-13


def test_autocorrelation_scalar_and_array_agree(tables_u92_n20):
    t = np.array([0.0, 1e6, 3e8])
    arr = autocorrelation(tables_u92_n20, t)
    for i, ti in enumerate(t):
        assert abs(arr[i] - autocorrelation(tables_u92_n20, float(ti))) < 1e-15


def test_autocorrelation_against_quadrature_oracle(tables_u92_n4):
    """Closed-form tables against the raw ket sum with quadrature radials."""
    rng = np.random.default_rng(17)
    t_ls = 2.0 * math.pi / fine_splitting(92, 4)
    times = rng.uniform(0.0, t_ls, size=12)
    fast = autocorrelation(tables_u92_n4, times)
    slow = autocorrelation_oracle(tables_u92_n4, times)
    assert float(np.max(np.abs(fast - slow))) < 1e-10


@pytest.mark.parametrize("observable", [autocorrelation, component_norms, spin_expect])
def test_observables_take_the_shape_of_the_times(tables_u92_n20, observable):
    def series(t):
        out = observable(tables_u92_n20, t)
        return out if isinstance(out, tuple) else (out,)

    number = complex if observable is autocorrelation else float
    t_ls = 2.0 * math.pi / fine_splitting(92, 20)
    times = np.array([[0.0, 0.37, 1.3], [2.9, 7.1, 10.0]]) * t_ls
    table = series(times)
    assert all(isinstance(v, np.ndarray) and v.shape == (2, 3) for v in table)
    for index in np.ndindex(times.shape):
        at_float = series(float(times[index]))
        at_0d = series(np.array(times[index]))
        for x, y, values in zip(at_float, at_0d, table, strict=True):
            assert type(x) is number and type(y) is number
            assert repr(x) == repr(y) == repr(values[index].item())
    grid = series(TimeGrid(0.0, 10.0, 7, t_ls))
    assert all(isinstance(v, np.ndarray) and v.shape == (7,) for v in grid)


BATCH_OBSERVABLES = {
    "autocorrelation": autocorrelation,
    "spin": spin_expect,
    "spin without delta": lambda tables, t: spin_expect(tables, t, include_delta=False),
    "norms": component_norms,
}


@pytest.mark.parametrize("Z, N", [(1, 20), (92, 4), (92, 20), (137, 300)])
def test_a_batch_equals_its_times_alone(Z, N):
    """A time's value is bit for bit the same alone and in a batch of 4,000.

    A (2, 3) array of times gives its flat batch's values too.  Each time
    is summed on its own, so no reduction order depends on the batch.
    """
    tables = build_tables(PacketSpec(Z=Z, N=N))
    times = np.random.default_rng(1000 * Z + N).uniform(0.0, 1e7, 4000)
    for name, observable in BATCH_OBSERVABLES.items():

        def series(t):
            out = observable(tables, t)
            return out if isinstance(out, tuple) else (out,)

        batch = series(times)
        alone = list(zip(*(series(float(t)) for t in times)))
        square = series(times[:6].reshape(2, 3))
        for values, singles, block in zip(batch, alone, square, strict=True):
            assert values.tobytes() == np.array(singles, dtype=values.dtype).tobytes(), name
            assert block.tobytes() == values[:6].tobytes(), name


def test_rejects_nonfinite_times(tables_u92_n4):
    with pytest.raises(ValueError):
        autocorrelation(tables_u92_n4, math.nan)
    with pytest.raises(ValueError):
        spin_expect(tables_u92_n4, math.inf)


# -------------------------------------------------------------- unitarity


def test_component_norms_sum_to_one(tables_u92_n20, tables_u92_n40, tables_h_n20):
    rng = np.random.default_rng(29)
    for tab in (tables_u92_n20, tables_u92_n40, tables_h_n20):
        t_ls = 2.0 * math.pi / fine_splitting(tab.spec.Z, tab.spec.N)
        times = rng.uniform(0.0, 3.0 * t_ls, size=40)
        n1, n2, n3, n4 = component_norms(tab, times)
        total = n1 + n2 + n3 + n4
        assert float(np.max(np.abs(total - 1.0))) < 1e-12
        assert min(n1.min(), n2.min(), n3.min(), n4.min()) >= -1e-15


def test_small_components_stationary(tables_u92_n20):
    sn = small_norm(tables_u92_n20)
    rng = np.random.default_rng(31)
    for t in rng.uniform(0.0, 1e10, size=5):
        n1, n2, n3, n4 = component_norms(tables_u92_n20, float(t))
        assert n3 + n4 == pytest.approx(sn.total, abs=1e-12)
        assert n3 == pytest.approx(sn.c3_norm, abs=1e-12)
        assert 1.0 - n1 - n2 == pytest.approx(sn.total, abs=1e-10)


def test_small_norm_frozen_value(tables_u92_n20):
    # frozen from this implementation, cross-checked against the exact
    # per-state split (1 - E)/2 weighted over the window
    assert small_norm(tables_u92_n20).total == pytest.approx(
        2.907036102631895e-04, rel=1e-10
    )


def test_small_norm_tracks_state_split():
    """The packet's small norm sits between the per-state (1-E)/2 values
    of the window edges, and is near the centroid's."""
    tab = build_tables(PacketSpec(Z=92, N=6, sigma_g=0.8))
    sn = small_norm(tab)
    from diracpacket import Branch, make_circular_state

    centroid = make_circular_state(92, 6, Branch.J_PLUS)
    per_state = 0.5 * (1.0 - centroid.energy)
    assert 0.3 * per_state < sn.total < 3.0 * per_state


# ------------------------------------------------------------------ spin


def test_spin_starts_polarized_x(tables_u92_n20):
    sx, sy, sz = spin_expect(tables_u92_n20, 0.0)
    assert sy == 0.0  # only sine terms contribute to sigma_y
    assert abs(sz) < 0.02
    assert sx > 0.99


def test_spin_x_frozen_hydrogen_value(tables_h_n20):
    sx, _, _ = spin_expect(tables_h_n20, 0.0)
    assert sx == pytest.approx(0.9999999368195459, abs=1e-12)


def test_spin_up_only_packet():
    tab = build_tables(PacketSpec(Z=92, N=20, sigma_g=2.0, a=1.0, b=0.0))
    rng = np.random.default_rng(37)
    t_ls = 2.0 * math.pi / fine_splitting(92, 20)
    times = rng.uniform(0.0, 2.0 * t_ls, size=25)
    sx, sy, sz = spin_expect(tab, times)
    assert float(np.max(np.abs(sx))) < 1e-15
    assert float(np.max(np.abs(sy))) < 1e-15
    # sigma_z has no oscillating part when only one spin channel is fed
    assert float(np.ptp(sz)) < 1e-15
    assert sz[0] > 0.99


def test_delta_terms_bounded(tables_u92_n4):
    """The cross-shell corrections stay percent-scale and vanish at b=0."""
    tab = tables_u92_n4
    t_ls = 2.0 * math.pi / fine_splitting(92, 4)
    times = np.linspace(0.0, 2.0 * t_ls, 400)
    with_d = np.array(spin_expect(tab, times, include_delta=True))
    without = np.array(spin_expect(tab, times, include_delta=False))
    gap = float(np.max(np.abs(with_d - without)))
    assert 0.0 < gap < 0.05

    pure = build_tables(PacketSpec(Z=92, N=4, sigma_g=0.8, a=1.0, b=0.0))
    w = np.array(spin_expect(pure, times, include_delta=True))
    wo = np.array(spin_expect(pure, times, include_delta=False))
    assert float(np.max(np.abs(w - wo))) == 0.0


# ------------------------------------------------- brute-force spin oracle


class _BruteSpin:
    """Spin expectations straight from the ket expansion.

    sigma_x = 2 Re(<c1|c2> + <c3|c4>), sigma_y the imaginary part,
    sigma_z = <c1|c1> - <c2|c2> + <c3|c3> - <c4|c4>, with every bracket
    expanded over ket pairs whose angular labels match.  Radial factors
    come from the closed-form Gamma moments (validated separately against
    quadrature); phases use the plain energy difference, which is safe
    at high Z where the splitting still carries ~9 digits.
    """

    def __init__(self, tables):
        kets = tables.kets
        states = ket_states(tables)
        part = ["gf"[p] for p in kets.part.tolist()]
        by_comp = defaultdict(list)
        for index, comp in enumerate(kets.component.tolist()):
            by_comp[comp].append(index)
        cache = {}

        def radial(ka, kb):
            key = (states[ka], states[kb], part[ka] + part[kb])
            if key not in cache:
                cache[key] = overlap_closed_form(states[ka], states[kb], key[2])
            return cache[key]

        def pairs(comp_a, comp_b):
            out = []
            for ka in by_comp[comp_a]:
                for kb in by_comp[comp_b]:
                    if kets.l_ang[ka] == kets.l_ang[kb] and kets.m_ang[ka] == kets.m_ang[kb]:
                        amp = complex(kets.coef[ka]).conjugate() * complex(kets.coef[kb])
                        amp *= radial(ka, kb)
                        out.append((amp, states[ka].energy - states[kb].energy))
            return out

        self._cross = pairs(1, 2) + pairs(3, 4)
        self._diag = {c: pairs(c, c) for c in (1, 2, 3, 4)}

    def __call__(self, t):
        s = sum(amp * cmath.exp(1j * dw * t) for amp, dw in self._cross)
        norms = {
            c: sum(amp * cmath.exp(1j * dw * t) for amp, dw in terms).real
            for c, terms in self._diag.items()
        }
        sz = norms[1] - norms[2] + norms[3] - norms[4]
        return 2.0 * s.real, 2.0 * s.imag, sz


def test_spin_against_brute_force_u92_n40(tables_u92_n40):
    """Production arrays against the raw ket sum at the heavy benchmark.

    sigma_x and sigma_z agree within the oracle's own phase drift; sigma_z
    comes from the same norm tables as component_norms and has no offset.
    sigma_y differs through the sign of the cross-shell sine corrections,
    a known defect of spin_expect that the benchmark's reference shares,
    so its gap is bounded by twice their total weight until both are fixed.
    """
    tab = tables_u92_n40
    brute = _BruteSpin(tab)
    t_ls = 2.0 * math.pi / fine_splitting(92, 40)
    delta_budget = 2.0 * float(np.sum(np.abs(tab.k_coef)))
    for frac in (0.0, 0.11, 0.37, 1.7, 4.44, 8.56):
        t = frac * t_ls
        bx, by, bz = brute(t)
        sx, sy, sz = spin_expect(tab, t)
        # 5e-6 floors absorb the oracle's own naive-phase drift: its plain
        # energy differences carry ~2e-9 relative error, which by 8.5
        # collapse periods has rotated the fastest window phases by ~1e-6
        assert abs(sx - bx) < 5e-6
        assert abs(sy - by) < delta_budget + 5e-6
        assert abs(sz - bz) < 5e-6


def test_spin_against_brute_force_u92_n4(tables_u92_n4):
    """Same comparison on the strongly relativistic small packet, where
    the small components are largest: sigma_x and sigma_z to 1e-9, and
    sigma_y within the budget of its known cross-shell sign defect."""
    tab = tables_u92_n4
    brute = _BruteSpin(tab)
    t_ls = 2.0 * math.pi / fine_splitting(92, 4)
    delta_budget = 2.0 * float(np.sum(np.abs(tab.k_coef)))
    for frac in (0.0, 0.2, 0.55, 1.3, 2.71):
        t = frac * t_ls
        bx, by, bz = brute(t)
        sx, sy, sz = spin_expect(tab, t)
        assert abs(sx - bx) < 1e-9
        assert abs(sy - by) < delta_budget + 1e-9
        assert abs(sz - bz) < 1e-9


def test_brute_force_confirms_sigma_x_exact(tables_u92_n4):
    # with the delta corrections switched off on both sides, sigma_x
    # agrees to rounding: the cosine terms are even in the frequency
    # sign, so they are immune to the sign ambiguity sigma_y sees
    tab = tables_u92_n4
    brute = _BruteSpin(tab)
    t_ls = 2.0 * math.pi / fine_splitting(92, 4)
    for frac in (0.0, 0.4, 1.9):
        t = frac * t_ls
        bx, _, _ = brute(t)
        sx_full, _, _ = spin_expect(tab, t)
        assert abs(sx_full - bx) < 1e-9


# -------------------------------------------------------------- timescales


def test_timescale_frozen_ratios():
    ts = timescales(92, 20)
    assert ts.t[2] / ts.t[1] == pytest.approx(13.328321574519796, rel=1e-12)
    assert ts.t[3] / ts.t[1] == pytest.approx(199.83086905725463, rel=1e-12)
    assert ts.t[4] / ts.t[1] == pytest.approx(3195.4904189850163, rel=1e-12)
    assert ts.t_ls / ts.t[1] == pytest.approx(1685.5665002458745, rel=1e-12)


def test_timescale_kepler_reference():
    ts = timescales(92, 40)
    xi = 92.0 / 137.036
    assert ts.t_cl == pytest.approx(2.0 * math.pi * 40.0**3 / xi**2, rel=1e-14)
    assert ts.t_ls / ts.t_cl == pytest.approx(6920.728183966322, rel=1e-12)


def test_unit_scales():
    ts = timescales(92, 40)
    assert ts.unit_scale("natural") == 1.0
    assert (ts.unit_scale("kepler"), ts.unit_scale("tls")) == (ts.t_cl, ts.t_ls)
    assert ts.unit_scale("seconds") == 1.0 / COMPTON_TIME_SECONDS
    with pytest.raises(ValueError, match="unknown time unit 'minutes'"):
        ts.unit_scale("minutes")


def test_timescale_nonrelativistic_ratios():
    """With a vanishing coupling the hierarchy collapses onto the Bohr
    ratios 2n/3, n^2/2, 2n^3/5, n^4/3, 2n^5/7."""
    weak = PhysicalConstants(alpha=1e-6)
    n = 20
    ts = timescales(1, n, k_max=6, constants=weak)
    expected = {
        2: 2.0 * n / 3.0,
        3: n * n / 2.0,
        4: 2.0 * n**3 / 5.0,
        5: n**4 / 3.0,
        6: 2.0 * n**5 / 7.0,
    }
    for k, ref in expected.items():
        assert ts.t[k] / ts.t[1] == pytest.approx(ref, rel=1e-9)


def test_energy_derivatives_against_richardson_fd():
    """Analytic jet derivatives against mpmath finite differences.

    Central stencils at h = 1e-3 with one Richardson level, evaluated at
    40 digits so the stencil cancellation costs nothing; both branch
    curves are checked through fourth order.
    """
    with mp.workdps(40):
        xi = mp.mpf(92) / mp.mpf("137.036")

        def e_plus(n):
            return mp.sqrt(1 - (xi / n) ** 2)

        def e_minus(n):
            d = mp.sqrt((n - 1) ** 2 - xi * xi) + 1
            return d / mp.sqrt(d * d + xi * xi)

        def stencil(f, n0, k, h):
            if k == 1:
                return (f(n0 + h) - f(n0 - h)) / (2 * h)
            if k == 2:
                return (f(n0 + h) - 2 * f(n0) + f(n0 - h)) / h**2
            if k == 3:
                return (
                    f(n0 + 2 * h) - 2 * f(n0 + h) + 2 * f(n0 - h) - f(n0 - 2 * h)
                ) / (2 * h**3)
            return (
                f(n0 + 2 * h)
                - 4 * f(n0 + h)
                + 6 * f(n0)
                - 4 * f(n0 - h)
                + f(n0 - 2 * h)
            ) / h**4

        def richardson(f, n0, k, h):
            coarse = stencil(f, n0, k, h)
            fine = stencil(f, n0, k, h / 2)
            return (4 * fine - coarse) / 3

        def e_avg(n):
            return (e_plus(n) + e_minus(n)) / 2

        n0 = mp.mpf(20)
        h = mp.mpf("1e-3")
        for branch, curve in (("j_plus", e_plus), ("averaged", e_avg)):
            ts = timescales(92, 20, k_max=4, branch=branch)
            for k in (1, 2, 3, 4):
                analytic = math.factorial(k) * 2.0 * math.pi / ts.t[k]
                fd = abs(float(richardson(curve, n0, k, h)))
                assert analytic == pytest.approx(fd, rel=1e-6), (branch, k)


# Jet operations in each branch's energy curve: E+ = sqrt(1 - xi^2 / (n n))
# takes four (n n, the quotient, 1 - ., sqrt); E- = 1 / sqrt(xi^2 / d^2 + 1)
# with d = sqrt((u - xi)(u + xi)) + 1 takes ten; the average adds one sum
# (the halving is exact).
_JET_OPS = {"j_plus": 4, "averaged": 4 + 10 + 1}


@pytest.mark.parametrize("branch", ["j_plus", "averaged"])
def test_timescales_against_mpmath_derivatives(branch):
    """t[k] on both branches against 60-digit mpmath derivatives of the
    Sommerfeld energies, at the library's own xi.

    At order k a jet operation forms a coefficient from at most k + 1
    terms, each rounded once.  Counting every rounding at full weight, with
    no cancellation between terms (the two curves' coefficients share their
    sign, so their average adds none), a branch of m operations is off by at
    most m (k + 1) eps, and 2 pi k! / |c_k| adds three roundings more.
    """
    eps = np.finfo(float).eps
    with mp.workdps(60):
        for Z in (1, 92, 137):
            xi = mp.mpf(Z * DEFAULT_CONSTANTS.alpha)

            def e_plus(n):
                return mp.sqrt(1 - (xi / n) ** 2)

            def e_minus(n):
                d = mp.sqrt((n - 1) ** 2 - xi * xi) + 1
                return d / mp.sqrt(d * d + xi * xi)

            def curve(n):
                return e_plus(n) if branch == "j_plus" else (e_plus(n) + e_minus(n)) / 2

            for N in (2, 20, 500):
                ts = timescales(Z, N, k_max=6, branch=branch)
                derivatives = list(mp.diffs(curve, N, 6))
                for k in range(1, 7):
                    reference = 2 * mp.pi * math.factorial(k) / abs(derivatives[k])
                    error = abs(float(ts.t[k] / reference - 1))
                    assert error <= (_JET_OPS[branch] * (k + 1) + 3) * eps, (Z, N, k, error)


def test_timescale_validation():
    import diracpacket

    with pytest.raises(ValueError):
        timescales(92, 1)
    with pytest.raises(ValueError):
        timescales(92, 20, k_max=0)
    with pytest.raises(ValueError):
        timescales(92, 20, k_max=9)
    with pytest.raises(ValueError):
        timescales(92, 20, branch="both")
    with pytest.raises(diracpacket.SupercriticalChargeError):
        timescales(150, 2)
    with pytest.raises(ValueError, match="Z >= 1"):
        timescales(0, 5)
    with pytest.raises(ValueError, match="Z >= 1"):
        timescales(True, 5)
    with pytest.raises(ValueError, match="k_max"):
        timescales(92, 20, k_max=True)
    # A sweep's points are checked as columns; a bad one still gets the
    # scalar checks' own message, also when numpy would coerce its column.
    for Z, N, message in [
        ([92], [20.0], "require N >= 2 (an integer), got 20.0"),
        ([np.bool_(True)], [5], "require Z >= 1 (an integer), got np.True_"),
        ([92], [100_001], "require n <= 100000, got 100001"),
        ([92, True], [20, 20], "require Z >= 1 (an integer), got True"),
        ([92, 92], [20, 20.0], "require N >= 2 (an integer), got 20.0"),
        # A charge past the double range comes after the first bad point.
        ([5, 10**400], [1, 20], "require N >= 2 (an integer), got 1"),
    ]:
        with pytest.raises(ValueError) as info:
            packet._timescale_rows(Z, N, 4, DEFAULT_CONSTANTS, "j_plus")
        assert str(info.value) == message
        if len(Z) == 1:
            with pytest.raises(ValueError) as info:
                timescales(Z[0], N[0])
            assert str(info.value) == message
    assert timescales(np.int32(92), np.int32(20)) == timescales(92, 20)


def test_timescales_refuse_a_zero_derivative(monkeypatch):
    """No bound rules out an exact 0.0 among the energy's Taylor
    coefficients, whose T_k would be infinite; a jet with one is refused."""
    energy_jet = packet._energy_jet_plus

    def flat_at_third_order(xi, n0, order):
        jet = energy_jet(xi, n0, order)
        jet.c[:, 3] = 0.0
        return jet

    monkeypatch.setattr(packet, "_energy_jet_plus", flat_at_third_order)
    with pytest.raises(ValueError, match="degenerate derivative order k = 3 at N = 40"):
        timescales(92, 40)


@pytest.mark.parametrize(
    "name, build, good, out_of_range",
    [
        ("N", lambda v: PacketSpec(Z=92, N=v), 20, (1,)),
        ("samples", lambda v: TimeGrid(0.0, 1.0, v), 3, (1,)),
        ("k_max", lambda v: timescales(92, 20, k_max=v), 4, (0, 7)),
        ("resolution", lambda v: PlaneGridSpec(resolution=v), 64, (15, 2049)),
        ("n", lambda v: make_circular_state(92, v, Branch.J_PLUS), 20, (0,)),
    ],
)
def test_integer_inputs_share_one_rule(name, build, good, out_of_range):
    build(np.int64(good))
    for bad in (True, 64.0, *out_of_range):
        with pytest.raises(ValueError, match=rf"require .*\b{name}\b.*, got {bad!r}$"):
            build(bad)


# ------------------------------------------------- nonrelativistic tables


def test_nonrelativistic_radial_flag():
    """Replacing the radial integrals with their weak-coupling limits
    (overlaps -> 1, small components -> 0) telescopes the initial spin
    projection to exactly 2ab while keeping the exact phases."""
    spec = PacketSpec(Z=92, N=20, sigma_g=2.0)
    tab = build_tables(spec, nonrelativistic_radial=True)
    sx, sy, sz = spin_expect(tab, 0.0)
    assert sx == pytest.approx(1.0, abs=1e-12)
    assert sy == 0.0
    assert small_norm(tab).total == 0.0
    # phases unchanged: the splitting frequencies are still relativistic
    full = build_tables(spec)
    assert np.allclose(tab.omega, full.omega, rtol=0.0, atol=0.0)


# ------------------------------------------------------ README quick start


def test_readme_quick_start_runs():
    """The documented import surface and example keep working."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(code, namespace)
    recurrence = namespace["recurrence"]
    assert recurrence.shape == (2001,)
    assert recurrence[0] == pytest.approx(1.0, abs=1e-12)
    assert float(np.max(recurrence)) <= 1.0 + 1e-12


def test_public_surface():
    """__all__ is exactly this list, so a removal has to name what it removes."""
    import diracpacket

    assert diracpacket.__all__ == [
        "ALPHA_DEFAULT",
        "COMPTON_TIME_SECONDS",
        "DEFAULT_CONSTANTS",
        "PhysicalConstants",
        "DensityGrid",
        "PlaneGridSpec",
        "amplitudes",
        "density_grid",
        "Branch",
        "CircularState",
        "OverlapSet",
        "SupercriticalChargeError",
        "binding_energy",
        "eval_radial",
        "fine_splitting",
        "make_circular_state",
        "overlap_closed_form",
        "overlap_set",
        "state_from_kappa",
        "PacketSpec",
        "PacketTables",
        "SmallNorm",
        "TimeGrid",
        "TimeScales",
        "autocorrelation",
        "build_tables",
        "component_norms",
        "small_norm",
        "spin_expect",
        "timescales",
        "legendre_norm",
        "sph_harm",
        "__version__",
    ]
    assert len(diracpacket.__all__) == 33
    for name in diracpacket.__all__:
        assert hasattr(diracpacket, name), name
