"""Position-space densities: pointwise amplitudes and equatorial grids.

The frozen numbers in here (peak radius, relocalization correlations,
sub-packet separations) were measured once from this implementation
after cross-checking the pointwise amplitudes against the 3D sum rule
and the single-state closed form; they pin the behavior down so later
refactors cannot silently move the packet.
"""

import math

import numpy as np
import pytest

from diracpacket import (
    Branch,
    PacketSpec,
    PlaneGridSpec,
    TimeGrid,
    amplitudes,
    build_tables,
    density_grid,
    make_circular_state,
    timescales,
)
from oracles import ket_states

XI_92 = 92.0 / 137.036


def _cosine(a, b):
    return float(np.sum(a * b) / math.sqrt(np.sum(a * a) * np.sum(b * b)))


def _mass_azimuth(grid, channel):
    x = grid.x[np.newaxis, :]
    y = grid.y[:, np.newaxis]
    return math.atan2(float(np.sum(channel * y)), float(np.sum(channel * x)))


def _wrap(angle):
    return (angle + math.pi) % (2.0 * math.pi) - math.pi


# ------------------------------------------------------------- amplitudes


def test_amplitudes_scalar_returns_four_complex(tables_u92_n20):
    out = amplitudes(tables_u92_n20, 30.0, math.pi / 2, 0.3, 0.0)
    assert len(out) == 4
    assert all(isinstance(c, complex) for c in out)


def test_amplitudes_broadcast_shapes(tables_u92_n4):
    r = np.linspace(5.0, 40.0, 11)
    out = amplitudes(tables_u92_n4, r, math.pi / 2, 0.0, 0.0)
    assert all(c.shape == r.shape for c in out)
    grid_theta = np.linspace(0.3, 2.8, 4)[:, None]
    grid_r = r[None, :]
    out2 = amplitudes(tables_u92_n4, grid_r, grid_theta, 0.0, 0.0)
    assert all(c.shape == (4, 11) for c in out2)


def test_amplitudes_phi_periodic(tables_u92_n4):
    r = np.linspace(5.0, 40.0, 7)
    a = amplitudes(tables_u92_n4, r, 1.1, 0.37, 123.0)
    b = amplitudes(tables_u92_n4, r, 1.1, 0.37 + 2.0 * math.pi, 123.0)
    for ca, cb in zip(a, b):
        assert np.allclose(ca, cb, rtol=0.0, atol=1e-10)


def test_channel_structure_without_b():
    """With b = 0 the second large channel is identically empty.

    The small channels do not empty: the momentum coupling feeds both of
    them from a pure spin-up large component, just at the small-component
    scale.
    """
    tab = build_tables(PacketSpec(Z=92, N=4, sigma_g=0.8, a=1.0, b=0.0))
    r = np.linspace(2.0, 60.0, 9)
    c1, c2, c3, c4 = amplitudes(tab, r, 1.2, 0.9, 50.0)
    assert np.all(c2 == 0.0)
    assert np.any(np.abs(c1) > 0.0)
    assert np.any(np.abs(c3) > 0.0)
    assert np.any(np.abs(c4) > 0.0)


def test_amplitudes_match_norm_sum_rule(tables_u92_n4):
    """Full 3D integral of the four |amplitude|^2 fields equals 1.

    Gauss-Legendre in cos(theta) (the integrand is a polynomial there),
    a uniform trapezoid in phi (exact for the finite azimuthal spectrum),
    and Gauss-Legendre in r.  This ties the pointwise evaluator to the
    same normalization the table-level observables use.
    """
    tab = tables_u92_n4
    n_theta, n_phi, n_r = 24, 24, 480
    ct, wt = np.polynomial.legendre.leggauss(n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    r_lo, r_hi = 1e-9, 700.0
    xr, wr = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * (r_hi + r_lo) + 0.5 * (r_hi - r_lo) * xr
    wr = 0.5 * (r_hi - r_lo) * wr * r * r

    total = 0.0
    for cti, wti in zip(ct, wt):
        theta = math.acos(float(cti))
        for phi in phis:
            comps = amplitudes(tab, r, theta, float(phi), 0.0)
            dens = sum(np.abs(c) ** 2 for c in comps)
            total += float(wti) * float(np.dot(wr, dens))
    total *= 2.0 * math.pi / n_phi
    assert total == pytest.approx(1.0, abs=1e-3)


def test_single_state_peak_radius():
    """One pure circular state peaks at r = (gamma - 1)/lambda exactly."""
    spec = PacketSpec(Z=92, N=20, sigma_g=2.0, a=1.0, b=0.0, window=(20, 20))
    tab = build_tables(spec)
    st = make_circular_state(92, 20, Branch.J_PLUS)
    r_n = 400.0 / XI_92
    r = np.linspace(0.5 * r_n, 1.3 * r_n, 16001)
    comps = amplitudes(tab, r, math.pi / 2, math.pi, 0.0)
    dens = sum(np.abs(c) ** 2 for c in comps)
    peak = float(r[np.argmax(dens)])
    assert peak == pytest.approx((st.gamma - 1.0) / st.lam, rel=1e-3)


def test_packet_peak_radius(tables_u92_n20):
    """The coherent packet's equatorial peak sits at 0.8535 r_N.

    In-plane probability (no r^2 measure) peaks well inside the Bohr-like
    radius r_N = N^2/xi: each shell peaks at (gamma-1)/lambda ~ 0.95 r_N
    and the Gaussian shell mix shifts the product peak further in.
    """
    r_n = 400.0 / XI_92
    r = np.linspace(0.5 * r_n, 1.3 * r_n, 8001)
    comps = amplitudes(tables_u92_n20, r, math.pi / 2, math.pi, 0.0)
    dens = sum(np.abs(c) ** 2 for c in comps)
    peak = float(r[np.argmax(dens)]) / r_n
    assert peak == pytest.approx(0.8535, abs=2e-3)


def test_radial_marginal_peak_near_rn(tables_u92_n20):
    """With the r^2 measure and the angular integral done, the radial
    probability peaks near r_N (measured 0.972 r_N; the cross-shell
    interference at t = 0 pulls it slightly inward)."""
    tab = tables_u92_n20
    r_n = 400.0 / XI_92
    r = np.linspace(0.6 * r_n, 1.4 * r_n, 4001)
    kets = tab.kets
    groups = {}
    for index, key in enumerate(zip(kets.component.tolist(), kets.l_ang.tolist(),
                                    kets.m_ang.tolist())):
        groups.setdefault(key, []).append(index)
    states = ket_states(tab)
    dens = np.zeros_like(r)
    from diracpacket import eval_radial

    for indices in groups.values():
        acc = np.zeros_like(r, dtype=complex)
        for index in indices:
            g, f = eval_radial(states[index], r)
            rad = (g, f)[kets.part[index]]
            acc += kets.coef[index] * rad
        dens += np.abs(acc) ** 2
    dens *= r * r
    peak = float(r[np.argmax(dens)]) / r_n
    assert abs(peak - 1.0) < 0.04
    assert peak == pytest.approx(0.9716, abs=5e-3)


# ------------------------------------------------------------------ grids


@pytest.mark.parametrize(
    "t", [np.array([0.0, 1.0]), np.array([0.5]), TimeGrid(0.0, 1.0, 3)], ids=["array", "one", "grid"]
)
def test_density_takes_a_single_time(tables_u92_n4, t):
    with pytest.raises(ValueError, match="t must be a single time"):
        density_grid(tables_u92_n4, PlaneGridSpec(resolution=16), t)
    with pytest.raises(ValueError, match="t must be a single time"):
        amplitudes(tables_u92_n4, 10.0, math.pi / 2, 0.0, t)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        PlaneGridSpec(extent=0.0)
    with pytest.raises(ValueError):
        PlaneGridSpec(extent=-1.0)
    with pytest.raises(ValueError):
        PlaneGridSpec(resolution=8)
    with pytest.raises(ValueError):
        PlaneGridSpec(resolution=64.5)
    with pytest.raises(ValueError, match="2048"):
        PlaneGridSpec(resolution=2049)
    with pytest.raises(ValueError, match="2048"):
        PlaneGridSpec(resolution=100000)
    for resolution in (math.inf, -math.inf):
        with pytest.raises(ValueError, match="2048"):
            PlaneGridSpec(resolution=resolution)
    assert PlaneGridSpec(resolution=2048).resolution == 2048
    assert PlaneGridSpec().extent == pytest.approx(1.6)
    assert PlaneGridSpec().resolution == 256


def test_grid_geometry(tables_u92_n20):
    spec = PlaneGridSpec(extent=1.6, resolution=32)
    grid = density_grid(tables_u92_n20, spec, 0.0)
    r_n = 400.0 / XI_92
    assert grid.r_n == pytest.approx(r_n, rel=1e-14)
    assert grid.x.shape == (32,) and grid.y.shape == (32,)
    assert grid.y is grid.x and not grid.x.flags.writeable
    assert grid.x[0] == pytest.approx(-1.6 * r_n)
    assert grid.x[-1] == pytest.approx(1.6 * r_n)
    assert np.allclose(grid.x, -grid.x[::-1])
    assert grid.spin_up.shape == (32, 32)
    assert grid.t == 0.0
    assert grid.grid is spec


def test_grid_nonnegative_and_finite(tables_u92_n20):
    grid = density_grid(tables_u92_n20, PlaneGridSpec(resolution=48), 0.0)
    for channel in (grid.spin_up, grid.spin_down, grid.total):
        assert np.all(np.isfinite(channel))
        assert np.all(channel >= 0.0)
    assert np.allclose(grid.total, grid.spin_up + grid.spin_down, rtol=0.0, atol=0.0)


def test_grid_matches_pointwise_amplitudes(tables_u92_n20):
    """One row of the fast grid against naive pointwise evaluation."""
    spec = PlaneGridSpec(extent=1.2, resolution=16)
    grid = density_grid(tables_u92_n20, spec, 3.3e7)
    i = 11
    for j in (0, 5, 13):
        x, y = float(grid.x[j]), float(grid.y[i])
        r = math.hypot(x, y)
        phi = math.atan2(y, x)
        c1, c2, c3, c4 = amplitudes(
            tables_u92_n20, r, math.pi / 2, phi, 3.3e7
        )
        up = abs(c1) ** 2 + abs(c3) ** 2
        down = abs(c2) ** 2 + abs(c4) ** 2
        assert grid.spin_up[i, j] == pytest.approx(up, rel=1e-10, abs=1e-30)
        assert grid.spin_down[i, j] == pytest.approx(down, rel=1e-10, abs=1e-30)


def test_spin_down_residue_without_b():
    """A pure spin-up packet still leaks into the down channel.

    One of the two down amplitudes rides the spin-up coefficient through
    the momentum coupling, so the down density is nonzero but suppressed
    to the small-component scale (mass ratio 3.0e-4 here).
    """
    tab = build_tables(PacketSpec(Z=92, N=20, sigma_g=2.0, a=1.0, b=0.0))
    grid = density_grid(tab, PlaneGridSpec(resolution=24), 0.0)
    up = float(grid.spin_up.sum())
    down = float(grid.spin_down.sum())
    assert up > 0.0
    assert 0.0 < down / up < 1e-3


def test_grid_argument_validation(tables_u92_n20):
    spec = PlaneGridSpec(resolution=16)
    with pytest.raises(ValueError):
        density_grid(tables_u92_n20, spec, math.nan)
    with pytest.raises(ValueError, match="finite"):
        amplitudes(tables_u92_n20, 100.0, 1.0, 0.5, math.nan)


# -------------------------------------------------- packet motion on grid


def test_initial_peak_position(tables_u92_n20):
    """At t = 0 the packet sits on the negative x axis (azimuth pi).

    The Condon-Shortley (-1)^m inside the sectoral harmonic Y_{l,l}
    alternates sign shell by shell, and at phi = pi the e^(i l phi)
    factor alternates the same way, so that is where the shells add
    constructively.  Both spin channels peak at the same cell.
    """
    grid = density_grid(tables_u92_n20, PlaneGridSpec(extent=1.6, resolution=96), 0.0)
    iy, ix = np.unravel_index(int(np.argmax(grid.total)), grid.total.shape)
    az = math.atan2(float(grid.y[iy]), float(grid.x[ix]))
    assert abs(_wrap(az - math.pi)) < 0.2
    radius = math.hypot(float(grid.x[ix]), float(grid.y[iy])) / grid.r_n
    assert radius == pytest.approx(0.8535, abs=0.06)
    up_cell = np.unravel_index(int(np.argmax(grid.spin_up)), grid.spin_up.shape)
    down_cell = np.unravel_index(int(np.argmax(grid.spin_down)), grid.spin_down.shape)
    assert up_cell == down_cell


def test_half_kepler_orbit(tables_u92_n20):
    """After half a classical period the peak has swung to the far side
    (plus a small relativistic precession, under half a radian)."""
    ts = timescales(92, 20)
    spec = PlaneGridSpec(extent=1.6, resolution=96)
    start = density_grid(tables_u92_n20, spec, 0.0)
    half = density_grid(tables_u92_n20, spec, 0.5 * ts.t_cl)
    iy0, ix0 = np.unravel_index(int(np.argmax(start.total)), start.total.shape)
    iy1, ix1 = np.unravel_index(int(np.argmax(half.total)), half.total.shape)
    az0 = math.atan2(float(start.y[iy0]), float(start.x[ix0]))
    az1 = math.atan2(float(half.y[iy1]), float(half.x[ix1]))
    swing = abs(_wrap(az1 - az0))
    assert abs(swing - math.pi) < 0.45


def test_sub_packets_separate_then_rejoin(tables_u92_n20):
    """Spin-split angular motion over the collapse-revival cycle.

    The two spin channels orbit at slightly different angular velocities:
    by half a spin-orbit period their mass-weighted azimuths have opened
    more than 0.5 rad (measured 1.13), and at the best revival they have
    wound back together (measured 0.19).
    """
    ts = timescales(92, 20)
    spec = PlaneGridSpec(extent=1.6, resolution=96)
    split = density_grid(tables_u92_n20, spec, 0.5 * ts.t_ls)
    gap_split = abs(
        _wrap(
            _mass_azimuth(split, split.spin_up)
            - _mass_azimuth(split, split.spin_down)
        )
    )
    assert gap_split > 0.5

    revived = density_grid(tables_u92_n20, spec, 10.063545 * ts.t_ls)
    gap_revived = abs(
        _wrap(
            _mass_azimuth(revived, revived.spin_up)
            - _mass_azimuth(revived, revived.spin_down)
        )
    )
    assert gap_revived < 0.4
    assert gap_revived < gap_split


def test_relocalization_at_best_revival(tables_u92_n20):
    """Grid-level collapse and revival of the full density.

    Cosine similarity against the t = 0 grid: 0.087 in mid-collapse at
    0.5 T_ls, 0.66 at 5 T_ls, 0.956 at the best revival.
    """
    ts = timescales(92, 20)
    spec = PlaneGridSpec(extent=1.6, resolution=96)
    base = density_grid(tables_u92_n20, spec, 0.0).total
    collapsed = density_grid(tables_u92_n20, spec, 0.5 * ts.t_ls).total
    midway = density_grid(tables_u92_n20, spec, 5.0 * ts.t_ls).total
    revived = density_grid(tables_u92_n20, spec, 10.063545 * ts.t_ls).total

    c_collapsed = _cosine(base, collapsed)
    c_midway = _cosine(base, midway)
    c_revived = _cosine(base, revived)
    assert c_collapsed < 0.3
    assert c_revived > 0.9
    assert c_collapsed < c_midway < c_revived


def test_plane_mass_split_tracks_channel_weights(tables_u92_n20):
    """Down/up mass ratio on the plane against the channel prediction.

    For a = b the angular algebra sends weight 2l/(2l+1) of each shell
    to the down channel per unit of up weight, so the expected plane
    ratio is sum(w^2 2l/(2l+1)) ~ 0.974; the equatorial slice weights
    shells slightly differently, so allow 20 percent.
    """
    tab = tables_u92_n20
    grid = density_grid(tab, PlaneGridSpec(extent=1.6, resolution=96), 0.0)
    measured = float(grid.spin_down.sum() / grid.spin_up.sum())
    l = tab.weights.n.astype(float) - 1.0
    predicted = float(np.sum(tab.weights.w**2 * 2.0 * l / (2.0 * l + 1.0)))
    assert 0.8 < measured / predicted < 1.25
