"""Spatial density of the packet: component fields and equatorial-plane grids.

The packet's four complex component fields are linear combinations of
stationary kets, each a radial profile times a spherical harmonic times a
phase e^(-i (E - 1) t).  The kets are the entries of PacketTables.kets;
each reads its radial profile from a row of PacketTables.rows and its
binding energy E - 1 from e_plus or e_minus, the rest frame of A(t), whose
phases stay accurate at long times where E t would not.  `amplitudes`
evaluates all four fields at arbitrary space-time points and is the
reference path (tests integrate it over 3D).
`density_grid` is the fast path for the equatorial plane theta = pi/2: the
angular factor of every ket collapses to one Legendre number there, so a
node costs one complex multiply-add per ket after the radial profiles and
the e^(i m phi) factors are shared across the grid.

Grids are spin-resolved by the upper index of each Pauli spinor block:
spin_up = |c1|^2 + |c3|^2 and spin_down = |c2|^2 + |c4|^2.

The grid is evaluated serially in row blocks of a fixed height, which
only bounds the size of the temporaries; every node sees the same
elementwise operation chain, so repeated calls give bit-identical arrays.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .dirac_coulomb import _require_int, _take, eval_radial
from .packet import PacketTables, _as_time_array, _freeze
from .specfun import legendre_norm, sph_harm

# Rows per block; bounds the memory of the per-block temporaries.
_ROW_BLOCK = 16

# Most nodes per grid axis (16 times the nodes of a 512^2 grid); see README.
_MAX_RESOLUTION = 2048


def _terms(tables: PacketTables, t: float) -> list[tuple]:
    """(component, l_ang, m_ang, radial part, row, coef e^(-i (E - 1) t)) per ket."""
    kets = tables.kets
    binding = np.concatenate([tables.e_plus, tables.e_minus])
    phased = kets.coef * np.exp(-1j * (binding[kets.row] * t))
    labels = (kets.component, kets.l_ang, kets.m_ang, kets.part, kets.row, phased)
    return list(zip(*(column.tolist() for column in labels)))


def _single_time(t) -> float:
    """t as a float, after checking that it is one finite time."""
    arr = _as_time_array(t)
    if arr.ndim:
        raise ValueError(f"t must be a single time, got {arr.size} times")
    return float(arr)


def amplitudes(tables: PacketTables, r, theta, phi, t):
    """The four component fields (c1, c2, c3, c4) at radius r, angles
    (theta, phi), time t.

    r, theta and phi broadcast against each other; t is a single time.
    Radii are in Compton lengths and must be positive.  Returns four
    complex scalars for all-scalar input, four complex arrays otherwise.

    Every ket of the expansion is summed; the small components are kept,
    so sum(|c_i|^2) integrates to one over all space.  The harmonics are
    evaluated once per point of the broadcast (theta, phi) shape, so many
    radii at a few angles cost little; meant for modest angle counts, use
    :func:`density_grid` for full planes.
    """
    r_in, theta_in, phi_in = r, theta, phi
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    shape = np.broadcast_shapes(r.shape, theta.shape, phi.shape)
    angles = np.broadcast_shapes(theta.shape, phi.shape)
    t = _single_time(t)

    flat_t = np.broadcast_to(theta, angles).ravel()
    flat_p = np.broadcast_to(phi, angles).ravel()

    # Radial profiles over the radii and harmonics over the angles, each
    # shared by many kets; their products broadcast to the full shape.
    terms = _terms(tables, t)
    radial = [eval_radial(_take(tables.rows, i), r) for i in range(tables.rows.lam.size)]
    harmonics = {
        (l, m): np.fromiter(
            (sph_harm(l, m, tt, pp) for tt, pp in zip(flat_t, flat_p)),
            dtype=complex,
            count=flat_t.size,
        ).reshape(angles)
        for l, m in {term[1:3] for term in terms}
    }

    out = [np.zeros(shape, dtype=complex) for _ in range(4)]
    for comp, l, m, part, row, prefactor in terms:
        out[comp - 1] += prefactor * radial[row][part] * harmonics[(l, m)]

    if np.ndim(r_in) == 0 and np.ndim(theta_in) == 0 and np.ndim(phi_in) == 0:
        return tuple(complex(c[()]) for c in out)
    return tuple(out)


@dataclass(frozen=True)
class PlaneGridSpec:
    """Square window on the equatorial plane theta = pi/2.

    extent is the half-width in units of the circular-orbit radius
    r_N = N^2/(Z alpha); resolution is the number of nodes per axis, an
    integer from 16 to 2,048 (not 64.0).  density_grid checks that the
    span 2 extent r_N, which depends on the packet, is a finite double.
    """

    extent: float = 1.6
    resolution: int = 256

    def __post_init__(self) -> None:
        extent = float(self.extent)
        if not math.isfinite(extent) or extent <= 0.0:
            raise ValueError(f"extent must be finite and > 0, got {self.extent!r}")
        object.__setattr__(self, "extent", extent)
        _require_int("resolution", self.resolution, 16, _MAX_RESOLUTION)


@dataclass(frozen=True)
class DensityGrid:
    """Spin-resolved probability density on the equatorial plane.

    x and y hold node coordinates in Compton lengths (the window is
    square, so they are one read-only array); spin_up[i, j] and
    spin_down[i, j] are the densities at (x[j], y[i]).  t is the sample
    time in natural units and r_n the circular-orbit radius used to scale
    the window.
    """

    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    spin_up: np.ndarray = field(repr=False)
    spin_down: np.ndarray = field(repr=False)
    t: float
    r_n: float
    grid: PlaneGridSpec

    @property
    def total(self) -> np.ndarray:
        """Pointwise total density, spin_up + spin_down."""
        return self.spin_up + self.spin_down


def density_grid(tables: PacketTables, grid: PlaneGridSpec, t: float) -> DensityGrid:
    """Evaluate the spin-resolved density on an equatorial-plane grid.

    The returned grid satisfies spin_up >= 0, spin_down >= 0 elementwise.
    An extent whose window overflows a double, whose origin floor is not a
    normal double, or whose density overflows one at the node nearest the
    origin raises ValueError naming extent.
    """
    t = _single_time(t)

    spec = tables.spec
    r_n = spec.N * spec.N / spec.xi
    half = grid.extent * r_n
    if not math.isfinite(2.0 * half):
        raise ValueError(f"extent = {grid.extent!r} times r_N = {r_n!r} overflows a double")
    # Nodes at (or numerically indistinguishable from) the origin sit on
    # the coordinate singularity of the radial profiles; nudge them one
    # part in 10^12 of the window off center.  The density there is many
    # orders of magnitude below the packet's for every circular window.
    # A normal floor keeps 2 lambda r_floor > 0 for every bound row.
    r_floor = half * 1e-12
    if r_floor < sys.float_info.min:
        raise ValueError(
            f"extent = {grid.extent!r} times r_N = {r_n!r} is too small: "
            f"1e-12 of it, the origin floor, is below the smallest normal double"
        )
    res = grid.resolution
    axis = _freeze(np.linspace(-half, half, res))

    # One Legendre number per ket covers the whole plane; every ket has
    # m = l - 1, l or l + 1 with l >= 1, so m >= 0.
    terms = [
        (comp, m, part, row, pref * legendre_norm(l, m, 0.5 * math.pi))
        for comp, l, m, part, row, pref in _terms(tables, t)
    ]
    m_min = min(term[1] for term in terms)
    m_max = max(term[1] for term in terms)
    rows = [_take(tables.rows, i) for i in range(tables.rows.lam.size)]

    # Only a kappa = 1 partner (n = 2, j-) grows toward the origin, as
    # r^(gamma - 1), and near Z = 137 its gamma is about 0.02: a window a
    # few hundred orders of magnitude below r_N puts |g|^2 past the double
    # range.  Bound each component's modulus by the sum of its kets' moduli
    # at the node nearest the origin, before any node is evaluated.
    closest = np.min(np.abs(axis))
    r_closest = max(float(np.hypot(closest, closest)), r_floor)
    at_closest = [eval_radial(row, r_closest) for row in rows]
    peak = [0.0] * 4
    for comp, m, part, row, pref in terms:
        peak[comp - 1] += abs(pref) * abs(at_closest[row][part])
    if not all(math.isfinite(peak[i] * peak[i] + peak[j] * peak[j]) for i, j in ((0, 2), (1, 3))):
        raise ValueError(
            f"extent = {grid.extent!r} times r_N = {r_n!r} is too small: "
            f"the density at the node nearest the origin overflows a double"
        )

    spin_up = np.empty((res, res), dtype=float)
    spin_down = np.empty((res, res), dtype=float)

    for i0 in range(0, res, _ROW_BLOCK):
        i1 = min(i0 + _ROW_BLOCK, res)
        y_col = axis[i0:i1, np.newaxis]
        x_row = axis[np.newaxis, :]
        r = np.hypot(x_row, y_col)
        np.maximum(r, r_floor, out=r)
        phi = np.arctan2(y_col, x_row)

        radial = [eval_radial(row, r) for row in rows]

        # e^(i m phi) for every m from the smallest up, each one step from
        # the last, so every grid node sees one fixed operation chain.
        unit = np.exp(1j * phi)
        e_of_m = {m_min: np.exp(1j * float(m_min) * phi)}
        for m in range(m_min + 1, m_max + 1):
            e_of_m[m] = e_of_m[m - 1] * unit

        comps = [np.zeros(r.shape, dtype=complex) for _ in range(4)]
        for comp, m, part, row, pref in terms:
            comps[comp - 1] += pref * radial[row][part] * e_of_m[m]

        abs2 = [c.real * c.real + c.imag * c.imag for c in comps]
        spin_up[i0:i1] = abs2[0] + abs2[2]
        spin_down[i0:i1] = abs2[1] + abs2[3]

    return DensityGrid(
        x=axis,
        y=axis,
        spin_up=_freeze(spin_up),
        spin_down=_freeze(spin_down),
        t=t,
        r_n=r_n,
        grid=grid,
    )
