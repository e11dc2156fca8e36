"""Circular wave packets built from exact Dirac-Coulomb bound states.

The package covers the full pipeline: special functions and bound-state
radial functions, closed-form radial overlap integrals, packet coefficient
tables, analytic time evolution (autocorrelation, spin expectations,
component norms), the characteristic-time hierarchy, small-component
norms, and spin-resolved densities on the equatorial plane, plus a CSV
command-line front end (``diracpacket``).

Natural units throughout: m_e = hbar = c = 1; lengths in Compton
wavelengths, times in units of 1.2880887e-21 s.
"""

from .constants import (
    ALPHA_DEFAULT,
    COMPTON_TIME_SECONDS,
    DEFAULT_CONSTANTS,
    PhysicalConstants,
)
from .density import DensityGrid, PlaneGridSpec, amplitudes, density_grid
from .dirac_coulomb import (
    Branch,
    CircularState,
    OverlapSet,
    SupercriticalChargeError,
    binding_energy,
    eval_radial,
    fine_splitting,
    make_circular_state,
    overlap_closed_form,
    overlap_set,
    state_from_kappa,
)
from .packet import (
    PacketSpec,
    PacketTables,
    SmallNorm,
    TimeGrid,
    TimeScales,
    autocorrelation,
    build_tables,
    component_norms,
    small_norm,
    spin_expect,
    timescales,
)
from .specfun import legendre_norm, sph_harm

__version__ = "0.3.0"

__all__ = [
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
