"""Circular wave packets over the two fine-structure partners.

A packet is a Gaussian superposition over shells n in a window, each shell
contributing its circular orbital l = n - 1.  The spin content at t = 0 is
set by the amplitude pair (a, b) with a^2 + b^2 = 1: a multiplies the
stretched state |l, m_s = +1/2> channel and b the |l, m_s = -1/2> channel,
which decomposes into both partners,

    |l>|down> = (1 / sqrt(2l+1)) |j+> + sqrt(2l (2l+1)) / (2l+1) |j->.

Per window orbital l the four spinor components of the packet are (with
x-polarized default a = b = 1/sqrt(2), w_l the shell weight, and
e(+/-) = exp(-i (E(+/-) - 1) t)):

    c1 = i w [ g+ (a Y_{l,l} + b s Y_{l,l-1}) e+  -  b g- s Y_{l,l-1} e- ]
    c2 = i w b Y_{l,l} [ g+ / (2l+1) e+  +  g- 2l/(2l+1) e- ]
    c3 = w [ f+ (a Y_{l+1,l} / sqrt(2l+3)
                 + b sqrt(2/((2l+1)(2l+3))) Y_{l+1,l-1}) e+
             - b f- sqrt(2l/(2l+1)) Y_{l-1,l-1} e- ]
    c4 = -w f+ [ a sqrt((2l+2)/(2l+3)) Y_{l+1,l+1}
                 + b Y_{l+1,l} / sqrt(2l+3) ] e+

with s = sqrt(2l)/(2l+1).  All observables reduce to sums over l of the
five same-l radial integrals plus the one cross-shell small-component
integral F'_l = <f+(l)|f-(l+2)> that couples angular labels (l+1, l) two
shells apart and produces the small corrections delta sigma_x, delta
sigma_y at frequencies omega_tilde_l = E+(l) - E-(l+2).  Four of the five
are the energies: <f|f> = (1 - E)/2 and <g|g> = 1 - <f|f> for each
eigenstate.  In A(t) the +-b^2 s^2 <g+|g-> terms of c1 and c2 cancel and
g + f = 1 leaves the eigenstate populations, w^2 (a^2 + b^2/(2l+1)) at
E+ and w^2 b^2 2l/(2l+1) at E-, so A(t) reads no radial integral.

Phases run in the rest frame: every energy in the tables is a binding
energy E - 1, so A(t) drops the global rest-mass phase exp(-i t).  A phase
E t with E near 1 is of the order of t itself, and at t ~ 1e17 (ten
spin-orbit periods of hydrogen at N = 20) its rounding alone scrambles the
differences between shells; (E - 1) t is smaller by the binding, about
1e-7 there.  The density (density_grid, amplitudes) evolves each ket with
the same binding energies.

Everything time-dependent is evaluated from immutable coefficient tables,
so one autocorrelation, spin or norm sample costs O(window size).  The
three series are sums sum_n c_n e^{i f_n t}, all taken by _phase_sums.
On a uniform TimeGrid of K samples it factors them: with
B = ceil(sqrt(K)), sample k = q B + j gets
sum_n c_n e^{i f_n (t0 + q B dt)} e^{i f_n j dt}, one (Q x S) (S x B)
matrix product built from S (Q + B) exponentials, each from its own
argument, in place of K S of them.  Any other times it sums each on its
own, so a time's value is the same alone or in a batch.

dirac_coulomb owns how a shell maps to its two partner states:
PacketSpec checks its window with _shell_coupling and keeps the xi it
returns, build_tables and the sweep's _sweep_tables store the binding
energies and splittings from one _window_rows call per chunk of specs of
one xi, over the shells of the chunk's windows, and timescales takes its
splittings from _shell_splittings, which checks a sweep's points as
arrays.  Every other table is derived on its first read: the same-state
integrals from the energies, the radial data of the window's partners
(PacketTables.rows, from _shell_radial), the cross-state integrals taken
from those rows (_partner_overlaps), the coefficients formed here, and the
density's ket table (PacketTables.kets).  So A(t) and a sweep that reads
only the small-component norms form no radial data at all, and no
CircularState is made for a packet.  The radial limits are decided here,
in _LimitTables alone.  timescales evaluates its Taylor jets for many
(Z, N) points at once.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .constants import COMPTON_TIME_SECONDS, DEFAULT_CONSTANTS, PhysicalConstants
from .dirac_coulomb import (
    _each,
    _partner_overlaps,
    _Radial,
    _require_int,
    _shell_coupling,
    _shell_radial,
    _shell_splittings,
    _window_rows,
    # Not called here; bench/tracing.py wraps these three on this module.
    make_circular_state,
    overlap_closed_form,
    overlap_set,
)

# The display units of a time, in the order of TimeScales.unit_scale's scales.
_TIME_UNITS = ("natural", "kepler", "tls", "seconds")

# Most shells per window (sigma_g = 100 with the default window); see README.
_MAX_SHELLS = 1001


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class PacketSpec:
    """Defining parameters of one circular packet.

    window defaults to [max(2, N - ceil(5 sigma_g)), N + ceil(5 sigma_g)],
    wide enough that the clipped Gaussian tails carry < 1e-10 of the
    weight.  The lower clamp at 2 keeps every shell's j_minus partner in
    existence (l = n - 1 >= 1).  Both bounds take the library's one integer
    rule, with minimum 2 (an int or np.integer, not a bool or 64.0), and
    must not be out of order.  A window holds at most 1,001 shells, and
    none above n = 100,000.  xi = Z alpha is derived, not passed: the check
    that every partner of the window is bound returns it, and the tables,
    sweeps and density read it here.
    """

    Z: int
    N: int
    sigma_g: float = 2.0
    a: float = math.sqrt(0.5)
    b: float = math.sqrt(0.5)
    window: tuple[int, int] | None = None
    constants: PhysicalConstants = DEFAULT_CONSTANTS
    xi: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        _require_int("N", self.N, 2)
        # 5 sigma_g sets the default window, so it must be finite too.
        if not (math.isfinite(5.0 * self.sigma_g) and self.sigma_g > 0.0):
            raise ValueError(
                f"require sigma_g > 0 with 5 sigma_g finite, got {self.sigma_g!r}"
            )
        norm = self.a * self.a + self.b * self.b
        # Negated so that a NaN amplitude, whose norm compares false, fails.
        if not abs(norm - 1.0) <= 1e-14:
            raise ValueError(
                f"spin amplitudes must satisfy a^2 + b^2 = 1, got {norm!r}"
            )
        if self.window is None:
            half = math.ceil(5.0 * self.sigma_g)
            object.__setattr__(
                self, "window", (max(2, self.N - half), self.N + half)
            )
        n_min, n_max = self.window
        _require_int("window[0]", n_min, 2)
        _require_int("window[1]", n_max, 2)
        if n_min > n_max:
            raise ValueError(f"empty shell window {self.window!r}")
        if n_max - n_min >= _MAX_SHELLS:
            raise ValueError(f"window {self.window!r} holds more than {_MAX_SHELLS} shells")
        if not (n_min <= self.N <= n_max):
            raise ValueError(
                f"window {self.window!r} does not contain the centroid N = {self.N}"
            )
        object.__setattr__(self, "xi", _shell_coupling(self.Z, n_min, n_max, self.constants))


@dataclass(frozen=True, eq=False)
class Weights:
    """Gaussian shell weights over the window, normalized to sum(w^2) = 1."""

    n: np.ndarray
    w: np.ndarray


def build_weights(spec: PacketSpec) -> Weights:
    """Weights w_n with w_n^2 proportional to exp(-(n - N)^2 / (2 sigma_g^2))."""
    n_min, n_max = spec.window
    n = np.arange(n_min, n_max + 1)
    w = np.exp(-((n - spec.N) ** 2) / (4.0 * spec.sigma_g**2))
    w = w / math.sqrt(float(np.dot(w, w)))
    return Weights(n=_freeze(n), w=_freeze(w))


@dataclass(frozen=True, eq=False)
class PacketTables:
    """Immutable coefficient tables for one packet, each built when first read.

    Per-l arrays run over the window orbitals l = weights.n - 1; cross
    arrays (f_prime, k_coef, omega_tilde) run over the orbitals with l + 2
    still inside the window.  Stored, from one _window_rows call: the
    binding energies e_plus = E+ - 1 and e_minus = E- - 1 of the two
    partners (not the energies E themselves: the rest-frame phases of A(t)
    and of the density) and the cancellation-free splitting omega (the
    phases of every other observable).  No radial integral is stored.

    Derived on first read and then kept (functools.cached_property), so a
    packet pays only for the tables it reads; small_norm reads norm3 and
    norm4 alone, and A(t) acf_plus and acf_minus alone:

    - the same-state radial integrals f_plus = <f+|f+> = (1 - E+)/2 =
      -e_plus/2, an exact halving that keeps e_plus's accuracy, and
      g_plus = <g+|g+> = 1 - f_plus, bit for bit 1 + e_plus/2; likewise
      f_minus and g_minus;
    - rows, the radial data of the window's partners (the j+ rows, then the
      j- rows, as e_plus and e_minus), which feeds the density and the two
      cross-state integrals: g_pm = <g+|g->, shell by shell, and
      f_prime = F'_l = <f+(l)|f-(l+2)>;
    - omega_tilde = e_plus(l) - e_minus(l+2) = E+(l) - E-(l+2), and k_coef,
      the cross-shell F'_l correction to <sigma_x>, <sigma_y> with its
      weights folded in;
    - the coefficients of A(t) (acf_*, the eigenstate populations), of the
      component norms (norm*) and of <sigma_x>, <sigma_y> (sx_*); each
      already carries w_l^2 and the radial integrals, so an observable is a
      dot product against phase factors.  The cos(omega t) coefficient of
      <c1|c1> is -norm2_cos, and the sin(omega t) coefficient of <sigma_y>
      is sx_cos, which the property sy_sin returns too, only because
      bench/checks.py reads it.
      <sigma_z> has no table: the properties sz_* derive it from norm*;
    - kets, the stationary-state expansion behind the density (a
      _KetTable).

    A row of every table depends only on xi and its shell, so the tables
    are the same bits however the stored rows were sliced.  The tables of
    build_tables(..., nonrelativistic_radial=True) are _LimitTables, which
    take the limits of the radial integrals.  Tables compare equal only to
    themselves, and hash by identity.
    """

    spec: PacketSpec
    weights: Weights
    e_plus: np.ndarray
    e_minus: np.ndarray
    omega: np.ndarray

    @functools.cached_property
    def f_plus(self) -> np.ndarray:
        """<f+|f+> = (1 - E+)/2 = -e_plus/2."""
        return _freeze(-0.5 * self.e_plus)

    @functools.cached_property
    def f_minus(self) -> np.ndarray:
        """<f-|f-> = (1 - E-)/2 = -e_minus/2."""
        return _freeze(-0.5 * self.e_minus)

    @functools.cached_property
    def g_plus(self) -> np.ndarray:
        """<g+|g+> = 1 - <f+|f+>."""
        return _freeze(1.0 - self.f_plus)

    @functools.cached_property
    def g_minus(self) -> np.ndarray:
        """<g-|g-> = 1 - <f-|f->."""
        return _freeze(1.0 - self.f_minus)

    @functools.cached_property
    def rows(self) -> _Radial:
        """Radial data of the window's partners: the j+ rows, then the j- rows."""
        return _shell_radial(self.spec.xi, self.weights.n)

    @functools.cached_property
    def kets(self) -> _KetTable:
        """The stationary-state expansion behind the density; see _KetTable."""
        return _ket_table(self.spec, self.weights)

    @functools.cached_property
    def g_pm(self) -> np.ndarray:
        """<g+|g->, the large-component overlap of each shell's two partners."""
        return _freeze(_partner_overlaps(self.rows, "gg", 0))

    @functools.cached_property
    def f_prime(self) -> np.ndarray:
        """F'_l = <f+(l)|f-(l+2)>, over all but the window's last two shells."""
        return _freeze(_partner_overlaps(self.rows, "ff", 2))

    @functools.cached_property
    def _per_l(self) -> tuple[np.ndarray, ...]:
        """l, 2l + 1, 2l + 3, s^2 = 2l / (2l + 1)^2 and w_l^2 over the window orbitals."""
        lf = (self.weights.n - 1).astype(float)
        l1 = 2.0 * lf + 1.0
        return lf, l1, 2.0 * lf + 3.0, 2.0 * lf / (l1 * l1), self.weights.w * self.weights.w

    @functools.cached_property
    def omega_tilde(self) -> np.ndarray:
        """E+(l) - E-(l+2), from the binding energies."""
        return _freeze(self.e_plus[:-2] - self.e_minus[2:])

    @functools.cached_property
    def k_coef(self) -> np.ndarray:
        """The F'_l coefficients of <sigma_x> and <sigma_y> at omega_tilde."""
        a, b, w = self.spec.a, self.spec.b, self.weights.w
        lc = self._per_l[0][:-2]
        return _freeze(
            2.0 * a * b * w[:-2] * w[2:] * self.f_prime
            * np.sqrt((2.0 * lc + 2.0) * (2.0 * lc + 4.0) / ((2.0 * lc + 3.0) * (2.0 * lc + 5.0)))
        )

    # A(t) by phase: the populations of the j+ and the j- eigenstates.
    @functools.cached_property
    def acf_plus(self) -> np.ndarray:
        """The coefficients of A(t) at the phases -e_plus t: w^2 (a^2 + b^2/(2l+1))."""
        _, l1, _, _, w2 = self._per_l
        a2, b2 = self.spec.a * self.spec.a, self.spec.b * self.spec.b
        return _freeze(w2 * (a2 + b2 / l1))

    @functools.cached_property
    def acf_minus(self) -> np.ndarray:
        """The coefficients of A(t) at the phases -e_minus t: w^2 b^2 2l/(2l+1)."""
        lf, l1, _, _, w2 = self._per_l
        return _freeze(w2 * (self.spec.b * self.spec.b * (2.0 * lf / l1)))

    # Equal-time component norms: <ci|ci>(t) = sum(const + cos_coef cos(omega t)).
    @functools.cached_property
    def norm1_const(self) -> np.ndarray:
        """The constant terms of <c1|c1>."""
        _, _, _, s2, w2 = self._per_l
        a2, b2 = self.spec.a * self.spec.a, self.spec.b * self.spec.b
        return _freeze(w2 * ((a2 + b2 * s2) * self.g_plus + b2 * s2 * self.g_minus))

    @functools.cached_property
    def norm2_const(self) -> np.ndarray:
        """The constant terms of <c2|c2>."""
        lf, l1, _, _, w2 = self._per_l
        b2 = self.spec.b * self.spec.b
        return _freeze(w2 * b2 * (self.g_plus + (2.0 * lf) ** 2 * self.g_minus) / (l1 * l1))

    @functools.cached_property
    def norm2_cos(self) -> np.ndarray:
        """The cos(omega t) coefficients of <c2|c2>, and minus those of <c1|c1>."""
        _, _, _, s2, w2 = self._per_l
        return _freeze(2.0 * w2 * (self.spec.b * self.spec.b) * s2 * self.g_pm)

    @functools.cached_property
    def norm3(self) -> np.ndarray:
        """The terms of the stationary <c3|c3>."""
        lf, l1, l3, _, w2 = self._per_l
        a2, b2 = self.spec.a * self.spec.a, self.spec.b * self.spec.b
        return _freeze(
            w2 * ((a2 / l3 + 2.0 * b2 / (l1 * l3)) * self.f_plus + b2 * (2.0 * lf / l1) * self.f_minus)
        )

    @functools.cached_property
    def norm4(self) -> np.ndarray:
        """The terms of the stationary <c4|c4>."""
        lf, _, l3, _, w2 = self._per_l
        a2, b2 = self.spec.a * self.spec.a, self.spec.b * self.spec.b
        return _freeze(w2 * ((a2 * (2.0 * lf + 2.0) + b2) / l3 * self.f_plus))

    # Spin expectation coefficients (delta corrections live in k_coef).
    @functools.cached_property
    def sx_const(self) -> np.ndarray:
        """The constant terms of <sigma_x>."""
        _, l1, l3, _, w2 = self._per_l
        ab2 = 2.0 * self.spec.a * self.spec.b
        return _freeze(w2 * ab2 * (self.g_plus / l1 - self.f_plus / l3))

    @functools.cached_property
    def sx_cos(self) -> np.ndarray:
        """The cos(omega t) coefficients of <sigma_x>."""
        lf, l1, _, _, w2 = self._per_l
        ab2 = 2.0 * self.spec.a * self.spec.b
        return _freeze(w2 * ab2 * (2.0 * lf / l1) * self.g_pm)

    @property
    def sy_sin(self) -> np.ndarray:
        """The sin(omega t) coefficients of <sigma_y>: sx_cos itself."""
        return self.sx_cos

    @property
    def sz_const(self) -> np.ndarray:
        """The constant terms of <sigma_z>: norm1 - norm2 + norm3 - norm4."""
        return _freeze(self.norm1_const - self.norm2_const + self.norm3 - self.norm4)

    @property
    def sz_cos(self) -> np.ndarray:
        """The cos(omega t) coefficients of <sigma_z>: -2 norm2_cos."""
        return _freeze(-2.0 * self.norm2_cos)


class _LimitTables(PacketTables):
    """PacketTables whose radial integrals take their nonrelativistic limits.

    <f|f> = 0, and so <g|g> = 1, for each state; <g+|g-> = 1 and F' = 0.
    """

    @functools.cached_property
    def f_plus(self) -> np.ndarray:
        return _freeze(np.zeros(self.weights.n.size))

    @functools.cached_property
    def f_minus(self) -> np.ndarray:
        return self.f_plus

    @functools.cached_property
    def g_pm(self) -> np.ndarray:
        return _freeze(np.ones(self.weights.n.size))

    @functools.cached_property
    def f_prime(self) -> np.ndarray:
        return _freeze(np.zeros(max(0, self.weights.n.size - 2)))


# Per shell, the ten kets' components, l_ang - l, m_ang - l, radial parts
# (0 = g, 1 = f) and partners (0 = j+, 1 = j-).
_SHELL_KETS = np.array([
    [1, 1, 1, 2, 2, 3, 3, 3, 4, 4],
    [0, 0, 0, 0, 0, 1, 1, -1, 1, 1],
    [0, -1, -1, 0, 0, 0, -1, -1, 1, 0],
    [0, 0, 0, 0, 0, 1, 1, 1, 1, 1],
    [0, 0, 1, 0, 1, 0, 0, 1, 0, 0],
])


@dataclass(frozen=True, eq=False)
class _KetTable:
    """The packet as a sum of stationary kets, one array entry per ket.

    Ket k is coef[k] Y_{l_ang[k], m_ang[k]} times radial part part[k]
    (0 for g, 1 for f: the order of eval_radial's pair) of PacketTables.rows
    row row[k], in spinor component component[k] (1 to 4).  coef carries
    the shell weight, the spin amplitude and the component phase factors.
    Ten kets per shell, shell by shell in the order of weights.n; len() is
    the ket count.
    """

    component: np.ndarray
    l_ang: np.ndarray
    m_ang: np.ndarray
    coef: np.ndarray
    part: np.ndarray
    row: np.ndarray

    def __len__(self) -> int:
        return self.row.size


def _ket_table(spec: PacketSpec, weights: Weights) -> _KetTable:
    count = weights.n.size
    l = (weights.n - 1)[:, np.newaxis]
    two_l = 2.0 * l
    s = np.sqrt(two_l) / (two_l + 1.0)
    wa, wb = weights.w[:, np.newaxis] * spec.a, weights.w[:, np.newaxis] * spec.b
    # The five large-component coefficients are i times a magnitude, with a
    # real part of +0.0; the five small-component coefficients are real.
    coef = np.zeros((count, 10), dtype=complex)
    coef.imag[:, :5] = np.hstack(
        [wa, wb * s, -(wb * s), wb / (two_l + 1.0), wb * two_l / (two_l + 1.0)]
    )
    coef.real[:, 5:] = np.hstack([
        wa / np.sqrt(two_l + 3.0),
        wb * np.sqrt(2.0 / ((two_l + 1.0) * (two_l + 3.0))),
        -wb * np.sqrt(two_l / (two_l + 1.0)),
        -wa * np.sqrt((two_l + 2.0) / (two_l + 3.0)),
        -wb / np.sqrt(two_l + 3.0),
    ])
    component, l_offset, m_offset, part, partner = _SHELL_KETS
    return _KetTable(
        component=_freeze(np.tile(component, count)),
        l_ang=_freeze((l + l_offset).ravel()),
        m_ang=_freeze((l + m_offset).ravel()),
        coef=_freeze(coef.ravel()),
        part=_freeze(np.tile(part, count)),
        row=_freeze((np.arange(count)[:, np.newaxis] + count * partner).ravel()),
    )


def build_tables(
    spec: PacketSpec,
    nonrelativistic_radial: bool = False,
) -> PacketTables:
    """The coefficient tables of spec: every per-l coefficient a packet observable needs.

    With nonrelativistic_radial=True the radial integrals are replaced by
    their limit values (all large-component overlaps 1, all
    small-component integrals 0) while energies keep their exact values;
    comparing observables against this variant isolates the genuinely
    relativistic radial corrections of the spin and the norms.  A(t) reads
    only the populations, so it is the same either way.  This is the
    one-spec sweep of _sweep_tables: one _window_rows call over the window;
    every other table is formed when first read.
    """
    return next(_sweep_tables([spec], nonrelativistic_radial))


def _sweep_tables(specs, nonrelativistic_radial: bool = False):
    """Yield build_tables(spec) for each of specs, in order.

    Consecutive specs of one coupling (equal spec.xi) are taken
    _MAX_SHELLS at a time, a chunk.  A row of _window_rows depends only on
    xi and its shell, so one call over the shells that the chunk's windows
    cover serves them all, and each spec stores the slice of those rows at
    its window, bit for bit the rows of its own window.  A sparse sweep
    evaluates its windows' shells only, not the span between them.  Only
    one chunk's rows are alive at a time; seeing where a coupling ends
    draws the first spec of the next one.  Under nonrelativistic_radial
    the tables are _LimitTables.
    """
    kind = _LimitTables if nonrelativistic_radial else PacketTables
    for xi, charge in itertools.groupby(specs, key=lambda spec: spec.xi):
        while group := list(itertools.islice(charge, _MAX_SHELLS)):
            windows = {spec.window for spec in group}
            lo = min(windows)[0]
            covered = np.zeros(max(last for _, last in windows) - lo + 1, dtype=bool)
            for first, last in windows:
                covered[first - lo : last - lo + 1] = True
            # The offset of each covered shell among the covered ones.
            offset = covered.cumsum() - 1
            rows = _window_rows(xi, lo + covered.nonzero()[0])
            for spec in group:
                first = int(offset[spec.window[0] - lo])
                stop = first + spec.window[1] - spec.window[0] + 1
                yield kind(spec, build_weights(spec), *(_freeze(row[first:stop]) for row in rows))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sample times np.linspace(start, stop, samples) * scale.

    start and stop are in a unit whose natural-unit duration is scale
    (TimeScales.unit_scale gives it for the named units), and values are
    the samples in natural units, as the command line prints them.
    autocorrelation, spin_expect and component_norms sum a grid in
    factored form, and the times of an array one by one.  density_grid and
    amplitudes take a single time and reject a grid.
    """

    start: float
    stop: float
    samples: int
    scale: float = 1.0

    def __post_init__(self) -> None:
        _require_int("samples", self.samples, 2)
        # A grid past the double range is an input error, not a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.all(np.isfinite(self.values))
        if not finite:
            raise ValueError("times must be finite")

    @property
    def values(self) -> np.ndarray:
        """The sample times in natural units."""
        return np.linspace(self.start, self.stop, self.samples) * self.scale


def _as_time_array(t):
    arr = t.values if isinstance(t, TimeGrid) else np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("times must be finite")
    return arr


def _numbers(*series: np.ndarray) -> tuple:
    """The series as they are; Python numbers for a single time."""
    return tuple(values.item() if np.ndim(values) == 0 else values for values in series)


def _phase_sums(freqs, coefs, t, real: bool = False) -> list[np.ndarray]:
    """sum_n c[n] exp(i freqs[n] t) for each row c of coefs, in the shape of t.

    The rows share freqs, and so their exponentials.  On a TimeGrid,
    sample k = q B + j, B = ceil(sqrt(count)), of a row is entry (q, j) of
    one (Q x S) (S x B) product: the giant steps t0 + q B dt carry the
    coefficients, the baby steps j dt the rest.  Each of the S (Q + B)
    exponentials is taken of its own argument, never as a power or a
    recurrence, so the phase error is the rounding of E t whatever count
    is.  Any other times are summed each on its own: the cos and sin of
    each phase, each time's row reduced by np.vecdot, so a value does not
    depend on the other times of the call.  With real, only the real
    parts are returned, and the array path takes no sine.
    """
    if isinstance(t, TimeGrid):
        count = t.samples
        t0 = float(t.start) * t.scale
        dt = (float(t.stop) - float(t.start)) / (count - 1) * t.scale
        width = math.isqrt(count - 1) + 1
        giant = t0 + dt * (width * np.arange(-(-count // width), dtype=float))
        baby = dt * np.arange(width, dtype=float)
        left = np.exp(1j * np.multiply.outer(giant, freqs))
        right = np.exp(1j * np.multiply.outer(freqs, baby))
        sums = [((left * c) @ right).ravel()[:count] for c in coefs]
        return [values.real for values in sums] if real else sums
    arr = _as_time_array(t)
    phase = np.multiply.outer(arr.ravel(), freqs)
    cos = np.cos(phase)
    if real:
        return [np.vecdot(cos, c).reshape(arr.shape) for c in coefs]
    sin = np.sin(phase)
    return [(np.vecdot(cos, c) + 1j * np.vecdot(sin, c)).reshape(arr.shape) for c in coefs]


def autocorrelation(tables: PacketTables, t):
    """Autocorrelation A(t) = <Psi(0)|Psi(t)>; complex, A(0) = 1, |A| <= 1.

    Rest frame: the phases are the binding energies E - 1, so A(t) lacks
    the global rest-mass factor exp(-i t), which |A| does not see.
    Accepts a scalar time, an ndarray of times (natural units) or a
    TimeGrid, and vectorizes over the window in one pass.
    """
    (amp,) = _phase_sums(
        -np.concatenate([tables.e_plus, tables.e_minus]),
        [np.concatenate([tables.acf_plus, tables.acf_minus])],
        t,
    )
    return _numbers(amp)[0]


def component_norms(tables: PacketTables, t):
    """Equal-time norms (<c1|c1>, <c2|c2>, <c3|c3>, <c4|c4>) at time t.

    The small components are stationary; the two large components trade
    population at the per-shell splitting frequencies.  The four always
    sum to 1 (unitarity).
    """
    (swing,) = _phase_sums(tables.omega, [tables.norm2_cos], t, real=True)
    small = small_norm(tables)
    return _numbers(
        float(np.sum(tables.norm1_const)) - swing,
        float(np.sum(tables.norm2_const)) + swing,
        np.full(swing.shape, small.c3_norm),
        np.full(swing.shape, small.c4_norm),
    )


def spin_expect(tables: PacketTables, t, include_delta: bool = True):
    """Expectation values (<sigma_x>, <sigma_y>, <sigma_z>) at time t.

    include_delta toggles the cross-shell small-component corrections
    (the F' terms); they are bounded at the percent level and oscillate
    near the optical frequencies E+(l) - E-(l+2).  The series take two
    sets of exponentials: e^{i omega t}, which sx_cos turns into <sigma_x>
    and <sigma_y> and sz_cos, from the norm tables, into <sigma_z>, and
    e^{i omega_tilde t}, which k_coef turns into the corrections.  A
    TimeGrid is summed in factored form, an array of times time by time.
    """
    xy, z = _phase_sums(tables.omega, [tables.sx_cos, tables.sz_cos], t)
    if include_delta and tables.k_coef.size:
        xy += _phase_sums(tables.omega_tilde, [tables.k_coef], t)[0]
    return _numbers(
        float(np.sum(tables.sx_const)) + xy.real,
        xy.imag.copy(),
        float(np.sum(tables.sz_const)) + z.real,
    )


@dataclass(frozen=True)
class SmallNorm:
    """Time-independent population of the two small spinor components."""

    c3_norm: float
    c4_norm: float
    total: float


def small_norm(tables: PacketTables) -> SmallNorm:
    """Stationary small-component norms; total < (1 - E)/2-ish, << 1.

    They read the energies alone, through f_plus and f_minus: no radial
    data is formed.
    """
    c3 = float(np.sum(tables.norm3))
    c4 = float(np.sum(tables.norm4))
    return SmallNorm(c3_norm=c3, c4_norm=c4, total=c3 + c4)


class _Jet:
    """Truncated Taylor series in (n - n0), one row per expansion point.

    Supports the operations the energy branches need (+, -, *, /, sqrt);
    coefficient c[:, k] equals d^k E / dn^k / k!.  Composition of exact
    series arithmetic carries no truncation error, unlike finite
    differences.  Each coefficient of a product or quotient is one
    np.vecdot per row; its second operand is copied to contiguous rows,
    since over a reversed view vecdot rounds differently from np.dot.
    """

    __slots__ = ("c",)
    # An ndarray on the left defers to the reflected _Jet method.
    __array_ufunc__ = None

    def __init__(self, coeffs: np.ndarray):
        self.c = coeffs

    @classmethod
    def variable(cls, value: np.ndarray, order: int) -> "_Jet":
        c = np.zeros((len(value), order + 1))
        c[:, 0] = value
        if order >= 1:
            c[:, 1] = 1.0
        return cls(c)

    def __add__(self, other):
        if isinstance(other, _Jet):
            return _Jet(self.c + other.c)
        c = self.c.copy()
        c[:, 0] += other
        return _Jet(c)

    def __sub__(self, other):
        c = self.c.copy()
        c[:, 0] -= other
        return _Jet(c)

    def __rsub__(self, other):
        c = -self.c
        c[:, 0] += other
        return _Jet(c)

    def __mul__(self, other):
        if not isinstance(other, _Jet):
            return _Jet(self.c * other)
        out = np.zeros_like(self.c)
        for k in range(out.shape[1]):
            out[:, k] = np.vecdot(self.c[:, : k + 1], _reversed(other.c[:, : k + 1]))
        return _Jet(out)

    def __truediv__(self, other: "_Jet") -> "_Jet":
        out = np.zeros_like(self.c)
        out[:, 0] = self.c[:, 0] / other.c[:, 0]
        for k in range(1, out.shape[1]):
            acc = np.vecdot(other.c[:, 1 : k + 1], _reversed(out[:, :k]))
            out[:, k] = (self.c[:, k] - acc) / other.c[:, 0]
        return _Jet(out)

    def __rtruediv__(self, other):
        c = np.zeros_like(self.c)
        c[:, 0] = other
        return _Jet(c) / self

    def sqrt(self) -> "_Jet":
        out = np.zeros_like(self.c)
        out[:, 0] = np.sqrt(self.c[:, 0])
        for k in range(1, out.shape[1]):
            acc = np.vecdot(out[:, 1:k], _reversed(out[:, 1:k])) if k >= 2 else 0.0
            out[:, k] = (self.c[:, k] - acc) / (2.0 * out[:, 0])
        return _Jet(out)


def _reversed(c: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(c[:, ::-1])


def _energy_jet_plus(xi: np.ndarray, n0: np.ndarray, order: int) -> _Jet:
    n = _Jet.variable(n0, order)
    return (1.0 - (xi * xi) / (n * n)).sqrt()


def _energy_jet_minus(xi: np.ndarray, n0: np.ndarray, order: int) -> _Jet:
    # gamma = sqrt((u - xi)(u + xi)), u = n - 1, as _levels forms it: u^2 - xi^2
    # cancels near u = xi.  E- = 1 / sqrt(1 + xi^2 / d^2): the quotient rule on
    # d / sqrt(d^2 + xi^2) cancels down to 1 - E^2 ~ xi^2 / n^2.
    n = _Jet.variable(n0, order)
    u = n - 1.0
    d = ((u - xi) * (u + xi)).sqrt() + 1.0
    return 1.0 / ((xi * xi) / (d * d) + 1.0).sqrt()


@dataclass(frozen=True)
class TimeScales:
    """Hierarchy of packet time scales at (Z, N), natural units.

    t[k] = 2 pi k! / |d^k E / dn^k| evaluated at n = N on the chosen
    energy branch; t_ls = 2 pi / (fine splitting at N); t_cl is the
    classical Kepler period 2 pi N^3 / xi^2 used as the "kepler" display
    unit.
    """

    Z: int
    N: int
    t: dict[int, float]
    t_ls: float
    t_cl: float

    def unit_scale(self, unit: str) -> float:
        """Natural-unit duration of one step of the named display unit."""
        if unit not in _TIME_UNITS:
            raise ValueError(f"unknown time unit {unit!r}; expected one of {_TIME_UNITS}")
        scales = (1.0, self.t_cl, self.t_ls, 1.0 / COMPTON_TIME_SECONDS)
        return scales[_TIME_UNITS.index(unit)]


def timescales(
    Z: int,
    N: int,
    k_max: int = 4,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
    branch: str = "j_plus",
) -> TimeScales:
    """Time-scale hierarchy t[1..k_max] plus t_ls and t_cl at shell N.

    Derivatives of the branch energy with respect to the (continuous)
    shell number come from exact Taylor-jet arithmetic.  branch selects
    the stretched-partner energy curve "j_plus" (default) or the
    "averaged" curve (E+ + E-)/2.
    """
    t, t_ls, t_cl = _timescale_rows([Z], [N], k_max, constants, branch)
    return TimeScales(
        Z=int(Z),
        N=int(N),
        t=dict(enumerate(t[0].tolist(), start=1)),
        t_ls=float(t_ls[0]),
        t_cl=float(t_cl[0]),
    )


def _timescale_rows(
    Z: list[int],
    N: list[int],
    k_max: int,
    constants: PhysicalConstants,
    branch: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """timescales at the points (Z[i], N[i]): t[i, k - 1], t_ls[i] and t_cl[i].

    The points are checked in order, so an error names the first bad one.
    """
    _require_int("k_max", k_max, 1, 6)
    xi, splitting = _shell_splittings(Z, N, constants)
    n = np.asarray(N, dtype=float)
    t_ls = 2.0 * math.pi / splitting
    if branch == "j_plus":
        jet = _energy_jet_plus(xi, n, int(k_max))
    elif branch == "averaged":
        jet = (_energy_jet_plus(xi, n, int(k_max)) + _energy_jet_minus(xi, n, int(k_max))) * 0.5
    else:
        raise ValueError(f"branch must be 'j_plus' or 'averaged', got {branch!r}")

    coef = jet.c[:, 1:]
    degenerate = np.argwhere(coef == 0.0)
    if degenerate.size:
        point, k = degenerate[0]
        raise ValueError(f"degenerate derivative order k = {k + 1} at N = {N[point]}")
    t = 2.0 * math.pi / np.abs(coef)
    return t, t_ls, 2.0 * math.pi * _each(math.pow, n, 3.0) / (xi * xi)
