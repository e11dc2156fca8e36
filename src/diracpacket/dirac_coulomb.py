"""Exact Dirac-Coulomb bound states on and next to circular orbits.

Scope
-----
Hydrogen-like ions with a point Coulomb charge Z, natural units
m_e = hbar = c = 1 (see :mod:`diracpacket.constants`).  A circular orbital
level l = n - 1 splits into the two fine-structure partners

    j_plus  : j = l + 1/2,  kappa = -(l + 1) = -n,  n' = 0,
    j_minus : j = l - 1/2,  kappa = +l,             n' = 1   (l >= 1),

where n' is the radial quantum number and kappa the usual Dirac angular
eigenvalue.  A state is labelled once, by (Z, kappa, n'); its n, l and
partner follow from kappa and n'.  Both carry analytic radial functions
with polynomial part of degree n' <= 1, which is what makes every overlap
integral in this package a two- or three-term Gamma-function moment.

Radial conventions
------------------
g is the large and f the small radial component, normalized as

    integral (g^2 + f^2) r^2 dr = 1,

with the closed form (x = 2 lambda r, c = 2 gamma + 1, N = xi / lambda,
beta = N - kappa)

    g(r) = +A sqrt(1 + E) x^(gamma-1) e^(-x/2) P_g(x),
    f(r) = -A sqrt(1 - E) x^(gamma-1) e^(-x/2) P_f(x),

    A = (2 lambda)^(3/2) / Gamma(c) * sqrt( Gamma(c + n') / (4 N beta n'!) ),

    n' = 0:  P_g = P_f = beta,
    n' = 1:  P_g = (beta - 1) - (beta / c) x,
             P_f = (beta + 1) - (beta / c) x.

Two exact identities pin this normalization: integral g^2 r^2 dr =
(1 + E)/2 and integral f^2 r^2 dr = (1 - E)/2.  They are the same-state
integrals of overlap_closed_form and of the packet tables, which take them
from the energies rather than from the Gamma moments.

The free overall sign of each eigenstate is fixed so that the large
component is positive at large r (for n' = 1 that flips both components,
since the leading polynomial coefficient -beta/c is negative).  With this
phase choice the cross-branch large-component overlap tends to +1 in the
nonrelativistic limit, matching the construction of spin-polarized
circular packets out of the two partners.

Each component is stored as a log magnitude of its prefactor and a
polynomial whose coefficients carry the component's sign (the -1 of f
for n' = 0, the flip of g for n' = 1), and every evaluation assembles one
exponent before a single exp call, so states up to n of a few hundred
evaluate without intermediate overflow.

The levels, radial data and overlaps of distinct states are computed by
kernels over NumPy arrays of states (_levels, _radial, _overlap).  This
module owns the circular shell layout: only _shells labels a shell's two
partners and only _shell_coupling checks that a range of shells binds them
(returning xi), and _window_rows, _shell_radial, _partner_overlaps and
_shell_splittings hand the packet module whole shells, with the exact
integrals only: the packet module owns their nonrelativistic limits.
state_from_kappa, overlap_closed_form and the energies call the kernels
with one row, so each formula has one home.  Every transcendental goes
through math one element at a time, which makes a result independent of
how many states are evaluated together.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import DEFAULT_CONSTANTS, PhysicalConstants

_LN4 = math.log(4.0)

# Largest shell n = n' + |kappa| of a state: a guard against overflowing
# integer arrays, not an accuracy limit; see README.
_MAX_N = 100_000


class Branch(enum.Enum):
    """Fine-structure partner of a circular orbital level."""

    J_PLUS = "j_plus"
    J_MINUS = "j_minus"


class SupercriticalChargeError(ValueError):
    """Z alpha >= |kappa|: the pointlike-Coulomb bound state does not exist."""

    def __init__(self, Z: int, kappa: int, xi: float):
        super().__init__(
            f"supercritical coupling: Z*alpha = {xi:.9g} >= |kappa| = {abs(kappa)} "
            f"(Z = {Z}, kappa = {kappa})"
        )
        self.Z = Z
        self.kappa = kappa


def _require_int(name: str, value, minimum: int, maximum: int | None = None) -> None:
    """Reject a bool, anything else that is not an int or np.integer (64.0 too), and
    a value below minimum or above maximum: the one rule of every integer input."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if maximum is not None and not (integer and minimum <= value <= maximum):
        raise ValueError(f"require {minimum} <= {name} <= {maximum}, got {value!r}")
    if not (integer and value >= minimum):
        raise ValueError(f"require {name} >= {minimum} (an integer), got {value!r}")


def _coupling(Z: int, n_prime: int, kappa: int, constants: PhysicalConstants) -> float:
    """xi = Z alpha, after checking that the bound state (n', kappa) exists."""
    _require_int("n_prime", n_prime, 0)
    _require_int("Z", Z, 1)
    xi = float(Z) * constants.alpha
    if isinstance(kappa, bool) or not isinstance(kappa, (int, np.integer)) or kappa == 0:
        raise ValueError(f"kappa must be a nonzero integer, got {kappa!r}")
    if n_prime + abs(kappa) > _MAX_N:
        raise ValueError(f"require n <= {_MAX_N}, got {n_prime + abs(kappa)}")
    if xi >= abs(kappa):
        raise SupercriticalChargeError(Z, int(kappa), xi)
    if n_prime == 0 and kappa > 0:
        raise ValueError(
            f"no bound state exists with n_prime = 0 and kappa = {kappa} > 0"
        )
    return xi


def _each(fn, *args) -> np.ndarray:
    """fn applied one element at a time to the broadcast args (at most 1-D).

    NumPy's log, exp, log1p, hypot and power round the last bit differently
    from math's for a few percent of inputs, so every transcendental of the
    array kernels goes through math; + - * / and sqrt are exact in both.
    """
    args = [np.atleast_1d(a) for a in args]
    if len(args) > 1:
        args = np.broadcast_arrays(*args)
    return np.fromiter(map(fn, *(a.tolist() for a in args)), float)


def _take(rows, index):
    """The rows at index (an integer array or a slice) of _Levels or _Radial."""
    return type(rows)(*(field[..., index] for field in rows))


class _Levels(NamedTuple):
    """Labels and level data of bound states, one array entry per state."""

    n_prime: np.ndarray
    kappa: np.ndarray  # as floats
    gamma: np.ndarray
    d: np.ndarray  # n' + gamma
    big_n: np.ndarray  # hypot(d, xi) = xi / lambda
    energy: np.ndarray  # d / N
    binding: np.ndarray  # E - 1 = -xi^2 / (N (d + N)), without the 1 - E cancellation


def _levels(xi, n_prime, kappa) -> _Levels:
    """Levels of the states (n', kappa) at couplings xi, arrays or scalars.

    The states must exist; _coupling checks that.
    """
    kappa = np.asarray(kappa, dtype=float)
    gamma = np.sqrt((kappa - xi) * (kappa + xi))
    d = n_prime + gamma
    big_n = _each(math.hypot, d, xi)
    binding = -(xi * xi) / (big_n * (d + big_n))
    return _Levels(n_prime, kappa, gamma, d, big_n, d / big_n, binding)


def _shells(xi, n) -> tuple[_Levels, np.ndarray]:
    """Partner levels of the shells n at couplings xi, and their splittings E+ - E-.

    The rows are the j+ partners (n' = 0, kappa = -n), then the j- partners
    (n' = 1, kappa = n - 1); no other code but _shell_coupling, which checks
    them, writes these labels.  For the splitting see fine_splitting.
    """
    n = np.asarray(n)
    count = len(n)
    xi_rows = np.tile(np.broadcast_to(xi, n.shape), 2)
    level = _levels(xi_rows, np.repeat([0, 1], count), np.concatenate([-n, n - 1]))
    plus, minus = _take(level, slice(None, count)), _take(level, slice(count, None))
    xi2 = xi * xi
    denominator = (n - 1.0 + minus.gamma) * (plus.d * plus.d + xi2) * (minus.d * minus.d + xi2)
    return level, 2.0 * xi2 * xi2 / (denominator * (plus.energy + minus.energy))


def _shell_coupling(Z: int, lo: int, hi: int, constants: PhysicalConstants) -> float:
    """xi = Z alpha, after checking that every partner of the shells lo..hi is bound.

    The j- partner of lo has the smallest |kappa| and the j+ partner of hi
    the largest n, so those two are checked for all.
    """
    _coupling(Z, 1, int(lo) - 1, constants)
    return _coupling(Z, 0, -int(hi), constants)


def _shell_splittings(Z, N, constants: PhysicalConstants) -> tuple[np.ndarray, np.ndarray]:
    """xi and E+ - E- at the points (Z[i], N[i]); an error names the first bad point.

    The points are checked as columns: one type test each, then one mask of
    the values, which holds exactly where the scalar checks pass.  If it
    fails anywhere, the scalar checks run point by point and raise the
    first bad point's own message.
    """
    z, n = _integer_column(Z), _integer_column(N)
    if z is None or n is None or not np.all(
        (n >= 2) & (z >= 1) & (n <= _MAX_N) & (z * constants.alpha < n - 1)
    ):
        for charge, shell in zip(Z, N):
            _require_int("N", shell, 2)
            _shell_coupling(charge, shell, shell, constants)
    xi = z * constants.alpha
    return xi, _shells(xi, n)[1]


def _integer_column(values) -> np.ndarray | None:
    """values as an integer array if each passes _require_int's type rule, else None.

    The types are tested on values, not on the array: numpy turns a bool
    among ints into an int.  A column numpy holds as objects or floats, as
    it does ints past the uint64 range or mixed with negatives past int64,
    is None too.
    """
    column = np.asarray(values)
    if column.dtype.kind in "iu" and all(
        issubclass(kind, (int, np.integer)) and kind is not bool for kind in set(map(type, values))
    ):
        return column
    return None


def binding_energy(
    Z: int,
    n_prime: int,
    kappa: int,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> float:
    """E - 1 (negative), computed without the 1 - E cancellation.

    Uses E - 1 = -xi^2 / (N (d + N)) with d = n' + gamma, N = hypot(d, xi),
    which stays fully accurate even when the binding is ~xi^2/2n^2 ~ 1e-13.
    """
    xi = _coupling(Z, n_prime, kappa, constants)
    return float(_levels(xi, n_prime, kappa).binding[0])


def fine_splitting(
    Z: int,
    N: int,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> float:
    """Exact fine-structure splitting E_plus - E_minus of shell N, cancellation-free.

    Both circular partners of the level n = N are nearly degenerate (the
    splitting is ~xi^4 / (2 N^5), eight orders below E itself at N = 20),
    so the naive difference of two Sommerfeld energies loses about half
    its digits.  Rearranging with E^2 = D^2/(D^2 + xi^2), where D_plus =
    gamma_plus and D_minus = 1 + gamma_minus, and using

        D_plus^2 - D_minus^2 = 2 (N - 1 - gamma_minus)
                             = 2 xi^2 / (N - 1 + gamma_minus)

    gives the fully positive form implemented here:

        dE = 2 xi^4 / [ (N - 1 + gamma_minus)
                        (D_plus^2 + xi^2) (D_minus^2 + xi^2)
                        (E_plus + E_minus) ].
    """
    return float(_shell_splittings([Z], [N], constants)[1][0])


@dataclass(frozen=True)
class CircularState:
    """One normalized Dirac-Coulomb bound state with polynomial degree <= 1.

    The label (Z, kappa, n_prime) is stored once; n = n' + |kappa|,
    l = kappa if kappa > 0 else -kappa - 1, and branch (J_MINUS exactly
    when kappa > 0; the one-node n' = 1, kappa < 0 state counts as
    J_PLUS) are read-only properties derived from it.

    Radial data is stored in assembled-log form: value = exp(log_pref
    + (gamma - 1) ln x - x/2) * (poly[0] + poly[1] x) with x = 2 lambda r;
    the polynomial carries the component's sign.
    Instances are immutable; construct through :func:`make_circular_state`
    (circular labels) or :func:`state_from_kappa` (general kappa, n' <= 1).
    """

    Z: int
    kappa: int
    n_prime: int
    gamma: float
    energy: float
    lam: float
    g_log_prefactor: float
    g_poly: tuple[float, float]
    f_log_prefactor: float
    f_poly: tuple[float, float]

    @property
    def n(self) -> int:
        return self.n_prime + abs(self.kappa)

    @property
    def l(self) -> int:
        return self.kappa if self.kappa > 0 else -self.kappa - 1

    @property
    def branch(self) -> Branch:
        return Branch.J_MINUS if self.kappa > 0 else Branch.J_PLUS


def state_from_kappa(
    Z: int,
    kappa: int,
    n_prime: int,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> CircularState:
    """Build a normalized bound state for any kappa with n_prime in {0, 1}.

    The circular family only ever uses (kappa = -n, n' = 0) and
    (kappa = l, n' = 1), but the constructor is deliberately general: same
    kappa with n' differing by one yields orthogonal states, which makes a
    sharp independent check of the radial machinery.
    """
    _require_int("n_prime", n_prime, 0, 1)
    xi = _coupling(Z, n_prime, kappa, constants)
    kappa = int(kappa)
    level = _levels(xi, n_prime, [kappa])
    row = _radial(xi, level)
    return CircularState(
        Z=int(Z),
        kappa=kappa,
        n_prime=int(n_prime),
        gamma=float(row.gamma[0]),
        energy=float(level.energy[0]),
        lam=float(row.lam[0]),
        g_log_prefactor=float(row.g_log_prefactor[0]),
        g_poly=tuple(row.g_poly[:, 0].tolist()),
        f_log_prefactor=float(row.f_log_prefactor[0]),
        f_poly=tuple(row.f_poly[:, 0].tolist()),
    )


class _Radial(NamedTuple):
    """Radial data of bound states, one array entry per state.

    The fields are CircularState's, with each polynomial a (2, states)
    array, so that _overlap reads either, and _take(rows, i), one row,
    is read by eval_radial as a state would be.
    """

    gamma: np.ndarray
    lam: np.ndarray
    g_log_prefactor: np.ndarray
    g_poly: np.ndarray
    f_log_prefactor: np.ndarray
    f_poly: np.ndarray


def _radial(xi: float, level: _Levels) -> _Radial:
    """Radial data of the states of level, n' in {0, 1}; see state_from_kappa."""
    n_prime, kappa, big_n = level.n_prime, level.kappa, level.big_n
    lam = xi / big_n
    beta = big_n - kappa
    c = 2.0 * level.gamma + 1.0
    # n' = 0: P_g = beta and P_f = -beta.
    nodeless = np.stack([beta, np.zeros_like(beta)])
    # n' = 1: beta - 1 is a near-cancellation of order xi^2 for kappa > 0;
    # use the exact rewrite (N^2 - (1 + kappa)^2) / (N + 1 + kappa) with
    # N^2 - (1 + kappa)^2 = 2 (gamma - kappa) = -2 xi^2 / (gamma + kappa).
    # Only the kappa > 0 rows get it: for kappa < 0, gamma + kappa can round to 0.
    c1 = -beta / c
    c0_g = beta - 1.0
    up = kappa > 0
    c0_g[up] = -2.0 * xi * xi / ((level.gamma[up] + kappa[up]) * (big_n[up] + 1.0 + kappa[up]))
    # Phase convention: large component positive at large r.  The leading
    # coefficient -beta/c of n' = 1 is negative, so flip the whole state;
    # with the -1 of f that leaves only g negated.
    one_node = n_prime == 1
    g_poly = np.where(one_node, np.stack([-c0_g, -c1]), nodeless)
    f_poly = np.where(one_node, np.stack([beta + 1.0, c1]), -nodeless)
    log_a = (
        1.5 * _each(math.log, 2.0 * lam)
        - _each(math.lgamma, c)
        + 0.5
        * (
            _each(math.lgamma, c + n_prime)
            - _LN4
            - _each(math.log, big_n)
            - _each(math.log, beta)
        )
    )
    one_minus_e = lam * lam / (1.0 + level.energy)
    g_log = log_a + 0.5 * _each(math.log1p, level.energy)
    f_log = log_a + 0.5 * _each(math.log, one_minus_e)
    return _Radial(level.gamma, lam, g_log, g_poly, f_log, f_poly)


def _shell_radial(xi: float, n: np.ndarray) -> _Radial:
    """Radial data of the shells n in the layout of _shells: j+ rows, then j- rows."""
    return _radial(xi, _shells(xi, n)[0])


def make_circular_state(
    Z: int,
    n: int,
    branch: Branch,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> CircularState:
    """Normalized circular bound state at shell n: l = n - 1, given partner.

    j_plus is (kappa = -n, n' = 0); j_minus is (kappa = n - 1, n' = 1) and
    needs n >= 2.
    """
    _require_int("n", n, 1)
    if branch is Branch.J_PLUS:
        return state_from_kappa(Z, -n, 0, constants)
    if branch is Branch.J_MINUS:
        if n < 2:
            raise ValueError("the j_minus partner needs l >= 1 (j = l - 1/2 > 0)")
        return state_from_kappa(Z, n - 1, 1, constants)
    raise ValueError(f"unknown branch {branch!r}")


def eval_radial(state: CircularState, r):
    """Evaluate (g, f) at radius r (scalar or ndarray, Compton lengths, r > 0).

    state is a CircularState or one row of _Radial data, such as a row of
    PacketTables.rows; both carry the same fields and give the same bits.

    Returns a pair of floats for scalar input, a pair of ndarrays otherwise.
    The full exponent (prefactor log + power law + decay) is assembled
    before a single exp, so huge radii underflow gracefully to zero and
    small radii follow the true r^(gamma-1) behavior.
    """
    arr = np.asarray(r, dtype=float)
    if arr.size == 0:
        raise ValueError("r must contain at least one radius")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("all radii must be finite and > 0")
    x = 2.0 * state.lam * arr
    log_x = np.log(x)
    shape = (state.gamma - 1.0) * log_x - 0.5 * x
    g = np.exp(state.g_log_prefactor + shape) * (state.g_poly[0] + state.g_poly[1] * x)
    f = np.exp(state.f_log_prefactor + shape) * (state.f_poly[0] + state.f_poly[1] * x)
    if np.ndim(r) == 0:
        return float(g), float(f)
    return g, f


def _part_data(state, letter: str):
    if letter == "g":
        return state.g_log_prefactor, state.g_poly
    return state.f_log_prefactor, state.f_poly


def _check_pair(a: CircularState, b: CircularState, part: str) -> None:
    if a.Z != b.Z:
        raise ValueError(f"overlap requires matching nuclear charge, got Z = {a.Z} and {b.Z}")
    if part not in ("gg", "ff"):
        raise ValueError(f"part must be 'gg' or 'ff', got {part!r}")


def overlap_closed_form(a: CircularState, b: CircularState, part: str) -> float:
    """Radial overlap integral(part_a(r) part_b(r) r^2 dr) in closed form.

    part is 'gg' (large with large) or 'ff' (small with small).  Because
    each polynomial has degree <= 1, the integrand is a sum of three pure
    Gamma moments

        integral r^(G + k) e^(-Lam r) dr = Gamma(G + k + 1) / Lam^(G+k+1),

    G = gamma_a + gamma_b, Lam = lambda_a + lambda_b, k in {0, 1, 2};
    everything is assembled in log space with one final exp.  A state's
    overlap with itself (a == b) is its norm, (1 + E)/2 for 'gg' and
    (1 - E)/2 = lambda^2 / (2 (1 + E)) for 'ff', without the 1 - E
    cancellation.
    """
    _check_pair(a, b, part)
    if a == b:
        one_plus_e = 1.0 + a.energy
        return 0.5 * one_plus_e if part == "gg" else a.lam * a.lam / (2.0 * one_plus_e)
    return float(_overlap(a, b, part)[0])


def _overlap(a, b, part: str) -> np.ndarray:
    """overlap_closed_form of a and b, CircularStates or _Radial rows, row by row."""
    log_a, poly_a = _part_data(a, part[0])
    log_b, poly_b = _part_data(b, part[1])

    big_g = a.gamma + b.gamma
    lam_sum = a.lam + b.lam

    # Polynomial product written in powers of r.
    d_a0, d_a1 = poly_a[0], poly_a[1] * 2.0 * a.lam
    d_b0, d_b1 = poly_b[0], poly_b[1] * 2.0 * b.lam
    q0 = d_a0 * d_b0
    q1 = d_a0 * d_b1 + d_a1 * d_b0
    q2 = d_a1 * d_b1

    base = (
        log_a
        + log_b
        + (a.gamma - 1.0) * _each(math.log, 2.0 * a.lam)
        + (b.gamma - 1.0) * _each(math.log, 2.0 * b.lam)
        + _each(math.lgamma, big_g + 1.0)
        - (big_g + 1.0) * _each(math.log, lam_sum)
    )
    bracket = q0 + (big_g + 1.0) / lam_sum * (q1 + q2 * (big_g + 2.0) / lam_sum)
    return bracket * _each(math.exp, base)


def _window_rows(xi: float, n: np.ndarray) -> tuple:
    """Binding energies E+ - 1 and E- - 1 and the splittings omega of the shells n.

    n is any increasing array of distinct shells.  These are all a packet
    stores: its same-state integrals follow from the energies, and its
    cross-state integrals are _partner_overlaps of _shell_radial rows, which
    PacketTables takes on first read.  A row depends only on (xi, shell), so
    the rows of any subset of n are a take of n's rows: packet._sweep_tables
    calls this once on the union of a chunk's windows and slices each
    window's rows from it.
    """
    level, omega = _shells(xi, n)
    count = len(n)
    return level.binding[:count], level.binding[count:], omega


def _partner_overlaps(rows: _Radial, part: str, apart: int) -> np.ndarray:
    """<p+(n)|p-(n + apart)> over the shells n of rows, p the g or f of part ('gg' or 'ff').

    rows are _shell_radial's, the j+ rows and then the j- rows, and the
    result runs over all but the last apart shells: apart = 0 gives <g+|g->
    of each shell, apart = 2 with 'ff' the cross-shell F'(n).
    """
    count = rows.lam.size // 2
    plus = _take(rows, slice(None, max(0, count - apart)))
    return _overlap(plus, _take(rows, slice(count + apart, None)), part)


@dataclass(frozen=True)
class OverlapSet:
    """The five single-l radial integrals entering the packet observables.

    g_plus  = <g+|g+>,  g_minus = <g-|g->,  g_pm = <g+|g->,
    f_plus  = <f+|f+>,  f_minus = <f-|f->,
    all weighted by r^2 dr at the same orbital l.
    """

    g_plus: float
    g_minus: float
    g_pm: float
    f_plus: float
    f_minus: float


def overlap_set(state_plus: CircularState, state_minus: CircularState) -> OverlapSet:
    """Closed-form overlap bundle for the two partners of one orbital l."""
    if state_plus.l != state_minus.l:
        raise ValueError(
            "overlap_set pairs the two partners of one orbital level, got "
            f"l = {state_plus.l} and {state_minus.l}"
        )
    return OverlapSet(
        g_plus=overlap_closed_form(state_plus, state_plus, "gg"),
        g_minus=overlap_closed_form(state_minus, state_minus, "gg"),
        g_pm=overlap_closed_form(state_plus, state_minus, "gg"),
        f_plus=overlap_closed_form(state_plus, state_plus, "ff"),
        f_minus=overlap_closed_form(state_minus, state_minus, "ff"),
    )
