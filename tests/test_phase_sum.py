"""Rest-frame A(t) against an independent reference, and the factored
phase sums of uniform time grids against the direct sums.

The reference uses no diracpacket code.  With nonrelativistic_radial=True
the A(t) coefficients are closed form in the shell weight w, the spin
amplitudes a, b and the orbital l = n - 1,

    A(t) = sum_n w_n^2 [ (a^2 + b^2 / (2l + 1)) e^{-i (E+ - 1) t}
                         + b^2 2l / (2l + 1) e^{-i (E- - 1) t} ],

with the Sommerfeld energies of the partners (n' = 0, kappa = -n) and
(n' = 1, kappa = l).  It is summed in mpmath at 50 digits at the same
double times and with the same double coupling Z alpha as the library.

Every bound is the phase budget of the sum, not a fit to its output.  A
term c e^{i f t} of the library is off by |c| times its phase error plus
its evaluation error.  The phase f t gathers at most 20 roundings of
relative size eps / 2 each, or 10 eps |f| T, with T = |t0| + (K - 1)|dt|
bounding every partial time: at most 10 in the binding energy (four in
gamma, then d, hypot, d + N, N (d + N), xi^2 and the quotient) and at most
10 in the time (three in linspace's values, then t0, dt, q B dt, the two
sums of the grid path and its two products with f).  The evaluation adds
at most 14 eps: two exponentials, their product, the coefficient (rounded
some ten times in the tables) and the product with it.  Summing the terms
adds eps per term.

The density reference at hydrogen reuses only the library's time-independent
factors: the ket table, the radial profiles of the kets' states (built by
make_circular_state), the Legendre numbers and the spherical harmonics.  Each
ket gets the phase e^{-i E t} of its 50-digit Sommerfeld binding energy E.
A field sum_k tau_k of K kets is then off by at most
sum_k |tau_k| eps (10 |E_k| t + 14 + 2 K + 7 m_k): the phase count above,
the evaluation count above for both sides, eps per term for each side's
sum, and for the grid's e^{i m phi}, which the library reaches from
e^{i m_min phi} in at most m steps of 3 eps while the reference rounds m phi
once, pi m eps / 2 on each side.  A density |F|^2 whose field is off by D
is off by at most 2 |F| D + D^2, plus 3 eps of itself on each side.
"""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from diracpacket import (
    PacketSpec,
    PlaneGridSpec,
    TimeGrid,
    amplitudes,
    autocorrelation,
    build_tables,
    density_grid,
    eval_radial,
    legendre_norm,
    sph_harm,
    spin_expect,
    timescales,
)
from diracpacket.constants import ALPHA_DEFAULT
from oracles import ket_states

EPS = np.finfo(float).eps


def _budget(coefs, freqs, t_span: float) -> float:
    """Largest error of sum_n coefs[n] e^{i freqs[n] t} for |t| <= t_span."""
    coefs = np.abs(np.asarray(coefs))
    spread = 10.0 * float(np.max(np.abs(freqs), initial=0.0)) * t_span
    return float(np.sum(coefs)) * EPS * (spread + 14.0 + coefs.size)


# ------------------------------------------------------------ reference


def _sommerfeld_binding(xi, n_prime: int, kappa: int):
    d = n_prime + mpmath.sqrt(kappa * kappa - xi * xi)
    return d / mpmath.sqrt(d * d + xi * xi) - 1


def _reference_terms(spec: PacketSpec):
    """50-digit coefficients and binding energies of A(t), and T_ls at N."""
    Z, N, sigma_g = spec.Z, spec.N, spec.sigma_g
    xi = mpmath.mpf(Z * ALPHA_DEFAULT)
    half = math.ceil(5.0 * sigma_g)
    shells = range(max(2, N - half), N + half + 1)
    gauss = [mpmath.exp(-mpmath.mpf((n - N) ** 2) / (2 * sigma_g**2)) for n in shells]
    total = mpmath.fsum(gauss)
    a2, b2 = mpmath.mpf(spec.a) ** 2, mpmath.mpf(spec.b) ** 2
    coefs, energies = [], []
    for n, weight in zip(shells, gauss):
        l = n - 1
        share = weight / total
        coefs += [share * (a2 + b2 / (2 * l + 1)), share * b2 * 2 * l / (2 * l + 1)]
        energies += [_sommerfeld_binding(xi, 0, -n), _sommerfeld_binding(xi, 1, l)]
    splitting = _sommerfeld_binding(xi, 0, -N) - _sommerfeld_binding(xi, 1, N - 1)
    return coefs, energies, float(2 * mpmath.pi / splitting)


@pytest.mark.parametrize("Z, N", [(1, 20), (1, 300), (1, 500), (92, 20), (92, 300), (92, 500)])
def test_rest_frame_autocorrelation_against_50_digit_reference(Z, N):
    spec = PacketSpec(Z=Z, N=N)
    tables = build_tables(spec, nonrelativistic_radial=True)
    with mpmath.workdps(50):
        coefs, energies, t_ls = _reference_terms(spec)
        times = np.linspace(0.0, 10.0, 201) * t_ls
        ref = np.array([
            complex(mpmath.fsum(c * mpmath.expj(-e * t) for c, e in zip(coefs, energies)))
            for t in map(mpmath.mpf, times.tolist())
        ])
    grid = TimeGrid(0.0, 10.0, 201, t_ls)
    assert grid.values.tobytes() == times.tobytes()
    bound = _budget([float(c) for c in coefs], [float(e) for e in energies], times[-1])
    for path in (grid, times):
        amp = autocorrelation(tables, path)
        assert amp.shape == times.shape
        assert float(np.max(np.abs(amp - ref))) <= bound, type(path).__name__


# ------------------------------------------------- density at hydrogen


def _reference_fields(tables, t: float, spatial, steps):
    """The four fields sum_k spatial[k] e^{-i E_k t} and their error budgets.

    spatial[k] is ket k's time-independent factor at the points, and
    steps[k] the m of its e^{i m phi} where the library builds that factor
    by steps (0 where both sides share it); see the module docstring.
    """
    kets = tables.kets
    states = ket_states(tables)
    with mpmath.workdps(50):
        xi = mpmath.mpf(tables.spec.Z * ALPHA_DEFAULT)
        binding = {
            (s.n_prime, s.kappa): _sommerfeld_binding(xi, s.n_prime, s.kappa) for s in states
        }
        phase = {key: complex(mpmath.expj(-e * mpmath.mpf(t))) for key, e in binding.items()}
    fields = [np.zeros(spatial[0].shape, dtype=complex) for _ in range(4)]
    budgets = [np.zeros(spatial[0].shape) for _ in range(4)]
    for k, state in enumerate(states):
        key = (state.n_prime, state.kappa)
        term = spatial[k] * phase[key]
        count = 10.0 * abs(float(binding[key])) * t + 14.0 + 2.0 * len(kets) + 7.0 * steps[k]
        fields[kets.component[k] - 1] += term
        budgets[kets.component[k] - 1] += np.abs(term) * EPS * count
    return fields, budgets


@pytest.mark.parametrize("periods", [0.37, 10.0])
@pytest.mark.parametrize("N", [20, 300])
def test_hydrogen_density_against_50_digit_phases(N, periods):
    tables = build_tables(PacketSpec(Z=1, N=N))
    t = periods * timescales(1, N).t_ls
    kets = tables.kets
    states = ket_states(tables)
    labels = list(zip(kets.coef.tolist(), kets.l_ang.tolist(), kets.m_ang.tolist(),
                      kets.part.tolist(), states))

    grid = density_grid(tables, PlaneGridSpec(resolution=16), t)
    x, y = grid.x[np.newaxis, :], grid.y[:, np.newaxis]
    r, phi = np.hypot(x, y), np.arctan2(y, x)
    spatial = [
        c * legendre_norm(l, m, 0.5 * math.pi) * eval_radial(s, r)[p] * np.exp(1j * m * phi)
        for c, l, m, p, s in labels
    ]
    fields, budgets = _reference_fields(tables, t, spatial, kets.m_ang.tolist())
    for got, pair in ((grid.spin_up, (0, 2)), (grid.spin_down, (1, 3))):
        want = sum(np.abs(fields[c]) ** 2 for c in pair)
        bound = sum(2.0 * np.abs(fields[c]) * budgets[c] + budgets[c] ** 2 for c in pair)
        assert np.all(np.abs(got - want) <= bound + 6.0 * EPS * want)

    r_n = N * N / ALPHA_DEFAULT
    r, theta, phi = r_n * np.array([0.5, 0.95, 1.3]), np.array([0.5 * math.pi, 1.0, 2.0]), 0.3
    spatial = [
        c * eval_radial(s, r)[p] * np.array([sph_harm(l, m, tt, phi) for tt in theta])
        for c, l, m, p, s in labels
    ]
    fields, budgets = _reference_fields(tables, t, spatial, [0] * len(kets))
    for got, want, bound in zip(amplitudes(tables, r, theta, phi, t), fields, budgets):
        assert np.all(np.abs(got - want) <= bound)


# ------------------------------------------------ grid path against direct


GRIDS = {
    "nonzero start": (2.5, 7.5, 500),
    "negative start": (-3.0, 4.0, 300),
    "two samples": (0.0, 10.0, 2),
    "prime count": (0.0, 10.0, 997),
    "perfect square": (0.0, 10.0, 961),
}


@pytest.mark.parametrize("Z, N", [(1, 20), (92, 40)])
@pytest.mark.parametrize("grid_args", GRIDS.values(), ids=GRIDS.keys())
def test_grid_path_matches_direct_path(Z, N, grid_args):
    tables = build_tables(PacketSpec(Z=Z, N=N))
    start, stop, samples = grid_args
    scale = timescales(Z, N).t_ls
    grid = TimeGrid(start, stop, samples, scale)
    times = grid.values
    t_span = (abs(start) + abs(stop - start)) * scale

    # Both paths sit inside the budget of the exact sum, so they agree
    # within the sum of their budgets.
    amp_bound = 2.0 * _budget(
        np.concatenate([tables.acf_plus, tables.acf_minus]),
        np.concatenate([tables.e_plus, tables.e_minus]),
        t_span,
    )
    amp = autocorrelation(tables, grid)
    assert amp.shape == (samples,)
    assert float(np.max(np.abs(amp - autocorrelation(tables, times)))) <= amp_bound

    for include_delta in (True, False):
        delta = (
            _budget(tables.k_coef, tables.omega_tilde, t_span) if include_delta else 0.0
        )
        xy_bound = 2.0 * (_budget(tables.sx_cos, tables.omega, t_span) + delta) + 4.0 * EPS
        z_bound = 2.0 * _budget(tables.sz_cos, tables.omega, t_span) + 4.0 * EPS
        fast = spin_expect(tables, grid, include_delta)
        slow = spin_expect(tables, times, include_delta)
        for got, want, bound in zip(fast, slow, (xy_bound, xy_bound, z_bound)):
            assert got.shape == (samples,)
            assert float(np.max(np.abs(got - want))) <= bound


def test_grid_values_are_the_command_line_times():
    scale = timescales(92, 20).unit_scale("kepler")
    grid = TimeGrid(0.5, 3.0, 200, scale)
    assert grid.values.tobytes() == (np.linspace(0.5, 3.0, 200) * scale).tobytes()
    assert TimeGrid(0.0, 1.0, 5).values.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]


@pytest.mark.parametrize(
    "args",
    [(0.0, 1.0, 1), (0.0, 1.0, 2.0), (0.0, 1.0, True), (0.0, math.inf, 3), (0.0, 1e300, 3, 1e10)],
)
def test_grid_rejects_bad_parameters(args):
    with pytest.raises(ValueError):
        TimeGrid(*args)


def test_grid_path_builds_no_samples_by_terms_array(monkeypatch):
    """S (Q + B) exponentials per frequency set, and no array of K x S values.

    The spin's sigma_x/sigma_y and sigma_z sums share the omega
    exponentials, so it takes one omega set and one omega_tilde set.
    """
    tables = build_tables(PacketSpec(Z=92, N=40, sigma_g=4.0))
    count = 100_000
    width = math.isqrt(count - 1) + 1
    rows = -(-count // width)
    grid = TimeGrid(0.0, 10.0, count, timescales(92, 40).t_ls)
    shells = tables.e_plus.size

    sizes = []
    exp = np.exp

    def counted(x, *args, **kwargs):
        sizes.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    autocorrelation(tables, grid)
    assert sizes == [2 * shells * rows, 2 * shells * width]
    sizes.clear()
    spin_expect(tables, grid)
    sets = [shells, tables.k_coef.size]
    assert sorted(sizes) == sorted(s * n for s in sets for n in (rows, width))
    monkeypatch.undo()

    # The smallest K x S array the direct path builds is K x (shells - 2)
    # doubles; the factored path needs a few arrays of K samples.
    smallest = 8 * count * tables.k_coef.size
    for call in (lambda: autocorrelation(tables, grid), lambda: spin_expect(tables, grid)):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < smallest / 2
