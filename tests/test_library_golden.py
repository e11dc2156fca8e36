"""Golden SHA-256 digests over the library's outputs.

The digest covers what the library computes, not how it stores it: A(t),
the spin series with and without the cross-shell terms, the component
and small-component norms, every ket coefficient, a 16 x 16 density
grid and the component fields at a few points, per packet; and the
radial profiles and closed-form overlaps of the packet's states and of a
few general (kappa, n') states.  Dropping or renaming a stored table
field leaves it alone; a change to any output bit moves it.

The packets run over Z in {1, 7, 54, 92, 118, 137}, N in {2, 3, 5, 20,
41, 137, 300} and sigma_G in {0.3, 1, 2}, each with the exact and the
limit-value radial integrals.

A second digest pins the paths that go through a state's label (Z, kappa,
n'): the time-scale hierarchy on both energy branches at k_max = 6 and the
fine splitting over the same Z x N grid, and the energies, gamma and lambda
of the general (kappa, n') states at every Z.

The digests were recorded with CPython 3.11, NumPy 2.4 on x86-64 Linux.
A different libm or NumPy build may round a last digit differently; a
digest change on such a platform is not by itself a regression.
"""

import hashlib
import math

import numpy as np

from diracpacket import (
    PacketSpec,
    PlaneGridSpec,
    amplitudes,
    autocorrelation,
    binding_energy,
    build_tables,
    component_norms,
    density_grid,
    eval_radial,
    fine_splitting,
    overlap_closed_form,
    small_norm,
    spin_expect,
    state_from_kappa,
    timescales,
)
from oracles import ket_states

GOLDEN = "4da912de467c1175a0bbe84cb0693f970aca950ce8eaa21e5b964825c936e3ab"
LABEL_GOLDEN = "b3916281a315698d147817aa9c9f2a39f7bb021b8b2290f88f44f366b0271b40"

Z_VALUES = (1, 7, 54, 92, 118, 137)
N_VALUES = (2, 3, 5, 20, 41, 137, 300)
SIGMAS = (0.3, 1.0, 2.0)
# General labels: the circular ones plus the one-node j = l + 1/2 states.
KAPPA_PRIMES = ((-1, 0), (-2, 0), (-5, 0), (-1, 1), (-2, 1), (-5, 1), (1, 1), (2, 1), (5, 1))


def _feed(h, label: str, values) -> None:
    h.update(label.encode())
    arr = np.asarray(values)
    h.update(str(arr.dtype).encode())
    h.update(np.ascontiguousarray(arr).tobytes())


def _radial_and_overlaps(h, label: str, states, r) -> None:
    for i, state in enumerate(states):
        _feed(h, f"{label} radial {i}", eval_radial(state, r))
        _feed(h, f"{label} radial scalar {i}", eval_radial(state, float(r[1])))
    for i, a in enumerate(states):
        for j, b in enumerate(states[i : i + 3], start=i):
            for part in ("gg", "ff"):
                _feed(h, f"{label} overlap {i} {j} {part}", overlap_closed_form(a, b, part))


def _packet(h, Z: int, N: int, sigma: float, nonrel: bool) -> None:
    label = f"{Z} {N} {sigma} {nonrel}"
    spec = PacketSpec(Z=Z, N=N, sigma_g=sigma)
    tables = build_tables(spec, nonrelativistic_radial=nonrel)
    t_ls = 2.0 * math.pi / fine_splitting(Z, N)
    t = np.linspace(0.0, 10.0 * t_ls, 41)
    _feed(h, f"{label} A", autocorrelation(tables, t))
    _feed(h, f"{label} spin", spin_expect(tables, t))
    _feed(h, f"{label} spin no delta", spin_expect(tables, t, include_delta=False))
    _feed(h, f"{label} norms", component_norms(tables, t))
    norm = small_norm(tables)
    _feed(h, f"{label} small", [norm.c3_norm, norm.c4_norm, norm.total])
    _feed(h, f"{label} coefs", tables.kets.coef)
    grid = density_grid(tables, PlaneGridSpec(resolution=16), 0.37 * t_ls)
    _feed(h, f"{label} axes", [grid.x, grid.y])
    _feed(h, f"{label} grid", [grid.spin_up, grid.spin_down])
    r_n = N * N / (Z * spec.constants.alpha)
    fields = amplitudes(
        tables,
        r_n * np.array([0.5, 1.0, 1.3]),
        np.array([0.5 * math.pi, 1.0, 2.0]),
        np.array([0.3, 2.0, 4.0]),
        0.37 * t_ls,
    )
    _feed(h, f"{label} fields", fields)
    if nonrel:
        return
    states = list({(s.kappa, s.n_prime): s for s in ket_states(tables)}.values())
    _radial_and_overlaps(h, label, states, r_n * np.array([0.1, 0.9, 1.0, 1.1, 3.0]))


def library_digest() -> str:
    h = hashlib.sha256()
    for Z in Z_VALUES:
        states = [state_from_kappa(Z, kappa, n_prime) for kappa, n_prime in KAPPA_PRIMES]
        r = np.array([0.01, 0.5, 1.0, 4.0, 40.0]) / (Z / 137.0)
        _radial_and_overlaps(h, f"{Z} general", states, r)
        for N in N_VALUES:
            for sigma in SIGMAS:
                for nonrel in (False, True):
                    _packet(h, Z, N, sigma, nonrel)
    return h.hexdigest()


def label_digest() -> str:
    h = hashlib.sha256()
    for Z in Z_VALUES:
        for kappa, n_prime in KAPPA_PRIMES:
            label = f"{Z} {kappa} {n_prime}"
            state = state_from_kappa(Z, kappa, n_prime)
            _feed(h, f"{label} state", [state.gamma, state.energy, state.lam])
            _feed(
                h,
                f"{label} energies",
                [state.energy, binding_energy(Z, n_prime, kappa)],
            )
        for N in N_VALUES:
            _feed(h, f"{Z} {N} splitting", fine_splitting(Z, N))
            for branch in ("j_plus", "averaged"):
                scales = timescales(Z, N, k_max=6, branch=branch)
                t = [scales.t[k] for k in range(1, 7)]
                _feed(h, f"{Z} {N} {branch} times", t + [scales.t_ls, scales.t_cl])
    return h.hexdigest()


def test_library_outputs_match_golden_digest():
    assert library_digest() == GOLDEN


def test_label_paths_match_golden_digest():
    assert label_digest() == LABEL_GOLDEN
