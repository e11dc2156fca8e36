"""Acceptance gate: ten numbered criteria, one test and one verdict line each.

Every test prints exactly one line of the form

    ACCEPTANCE <k>: PASS - <measured detail>
    ACCEPTANCE <k>: FAIL - <measured detail>

and then asserts, so the printed verdict always matches the pytest outcome.
Criterion 7 checks the spin-orbit pendulum against an independent
Pauli-limit reference built here from 40-digit mpmath energies.  It asks for
the 0.8 revival only at sigma_G = 1.0: at sigma_G = 2.0 and 2.5 the
late-window maximum is about 0.53 and 0.49 of the initial length, and the
reference shows that this is the physics of the Coulomb spectrum, not a
defect.  See the README for the sigma_G sensitivity discussion.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from diracpacket import (
    Branch,
    PacketSpec,
    PlaneGridSpec,
    autocorrelation,
    build_tables,
    component_norms,
    density_grid,
    fine_splitting,
    make_circular_state,
    overlap_closed_form,
    small_norm,
    spin_expect,
    state_from_kappa,
    timescales,
)
from oracles import autocorrelation_oracle, ket_states, overlap_quadrature

ALPHA = 1.0 / 137.036


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_acceptance_01_timescale_hierarchy():
    ts = timescales(92, 20)
    ratios = {k: ts.t[k] / ts.t[1] for k in (2, 3, 4)}
    targets = {2: 13.33, 3: 200.0, 4: 3200.0}
    errs = {k: abs(ratios[k] / targets[k] - 1.0) for k in targets}
    ok = all(err < 0.03 for err in errs.values())
    report(
        1,
        ok,
        f"T2/T1={ratios[2]:.6f} T3/T1={ratios[3]:.4f} T4/T1={ratios[4]:.2f} "
        f"vs 13.33/200/3200, rel errs "
        f"{errs[2]:.2e}/{errs[3]:.2e}/{errs[4]:.2e} (tol 3%)",
    )


def test_acceptance_02_spin_orbit_ratio():
    ts20 = timescales(92, 20)
    ratio_ls = ts20.t_ls / ts20.t[1]
    ts40 = timescales(92, 40)
    xi = 92 * ALPHA
    t_cl = 2.0 * math.pi * 40.0**3 / (xi * xi)
    ratio_cl = ts40.t_ls / t_cl
    ok_ls = abs(ratio_ls / 1685.0 - 1.0) < 0.005
    ok_cl = abs(ratio_cl / 6921.0 - 1.0) < 0.005
    assert ts40.t_cl == pytest.approx(t_cl, rel=1e-14)

    # The splitting must come from a cancellation-free form.  Demonstrate
    # both halves: the naive double-precision energy subtraction loses the
    # answer outright at Z = 1, and at Z = 92 the library value matches an
    # extended-precision reference (50-digit arithmetic, frozen) to 1e-12.
    def naive(Z, N):
        e_plus = state_from_kappa(Z, -N, 0).energy
        e_minus = state_from_kappa(Z, N - 1, 1).energy
        return e_plus - e_minus

    ref_z1 = 4.6639917691464517525e-16
    ref_z92 = 3.3443771605091384769e-08
    naive_z1_err = abs(naive(1, 20) / ref_z1 - 1.0)
    lib_z1_err = abs(fine_splitting(1, 20) / ref_z1 - 1.0)
    lib_z92_err = abs(fine_splitting(92, 20) / ref_z92 - 1.0)
    ok_naive = naive_z1_err > 0.005
    ok_lib = lib_z1_err < 1e-12 and lib_z92_err < 1e-12
    ok = ok_ls and ok_cl and ok_naive and ok_lib
    report(
        2,
        ok,
        f"T_ls/T1={ratio_ls:.4f} (vs 1685, 0.5%), T_ls/T_cl={ratio_cl:.4f} "
        f"(vs 6921, 0.5%); naive subtraction off by {naive_z1_err:.1%} at Z=1 "
        f"while the library matches 50-digit references to "
        f"{max(lib_z1_err, lib_z92_err):.1e}",
    )


def test_acceptance_03_best_revival():
    ts = timescales(92, 20)
    best = None
    for sigma in (1.5, 2.0, 2.5):
        tables = build_tables(PacketSpec(Z=92, N=20, sigma_g=sigma))
        coarse_t = np.linspace(9.8, 10.3, 20001) * ts.t_ls
        coarse = np.abs(autocorrelation(tables, coarse_t)) ** 2
        i = int(np.argmax(coarse))
        fine_t = np.linspace(
            coarse_t[max(0, i - 2)], coarse_t[min(len(coarse_t) - 1, i + 2)], 2001
        )
        fine = np.abs(autocorrelation(tables, fine_t)) ** 2
        j = int(np.argmax(fine))
        peak, t_peak = float(fine[j]), float(fine_t[j]) / ts.t_ls
        hit = peak >= 0.7 and abs(t_peak - 10.063545) <= 0.05
        if best is None or peak > best[1]:
            best = (sigma, peak, t_peak, hit)
    sigma, peak, t_peak, hit = best
    report(
        3,
        hit,
        f"sigma_G={sigma}: |A|^2 peaks at {peak:.4f} at t={t_peak:.6f} T_ls "
        f"(need >= 0.7 within 0.05 T_ls of 10.063545)",
    )


def test_acceptance_04_small_component_surface():
    t0 = time.perf_counter()
    total_92_20 = small_norm(build_tables(PacketSpec(Z=92, N=20, sigma_g=2.0))).total
    z1 = [
        small_norm(build_tables(PacketSpec(Z=1, N=n, sigma_g=2.0))).total
        for n in range(2, 61)
    ]
    over_z = [
        small_norm(build_tables(PacketSpec(Z=z, N=10, sigma_g=2.0))).total
        for z in range(1, 93)
    ]
    over_n = [
        small_norm(build_tables(PacketSpec(Z=92, N=n, sigma_g=2.0))).total
        for n in range(2, 61)
    ]
    elapsed = time.perf_counter() - t0
    ok_uranium = total_92_20 < 0.01
    ok_hydrogen = max(z1) < 1e-4
    ok_z = all(b > a for a, b in zip(over_z, over_z[1:]))
    ok_n = all(b < a for a, b in zip(over_n, over_n[1:]))
    ok = ok_uranium and ok_hydrogen and ok_z and ok_n and elapsed < 30.0
    report(
        4,
        ok,
        f"total={total_92_20:.3e} at (92,20); max {max(z1):.2e} over N at Z=1; "
        f"monotone in Z at N=10: {ok_z}; monotone in N at Z=92: {ok_n}; "
        f"{elapsed:.1f}s",
    )


def test_acceptance_05_oracle_equivalence(tables_u92_n4):
    t0 = time.perf_counter()
    ts = timescales(92, 4)
    rng = np.random.default_rng(20260815)
    times = rng.uniform(0.0, ts.t_ls, size=50)
    analytic = autocorrelation(tables_u92_n4, times)
    oracle = autocorrelation_oracle(tables_u92_n4, times)
    rel = np.abs(analytic - oracle) / np.abs(oracle)
    elapsed = time.perf_counter() - t0
    ok = float(np.max(rel)) < 1e-6 and elapsed < 60.0
    report(
        5,
        ok,
        f"max rel deviation {np.max(rel):.2e} over 50 random times in "
        f"[0, T_ls] at (92, 4, sigma 0.8), min |A| {np.min(np.abs(oracle)):.3f}; "
        f"{elapsed:.1f}s",
    )


def test_acceptance_06_conservation(tables_h_n20, tables_u92_n20, tables_u92_n40):
    t0 = time.perf_counter()
    rng = np.random.default_rng(8451)
    worst_a0 = 0.0
    worst_excess = -1.0
    worst_norm = 0.0
    for tables in (tables_h_n20, tables_u92_n20, tables_u92_n40):
        ts = timescales(tables.spec.Z, tables.spec.N)
        worst_a0 = max(worst_a0, abs(autocorrelation(tables, 0.0) - 1.0))
        times = rng.uniform(0.0, 10.0 * ts.t_ls, size=100)
        amp = autocorrelation(tables, times)
        worst_excess = max(worst_excess, float(np.max(np.abs(amp))) - 1.0)
        n1, n2, n3, n4 = component_norms(tables, times)
        worst_norm = max(worst_norm, float(np.max(np.abs(n1 + n2 + n3 + n4 - 1.0))))
    worst_state = 0.0
    states = {}
    for tables in (tables_h_n20, tables_u92_n20, tables_u92_n40):
        for state in ket_states(tables):
            states[(state.Z, state.kappa, state.n_prime)] = state
    for state in states.values():
        norm = overlap_quadrature(state, state, "gg") + overlap_quadrature(
            state, state, "ff"
        )
        worst_state = max(worst_state, abs(norm - 1.0))
    elapsed = time.perf_counter() - t0
    ok = (
        worst_a0 < 1e-12
        and worst_excess < 1e-12
        and worst_norm < 1e-10
        and worst_state < 1e-10
        and elapsed < 60.0
    )
    report(
        6,
        ok,
        f"|A(0)-1| <= {worst_a0:.1e}; max |A| = {1.0 + worst_excess:.6f} "
        f"(bound 1 + 1e-12); "
        f"norm sum off by <= {worst_norm:.1e} (100 times x 3 packets); "
        f"{len(states)} eigenstates quadrature-normalized to {worst_state:.1e}; "
        f"{elapsed:.1f}s",
    )


def _pauli_spin_reference(Z, N, sigma_g, times):
    """Pauli-limit spin vector of the default (a = b = 1/sqrt 2) packet.

    Written without any diracpacket code.  Energies come from 40-digit
    Sommerfeld formulas (the ones criterion 9 uses), the shell window and
    Gaussian weights follow PacketSpec's documented defaults, and the
    two-component spinor is the large-component part of the one in
    packet.py's module docstring with every radial overlap set to 1.
    Distinct shells carry distinct l, so their Y_{l,m} are orthogonal and
    the spin vector is a w^2-weighted sum of per-shell bilinears; the
    common phase e+ of a shell drops out, leaving e-/e+ = exp(i omega t)
    with omega = E+ - E-.
    """
    half = math.ceil(5.0 * sigma_g)
    shells = range(max(2, N - half), N + half + 1)
    with mpmath.workdps(40):
        xi = mpmath.mpf(Z) / mpmath.mpf("137.036")
        omega = []
        for n in shells:
            e_plus = mpmath.sqrt(1 - (xi / n) ** 2)
            d = 1 + mpmath.sqrt((n - 1) ** 2 - xi * xi)
            omega.append(float(e_plus - d / mpmath.sqrt(d * d + xi * xi)))
    n = np.array(shells, dtype=float)
    l = n - 1.0
    w2 = np.exp(-((n - N) ** 2) / (2.0 * sigma_g**2))
    w2 /= w2.sum()
    a = b = math.sqrt(0.5)
    rel = np.exp(1j * np.multiply.outer(times, omega))
    # Spin up carries a Y_{l,l} + up_llm1 Y_{l,l-1}, spin down down_ll Y_{l,l}.
    up_llm1 = b * np.sqrt(2.0 * l) / (2.0 * l + 1.0) * (1.0 - rel)
    down_ll = b * (1.0 + 2.0 * l * rel) / (2.0 * l + 1.0)
    cross = 2.0 * a * down_ll  # 2 conj(up) down = <sigma_x> + i <sigma_y>
    sz = (a * a + np.abs(up_llm1) ** 2 - np.abs(down_ll) ** 2) @ w2
    return cross.real @ w2, cross.imag @ w2, sz


def test_acceptance_07_spin_orbit_pendulum():
    # The n^-5 splitting puts the revival near N/5 = 8 T_ls, where each
    # shell keeps a phase 6 pi (n - N)^2 / N that dephases wide packets, so
    # the 0.8 revival is asked for only at sigma_G = 1.0.  Every row checks
    # the collapse and the whole time series against the reference.
    ts = timescales(92, 40)
    n_lo = 9001
    times = np.concatenate(
        (np.linspace(0.0, 4.5, n_lo), np.linspace(6.0, 10.0, 9001))
    ) * ts.t_ls
    rows = []
    ok = True
    for sigma, need_revival in ((1.0, True), (2.0, False), (2.5, False)):
        tables = build_tables(PacketSpec(Z=92, N=40, sigma_g=sigma))
        lib = spin_expect(tables, times)
        ref = _pauli_spin_reference(92, 40, sigma, times)
        s_lib = np.sqrt(sum(c * c for c in lib))
        s_ref = np.sqrt(sum(c * c for c in ref))
        s0 = float(s_lib[0])
        s_min = float(np.min(s_lib[:n_lo]))
        s_max = float(np.max(s_lib[n_lo:]))
        ref_max = float(np.max(s_ref[n_lo:]))
        dev = max(float(np.max(np.abs(x - y))) for x, y in zip(lib, ref))
        ok = ok and s0 > 0.99 and s_min < 0.3 and dev < 1e-3
        if need_revival:
            ok = ok and s_max > 0.8 * s0
        rows.append(
            f"sigma {sigma}: s0={s0:.4f} min={s_min:.4f} max={s_max:.4f} "
            f"ref max={ref_max:.4f} dev={dev:.1e}"
        )
    report(
        7,
        ok,
        "; ".join(rows) + " (need s0>0.99, min<0.3 over [0, 4.5] T_ls, "
        "dev<1e-3 from the Pauli-limit reference at every sample; "
        "max>0.8*s0 over [6, 10] T_ls at sigma 1.0)",
    )


def test_acceptance_08_radial_closed_forms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(60439)
    worst_overlap = 0.0
    worst_norm = 0.0
    for _ in range(200):
        Z = int(rng.integers(1, 121))
        pair = []
        for _ in range(2):
            l = int(rng.integers(1, 41))
            branch = Branch.J_PLUS if rng.integers(0, 2) else Branch.J_MINUS
            kappa = -(l + 1) if branch is Branch.J_PLUS else l
            n_prime = 0 if branch is Branch.J_PLUS else 1
            while Z * ALPHA >= abs(kappa):
                Z = max(1, Z // 2)
            pair.append((kappa, n_prime))
        states = [state_from_kappa(Z, kappa, n_prime) for kappa, n_prime in pair]
        part = "gg" if rng.integers(0, 2) else "ff"
        cf = overlap_closed_form(states[0], states[1], part)
        quad = overlap_quadrature(states[0], states[1], part)
        worst_overlap = max(worst_overlap, abs(cf - quad) / max(1.0, abs(cf)))
        for state in states:
            norm = overlap_closed_form(state, state, "gg") + overlap_closed_form(
                state, state, "ff"
            )
            worst_norm = max(worst_norm, abs(norm - 1.0))
    sp = make_circular_state(1, 20, Branch.J_PLUS)
    sm = make_circular_state(1, 20, Branch.J_MINUS)
    g_pm = overlap_closed_form(sp, sm, "gg")
    elapsed = time.perf_counter() - t0
    ok = (
        worst_overlap < 1e-10
        and worst_norm < 1e-12
        and abs(g_pm - 1.0) < 1e-4
        and elapsed < 60.0
    )
    report(
        8,
        ok,
        f"closed form vs quadrature off by <= {worst_overlap:.1e} over 200 "
        f"random pairs; G+F-1 <= {worst_norm:.1e}; G_pm(Z=1,l=19)={g_pm:.10f}; "
        f"{elapsed:.1f}s",
    )


def test_acceptance_09_derivative_hierarchy():
    ts = timescales(92, 20)
    ts_avg = timescales(92, 20, branch="averaged")
    with mpmath.workdps(40):
        xi = mpmath.mpf(92) / mpmath.mpf("137.036")

        def e_plus(n):
            return mpmath.sqrt(1 - (xi / n) ** 2)

        def e_avg(n):
            d = mpmath.sqrt((n - 1) ** 2 - xi * xi) + 1
            return (e_plus(n) + d / mpmath.sqrt(d * d + xi * xi)) / 2

        def central(f, x, k, h):
            if k == 1:
                return (f(x + h) - f(x - h)) / (2 * h)
            if k == 2:
                return (f(x + h) - 2 * f(x) + f(x - h)) / h**2
            if k == 3:
                return (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h) - f(x - 2 * h)) / (
                    2 * h**3
                )
            return (
                f(x + 2 * h) - 4 * f(x + h) + 6 * f(x) - 4 * f(x - h) + f(x - 2 * h)
            ) / h**4

        worst = 0.0
        h = mpmath.mpf("1e-3")
        for curve, scales in ((e_plus, ts), (e_avg, ts_avg)):
            for k in range(1, 5):
                fd = (4 * central(curve, 20, k, h) - central(curve, 20, k, 2 * h)) / 3
                analytic = math.factorial(k) * 2.0 * math.pi / scales.t[k]
                worst = max(worst, abs(float(abs(fd)) / analytic - 1.0))
    ok = worst < 1e-6
    report(
        9,
        ok,
        f"analytic d^k E/dn^k (k <= 4, both energy curves) vs Richardson "
        f"finite differences: max rel deviation {worst:.2e} (tol 1e-6)",
    )


def test_acceptance_10_performance(tables_u92_n20):
    ts = timescales(92, 20)
    times = np.linspace(0.0, 10.0, 20000) * ts.t_ls
    t0 = time.perf_counter()
    autocorrelation(tables_u92_n20, times)
    t_auto = time.perf_counter() - t0
    spec = PlaneGridSpec(extent=1.6, resolution=512)
    t0 = time.perf_counter()
    first = density_grid(tables_u92_n20, spec, 1.0e8)
    t_grid = time.perf_counter() - t0
    second = density_grid(tables_u92_n20, spec, 1.0e8)
    identical = (
        first.spin_up.tobytes() == second.spin_up.tobytes()
        and first.spin_down.tobytes() == second.spin_down.tobytes()
    )
    ok = t_auto < 1.0 and t_grid < 10.0 and identical
    report(
        10,
        ok,
        f"20000 autocorrelation samples in {t_auto * 1e3:.0f} ms (< 1 s); "
        f"512x512 grid in {t_grid:.2f} s (< 10 s); "
        f"two calls bitwise identical: {identical}",
    )
