"""Bound-state energies, radial functions, and overlap integrals.

Independent references used here: mpmath at 40-50 digits for energies
and for a from-scratch rebuild of the radial functions, adaptive
quadrature against the closed-form Gamma moments, and low-Z asymptotics.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from diracpacket import (
    Branch,
    PacketSpec,
    PhysicalConstants,
    SupercriticalChargeError,
    binding_energy,
    build_tables,
    eval_radial,
    fine_splitting,
    make_circular_state,
    overlap_closed_form,
    overlap_set,
    state_from_kappa,
)
from diracpacket.constants import ALPHA_DEFAULT
from diracpacket.dirac_coulomb import _overlap, _take
from oracles import overlap_quadrature

ALPHA = 1.0 / 137.036
EPS = np.finfo(float).eps


def _sommerfeld_energy(xi, n_prime: int, kappa: int):
    d = n_prime + mp.sqrt(kappa * kappa - xi * xi)
    return d / mp.sqrt(d * d + xi * xi)


def test_make_circular_state_labels():
    # j_plus at shell n is (kappa = -n, n' = 0), j_minus is (kappa = n - 1, n' = 1)
    for n, branch, kappa, n_prime in [
        (1, Branch.J_PLUS, -1, 0),
        (4, Branch.J_PLUS, -4, 0),
        (4, Branch.J_MINUS, 3, 1),
    ]:
        st = make_circular_state(92, n, branch)
        assert (st.n, st.l, st.branch, st.kappa, st.n_prime) == (
            n, n - 1, branch, kappa, n_prime
        )
    with pytest.raises(ValueError, match="j_minus partner needs l >= 1"):
        make_circular_state(92, 1, Branch.J_MINUS)
    with pytest.raises(ValueError, match="require n >= 1"):
        make_circular_state(92, 0, Branch.J_PLUS)
    with pytest.raises(ValueError, match="unknown branch"):
        make_circular_state(92, 4, "j_plus")
    with pytest.raises(ValueError, match="Z >= 1"):
        make_circular_state(True, 3, Branch.J_PLUS)
    with pytest.raises(ValueError, match="require n >= 1"):
        make_circular_state(92, True, Branch.J_PLUS)


def test_ground_state_energy_sommerfeld():
    # 1s: E = sqrt(1 - xi^2) exactly
    xi = 92.0 * ALPHA
    energy = state_from_kappa(92, -1, 0).energy
    assert energy == pytest.approx(math.sqrt(1.0 - xi * xi), rel=1e-15)


def test_energy_against_mpmath():
    """Sommerfeld formula at 50 digits for a sweep of states."""
    with mp.workdps(50):
        for Z in (1, 29, 92, 118):
            xi = mp.mpf(Z) / mp.mpf("137.036")
            for kappa, n_prime in [(-1, 0), (-5, 0), (4, 1), (-20, 0), (19, 1)]:
                gamma = mp.sqrt(kappa * kappa - xi * xi)
                d = n_prime + gamma
                ref = float(d / mp.sqrt(d * d + xi * xi))
                assert state_from_kappa(Z, kappa, n_prime).energy == pytest.approx(ref, rel=1e-15)


def test_binding_energy_no_cancellation():
    """E - 1 straight from the stable rewrite, against extended precision.

    At Z = 1, n = 20 the binding is ~6.7e-8, so forming E - 1
    in doubles would throw away half the digits; the dedicated routine
    must not.
    """
    with mp.workdps(50):
        xi = mp.mpf(1) / mp.mpf("137.036")
        gamma = mp.sqrt(400 - xi * xi)
        ref = float(gamma / mp.sqrt(gamma * gamma + xi * xi) - 1)
    assert binding_energy(1, 0, -20) == pytest.approx(ref, rel=1e-13)
    # Bohr value -xi^2/2n^2 is the leading term
    bohr = -(ALPHA**2) / (2.0 * 400.0)
    assert binding_energy(1, 0, -20) == pytest.approx(bohr, rel=1e-4)


def test_binding_energy_bohr_limit():
    # with a tiny coupling the Dirac binding collapses onto -xi^2/2n^2
    weak = PhysicalConstants(alpha=1e-6)
    for n in (2, 7, 15):
        got = binding_energy(1, 0, -n, constants=weak)
        assert got == pytest.approx(-1e-12 / (2.0 * n * n), rel=1e-11)


@pytest.mark.parametrize(
    "kwargs",
    [{"alpha": 0.0}, {"alpha": 0.01}, {"alpha": math.nan}],
)
def test_physical_constants_reject_a_units_mistake(kwargs):
    (name,) = kwargs
    with pytest.raises(ValueError, match=name):
        PhysicalConstants(**kwargs)


def test_energy_ordering_j_plus_above_j_minus():
    """E(j+) >= E(j-), strictly whenever a double can resolve the gap.

    At Z = 1, n = 41 the splitting is ~1e-17, under the spacing of
    doubles near 1.0, and the two energies round to the same float; that
    degeneracy is the reason the dedicated splitting routine exists.
    """
    for Z in (1, 47, 92):
        for n in (2, 5, 20, 41):
            e_plus = make_circular_state(Z, n, Branch.J_PLUS).energy
            e_minus = make_circular_state(Z, n, Branch.J_MINUS).energy
            assert 0.0 < e_minus <= e_plus < 1.0
            if fine_splitting(Z, n) > 1e-13:
                assert e_minus < e_plus


def test_fine_splitting_frozen_reference():
    """Frozen mpmath (dps = 50) values for the shell splitting.

    3.3443771605091384769e-8 at (92, 20) and 4.6639917691464517525e-16
    at (1, 20), both computed from the Sommerfeld difference at 50
    digits.
    """
    assert fine_splitting(92, 20) == pytest.approx(3.3443771605091384769e-08, rel=1e-12)
    assert fine_splitting(1, 20) == pytest.approx(4.6639917691464517525e-16, rel=1e-12)


def test_fine_splitting_matches_mpmath_sweep():
    with mp.workdps(50):
        for Z in (1, 10, 55, 92, 110):
            for N in (2, 3, 10, 20, 47):
                xi = mp.mpf(Z) / mp.mpf("137.036")
                gp = mp.sqrt(N * N - xi * xi)
                gm = mp.sqrt((N - 1) ** 2 - xi * xi)
                dm = gm + 1
                ep = gp / mp.sqrt(gp * gp + xi * xi)
                em = dm / mp.sqrt(dm * dm + xi * xi)
                ref = float(ep - em)
                assert fine_splitting(Z, N) == pytest.approx(ref, rel=1e-12)


def test_naive_subtraction_loses_digits():
    """The naive double-precision difference is the wrong way to get this.

    At Z = 92 it still carries ~9 good digits (the splitting sits 1.4e-8
    below E, so half the mantissa survives).  At Z = 1 the splitting is
    at 4.7e-16 while E is ~1, and the subtraction returns garbage: a
    4.8 percent error against the exact value, far outside any physics
    tolerance.
    """
    naive_92 = state_from_kappa(92, -20, 0).energy - state_from_kappa(92, 19, 1).energy
    exact_92 = fine_splitting(92, 20)
    assert abs(naive_92 / exact_92 - 1.0) < 1e-7
    assert abs(naive_92 / exact_92 - 1.0) > 1e-12  # digits really were lost

    naive_1 = state_from_kappa(1, -20, 0).energy - state_from_kappa(1, 19, 1).energy
    exact_1 = fine_splitting(1, 20)
    assert abs(naive_1 / exact_1 - 1.0) > 0.01


def test_fine_splitting_leading_order_ratio():
    # exact / leading -> N / (N - 1) at weak coupling, approaching 1 in N;
    # the leading order xi^4 / (2 N^5) is quartic in xi = Z alpha
    for N in (5, 10, 20, 40):
        ratio = fine_splitting(1, N) / (ALPHA**4 / (2.0 * N**5))
        assert ratio == pytest.approx(N / (N - 1.0), rel=1e-3)
    assert fine_splitting(1, 200) / (ALPHA**4 / (2.0 * 200**5)) < 1.006


def test_supercritical_rejected():
    # Z alpha crosses |kappa| = 1 just above Z = 137
    with pytest.raises(SupercriticalChargeError) as excinfo:
        fine_splitting(138, 2)
    msg = str(excinfo.value)
    assert "138" in msg and "supercritical" in msg
    assert excinfo.value.Z == 138
    with pytest.raises(SupercriticalChargeError):
        make_circular_state(138, 2, Branch.J_MINUS)
    # the j_plus partner of the same shell has |kappa| = 2 and survives
    assert make_circular_state(138, 2, Branch.J_PLUS).energy > 0.0


def test_norm_split_between_components():
    """<g|g> = (1 + E)/2 and <f|f> = (1 - E)/2, exactly, for every state.

    This is the cleanest invariant of the normalization: total norm 1
    with the small component carrying (1 - E)/2.
    """
    for Z, n, branch in [
        (92, 2, Branch.J_PLUS),
        (92, 2, Branch.J_MINUS),
        (92, 20, Branch.J_PLUS),
        (92, 20, Branch.J_MINUS),
        (1, 20, Branch.J_MINUS),
        (118, 3, Branch.J_MINUS),
    ]:
        st = make_circular_state(Z, n, branch)
        gg = overlap_closed_form(st, st, "gg")
        ff = overlap_closed_form(st, st, "ff")
        assert gg == pytest.approx(0.5 * (1.0 + st.energy), rel=1e-13)
        assert ff == pytest.approx(0.5 * (1.0 - st.energy), rel=1e-13)
        assert gg + ff == pytest.approx(1.0, abs=1e-13)


def test_same_state_integrals_match_50_digit_energies():
    """The tables' f+-, g+- against (1 -+ E)/2 of 50-digit Sommerfeld energies.

    The reference takes the library's double xi = Z alpha.  The bound is the
    operation count of the binding energy E - 1 = -xi^2 / (N (d + N)), in
    units of u = eps / 2: gamma = sqrt((k - xi)(k + xi)) is off by at most
    2.5 u, d = n' + gamma by 3.5 u, N = hypot(d, xi) by 5.5 u (hypot within
    one ulp), d + N by 6.5 u, N (d + N) by 13 u and the quotient by 15 u.
    f = -(E - 1)/2 halves exactly and keeps 15 u; g = 1 - f adds one
    rounding, and |f| <= g, so g is off by at most 16 u.  The moment
    formula that the tables used before grew to n^2 eps: 6.9e-14 at
    (1, 800) on the j- partner.
    """
    for Z in (1, 30, 92, 137):
        tables = build_tables(PacketSpec(Z=Z, N=401, window=(2, 800)))
        n = tables.weights.n.tolist()
        with mp.workdps(50):
            xi = mp.mpf(Z * ALPHA_DEFAULT)
            energies = {
                "plus": [_sommerfeld_energy(xi, 0, -shell) for shell in n],
                "minus": [_sommerfeld_energy(xi, 1, shell - 1) for shell in n],
            }
            for partner, energy in energies.items():
                for part, sign, units in (("f", -1, 15), ("g", 1, 16)):
                    got = getattr(tables, f"{part}_{partner}")
                    ref = np.array([float((1 + sign * e) / 2) for e in energy])
                    worst = float(np.max(np.abs(got / ref - 1.0)))
                    assert worst <= units * EPS / 2, (Z, part, partner, worst)


def test_norm_split_by_quadrature():
    for Z, n, branch in [(92, 4, Branch.J_PLUS), (92, 4, Branch.J_MINUS)]:
        st = make_circular_state(Z, n, branch)
        gg = overlap_quadrature(st, st, "gg")
        ff = overlap_quadrature(st, st, "ff")
        assert gg == pytest.approx(0.5 * (1.0 + st.energy), abs=1e-11)
        assert ff == pytest.approx(0.5 * (1.0 - st.energy), abs=1e-11)


def test_radial_rows_overlap_with_themselves_to_the_norm_split():
    """_overlap of a tables.rows row with itself against 50-digit (1 +- E)/2.

    overlap_closed_form takes a state's norms from its energy, so this is
    what checks the log prefactors of the radial rows against the
    normalization.  The exponent of _overlap sums about 16 terms: the two
    log prefactors, each 1.5 L, lgamma(c), half of lgamma(c + n'), ln 4,
    log N, log beta and log(1 +- E), with L = log(2 lambda) and c = 2 gamma + 1,
    then 2 (gamma - 1) L, lgamma(2 gamma + 1) and (2 gamma + 1) L.  With S the
    sum of their magnitudes, each term is off by at most 2 u |term| (its
    function and one product) and each addition by u S, so the exponent is
    off by at most 18 u S absolute, u = eps / 2; the exponential, the
    polynomial bracket and its product add under 10 eps relative.
    """
    for Z in (1, 30, 92, 137):
        tables = build_tables(PacketSpec(Z=Z, N=21, window=(2, 40)))
        rows = tables.rows
        labels = [(0, -n) for n in tables.weights.n.tolist()]
        labels += [(1, n - 1) for n in tables.weights.n.tolist()]
        xi = mp.mpf(Z * ALPHA_DEFAULT)
        for i, (n_prime, kappa) in enumerate(labels):
            row = _take(rows, slice(i, i + 1))
            gamma, lam = float(row.gamma[0]), float(row.lam[0])
            log_2lam, c = abs(math.log(2.0 * lam)), 2.0 * gamma + 1.0
            big_n = Z * ALPHA_DEFAULT / lam
            with mp.workdps(50):
                energy = _sommerfeld_energy(xi, n_prime, kappa)
            for part, side in (("gg", 1 + energy), ("ff", 1 - energy)):
                ref = float(side / 2)
                magnitude = 2.0 * (
                    1.5 * log_2lam
                    + math.lgamma(c)
                    + 0.5 * (
                        math.lgamma(c + n_prime)
                        + math.log(4.0)
                        + abs(math.log(big_n))
                        + abs(math.log(big_n - kappa))
                        + abs(math.log(float(side)))
                    )
                )
                magnitude += (2.0 * abs(gamma - 1.0) + c) * log_2lam + math.lgamma(c)
                got = float(_overlap(row, row, part)[0])
                assert abs(got / ref - 1.0) <= EPS * (9.0 * magnitude + 10.0), (Z, i, part)


def test_closed_form_matches_quadrature_random_pairs():
    """Gamma-moment overlaps against adaptive quadrature, mixed pairs."""
    rng = np.random.default_rng(42)
    branches = (Branch.J_PLUS, Branch.J_MINUS)
    for _ in range(60):
        Z = int(rng.integers(1, 110))
        na = int(rng.integers(2, 30))
        nb = int(rng.integers(2, 30))
        a = make_circular_state(Z, na, branches[int(rng.integers(0, 2))])
        b = make_circular_state(Z, nb, branches[int(rng.integers(0, 2))])
        for part in ("gg", "ff"):
            cf = overlap_closed_form(a, b, part)
            quad = overlap_quadrature(a, b, part)
            assert abs(cf - quad) <= 1e-10 * max(1.0, abs(cf))


def test_overlap_set_fields():
    sp = make_circular_state(92, 20, Branch.J_PLUS)
    sm = make_circular_state(92, 20, Branch.J_MINUS)
    ov = overlap_set(sp, sm)
    assert ov.g_plus == pytest.approx(overlap_closed_form(sp, sp, "gg"), rel=1e-15)
    assert ov.g_minus == pytest.approx(overlap_closed_form(sm, sm, "gg"), rel=1e-15)
    assert ov.g_pm == pytest.approx(overlap_closed_form(sp, sm, "gg"), rel=1e-15)
    assert ov.f_plus == pytest.approx(overlap_closed_form(sp, sp, "ff"), rel=1e-15)
    assert ov.f_minus == pytest.approx(overlap_closed_form(sm, sm, "ff"), rel=1e-15)


def test_nonrelativistic_overlap_limit():
    # at Z = 1 the two l = 19 partners have nearly identical g, so the
    # cross integral sits within 1e-4 of unity (it is 1 - O(xi^2/n^2))
    sp = make_circular_state(1, 20, Branch.J_PLUS)
    sm = make_circular_state(1, 20, Branch.J_MINUS)
    g_pm = overlap_set(sp, sm).g_pm
    assert abs(g_pm - 1.0) < 1e-4
    assert g_pm < 1.0


def test_same_kappa_orthogonality():
    """States sharing kappa but differing in node count are orthogonal.

    The full inner product needs both components: <a|b> = <g_a|g_b> +
    <f_a|f_b> = 0.  Neither piece vanishes alone, so this exercises the
    relative sign and normalization of g against f rather sharply.
    """
    for Z, kappa in [(92, -5), (92, -20), (29, -3), (1, -10)]:
        a = state_from_kappa(Z, kappa, 0)
        b = state_from_kappa(Z, kappa, 1)
        gg = overlap_quadrature(a, b, "gg")
        ff = overlap_quadrature(a, b, "ff")
        # gg alone is nonzero (though at Z = 1 it shrinks to ~5e-8,
        # since the nonrelativistic same-l states are orthogonal on
        # their own); the f contribution must cancel it
        assert abs(gg) > 1e-8
        assert abs(gg + ff) < 1e-12


def test_component_sign_structure():
    # nodeless states: g positive everywhere, f negative everywhere
    st = make_circular_state(92, 6, Branch.J_PLUS)
    r = np.geomspace(0.1, 400.0, 40)
    g, f = eval_radial(st, r)
    assert np.all(g > 0.0)
    assert np.all(f < 0.0)


def test_radial_functions_against_mpmath():
    """Rebuild g and f from the textbook formula at 40 digits.

    norm = (2 lam)^(3/2) / Gamma(2 gamma + 1)
           * sqrt((1 +- E) Gamma(2 gamma + 1 + n') / (4 N (N - kappa) n'!))
    g(r) = +norm_+ e^(-lam r) (2 lam r)^(gamma-1)
           [ (N - kappa) M(-n', 2g+1, 2 lam r) - n' M(1-n', 2g+1, 2 lam r) ]
    f(r) = -norm_- e^(-lam r) (2 lam r)^(gamma-1)
           [ (N - kappa) M(-n', 2g+1, 2 lam r) + n' M(1-n', 2g+1, 2 lam r) ]

    The package flips the overall phase of one-node states so that g > 0
    at large r; the comparison below recovers that global sign and then
    demands pointwise agreement of both components with the same sign.
    """
    cases = [
        (92, 20, Branch.J_PLUS, 1.0),
        (92, 20, Branch.J_MINUS, -1.0),
        (29, 5, Branch.J_MINUS, -1.0),
        (1, 3, Branch.J_PLUS, 1.0),
    ]
    with mp.workdps(40):
        for Z, n, branch, expected_sign in cases:
            st = make_circular_state(Z, n, branch)
            xi = mp.mpf(Z) / mp.mpf("137.036")
            kappa = st.kappa
            n_prime = st.n_prime
            gamma = mp.sqrt(kappa * kappa - xi * xi)
            d = n_prime + gamma
            big_n = mp.sqrt(d * d + xi * xi)
            energy = d / big_n
            lam = xi / big_n
            c = 2 * gamma + 1
            common = (
                (2 * lam) ** mp.mpf(1.5)
                / mp.gamma(c)
                * mp.sqrt(
                    mp.gamma(c + n_prime)
                    / (4 * big_n * (big_n - kappa) * mp.factorial(n_prime))
                )
            )
            peak = float((st.gamma + 1.0) / st.lam)
            radii = [0.05 * peak, 0.3 * peak, peak, 2.5 * peak, 5.0 * peak]
            for r in radii:
                x = 2 * lam * mp.mpf(r)
                shape = mp.e ** (-x / 2) * x ** (gamma - 1)
                m0 = mp.hyp1f1(-n_prime, c, x)
                m1 = mp.hyp1f1(1 - n_prime, c, x)
                g_ref = float(
                    common
                    * mp.sqrt(1 + energy)
                    * shape
                    * ((big_n - kappa) * m0 - n_prime * m1)
                )
                f_ref = float(
                    -common
                    * mp.sqrt(1 - energy)
                    * shape
                    * ((big_n - kappa) * m0 + n_prime * m1)
                )
                g_got, f_got = eval_radial(st, r)
                assert g_got == pytest.approx(expected_sign * g_ref, rel=1e-11)
                assert f_got == pytest.approx(expected_sign * f_ref, rel=1e-11)


def test_eval_radial_domains():
    st = make_circular_state(92, 20, Branch.J_PLUS)
    with pytest.raises(ValueError):
        eval_radial(st, 0.0)
    with pytest.raises(ValueError):
        eval_radial(st, -1.0)
    with pytest.raises(ValueError):
        eval_radial(st, np.array([1.0, math.inf]))
    with pytest.raises(ValueError, match="at least one radius"):
        eval_radial(st, np.array([]))
    # huge radii underflow to zero instead of raising
    g, f = eval_radial(st, 1e9)
    assert g == 0.0 and f == 0.0


def test_overlap_input_validation():
    a = make_circular_state(92, 5, Branch.J_PLUS)
    b = make_circular_state(91, 5, Branch.J_PLUS)
    with pytest.raises(ValueError):
        overlap_closed_form(a, b, "gg")
    with pytest.raises(ValueError):
        overlap_quadrature(a, b, "gg")
    with pytest.raises(ValueError):
        overlap_closed_form(a, a, "gf")
    with pytest.raises(ValueError):
        overlap_quadrature(a, a, "gf")
    with pytest.raises(ValueError, match="one orbital level"):
        overlap_set(a, make_circular_state(92, 6, Branch.J_MINUS))


def test_state_from_kappa_validation():
    with pytest.raises(ValueError):
        state_from_kappa(92, 3, 0)  # positive kappa needs a node
    with pytest.raises(ValueError):
        state_from_kappa(92, -3, 2)  # only zero- and one-node states exist here
    with pytest.raises(SupercriticalChargeError):
        state_from_kappa(138, -1, 0)
    # A bool or a float is not an integer label, wherever a label enters.
    with pytest.raises(ValueError, match="Z >= 1"):
        fine_splitting(True, 5)
    with pytest.raises(ValueError, match="n_prime >= 0"):
        binding_energy(92, 0.5, -1)
    with pytest.raises(ValueError, match="0 <= n_prime <= 1"):
        state_from_kappa(92, -3, True)
    with pytest.raises(ValueError, match="kappa must be a nonzero integer"):
        state_from_kappa(92, True, 1)
