"""Checks for the spherical harmonics.

Reference values come from scipy.special, mpmath at 80 digits near the
poles, and a few frozen literals computed with mpmath at 50 digits.
"""

import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special

from diracpacket import legendre_norm, sph_harm


def test_y00_constant():
    val = 1.0 / math.sqrt(4.0 * math.pi)
    for theta in [0.0, 0.3, math.pi / 2, 2.9]:
        y = sph_harm(0, 0, theta, 1.1)
        assert abs(y - 0.28209479177387814) < 1e-16
        assert abs(y.real - val) < 1e-16
        assert y.imag == 0.0


def test_y11_sign_convention():
    """Y_{1,1}(pi/2, 0) = -sqrt(3/8pi): the m > 0 harmonic is negative real
    on the +x axis under the Condon-Shortley convention."""
    y = sph_harm(1, 1, math.pi / 2, 0.0)
    assert abs(y.real + 0.3454941494713355) < 1e-15
    assert abs(y.imag) < 1e-16
    assert abs(y.real + math.sqrt(3.0 / (8.0 * math.pi))) < 1e-15


def test_y10_pole_value():
    assert abs(sph_harm(1, 0, 0.0, 0.0) - math.sqrt(3.0 / (4.0 * math.pi))) < 1e-15


def test_pole_value_is_zero_for_m_above_zero():
    """sin(0) = 0 is the one angle where the seed sin(theta)^m is exactly 0."""
    for l, m in [(1, 1), (7, 3), (300, 300)]:
        assert legendre_norm(l, m, 0.0) == 0.0
        assert sph_harm(l, -m, 0.0, 0.4) == 0.0


_U = 2.0**-53  # unit roundoff of a double


def _pole_bound(l: int, m: int, theta: float, value) -> float:
    """Relative error bound of legendre_norm(l, m, theta) where (l + 1/2) theta
    <= 1 from one pole, with n = l - m + 1 recurrence values.

    - Seed: libm's sin, log and lgamma are within a few ulps, so each term
      of the exponent, m ln sin(theta) among them, is off by at most 8u
      times its size.  exp turns that absolute error of the exponent (the
      running scale, about ln|value| but for the mantissa of at most 1e140)
      into the same relative error.
    - Recurrence: a step rounds a and b (a division and a square root, 1.5u
      each), x p, b p', their difference and the product with a: at most
      6u of a (|x p| + b |p'|).  Near a pole P~ grows with l and b < 1/2,
      so that sum is at most 3 |p_l|.  At x = +-1 and m = 0 the second
      solution of the recurrence is the harmonic numbers H_l, so an error
      made at step k reaches l multiplied by k (H_l - H_(k-1)) <= k ln(l/k)
      + 1, which sums to about l^2/4 + l.  Taken as n^2 + 3n, a third more
      for |x| < 1 (m > 0 only shrinks it): 6u * (n^2 + 3n).
    - Input: x = cos(theta) is within u of the cosine near +-1, and the
      logarithmic derivative of P~ at x = +-1 is (l - m)(l + m + 1) /
      (2 (m + 1)) <= n^2 / 2, at most 1.21 times larger this far poleward
      of the first zero, at theta >= 2.4 / (l + 1/2): u n^2.
    """
    s = abs(math.sin(theta))
    terms = (
        math.log(2 * m + 1) + math.log(4.0 * math.pi) + math.lgamma(2 * m + 1)
        + 2 * m * math.log(2.0) + 2 * math.lgamma(m + 1)
        + m * (1.0 + 2.0 * abs(math.log(s)))
        + abs(float(mp.log(abs(value)))) + 140.0 * math.log(10.0)
    )
    n = l - m + 1
    return _U * (8.0 * terms + 7.0 * n * n + 18.0 * n)


def test_accuracy_near_the_poles():
    """legendre_norm and sph_harm against mpmath at 80 digits, within theta
    <= 1/(l + 1/2) of either pole and at theta = pi, whose sine is 1.2e-16.

    sin(theta) taken as sqrt(1 - cos^2) loses digits to cancellation there:
    4.1e-9 relative error at (10, 3, 1e-4), far past the bound.  Values
    under 1e-150 are left out: their seed may leave the normal doubles.
    """
    phi = 0.7
    seen = 0
    with mp.workdps(80):
        for l, m in [(1, 1), (2, 1), (10, 0), (10, 3), (10, 10), (40, 1), (40, 20),
                     (200, 0), (200, 20), (500, 1), (500, 50)]:
            thetas = [math.pi]
            for eps in (1e-12, 1e-8, 1e-6, 1e-4, 1e-3):
                if (l + 0.5) * eps <= 1.0:
                    thetas += [eps, math.pi - eps]
            for theta in thetas:
                ref = mp.spherharm(l, m, theta, 0).real
                if abs(ref) < 1e-150:
                    continue
                seen += 1
                bound = _pole_bound(l, m, theta, ref)
                got = legendre_norm(l, m, theta)
                assert abs((got - ref) / ref) <= bound, (l, m, theta)
                # exp(i m phi) adds its phase's rounding, u m phi, and a few u.
                for mm in (m, -m):
                    y = sph_harm(l, mm, theta, phi)
                    y_ref = mp.spherharm(l, mm, theta, phi)
                    rel = abs((y - y_ref) / y_ref)
                    assert rel <= bound + _U * (m * phi + 6.0), (l, mm, theta)
    assert seen >= 80


def test_recurrence_rescale():
    """(800, 400) grows 7e152-fold from its seed at 0.3 rad from either pole,
    so its mantissa passes the 1e140 rescale once.

    The seed's exponent cancels lgamma terms near 9,100 down to -487, so 8u
    of each (as in _pole_bound) is 8.1e-12 relative; sin(theta) < m / l
    there, where P~ is the recurrence's dominant solution and its 400 steps
    add at most 18u each, 1.6e-12 more.
    """
    with mp.workdps(80):
        for theta in (0.3, math.pi - 0.3):
            ref = mp.spherharm(800, 400, theta, 0).real
            assert abs(ref / mp.spherharm(400, 400, theta, 0).real) > 1e140
            assert abs((legendre_norm(800, 400, theta) - ref) / ref) <= 1e-11


def test_negative_m_conjugation():
    """Y_{l,-m} = (-1)^m conj(Y_{l,m})."""
    rng = np.random.default_rng(11)
    for _ in range(60):
        l = int(rng.integers(1, 13))
        m = int(rng.integers(1, l + 1))
        theta = float(rng.uniform(0.05, math.pi - 0.05))
        phi = float(rng.uniform(-math.pi, math.pi))
        lhs = sph_harm(l, -m, theta, phi)
        rhs = (-1.0) ** m * sph_harm(l, m, theta, phi).conjugate()
        assert abs(lhs - rhs) < 1e-14


def test_magnitude_independent_of_phi():
    for phi in np.linspace(-3.0, 3.0, 7):
        assert abs(sph_harm(5, 3, 1.0, float(phi))) == pytest.approx(
            abs(sph_harm(5, 3, 1.0, 0.0)), rel=1e-14
        )


def test_matches_scipy_moderate_l():
    rng = np.random.default_rng(23)
    for _ in range(80):
        l = int(rng.integers(0, 40))
        m = int(rng.integers(-l, l + 1)) if l else 0
        theta = float(rng.uniform(0.01, math.pi - 0.01))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        mine = sph_harm(l, m, theta, phi)
        ref = complex(scipy.special.sph_harm_y(l, m, theta, phi))
        assert abs(mine - ref) <= 1e-11 * max(1.0, abs(ref))


def test_legendre_is_theta_part():
    # sph_harm must reduce to legendre_norm at phi = 0 for m >= 0
    for l, m in [(3, 0), (3, 2), (19, 19), (60, 59)]:
        theta = 0.9
        assert sph_harm(l, m, theta, 0.0).real == pytest.approx(
            legendre_norm(l, m, theta), rel=1e-15
        )


@pytest.mark.parametrize("l,m", [(6, 4), (60, 59), (100, 99), (100, 100), (180, 179)])
def test_unit_norm_on_sphere(l, m):
    """Integral of |Y_lm|^2 over the sphere equals 1.

    |Y| has no phi dependence, so the phi integral contributes 2*pi and a
    Gauss-Legendre rule in cos(theta) does the rest exactly (the integrand
    is a polynomial of degree 2l in cos theta).
    """
    nodes = max(256, l + 8)
    x, w = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for xi, wi in zip(x, w):
        p = legendre_norm(l, m, math.acos(float(xi)))
        total += float(wi) * p * p
    assert abs(2.0 * math.pi * total - 1.0) < 1e-10


def test_high_order_no_underflow():
    """Near-sectoral values at l = 100 stay finite and correctly scaled.

    A naive (2m-1)!! seed overflows around m = 150 and the unscaled
    product sin(theta)^m underflows long before that; the log-space seed
    must survive both."""
    for theta in [1.0, math.pi / 3, 0.4]:
        val = legendre_norm(100, 99, theta)
        assert math.isfinite(val)
        assert val != 0.0
        ref = float(scipy.special.sph_harm_y(100, 99, theta, 0.0).real)
        assert val == pytest.approx(ref, rel=1e-10)
    # parity: l - m odd means a zero on the equator (up to rounding in cos)
    assert abs(legendre_norm(100, 99, math.pi / 2)) < 1e-14


def test_domain_errors():
    with pytest.raises(ValueError):
        legendre_norm(3, 4, 1.0)
    with pytest.raises(ValueError):
        legendre_norm(3, -1, 1.0)
    with pytest.raises(ValueError):
        sph_harm(-1, 0, 1.0, 0.0)
    with pytest.raises(ValueError):
        sph_harm(2, 3, 1.0, 0.0)
