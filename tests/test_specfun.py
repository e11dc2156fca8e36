"""Checks for the spherical harmonics.

Reference values come from scipy.special and a few frozen literals
computed with mpmath at 50 digits.
"""

import math

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
