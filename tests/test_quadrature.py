"""Adaptive Gauss-Legendre integrator behavior."""

import math

import numpy as np
import pytest

from oracles import QuadratureAccuracyError, integrate_adaptive


def test_polynomial_exact_in_one_panel():
    # degree 29 is exact for a 15-point rule, so no refinement happens
    result = integrate_adaptive(lambda x: x**29, 0.0, 1.0)
    assert result == pytest.approx(1.0 / 30.0, rel=1e-14)


def test_oscillatory_integrand():
    result = integrate_adaptive(np.cos, 0.0, 50.0, abs_tol=1e-13)
    assert abs(result - math.sin(50.0)) < 1e-12


def test_decaying_exponential():
    lam = 0.67
    upper = 200.0
    result = integrate_adaptive(lambda r: np.exp(-lam * r), 0.0, upper)
    assert result == pytest.approx(1.0 / lam, rel=1e-13)


def test_gamma_moment():
    """r^s exp(-r) moments reproduce Gamma(s+1).

    The tolerance is absolute, so it has to scale with the answer
    (Gamma(12) is about 4e7; asking for 1e-13 absolute there would sit
    below float resolution).
    """
    for s in [2.0, 6.3, 11.0]:
        exact = math.gamma(s + 1.0)
        result = integrate_adaptive(
            lambda r, s=s: r**s * np.exp(-r), 0.0, 120.0, abs_tol=1e-12 * exact
        )
        assert result == pytest.approx(exact, rel=1e-12)


def test_fractional_moment():
    """Fractional power at the origin, the shape the radial overlaps have.

    The weakest exponent a physical integrand produces here is about
    r^1.37 (two gamma factors at high Z plus the r^2 measure), for which
    bisection reaches full tolerance comfortably inside the depth limit.
    """
    result = integrate_adaptive(
        lambda r: r**1.4 * np.exp(-r), 0.0, 120.0, abs_tol=1e-13
    )
    assert result == pytest.approx(math.gamma(2.4), rel=1e-13)


def test_abs_tol_is_absolute():
    # a large prefactor must not be silently divided out
    big = 1e8
    result = integrate_adaptive(lambda x: big * np.sin(x), 0.0, math.pi, abs_tol=1e-6)
    assert abs(result - 2.0 * big) < 1e-5


def test_depth_limit_raises_with_residual():
    with pytest.raises(QuadratureAccuracyError) as excinfo:
        integrate_adaptive(
            lambda x: 1.0 / np.sqrt(np.abs(x - 1.0 / math.sqrt(2.0))),
            0.0,
            1.0,
            abs_tol=1e-15,
            max_depth=6,
        )
    assert excinfo.value.residual > 0.0
    assert math.isfinite(excinfo.value.residual)


def test_interior_inverse_root_never_converges():
    """1/sqrt|x - c| defeats the halving tolerance shares at any setting.

    Its panel error decays like 2^(-d/2) while the local share decays
    like 2^(-d), so the integrator correctly refuses rather than
    returning an unconverged value.
    """
    with pytest.raises(QuadratureAccuracyError):
        integrate_adaptive(
            lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, abs_tol=1e-6
        )


def test_bad_interval_rejected():
    with pytest.raises(ValueError):
        integrate_adaptive(np.cos, 1.0, 0.0)
