"""Spherical harmonics that stay accurate up to l of a few hundred.

Spherical harmonics use the Condon-Shortley phase convention,

    Y_{l,m}(theta, phi) = Ptilde_l^m(cos theta) * exp(i m phi),   m >= 0,
    Y_{l,-m} = (-1)^m conj(Y_{l,m}),

where Ptilde includes the full orthonormalization
sqrt((2l+1)/(4 pi) * (l-m)!/(l+m)!) and the (-1)^m phase.  The diagonal
seed Ptilde_m^m is formed in log space and the upward three-term
recurrence carries an explicit scale exponent, so high-(l, m) values
evaluate near the poles without intermediate under- or overflow.
"""

from __future__ import annotations

import cmath
import math

_LN_4PI = math.log(4.0 * math.pi)
_LN2 = math.log(2.0)
_LN10 = math.log(10.0)

# Mantissas in the Legendre recurrence are renormalized past this magnitude.
_RESCALE_THRESHOLD = 1e140


def legendre_norm(l: int, m: int, theta: float) -> float:
    """Orthonormalized associated Legendre function Ptilde_l^m(cos theta).

    Includes the spherical-harmonic normalization and the Condon-Shortley
    (-1)^m, so sph_harm(l, m, theta, phi) == legendre_norm(l, m, theta)
    * exp(i m phi) for m >= 0.  Only m >= 0 is accepted here.

    The value is built from a log-space diagonal seed

        ln |Ptilde_m^m| = (1/2) [ ln(2m+1) - ln(4 pi)
                                  + lgamma(2m+1) - 2m ln 2 - 2 lgamma(m+1) ]
                          + m ln sin(theta)

    followed by the standard upward recurrence in l with normalized
    coefficients; the running scale exponent keeps mantissas bounded.

    sin(theta) comes from math.sin, not from sqrt(1 - cos^2), which cancels
    near the poles (4e-9 relative error at (10, 3, 1e-4)).  There the error
    is the recurrence's and that of rounding cos(theta), each at most of
    order (l - m)^2 ulps: 2e-14 at (500, 50, 1e-3), and 6e-12 at
    (500, 0, 1e-8), whose cosine rounds to 1.  Only theta = 0 gives 0 for
    m > 0; the double nearest pi is 1.2e-16 short of the pole.
    """
    if l < 0 or m < 0 or m > l:
        raise ValueError(f"require 0 <= m <= l, got l={l!r}, m={m!r}")
    x = math.cos(theta)
    s = abs(math.sin(theta))

    if m == 0:
        sign = 1.0
        log_seed = -0.5 * _LN_4PI
    else:
        if s == 0.0:
            return 0.0
        sign = -1.0 if (m & 1) else 1.0
        log_seed = 0.5 * (
            math.log(2.0 * m + 1.0)
            - _LN_4PI
            + math.lgamma(2.0 * m + 1.0)
            - 2.0 * m * _LN2
            - 2.0 * math.lgamma(m + 1.0)
        ) + m * math.log(s)

    p_prev = 0.0
    p = 1.0
    scale = log_seed
    for ll in range(m + 1, l + 1):
        a = math.sqrt((4.0 * ll * ll - 1.0) / (ll * ll - m * m))
        b = math.sqrt(((ll - 1.0) ** 2 - m * m) / (4.0 * (ll - 1.0) ** 2 - 1.0))
        p, p_prev = a * (x * p - b * p_prev), p
        if abs(p) > _RESCALE_THRESHOLD:
            p *= 1e-140
            p_prev *= 1e-140
            scale += 140.0 * _LN10
    return sign * p * math.exp(scale)


def sph_harm(l: int, m: int, theta: float, phi: float) -> complex:
    """Spherical harmonic Y_{l,m}(theta, phi), Condon-Shortley phase.

    Stable for l up to a few hundred at any angle, the poles included (see
    legendre_norm); values that are truly subnormal (far under the seed
    scale near the poles) flush to zero.
    """
    mm = abs(m)
    p = legendre_norm(l, mm, theta)
    y = p * cmath.exp(1j * mm * phi)
    if m < 0:
        y = y.conjugate()
        if mm & 1:
            y = -y
    return y
