"""Slow references the tests check the library against: adaptive
Gauss-Legendre quadrature, radial overlaps by that quadrature in place of
the closed-form Gamma moments, and A(t) summed over ket pairs with
quadrature radials in place of the per-l coefficient tables.

A quadrature panel is accepted when one 15-point evaluation and the sum of
its two half-panel evaluations agree within the panel's share of the
absolute tolerance; otherwise it splits.  All radial integrands here are
analytic on (0, R] with at worst an integrable power singularity at the
origin, which bisection resolves quickly because Gauss nodes never touch
the endpoints.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from diracpacket.dirac_coulomb import CircularState, _check_pair, binding_energy, eval_radial
from diracpacket.packet import Ket, PacketTables, _as_time_array


class QuadratureAccuracyError(RuntimeError):
    """Refinement hit the depth limit before reaching tolerance.

    Attributes
    ----------
    residual : float
        Estimate of the unresolved error that remained when refinement
        stopped.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@lru_cache(maxsize=None)
def _nodes(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _panel(f, a: float, b: float, order: int) -> float:
    x, w = _nodes(order)
    h = 0.5 * (b - a)
    return h * float(np.dot(w, f(0.5 * (a + b) + h * x)))


def integrate_adaptive(
    f,
    a: float,
    b: float,
    abs_tol: float = 1e-13,
    order: int = 15,
    max_depth: int = 48,
) -> float:
    """Integrate f over [a, b] to the requested absolute tolerance.

    Parameters
    ----------
    f : callable
        Vectorized integrand; receives an ndarray of abscissae.
    a, b : float
        Integration limits, a < b.
    abs_tol : float
        Absolute tolerance on the whole integral.
    order : int
        Gauss-Legendre order per panel.
    max_depth : int
        Bisection depth limit per panel before giving up.

    Raises
    ------
    QuadratureAccuracyError
        If some panel still disagrees beyond its tolerance share at the
        depth limit; carries the residual estimate.
    """
    if not b > a:
        raise ValueError(f"require b > a, got a={a!r}, b={b!r}")
    if abs_tol <= 0.0:
        raise ValueError(f"abs_tol must be positive, got {abs_tol!r}")

    total = 0.0
    stack = [(a, b, _panel(f, a, b, order), abs_tol, 0)]
    while stack:
        lo, hi, whole, tol, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left = _panel(f, lo, mid, order)
        right = _panel(f, mid, hi, order)
        err = (left + right) - whole
        if abs(err) <= tol:
            total += left + right
            continue
        if depth >= max_depth:
            raise QuadratureAccuracyError(
                f"quadrature failed to converge on [{lo:g}, {hi:g}]: "
                f"residual estimate {abs(err):.3e} exceeds tolerance {tol:.3e} "
                f"at depth {depth}",
                residual=abs(err),
            )
        half_tol = 0.5 * tol
        stack.append((lo, mid, left, half_tol, depth + 1))
        stack.append((mid, hi, right, half_tol, depth + 1))
    return total


def overlap_quadrature(
    a: CircularState,
    b: CircularState,
    part: str,
    abs_tol: float = 1e-13,
) -> float:
    """Same integral as :func:`overlap_closed_form` by adaptive quadrature.

    The truncation radius covers the Gamma-moment mass up to a relative
    tail below 1e-20 for every subcritical state pair: the integrand decays
    like r^G e^(-Lam r), and [0, (G + 40 + 12 sqrt(G + 1)) / Lam] leaves a
    regularized upper-gamma tail Q(G+1, Lam R) under that level even for
    G of several hundred.
    """
    _check_pair(a, b, part)
    idx = 0 if part == "gg" else 1

    big_g = a.gamma + b.gamma
    lam_sum = a.lam + b.lam
    r_max = (big_g + 40.0 + 12.0 * math.sqrt(big_g + 1.0)) / lam_sum

    def integrand(r):
        va = eval_radial(a, r)[idx]
        vb = eval_radial(b, r)[idx]
        return r * r * va * vb

    return integrate_adaptive(integrand, 0.0, r_max, abs_tol=abs_tol)


def autocorrelation_oracle(tables: PacketTables, t, abs_tol: float = 1e-13):
    """Brute-force A(t) from the ket expansion and radial quadrature.

    Walks every same-component ket pair, keeps the pairs whose angular
    labels coincide (orthonormality kills everything else), and evaluates
    each radial overlap by adaptive quadrature instead of the closed form.
    Shares no overlap code path with :func:`autocorrelation`, so agreement
    binds the coefficient tables, the closed-form integrals, and the
    phase assignments at once.  Each ket's phase is the binding energy
    E - 1 of its state's label, the rest frame of autocorrelation.  Meant
    for small windows.
    """
    arr = _as_time_array(t)
    flat = np.atleast_1d(arr)

    cache: dict[tuple, float] = {}

    def radial(ka: Ket, kb: Ket) -> float:
        if ka.radial_part != kb.radial_part:
            raise ValueError("mixed g/f radial overlap should never arise")
        qa, qb = ka.state, kb.state
        key_a = (qa.kappa, qa.n_prime, ka.radial_part)
        key_b = (qb.kappa, qb.n_prime, kb.radial_part)
        key = (key_a, key_b) if key_a <= key_b else (key_b, key_a)
        if key not in cache:
            cache[key] = overlap_quadrature(
                ka.state, kb.state, ka.radial_part * 2, abs_tol=abs_tol
            )
        return cache[key]

    constants = tables.spec.constants
    out = np.zeros(flat.shape, dtype=complex)
    kets = tables.kets
    for ia, ka in enumerate(kets):
        for kb in kets:
            if (
                ka.component != kb.component
                or ka.l_ang != kb.l_ang
                or ka.m_ang != kb.m_ang
            ):
                continue
            amp = np.conj(ka.coef) * kb.coef * radial(ka, kb)
            qb = kb.state
            bind = binding_energy(qb.Z, qb.n_prime, qb.kappa, constants)
            out += amp * np.exp(-1j * bind * flat)
    if arr.ndim == 0:
        return complex(out[0])
    return out.reshape(arr.shape)
