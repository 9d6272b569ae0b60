"""Special-function kernel: Gamma, Bessel J/I/K of real order, and
n-dimensional Legendre (zonal) polynomials.

Scalar wrappers delegate to scipy.special and add the domain checks the
rest of the package relies on.  Half-integer Bessel orders additionally
have elementary closed forms available as cross-checks.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.special as sp

__all__ = [
    "order",
    "gamma",
    "bessel_j",
    "bessel_i",
    "bessel_k",
    "legendre",
    "legendre_all",
    "half_integer_j",
]


def order(n: int, k: int) -> float:
    """Bessel order nu = k + (n-2)/2 attached to the degree-k harmonic block."""
    if n < 2:
        raise ValueError(f"dimension n must be >= 2, got {n}")
    if k < 0:
        raise ValueError(f"degree k must be >= 0, got {k}")
    return k + 0.5 * (n - 2)


def gamma(x):
    """Gamma function for positive real arguments."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("gamma requires a positive argument")
    out = sp.gamma(x)
    return float(out) if out.ndim == 0 else out


def _check_bessel_args(nu: float, x) -> np.ndarray:
    if nu < 0:
        raise ValueError(f"Bessel order must be >= 0, got {nu}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("Bessel argument must be non-negative")
    return x


def bessel_j(nu: float, x):
    """Bessel function of the first kind J_nu, real order nu >= 0, x >= 0."""
    x = _check_bessel_args(nu, x)
    out = sp.jv(nu, x)
    return float(out) if out.ndim == 0 else out


def bessel_i(nu: float, x):
    """Modified Bessel function I_nu for x > 0."""
    x = _check_bessel_args(nu, x)
    out = sp.iv(nu, x)
    return float(out) if out.ndim == 0 else out


def bessel_k(nu: float, x):
    """Modified Bessel function K_nu for x > 0."""
    x = _check_bessel_args(nu, x)
    if np.any(x == 0):
        raise ValueError("K_nu diverges at x = 0")
    out = sp.kv(nu, x)
    return float(out) if out.ndim == 0 else out


def half_integer_j(nu: float, x):
    """Closed-form J_nu for half-integer nu (odd dimensions), used as a
    cross-check of the library routine.

    Built from J_{1/2}(x) = sqrt(2/(pi x)) sin x and the upward recurrence
    J_{nu+1} = (2 nu / x) J_nu - J_{nu-1}.
    """
    two = 2.0 * nu
    if abs(two - round(two)) > 1e-12 or round(two) % 2 == 0:
        raise ValueError(f"nu = {nu} is not a half-integer")
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("closed form requires x > 0")
    jm = np.sqrt(2.0 / (np.pi * x)) * np.cos(x)   # J_{-1/2}
    jp = np.sqrt(2.0 / (np.pi * x)) * np.sin(x)   # J_{1/2}
    mu = 0.5
    while mu < nu - 1e-12:
        jm, jp = jp, (2.0 * mu / x) * jp - jm
        mu += 1.0
    return float(jp) if jp.ndim == 0 else jp


def legendre(n: int, k: int, t):
    """Legendre polynomial of degree k in dimension n, normalised so that
    P_{n,k}(1) = 1.

    Satisfies (k+n-2) P_{n,k+1} = (2k+n-2) t P_{n,k} - k P_{n,k-1}, which
    reduces to the classical Legendre recurrence at n = 3 and to the
    Chebyshev recurrence at n = 2.
    """
    if n < 2:
        raise ValueError(f"dimension n must be >= 2, got {n}")
    if k < 0:
        raise ValueError(f"degree k must be >= 0, got {k}")
    t = np.asarray(t, dtype=float)
    if np.any(t < -1 - 1e-12) or np.any(t > 1 + 1e-12):
        raise ValueError("argument t must lie in [-1, 1]")
    p = legendre_all(n, k, t.ravel())[k].reshape(t.shape)
    return float(p) if p.ndim == 0 else p


def legendre_all(n: int, k_max: int, t: np.ndarray) -> np.ndarray:
    """P_{n,k}(t) for all k = 0..k_max at once; shape (k_max+1, len(t))."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty((k_max + 1, t.size))
    out[0] = 1.0
    if k_max >= 1:
        out[1] = t
    for j in range(1, k_max):
        out[j + 1] = ((2 * j + n - 2) * t * out[j] - j * out[j - 1]) / (j + n - 2)
    return out


def landau_envelope_constant() -> float:
    """Safe numeric envelope for sup_r |J_nu(r)| r^{1/3}; the sharp value
    is about 0.7858 (Landau), 0.8 leaves headroom."""
    return 0.8


def dim_harmonic(n: int, k: int) -> int:
    """Dimension of the space of degree-k spherical harmonics on S^{n-1}."""
    if k == 0:
        return 1
    if k == 1:
        return n
    return int(math.comb(n + k - 1, k) - math.comb(n + k - 3, k - 2))
