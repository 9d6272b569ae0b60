"""Special-function kernel: n-dimensional Legendre (zonal) polynomials,
spherical-harmonic dimensions, the Landau envelope constant for Bessel
functions, and Gaussian bumps.  Bessel values come from scipy.special.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "legendre",
    "legendre_all",
    "add_gaussian",
]

# Safe numeric envelope for sup_r |J_nu(r)| r^{1/3}; the sharp value is about
# 0.7858 (Landau), 0.8 leaves headroom.
LANDAU_ENVELOPE = 0.8


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


def dim_harmonic(n: int, k: int) -> int:
    """Dimension of the space of degree-k spherical harmonics on S^{n-1}."""
    if k == 0:
        return 1
    if k == 1:
        return n
    return int(math.comb(n + k - 1, k) - math.comb(n + k - 3, k - 2))


# add_gaussian's cut, in widths: exp(-_CUT^2) = 7.6e-33 lies between 2^-107
# and 2^-106, that is below u^2 of the unit peak (u = 2^-53)
_CUT = 8.6


def _term(axis: np.ndarray, c: float, w: float) -> tuple[slice, np.ndarray]:
    """The window |z| < _CUT of one term and -z^2 on it, z = (axis - c) / w."""
    lo = axis.searchsorted(c - _CUT * w)
    hi = axis.searchsorted(c + _CUT * w)
    z = axis[lo:hi] - c
    z /= w
    z *= z
    np.negative(z, out=z)
    return slice(lo, hi), z


def add_gaussian(out: np.ndarray, amp: float, *terms) -> None:
    """out += amp * exp(-sum_i z_i**2), z_i = (axis_i - c_i) / w_i, over the
    outer grid of sorted axes, one term (axis_i, c_i, w_i) per dimension of
    out.  Every lane whose dense exp is at least 2^-106 has the bits of the
    dense formula, and every lane whose dense exp is below 2^-107 adds +0.0.

    The bump is cut to the window |z_i| < 8.6 by `searchsorted`; with two
    or more terms, window lanes whose exponent is below -8.6^2 are set to
    -inf, so exp gives 0.0 there.  A lane kept has exp at least
    exp(-8.6^2) > 2^-107, and a lane cut has exp below 2^-106: the margins,
    0.012 and 0.028 of z, are far beyond the few ulps by which the computed
    z and the window bounds can stray.  A cut lane adds amp * 0.0, which
    changes no float but -0.0, and out never holds -0.0 if it starts at
    +0.0.  A dropped lane is below u^2 = 2^-106 of the bump's peak |amp|,
    so N dropped lanes add up to less than N u^2 |amp|, which rounds away
    in any sum above about N u |amp|: the cut can move a result only where
    a sum over the bump cancels to below that.  The exponent
    (-z_0^2) + (-z_1^2) has the bits of -z_0^2 - z_1^2.  Each step runs in
    place on a fresh array and is the same IEEE operation as in the dense
    formula.  One term, the radial profiles' case, takes a path of its own:
    its window's -z^2 is the bump's exponent as it stands, with no outer
    sum and no mask."""
    if len(terms) == 1:
        window, bump = _term(*terms[0])
    else:
        window, args = zip(*(_term(*t) for t in terms))
        bump = functools.reduce(np.add.outer, args)
        bump[bump < -_CUT * _CUT] = -np.inf
    np.exp(bump, out=bump)
    bump *= amp
    out[window] += bump
