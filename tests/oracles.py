"""Physical-space oracles for the harmonic tests: the squared kernel
coefficient A of one profile, pointwise trace evaluation on S^{n-1}
(n = 2, 3) and a quadrature over the sphere.  The sum A of the mode sums
must equal the L^2(S^{n-1}) norm^2 of the trace.  Also the dense formula
of a Gaussian bump under add_gaussian's cut, the reference of the tests
that pin its bits, and the x-ray transform of a callable at the exact
characteristic points, the reference of the sampled x-ray kernel."""

import math

import numpy as np
import scipy.special as sp

from tracestab.harmonic import ProfileSet, RadialGrid, grid_spectrum
from tracestab.spectrum import WeightSpec


def A_coefficient(profile: np.ndarray, weight: WeightSpec, k: int,
                  grid: RadialGrid) -> float:
    """Squared inner product of the profile with the Bessel kernel."""
    kernel = grid_spectrum(weight, grid).kernel(k)
    inner = grid.integrate(np.asarray(profile, float) * kernel)
    return inner * inner


def _real_harmonic(n: int, k: int, m: int, theta: np.ndarray) -> float:
    """Orthonormal real spherical harmonic P^{(k,m)} at a point of S^{n-1},
    n in {2, 3} (trace_evaluate checks n)."""
    if n == 2:
        phi = math.atan2(theta[1], theta[0])
        if k == 0:
            return 1.0 / math.sqrt(2.0 * math.pi)
        return (math.cos(k * phi) if m == 1 else math.sin(k * phi)) / math.sqrt(math.pi)
    x, y, z = theta
    pol = math.acos(max(-1.0, min(1.0, z)))
    az = math.atan2(y, x)
    mu = m - 1 - k  # m in 1..2k+1  ->  mu in -k..k
    y_c = sp.sph_harm_y(k, abs(mu), pol, az)
    if mu == 0:
        return float(np.real(y_c))
    if mu > 0:
        return math.sqrt(2.0) * (-1.0) ** mu * float(np.real(y_c))
    return math.sqrt(2.0) * (-1.0) ** mu * float(np.imag(y_c))


def trace_evaluate(ps: ProfileSet, weight: WeightSpec, theta) -> complex:
    """Pointwise value of the traced function at theta on S^{n-1} (complex;
    the phase i^k attaches to each degree block)."""
    n = ps.n
    if n not in (2, 3):
        raise ValueError("pointwise trace evaluation supports n in {2, 3} only")
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (n,) or abs(np.linalg.norm(theta) - 1.0) > 1e-10:
        raise ValueError("theta must be a unit vector in R^n")
    gs = grid_spectrum(weight, ps.grid)
    total = 0.0 + 0.0j
    pref = (2.0 * math.pi) ** (-n / 2.0)
    for (k, m), g in ps.entries.items():
        inner = ps.grid.integrate(g * gs.kernel(k))
        total += pref * (1j) ** k * _real_harmonic(n, k, m, theta) * inner
    return total


_SPHERE_POLAR = 64      # Gauss-Legendre nodes in cos(polar angle), n = 3
_SPHERE_AZIMUTH = 128   # equispaced azimuths


def sphere_quadrature(n: int):
    """Nodes (rows of unit vectors) and weights integrating over S^{n-1}."""
    phi = np.linspace(0.0, 2.0 * math.pi, _SPHERE_AZIMUTH, endpoint=False)
    w_phi = np.full(_SPHERE_AZIMUTH, 2.0 * math.pi / _SPHERE_AZIMUTH)
    if n == 2:
        return np.stack([np.cos(phi), np.sin(phi)], axis=1), w_phi
    if n == 3:
        x, wx = np.polynomial.legendre.leggauss(_SPHERE_POLAR)
        ct = x[:, None]
        st = np.sqrt(1.0 - ct ** 2)
        pts = np.stack(
            [
                (st * np.cos(phi)[None, :]).ravel(),
                (st * np.sin(phi)[None, :]).ravel(),
                np.broadcast_to(ct, (_SPHERE_POLAR, _SPHERE_AZIMUTH)).ravel(),
            ],
            axis=1,
        )
        w = (wx[:, None] * w_phi[None, :]).ravel()
        return pts, w
    raise ValueError("sphere quadrature supports n in {2, 3} only")


CUT = 8.6   # add_gaussian's cut, in widths; exp(-CUT^2) is 7.6e-33, below 2^-106
NORMAL_CUT = 26.6   # a cut at the edge of the normal range; exp(-26.6^2) is 5.1e-308


def dense_bump(*terms, cut=CUT) -> np.ndarray:
    """exp(-sum_i ((X_i - c_i) / w_i)^2) over whole meshes X_i, one term
    (X_i, c_i, w_i) per dimension; a single term takes add_gaussian's
    one-term formula exp((X - c)^2 * (-1 / w^2)).  Set to 0.0 where
    add_gaussian cuts: off its window c_i - cut w_i <= X_i < c_i + cut w_i
    (the one `searchsorted` takes) and, with two or more terms, where the
    exponent is below -cut^2.
    With cut=NORMAL_CUT it keeps every lane whose exp is normal: the
    reference for the tests that add_gaussian's cut moves no report."""
    (X, c, w), *rest = terms
    keep = (X >= c - cut * w) & (X < c + cut * w)
    if not rest:
        return np.where(keep, np.exp((X - c) * (X - c) * (-1.0 / (w * w))), 0.0)
    exponent = -((X - c) / w) ** 2
    for X, c, w in rest:
        exponent = exponent - ((X - c) / w) ** 2
        keep &= (X >= c - cut * w) & (X < c + cut * w)
    keep &= exponent >= -cut * cut
    return np.where(keep, np.exp(exponent), 0.0)


def exact_xray(func, grid) -> np.ndarray:
    """rho* G(x_i, v_j) = h sum_s G(t_s, x_i + v_j t_s) for the callable
    G = func(t, x), evaluated at the exact characteristic points (no
    interpolation), as an (x, v) array over the PhaseGrid `grid`."""
    x, v, t = grid.x, grid.v, grid.t
    out = np.empty((x.size, v.size))
    for j, vv in enumerate(v):
        out[:, j] = grid.h * np.sum(func(t[None, :], x[:, None] + vv * t[None, :]), axis=1)
    return out
