"""Spherical-harmonic profile representation, trace deficits and the
stability/reverse inequalities.

A function g lives here only through its radial profiles g0^{(k,m)} on a
shared quadrature grid.  Every quantity in the stability inequality is
diagonal in this representation, so deficits and distances reduce to
finite sums.  Eigenvalues are evaluated under the same grid rule as the
profiles ("grid spectrum"), which keeps the Cauchy-Schwarz structure of
the inequality exact at machine precision; the analytic spectrum module
provides the continuum values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np
import scipy.special as sp

from .errors import InconclusiveError
from .specfun import add_gaussian, dim_harmonic
from .spectrum import LambdaSpectrum, WeightSpec

__all__ = [
    "RadialGrid",
    "ProfileSet",
    "DeficitReport",
    "GridSpectrum",
    "grid_spectrum",
    "B_coefficient",
    "deficit_report",
    "equality_case_builder",
    "extremising_sequence",
    "reverse_deficit_check",
    "random_profile_set",
    "MAX_PROFILE_K",
]


_PANELS_PER_PERIOD = 40   # Gauss-Legendre panels per 2*pi of radius
_NODES_PER_PANEL = 4
_DEFICIT_TOL = 1e-8   # slack of the stability check, relative to sum B
_REVERSE_TOL = 1e-9   # slack of the reverse check, relative to sum B
_MAX_M = 3   # random profiles use harmonic indices m <= 3
MAX_PROFILE_K = 6   # random profiles use degrees k <= 6 unless told otherwise


@dataclass(frozen=True)
class RadialGrid:
    """Composite Gauss-Legendre rule on (0, r_max], resolving the Bessel
    oscillation with _PANELS_PER_PERIOD panels per 2*pi."""

    r_max: float
    r: np.ndarray = field(repr=False, compare=False)
    wq: np.ndarray = field(repr=False, compare=False)

    @staticmethod
    def build(r_max: float = 200.0) -> "RadialGrid":
        if not r_max > 0.0:
            raise ValueError(f"the grid needs r_max > 0, got {r_max}")
        panel_len = 2.0 * math.pi / _PANELS_PER_PERIOD
        npan = int(math.ceil(r_max / panel_len))
        edges = np.linspace(0.0, r_max, npan + 1)
        x, w = np.polynomial.legendre.leggauss(_NODES_PER_PANEL)
        half = 0.5 * (edges[1] - edges[0])
        mid = 0.5 * (edges[:-1] + edges[1:])
        r = (mid[:, None] + half * x[None, :]).ravel()
        wq = np.tile(half * w, npan)
        return RadialGrid(r_max, r, wq)

    def integrate(self, samples: np.ndarray) -> float:
        return float(np.dot(self.wq, samples))


@dataclass(frozen=True, eq=False)
class ProfileSet:
    """Finite family of radial profiles indexed by harmonic mode (k, m).

    `entries` is a read-only mapping of read-only float arrays, so the mode
    sums of the set, kept once per GridSpectrum it meets, cannot go stale.
    Every profile must match the grid and be finite.  A float array that
    owns its data is frozen in place, not copied: the caller can no longer
    write into it.  Any other profile (a view, a list, another dtype) is
    copied into a fresh float array, which is frozen.  `_own` wraps the
    profiles this module builds from its own kernels and draws without
    these checks."""

    n: int
    grid: RadialGrid
    entries: dict = field(repr=False)
    _sums: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        checked = {}
        for (k, m), g in self.entries.items():
            if k < 0 or not 1 <= m <= dim_harmonic(self.n, k):
                raise ValueError(f"mode index ({k},{m}) out of range for n={self.n}")
            g = np.asarray(g, dtype=float)
            if g.shape != self.grid.r.shape:
                raise ValueError(f"profile ({k},{m}) does not match the grid")
            if not np.isfinite(g).all():
                raise ValueError(f"profile ({k},{m}) must be finite")
            checked[(k, m)] = g if g.base is None else g.copy()
        for g in checked.values():  # only once every profile has passed
            g.setflags(write=False)
        object.__setattr__(self, "entries", MappingProxyType(checked))

    @classmethod
    def _own(cls, n: int, grid: RadialGrid, entries: dict) -> "ProfileSet":
        """A set of the arrays this module made, fresh or a GridSpectrum's
        kernels: frozen in place, in the dict given, without any check."""
        for g in entries.values():
            g.setflags(write=False)
        ps = object.__new__(cls)
        ps.__dict__.update(n=n, grid=grid, entries=MappingProxyType(entries), _sums={})
        return ps

    def max_degree(self) -> int:
        return max((k for k, _ in self.entries), default=0)


@dataclass(frozen=True)
class DeficitReport:
    sumB: float
    deficit: float          # lambda_0 * sumB - sumA
    dist_sq: float          # sumB - A_{0,1}/lambda_0
    ratio: float            # deficit / dist_sq (inf when dist_sq == 0)
    constant: float         # the grid's own lambda_0 - lambda_star, not the
                            # certified C'(w) that `constants` reports
    lambda0: float
    satisfied: bool


class GridSpectrum:
    """Bessel kernels and eigenvalues of a weight evaluated under a grid
    rule; shares the quadrature of the profiles it is compared against.
    Obtain it through `grid_spectrum`, which keeps one per (weight, grid)."""

    def __init__(self, weight: WeightSpec, grid: RadialGrid):
        self.weight = weight
        self.grid = grid
        self._kernels: dict[int, np.ndarray] = {}
        self._lams: dict[int, float] = {}
        r = grid.r
        self._sqrt_rw = np.sqrt(r * weight.w(r))

    def kernel(self, k: int) -> np.ndarray:
        """J_{k+(n-2)/2}(r) w(r)^{1/2} r^{1/2} on the grid, read-only."""
        if k not in self._kernels:
            nu = k + (self.weight.n - 2.0) / 2.0
            ker = sp.jv(nu, self.grid.r) * self._sqrt_rw
            ker.setflags(write=False)
            self._kernels[k] = ker
        return self._kernels[k]

    def lam(self, k: int) -> float:
        """The grid's own eigenvalue: lambda_k under the grid rule on
        (0, r_max], computed once per k.  It is not the certified lambda_k
        of the spectrum module, which integrates over (0, infinity)."""
        if k not in self._lams:
            ker = self.kernel(k)
            self._lams[k] = self.grid.integrate(ker * ker)
        return self._lams[k]


@functools.lru_cache(maxsize=8)
def grid_spectrum(weight: WeightSpec, grid: RadialGrid) -> GridSpectrum:
    """The one GridSpectrum of (weight, grid).  Weights key by identity;
    grids by r_max, which fixes their nodes."""
    return GridSpectrum(weight, grid)


def B_coefficient(profile: np.ndarray, grid: RadialGrid) -> float:
    """int_0^infty |g0(r)|^2 dr under the grid rule."""
    g = np.asarray(profile, dtype=float)
    return grid.integrate(g * g)


def _mode_sums(ps: ProfileSet, gs: GridSpectrum) -> tuple[float, float, float]:
    """(sum B, sum A, A_{0,1}) of ps under gs, computed once per (ps, gs)
    and kept on ps.  The key is gs itself, which the entry keeps alive, so
    no later GridSpectrum can take over its key."""
    if ps.n != gs.weight.n:
        raise ValueError(f"profile set of dimension n={ps.n} does not match "
                         f"the weight's n={gs.weight.n}")
    sums = ps._sums.get(gs)
    if sums is None:
        sumB = sumA = a01 = 0.0
        for (k, m), g in ps.entries.items():
            ker = gs.kernel(k)
            if g is ker:  # B and the inner product are lambda_k's own integral
                b = inner = gs.lam(k)
            else:
                b = B_coefficient(g, ps.grid)
                inner = ps.grid.integrate(g * ker)
            a = inner * inner
            sumB += b
            sumA += a
            if k == 0 and m == 1:
                a01 = a
        sums = ps._sums[gs] = (sumB, sumA, a01)
    return sums


def deficit_report(ps: ProfileSet, weight: WeightSpec,
                   spectrum: LambdaSpectrum | None = None) -> DeficitReport:
    """Evaluate deficit, squared distance to the extremiser ray, their
    ratio and whether the stability inequality holds with C' = lambda_0 -
    lambda_star of the grid's own eigenvalues (GridSpectrum.lam), not the
    certified C'(w) that `constants` reports.

    The analytic `spectrum`, when given, is used only to confirm that the
    profile support is covered by its certificate."""
    gs = grid_spectrum(weight, ps.grid)
    kmax = ps.max_degree()
    if spectrum is not None and kmax > spectrum.certificate.K:
        raise InconclusiveError(
            f"profile degree {kmax} exceeds the certified range K={spectrum.certificate.K}"
        )
    lam0 = gs.lam(0)
    lam_star = max(gs.lam(k) for k in range(1, max(kmax, 1) + 1))
    const = lam0 - lam_star
    sumB, sumA, a01 = _mode_sums(ps, gs)
    deficit = lam0 * sumB - sumA
    dist_sq = sumB - a01 / lam0
    ratio = deficit / dist_sq if dist_sq > 0 else math.inf
    satisfied = deficit >= const * dist_sq - _DEFICIT_TOL * sumB
    return DeficitReport(sumB, deficit, dist_sq, ratio, const, lam0, satisfied)


def equality_case_builder(weight: WeightSpec, spectrum: LambdaSpectrum,
                          c: float, Y_coeffs: dict[int, float] | None,
                          grid: RadialGrid) -> ProfileSet:
    """Profiles achieving equality in the stability inequality: the k=0
    extremiser kernel plus kernels on the attaining modes k in K_set."""
    if not spectrum.K_set:
        raise ValueError("no extremiser exists when the attaining set is empty")
    if not all(map(math.isfinite, (c, *(Y_coeffs or {}).values()))):
        raise ValueError("equality-case coefficients must be finite")
    n = weight.n
    gs = grid_spectrum(weight, grid)
    entries = {}
    if c != 0.0:
        entries[(0, 1)] = c * gs.kernel(0)
    k_att = min(spectrum.K_set)
    if Y_coeffs:
        for m, coeff in Y_coeffs.items():
            if coeff != 0.0:
                if not 1 <= m <= dim_harmonic(n, k_att):
                    raise ValueError(f"harmonic index m={m} out of range for k={k_att}")
                entries[(k_att, m)] = coeff * gs.kernel(k_att)
    if not entries:
        raise ValueError("all coefficients vanish; the zero function is excluded")
    return ProfileSet._own(n, grid, entries)


def extremising_sequence(weight: WeightSpec, spectrum: LambdaSpectrum,
                         k_list, grid: RadialGrid) -> list[float]:
    """Deficit/distance ratios of the pure-mode kernels; each equals
    lambda_0 - lambda_k of the grid's own eigenvalues (GridSpectrum.lam),
    not of the certified spectrum, which must cover every k."""
    if not k_list:
        raise ValueError("k_list must be nonempty")
    gs = grid_spectrum(weight, grid)
    ratios = []
    for k in k_list:
        if k < 1:
            raise ValueError("extremising sequence uses k >= 1")
        ps = ProfileSet._own(weight.n, grid, {(k, 1): gs.kernel(k)})
        ratios.append(deficit_report(ps, weight, spectrum).ratio)
    return ratios


def reverse_deficit_check(ps: ProfileSet, weight: WeightSpec) -> tuple[bool, float]:
    """deficit <= lambda_0 * dist_sq, i.e. A_{0,1} <= sum A; returns
    (holds, margin) with margin = lambda_0*dist_sq - deficit = sum A - A_{0,1}."""
    sumB, sumA, a01 = _mode_sums(ps, grid_spectrum(weight, ps.grid))
    margin = sumA - a01
    return margin >= -_REVERSE_TOL * max(sumB, 1e-300), margin


# ---------------------------------------------------------------------------
# random profiles


def random_profile_set(weight: WeightSpec, grid: RadialGrid,
                       rng: np.random.Generator, max_k: int = MAX_PROFILE_K,
                       n_modes: int | None = None) -> ProfileSet:
    """Random mixture of Gaussian bumps and extremal kernels over modes
    k <= max_k, m <= min(dim H_k, 3).  Each bump is add_gaussian's: zero
    from |z| = 8.6 on, where exp(-z^2) < 2^-106 = u^2 of its peak, so a cut
    lane can move a report only where a sum over the bump cancels to below
    about u |amp| per lane."""
    # checked before any draw, so a rejected call leaves rng's stream as it was
    if max_k < 0:
        raise ValueError(f"random profiles need max_k >= 0, got {max_k}")
    if n_modes is not None and n_modes < 1:
        raise ValueError(f"random profiles need n_modes >= 1, got {n_modes}; "
                         "the zero function is excluded")
    n = weight.n
    gs = grid_spectrum(weight, grid)
    if n_modes is None:
        n_modes = int(rng.integers(1, 5))
    r = grid.r
    entries = {}
    for _ in range(n_modes):
        k = int(rng.integers(0, max_k + 1))
        m = int(rng.integers(1, min(dim_harmonic(n, k), _MAX_M) + 1))
        prof = np.zeros(r.size)
        for _ in range(int(rng.integers(1, 4))):
            center = rng.uniform(0.5, 0.5 * grid.r_max)
            width = rng.uniform(0.3, 5.0)
            add_gaussian(prof, rng.normal(), (r, center, width))
        if rng.random() < 0.4:
            prof += rng.normal() * gs.kernel(k)
        if (k, m) in entries:
            entries[(k, m)] = entries[(k, m)] + prof
        else:
            entries[(k, m)] = prof
    return ProfileSet._own(n, grid, entries)
