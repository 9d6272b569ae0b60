"""Eigenvalue sequence lambda_k of the weighted trace operator, the sharp
constant lambda_0, and the stability constant lambda_0 - lambda_star.

Closed forms (Gamma ratios, modified-Bessel products) are used where they
exist; everything else goes through a certified oscillatory quadrature of

    lambda_k = int_0^infty J_{k+(n-2)/2}(r)^2 r w(r) dr.

The quadrature integrates up to a cut radius with panel Gauss rules, then
replaces the oscillating tail by its analytic average w(r)/pi plus an
accelerated alternating correction.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.special as sp

from .errors import ConvergenceError, InconclusiveError, InconsistencyError
from .specfun import LANDAU_ENVELOPE, legendre

__all__ = [
    "WeightSpec",
    "LambdaSpectrum",
    "TruncationCertificate",
    "sphere_area",
    "check_tol",
    "lambda_quadrature",
    "watson_integral",
    "watson_quadrature",
    "lambda_legendre_form",
    "build_spectrum",
    "stability_constant",
    "spectrum_to_json",
    "spectrum_to_csv",
]


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere S^{n-1}."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


# ---------------------------------------------------------------------------
# weights


@dataclass(frozen=True, eq=False)
class WeightSpec:
    """Radial weight w on (0, infty), one subclass per family, made by the
    factories below; the class constant kind names the family in JSON.  Each
    family holds its own formulas: w, tail_integral (int_R^infty w dr), the
    envelope of lambda_quadrature's tail, a closed form of lambda_k or None,
    and, for the certificate where it has none, decay_exponent and
    holder_moments.  Weights hash and compare by identity (tables hold arrays)."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"dimension n must be >= 2, got {self.n}")

    @staticmethod
    def homogeneous(n: int, s: float) -> "WeightSpec":
        if not s < n / 2.0:
            raise ValueError(f"s < n/2 required for r^(-2s); got s={s}, n={n}")
        return HomogeneousWeight(n, s)

    @staticmethod
    def inhomogeneous(n: int, s: float) -> "WeightSpec":
        return InhomogeneousWeight(n, s)

    @staticmethod
    def custom(n, r_table, w_table, tail_exponent) -> "WeightSpec":
        return CustomWeight(n, r_table, w_table, tail_exponent)

    def small_r_exponent(self) -> float:
        """Power-law exponent of w at r -> 0 (0 for bounded weights)."""
        return 0.0

    def closed_form(self, k: int) -> float | None:
        """lambda_k (k >= 0) in closed form, or None where there is none."""
        return None


@dataclass(frozen=True, eq=False)
class _SWeight(WeightSpec):
    """A family with one exponent s > 1/2 and w ~ r^{-2s} as r -> infty."""

    s: float

    def __post_init__(self):
        super().__post_init__()
        if not self.s > 0.5:
            raise ValueError(f"s > 1/2 required; got s={self.s}")

    def decay_exponent(self) -> float:
        return self.s

    def summary(self) -> dict:
        return {"kind": self.kind, "n": self.n, "s": self.s}


@dataclass(frozen=True, eq=False)
class HomogeneousWeight(_SWeight):
    """w = r^{-2s}; the factory also asks s < n/2, where lambda_0 is finite."""

    kind = "homogeneous"

    def w(self, r):
        return np.asarray(r, dtype=float) ** (-2.0 * self.s)

    def tail_integral(self, R: float) -> float:
        return R ** (1.0 - 2.0 * self.s) / (2.0 * self.s - 1.0)

    def small_r_exponent(self) -> float:
        return -2.0 * self.s

    def envelope(self, nu: float, r_cut: float) -> tuple[float, float]:
        return _power_envelope(nu, self, r_cut, 2.0 * self.s), 0.0

    def closed_form(self, k: int) -> float:
        """Gamma-ratio lambda_k: watson_integral at tau = 2s."""
        return watson_integral(self.n, k, 2.0 * self.s)


@dataclass(frozen=True, eq=False)
class InhomogeneousWeight(_SWeight):
    """w = (1 + r^2)^{-s}, s > 1/2."""

    kind = "inhomogeneous"

    def w(self, r):
        r = np.asarray(r, dtype=float)
        return (1.0 + r * r) ** (-self.s)

    def tail_integral(self, R: float) -> float:
        a, b = self.s - 0.5, 0.5
        return 0.5 * sp.beta(a, b) * sp.betainc(a, b, 1.0 / (1.0 + R * R))

    def envelope(self, nu: float, r_cut: float) -> tuple[float, float]:
        """With a = 1 + nu^2 and X = r_cut^2 - nu^2, t = r^2 - nu^2 gives
        a^{1/2-s} B(s-1/2, 1/2) I_{a/(a+X)}(s-1/2, 1/2) / (2 pi) (DLMF 8.17),
        with error 0."""
        a, b = 1.0 + nu * nu, self.s - 0.5
        x = a / (a + r_cut * r_cut - nu * nu)
        return float(a ** -b * sp.beta(b, 0.5) * sp.betainc(b, 0.5, x)) / (2.0 * math.pi), 0.0

    def closed_form(self, k: int) -> float | None:
        """lambda_k = I_nu(1) K_nu(1), nu = k + (n-2)/2, at s = 1 only."""
        if abs(self.s - 1.0) >= 1e-12:
            return None
        nu = k + (self.n - 2.0) / 2.0
        return float(sp.iv(nu, 1.0) * sp.kv(nu, 1.0))

    def holder_moments(self, pairs: list[tuple[float, float]]) -> list[float]:
        """V = B((e+1)/2, s p' - (e+1)/2) / 2 (DLMF 5.12.3 with t = r^2),
        which converges exactly when 2 s p' > e + 1."""
        return [float(0.5 * sp.beta((e + 1.0) / 2.0, self.s * pp - (e + 1.0) / 2.0))
                * (1.0 + _V_ROUNDING) for pp, e in pairs]


@dataclass(frozen=True, eq=False)
class CustomWeight(WeightSpec):
    """Monotone-spline table of w on [r_table[0], r_table[-1]], w_table[0]
    below it and c r^{-tail_exponent} past it, continuous at the last knot."""

    r_table: np.ndarray
    w_table: np.ndarray
    tail_exponent: float

    kind = "custom"

    def __post_init__(self):
        super().__post_init__()
        r = np.asarray(self.r_table, dtype=float)
        w = np.asarray(self.w_table, dtype=float)
        if r.ndim != 1 or r.shape != w.shape or r.size < 4:
            raise ValueError("custom weight needs matching 1-d tables, >= 4 points")
        if np.any(np.diff(r) <= 0) or np.any(r <= 0):
            raise ValueError("custom weight radii must be positive increasing")
        if np.any(w <= 0):
            raise ValueError("custom weight values must be strictly positive")
        if not self.tail_exponent > 1:
            raise ValueError("custom weight needs a declared tail exponent > 1")
        object.__setattr__(self, "r_table", r)
        object.__setattr__(self, "w_table", w)
        object.__setattr__(self, "_c", w[-1] * r[-1] ** self.tail_exponent)
        # imported here: only a custom table needs scipy.interpolate
        from scipy.interpolate import PchipInterpolator
        object.__setattr__(self, "_spline", PchipInterpolator(r, w, extrapolate=False))

    def w(self, r):
        r = np.asarray(r, dtype=float)
        out = np.empty_like(r)
        r0, r1 = self.r_table[0], self.r_table[-1]
        inside = (r >= r0) & (r <= r1)
        out[inside] = self._spline(r[inside])
        out[r < r0] = self.w_table[0]
        high = r > r1
        out[high] = self._c * r[high] ** (-self.tail_exponent)
        return out

    def tail_integral(self, R: float) -> float:
        r0, r1 = self.r_table[0], self.r_table[-1]
        if R >= r1:
            return self._c * R ** (1.0 - self.tail_exponent) / (self.tail_exponent - 1.0)
        # below r0 the weight is the constant w_table[0]; between knots it is
        # a cubic, which the 12-point rule on knot panels integrates exactly
        flat = self.w_table[0] * (r0 - R) if R < r0 else 0.0
        r, wq = _gauss_panels(_knot_panels(max(R, r0), r1, self.r_table), 12)
        return flat + float(np.sum(wq * self.w(r))) + self.tail_integral(r1)

    def envelope(self, nu: float, r_cut: float) -> tuple[float, float]:
        """The power tail past the last knot in closed form; between r_cut
        and the last knot, Gauss rules (12 points; 6 for the error) take
        panels between knots, at most a quarter radius long."""
        R = max(r_cut, float(self.r_table[-1]))
        edges = _knot_panels(r_cut, R, self.r_table)
        fine, coarse = (float(np.sum(wq * (r * self.w(r) / np.sqrt(r * r - nu * nu) / math.pi)))
                        for r, wq in (_gauss_panels(edges, m) for m in (12, 6)))
        return _power_envelope(nu, self, R, self.tail_exponent) + fine, abs(fine - coarse)

    def decay_exponent(self) -> float:
        return self.tail_exponent / 2.0

    def holder_moments(self, pairs: list[tuple[float, float]]) -> list[float]:
        """w = w_table[0] on [0, r0] and w = c r^{-a} past r1 integrate in
        closed form; on [r0, r1] Gauss rules of 24 and 12 points on
        _knot_panels give the 24-point value plus |24-point - 12-point|.
        (12 and 6 points, as in envelope, overstate V by up to 2.6e-7
        relative on a sparse table, where w^{p'} is a power 16 of one cubic
        over a long knot interval; the 12-point value there is already exact
        to round-off.)  w is evaluated on those nodes once for all pairs."""
        knots, a = self.r_table, self.tail_exponent
        r0, r1 = knots[0], knots[-1]
        rules = [(r, wq, self.w(r)) for r, wq in
                 (_gauss_panels(_knot_panels(r0, r1, knots), m) for m in (24, 12))]
        vals = []
        for pp, e in pairs:
            fine, coarse = (float(np.sum(wq * wr ** pp * r ** e)) for r, wq, wr in rules)
            head = self.w_table[0] ** pp * r0 ** (e + 1.0) / (e + 1.0)
            tail = self._c ** pp * r1 ** (e + 1.0 - a * pp) / (a * pp - e - 1.0)
            vals.append(float(head + fine + abs(fine - coarse) + tail) * (1.0 + _V_ROUNDING))
        return vals

    def summary(self) -> dict:
        return {"kind": self.kind, "n": self.n, "tail_exponent": self.tail_exponent,
                "table_points": int(self.r_table.size)}


# ---------------------------------------------------------------------------
# closed forms


def watson_integral(n: int, k: int, tau: float) -> float:
    """Closed form of int_0^infty J_{k+(n-2)/2}(r)^2 r^{1-tau} dr, tau > 1."""
    if tau <= 1.0:
        raise ValueError("tau > 1 required")
    if k + (n - tau) / 2.0 <= 0.0:
        raise ValueError(
            f"integral diverges: k + (n-tau)/2 = {k + (n - tau) / 2.0} <= 0"
        )
    # denominator order k - 1 + (n+tau)/2 = nu + tau/2 per Weber-Schafheitlin;
    # at tau = 2s this is lambda_k for the weight r^{-2s}
    lg = (
        (1.0 - tau) * math.log(2.0)
        + math.lgamma(tau - 1.0)
        + math.lgamma(k + (n - tau) / 2.0)
        - 2.0 * math.lgamma(tau / 2.0)
        - math.lgamma(k - 1.0 + (n + tau) / 2.0)
    )
    return math.exp(lg)


# ---------------------------------------------------------------------------
# oscillatory quadrature


@functools.lru_cache(maxsize=None)
def _gauss_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], one per count."""
    x, wgt = np.polynomial.legendre.leggauss(nodes)
    x.setflags(write=False)
    wgt.setflags(write=False)
    return x, wgt


def _gauss_panels(edges: np.ndarray, nodes: int = 16):
    """Gauss-Legendre nodes/weights on the panels between consecutive edges,
    returned flat for one vectorised integrand call."""
    x, wgt = _gauss_rule(nodes)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    r = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wq = (half[:, None] * wgt[None, :]).ravel()
    return r, wq


def _accelerated_alternating_sum(d: np.ndarray) -> tuple[float, float]:
    """Sum an (eventually) alternating series by repeated averaging of
    partial sums; returns (value, error estimate)."""
    s = np.cumsum(d)
    prev = s[-1]
    err = abs(d[-1])
    while s.size > 6:
        s = 0.5 * (s[:-1] + s[1:])
        err = abs(s[-1] - prev)
        prev = s[-1]
    return float(prev), float(err)


@functools.lru_cache(maxsize=64)
def _jacobi_rule(beta0: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only 40-node Gauss-Jacobi nodes and weights for (1 + x)^beta0 on
    [-1, 1], one per exponent."""
    x, wgt = sp.roots_jacobi(40, 0.0, beta0)
    x.setflags(write=False)
    wgt.setflags(write=False)
    return x, wgt


def _head_integral(nu: float, wfun, beta0: float, r_cut: float) -> float:
    """int_0^{r_cut} J_nu(r)^2 r w(r) dr with the r^{beta0} behaviour at the
    origin absorbed into a Gauss-Jacobi rule on (0, c]."""
    c = min(1.0, 0.5 * r_cut)
    total = 0.0
    # (0, c]  -- integrand = h(r) r^{beta0}, h analytic
    if beta0 > 25.0:
        # deep power-law vanishing near the origin; plain panels suffice
        r, wq = _gauss_panels(np.linspace(0.0, c, math.ceil(c / 0.25) + 1), nodes=20)
        total += float(np.sum(wq * sp.jv(nu, r) ** 2 * r * wfun(r)))
    else:
        xj, wj = _jacobi_rule(beta0)
        r = 0.5 * c * (xj + 1.0)
        jac_weight = (0.5 * c) ** (beta0 + 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            h = sp.jv(nu, r) ** 2 * r * wfun(r) / r ** beta0
        total += float(jac_weight * np.sum(wj * h))
    # (c, r_cut] -- oscillatory but smooth; half-period panels
    if r_cut > c:
        r, wq = _gauss_panels(np.linspace(c, r_cut, math.ceil((r_cut - c) / (0.5 * math.pi)) + 1))
        total += float(np.sum(wq * sp.jv(nu, r) ** 2 * r * wfun(r)))
    return total


def _knot_panels(a: float, b: float, knots: np.ndarray) -> np.ndarray:
    """Panel edges from a to b: a geometric mesh of ratio at most 1.25, joined
    with the table knots strictly inside, so no panel straddles a knot."""
    ratio_125 = np.geomspace(a, b, 1 + math.ceil(math.log(b / a) / math.log(1.25)))
    return np.union1d(ratio_125, knots[(knots > a) & (knots < b)])


def _power_envelope(nu: float, weight: WeightSpec, R: float, a: float) -> float:
    """int_R^infty r w(r) / (pi sqrt(r^2 - nu^2)) dr for a weight c r^{-a}
    past R: int_R^infty w dr 2F1(1/2, (a-1)/2; (a+1)/2; nu^2/R^2) / pi."""
    return float(weight.tail_integral(R) * sp.hyp2f1(0.5, (a - 1.0) / 2.0, (a + 1.0) / 2.0,
                                                     (nu / R) ** 2) / math.pi)


def _tail_integral(nu: float, weight, r_cut: float, envelope: tuple[float, float],
                   n_half_periods: int = 160) -> tuple[float, float]:
    """int_{r_cut}^infty J_nu^2 r w dr.

    The oscillation-averaged envelope J_nu(r)^2 ~ 1/(pi sqrt(r^2-nu^2))
    gives a smooth model, integrated by weight.envelope; the oscillating
    remainder is summed over half-period panels with alternating-series
    acceleration.  Requires r_cut comfortably above nu."""
    avg, avg_err = envelope
    h = 0.5 * math.pi
    edges = r_cut + h * np.arange(n_half_periods + 1)
    x, wgt = _gauss_rule(12)
    mid = 0.5 * (edges[:-1] + edges[1:])
    r = mid[:, None] + 0.5 * h * x[None, :]
    f = (sp.jv(nu, r) ** 2 - 1.0 / (np.pi * np.sqrt(r * r - nu * nu))) * r * weight.w(r)
    d = 0.5 * h * np.sum(wgt[None, :] * f, axis=1)
    corr, corr_err = _accelerated_alternating_sum(d)
    # drift of the envelope model beyond the panelled stretch: relative
    # error of the uniform average is O(1/r^2) + O(nu^4/r^4)
    r_end = float(edges[-1])
    resid = (0.125 / r_end ** 2 + nu ** 4 / r_end ** 4) * weight.tail_integral(r_end) / math.pi
    return avg + corr, corr_err + resid + avg_err


def check_tol(tol: float) -> None:
    """The error budget precondition of lambda_quadrature."""
    if tol <= 0:
        raise ValueError("tol must be positive")


def lambda_quadrature(weight: WeightSpec, k: int, tol: float = 1e-8) -> tuple[float, float]:
    """lambda_k(w) by direct quadrature; returns (value, error bound).

    Raises ConvergenceError if the tail machinery cannot reach tol."""
    check_tol(tol)
    if k < 0:
        raise ValueError("k must be >= 0")
    nu = k + (weight.n - 2.0) / 2.0
    beta0 = 2.0 * nu + 1.0 + weight.small_r_exponent()
    if beta0 <= -1.0:
        raise ValueError("weight is too singular at the origin; integral diverges")
    r_cut = max(24.0, 2.5 * nu + 12.0)
    head = _head_integral(nu, weight.w, beta0, r_cut)
    envelope = weight.envelope(nu, r_cut)
    for n_half in (160, 480, 1440, 4320):
        tail, err = _tail_integral(nu, weight, r_cut, envelope, n_half)
        if err <= tol:
            return head + tail, err
    raise ConvergenceError(
        f"tail error bound {err:.3e} exceeds tol {tol:.3e} for k={k}"
    )


def watson_quadrature(n: int, k: int, tau: float, tol: float = 1e-8) -> tuple[float, float]:
    """Quadrature twin of watson_integral: lambda_quadrature of r^{-tau}, the
    homogeneous weight at s = tau/2 without the factory's s < n/2 bound."""
    if tau <= 1.0:
        raise ValueError("tau > 1 required")
    return lambda_quadrature(HomogeneousWeight(n, tau / 2.0), k, tol)


# ---------------------------------------------------------------------------
# Legendre-polynomial representation of lambda_k


def _profile_F(weight: WeightSpec) -> tuple[float, float]:
    """(gamma, C) with hat w(xi) = C |xi|^gamma exp(-|xi|) for the
    inhomogeneous weight at the Poisson-kernel exponents s = (n +- 1)/2.

    For w = (1 + |x|^2)^{-s} on R^n, hat w(xi) = int w(x) e^{-i x.xi} dx is
    (2 pi)^{n/2} 2^{1-s} / Gamma(s) |xi|^{s-n/2} K_{n/2-s}(|xi|), and
    K_{-+1/2}(z) = sqrt(pi/(2z)) e^{-z} at these s gives
    C = pi^{(n+1)/2} / Gamma((n+1)/2), gamma = 0 at s = (n+1)/2, and
    C = 2 pi^{(n+1)/2} / Gamma((n-1)/2), gamma = -1 at s = (n-1)/2."""
    n = weight.n
    if isinstance(weight, InhomogeneousWeight):
        if abs(weight.s - (n + 1) / 2.0) < 1e-12:
            return 0.0, math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)
        if abs(weight.s - (n - 1) / 2.0) < 1e-12:
            return -1.0, 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n - 1) / 2.0)
    raise ValueError(
        "the Legendre form needs an inhomogeneous weight with s in {(n-1)/2, (n+1)/2}"
    )


def lambda_legendre_form(weight: WeightSpec, k: int) -> float:
    """lambda_k by Funk-Hecke, |S^{n-2}|/(2 pi)^n int_{-1}^1 F(1-t) P_{n,k}(t)
    (1-t^2)^{(n-3)/2} dt with F(|xi|^2/2) = hat w(xi): an oracle for
    lambda_quadrature that shares none of its quadrature.

    With u = sqrt(2(1-t)) the integral becomes
    C int_0^2 u^{gamma+n-2} (2-u)^{(n-3)/2} G(u) du with the smooth
    G(u) = exp(-u) P_{n,k}(1 - u^2/2) ((2+u)/4)^{(n-3)/2}, taken by an
    80-node Gauss-Jacobi rule."""
    n = weight.n
    gamma_exp, const = _profile_F(weight)
    a_exp = (n - 3) / 2.0
    xj, wj = sp.roots_jacobi(80, a_exp, gamma_exp + n - 2.0)
    u = xj + 1.0
    g = np.exp(-u) * legendre(n, k, 1.0 - 0.5 * u * u) * (0.25 * (2.0 + u)) ** a_exp
    return const * sphere_area(n - 1) / (2.0 * math.pi) ** n * float(np.sum(wj * g))


# ---------------------------------------------------------------------------
# spectrum assembly


@dataclass(frozen=True)
class TruncationCertificate:
    K: int
    tail_bound: float
    method: str
    details: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class LambdaSpectrum:
    weight: WeightSpec
    values: np.ndarray            # lambda_0 .. lambda_K
    lambda_star: float
    K_set: tuple[int, ...]
    certificate: TruncationCertificate
    tol: float

    @property
    def lambda0(self) -> float:
        return float(self.values[0])


_KSET_RTOL = 1e-9
# Each Hoelder moment V is raised by the relative factor 1 + _V_ROUNDING.  The
# closed forms and each term of a panel sum are good to a few ulps, and numpy
# sums N positive terms pairwise, to about (log2 N + 8) ulps; both stay below
# 1e-14 relative.
_V_ROUNDING = 1e-12


def _holder_tail_bound(weight: WeightSpec, k_from: int) -> tuple[float, dict]:
    """Upper bound on sup_{k >= k_from} lambda_k via the Landau envelope and
    a Hoelder split with exponents (p, p') and a small epsilon; the weight
    gives the moments V = int_0^infty w^{p'} r^e dr of the split."""
    n, s_eff = weight.n, weight.decay_exponent()
    eps_pinned = min(1.0, 3.0 * (s_eff - 0.5)) / 2.0
    admissible = []
    # p' = 6 with the pinned eps first; slowly decaying weights need the
    # larger p' choices to certify at moderate K
    for p_prime in (6.0, 4.0, 8.0, 12.0, 16.0):
        for eps in {eps_pinned, 0.05, 0.1, 0.15, 0.25, 0.5, 1.0, 2.0, eps_pinned / 4.0}:
            if eps <= 0 or k_from + (n - (1.0 + eps)) / 2.0 <= 0:
                continue
            expo = p_prime - 2.0 / 3.0 + eps * (p_prime - 1.0)
            # V = int_0^infty w^{p'} r^{expo} dr must converge for this eps
            if 2.0 * s_eff * p_prime > expo + 1.0:
                admissible.append((p_prime, eps, expo))
    moments = weight.holder_moments([(pp, expo) for pp, _, expo in admissible])
    best = None
    for (p_prime, eps, _), val in zip(admissible, moments):
        if not np.isfinite(val):
            continue
        p = p_prime / (p_prime - 1.0)
        watson = watson_integral(n, k_from, 1.0 + eps)
        bound = LANDAU_ENVELOPE ** (2.0 / p_prime) * watson ** (1.0 / p) * val ** (1.0 / p_prime)
        if best is None or bound < best[0]:
            best = (bound, {"p_prime": p_prime, "eps": eps, "V": val, "watson": watson})
    if best is None:
        raise InconclusiveError("no admissible Hoelder exponents for the tail bound")
    return best


def build_spectrum(weight: WeightSpec, K: int, tol: float = 1e-8) -> LambdaSpectrum:
    """Compute lambda_0..lambda_K, lambda_star, the attaining set and a
    truncation certificate for sup_{k > K} lambda_k."""
    if K < 1:
        raise ValueError("K must be >= 1")
    closed = [weight.closed_form(k) for k in range(K + 2)]
    if closed[0] is not None:
        vals = np.array(closed[:-1])
        cert = TruncationCertificate(K, closed[-1], "monotone-closed-form")
    else:
        vals = np.array([lambda_quadrature(weight, k, tol)[0] for k in range(K + 1)])
        tail, detail = _holder_tail_bound(weight, K + 1)
        cert = TruncationCertificate(K, tail, "landau-hoelder", detail)
    lam_star = float(np.max(vals[1:]))
    if cert.tail_bound >= lam_star * (1.0 - _KSET_RTOL):
        raise InconclusiveError(
            f"tail bound {cert.tail_bound:.3e} does not separate from "
            f"lambda_star {lam_star:.3e}; increase K"
        )
    k_set = tuple(
        k for k in range(1, K + 1) if vals[k] >= lam_star * (1.0 - _KSET_RTOL)
    )
    if np.any(vals <= 0) or np.any(vals[1:] >= vals[0]):
        raise InconsistencyError("computed spectrum violates lambda_k < lambda_0")
    return LambdaSpectrum(weight, vals, lam_star, k_set, cert, tol)


def stability_constant(spectrum: LambdaSpectrum) -> float:
    """C'(w) = lambda_0 - lambda_star (non-negative)."""
    return max(spectrum.lambda0 - spectrum.lambda_star, 0.0)


# ---------------------------------------------------------------------------
# export


def spectrum_to_json(spectrum: LambdaSpectrum) -> str:
    doc = {
        "n": spectrum.weight.n,
        "weight": spectrum.weight.summary(),
        "tol": spectrum.tol,
        "lambda": [float(v) for v in spectrum.values],
        "lambda_star": spectrum.lambda_star,
        "K_set": list(spectrum.K_set),
        "certificate": {
            "K": spectrum.certificate.K,
            "tail_bound": spectrum.certificate.tail_bound,
            "method": spectrum.certificate.method,
            "details": {k: float(v) for k, v in spectrum.certificate.details.items()},
        },
    }
    return json.dumps(doc, indent=2)


def spectrum_to_csv(spectrum: LambdaSpectrum) -> str:
    rows = [f"{k},{float(v)!r}" for k, v in enumerate(spectrum.values)]
    return "\n".join(["k,lambda_k", *rows]) + "\n"
