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

import csv
import functools
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.special as sp
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

from .errors import ConvergenceError, InconclusiveError, InconsistencyError
from .specfun import landau_envelope_constant, legendre

__all__ = [
    "WeightSpec",
    "LambdaSpectrum",
    "TruncationCertificate",
    "sphere_area",
    "lambda_homogeneous_closed",
    "lambda_inhomogeneous_s1",
    "lambda_quadrature",
    "watson_integral",
    "watson_quadrature",
    "lambda_legendre_form",
    "legendre_form_calibration",
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
    """Radial weight w on (0, infty).

    kind is one of 'homogeneous' (r^{-2s}), 'inhomogeneous' ((1+r^2)^{-s})
    or 'custom' (monotone-spline table with a declared power-law tail).
    Weights hash and compare by identity, since a custom table holds arrays.
    """

    kind: str
    n: int
    s: float | None = None
    r_table: np.ndarray | None = None
    w_table: np.ndarray | None = None
    tail_exponent: float | None = None
    F_w: object | None = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"dimension n must be >= 2, got {self.n}")
        if self.kind in ("homogeneous", "inhomogeneous"):
            if not self.s > 0.5:
                raise ValueError(f"s > 1/2 required; got s={self.s}")
            if self.kind == "homogeneous" and not self.s < self.n / 2.0:
                raise ValueError(
                    f"s < n/2 required for r^(-2s); got s={self.s}, n={self.n}")
        elif self.kind == "custom":
            r = np.asarray(self.r_table, dtype=float)
            w = np.asarray(self.w_table, dtype=float)
            if r.ndim != 1 or r.shape != w.shape or r.size < 4:
                raise ValueError("custom weight needs matching 1-d tables, >= 4 points")
            if np.any(np.diff(r) <= 0) or np.any(r <= 0):
                raise ValueError("custom weight radii must be positive increasing")
            if np.any(w <= 0):
                raise ValueError("custom weight values must be strictly positive")
            if self.tail_exponent is None or self.tail_exponent <= 1:
                raise ValueError("custom weight needs a declared tail exponent > 1")
            object.__setattr__(self, "r_table", r)
            object.__setattr__(self, "w_table", w)
            object.__setattr__(self, "_spline", PchipInterpolator(r, w, extrapolate=False))
        else:
            raise ValueError(f"unknown weight kind {self.kind!r}")

    # constructors -----------------------------------------------------
    @staticmethod
    def homogeneous(n: int, s: float) -> "WeightSpec":
        return WeightSpec(kind="homogeneous", n=n, s=s)

    @staticmethod
    def inhomogeneous(n: int, s: float) -> "WeightSpec":
        return WeightSpec(kind="inhomogeneous", n=n, s=s)

    @staticmethod
    def custom(n, r_table, w_table, tail_exponent, F_w=None) -> "WeightSpec":
        return WeightSpec(kind="custom", n=n, r_table=r_table, w_table=w_table,
                          tail_exponent=tail_exponent, F_w=F_w)

    # evaluation -------------------------------------------------------
    def w(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "homogeneous":
            out = r ** (-2.0 * self.s)
        elif self.kind == "inhomogeneous":
            out = (1.0 + r * r) ** (-self.s)
        else:
            out = np.empty_like(r)
            r0, r1 = self.r_table[0], self.r_table[-1]
            inside = (r >= r0) & (r <= r1)
            out[inside] = self._spline(r[inside])
            out[r < r0] = self.w_table[0]
            a = self.tail_exponent
            c = self.w_table[-1] * r1 ** a
            high = r > r1
            out[high] = c * r[high] ** (-a)
        return out

    def tail_integral(self, R: float) -> float:
        """int_R^infty w(r) dr, analytic per weight family."""
        if self.kind == "homogeneous":
            return R ** (1.0 - 2.0 * self.s) / (2.0 * self.s - 1.0)
        if self.kind == "inhomogeneous":
            a, b = self.s - 0.5, 0.5
            x = 1.0 / (1.0 + R * R)
            return 0.5 * sp.beta(a, b) * sp.betainc(a, b, x)
        r0, r1 = self.r_table[0], self.r_table[-1]
        a = self.tail_exponent
        c = self.w_table[-1] * r1 ** a
        if R >= r1:
            return c * R ** (1.0 - a) / (a - 1.0)
        # below r0 the weight is the constant w_table[0]; between knots it is
        # a cubic, which the 12-point rule on knot panels integrates exactly
        flat = self.w_table[0] * (r0 - R) if R < r0 else 0.0
        r, wq = _gauss_panels(_knot_panels(max(R, r0), r1, self.r_table), 12)
        return flat + float(np.sum(wq * self.w(r))) + c * r1 ** (1.0 - a) / (a - 1.0)

    def small_r_exponent(self) -> float:
        """Power-law exponent of w at r -> 0 (0 for bounded weights)."""
        return -2.0 * self.s if self.kind == "homogeneous" else 0.0


# ---------------------------------------------------------------------------
# closed forms


def lambda_homogeneous_closed(n: int, s: float, k: int) -> float:
    """Gamma-ratio lambda_k for the weight r^{-2s}: watson_integral at tau = 2s."""
    if not 0.5 < s < n / 2.0:
        raise ValueError(f"requires s in (1/2, n/2); got s={s}, n={n}")
    if k < 0:
        raise ValueError("k must be >= 0")
    return watson_integral(n, k, 2.0 * s)


def lambda_inhomogeneous_s1(n: int, k: int) -> float:
    """lambda_k = I_{k+(n-2)/2}(1) K_{k+(n-2)/2}(1) for weight (1+r^2)^{-1}."""
    if n < 2 or k < 0:
        raise ValueError("requires n >= 2 and k >= 0")
    nu = k + (n - 2.0) / 2.0
    return float(sp.iv(nu, 1.0) * sp.kv(nu, 1.0))


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
        xj, wj = sp.roots_jacobi(40, 0.0, beta0)
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


def _envelope_integral(nu: float, weight, r_cut: float) -> tuple[float, float]:
    """int_{r_cut}^infty r w(r) / (pi sqrt(r^2 - nu^2)) dr and its error.

    One quad meets round-off at the knots of a custom table (a weight with
    `r_table`).  So past its last knot R the power law c r^{-a} takes the closed
    form int_R^infty w dr 2F1(1/2, (a-1)/2; (a+1)/2; nu^2/R^2) / pi, and below R
    Gauss rules (12 points; 6 for the error) take panels between knots, at
    most a quarter radius long."""

    def model(r):
        return r * weight.w(r) / np.sqrt(r * r - nu * nu) / math.pi

    knots = getattr(weight, "r_table", None)
    if knots is None:
        return quad(lambda r: float(model(r)), r_cut, np.inf, limit=400,
                    epsabs=1e-13, epsrel=1e-11)
    R, a = max(r_cut, float(knots[-1])), weight.tail_exponent
    power = weight.tail_integral(R) * sp.hyp2f1(0.5, (a - 1.0) / 2.0, (a + 1.0) / 2.0,
                                                (nu / R) ** 2) / math.pi
    edges = _knot_panels(r_cut, R, knots)
    fine, coarse = (float(np.sum(wq * model(r))) for r, wq in
                    (_gauss_panels(edges, m) for m in (12, 6)))
    return float(power) + fine, abs(fine - coarse)


def _tail_integral(nu: float, weight, r_cut: float, envelope: tuple[float, float],
                   n_half_periods: int = 160) -> tuple[float, float]:
    """int_{r_cut}^infty J_nu^2 r w dr.

    The oscillation-averaged envelope J_nu(r)^2 ~ 1/(pi sqrt(r^2-nu^2))
    gives a smooth model, integrated by _envelope_integral; the oscillating
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
    w_tail_end = weight.tail_integral(r_end)
    resid = (0.125 / r_end ** 2 + nu ** 4 / r_end ** 4) * w_tail_end / math.pi
    return avg + corr, corr_err + resid + avg_err


def lambda_quadrature(weight: WeightSpec, k: int, tol: float = 1e-8) -> tuple[float, float]:
    """lambda_k(w) by direct quadrature; returns (value, error bound).

    Uses only the weight's `n`, vectorised `w(r)`, `tail_integral(R)` and
    `small_r_exponent()`.  Raises ConvergenceError if the tail machinery
    cannot reach tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if k < 0:
        raise ValueError("k must be >= 0")
    nu = k + (weight.n - 2.0) / 2.0
    beta0 = 2.0 * nu + 1.0 + weight.small_r_exponent()
    if beta0 <= -1.0:
        raise ValueError("weight is too singular at the origin; integral diverges")
    r_cut = max(24.0, 2.5 * nu + 12.0)
    head = _head_integral(nu, weight.w, beta0, r_cut)
    envelope = _envelope_integral(nu, weight, r_cut)
    for n_half in (160, 480, 1440, 4320):
        tail, err = _tail_integral(nu, weight, r_cut, envelope, n_half)
        if err <= tol:
            return head + tail, err
    raise ConvergenceError(
        f"tail error bound {err:.3e} exceeds tol {tol:.3e} for k={k}"
    )


class _PowerWeight:
    """Pure power weight r^{-tau}, letting watson_quadrature reuse the
    lambda machinery outside the WeightSpec validation range."""

    def __init__(self, n: int, tau: float):
        self.n = n
        self.tau = tau

    def w(self, r):
        return np.asarray(r, float) ** (-self.tau)

    def tail_integral(self, R: float) -> float:
        return R ** (1.0 - self.tau) / (self.tau - 1.0)

    def small_r_exponent(self) -> float:
        return -self.tau


def watson_quadrature(n: int, k: int, tau: float, tol: float = 1e-8) -> tuple[float, float]:
    """Quadrature twin of watson_integral (weight r^{-tau})."""
    if tau <= 1.0:
        raise ValueError("tau > 1 required")
    return lambda_quadrature(_PowerWeight(n, tau), k, tol)


# ---------------------------------------------------------------------------
# Legendre-polynomial representation of lambda_k


def _profile_F(weight: WeightSpec):
    """Radial profile F_w with F_w(|xi|^2/2) = hat w(xi), up to one unknown
    positive constant.  Supplied on the weight, or derived for the
    inhomogeneous Poisson-kernel exponents s in {(n-1)/2, (n+1)/2}."""
    if weight.F_w is not None:
        return weight.F_w
    n = weight.n
    if weight.kind == "inhomogeneous" and (
        abs(weight.s - (n - 1) / 2.0) < 1e-12 or abs(weight.s - (n + 1) / 2.0) < 1e-12
    ):
        gamma_exp = weight.s - (n + 1) / 2.0

        def F(u):
            z = np.sqrt(2.0 * np.asarray(u, float))
            return z ** gamma_exp * np.exp(-z)

        return F
    raise ValueError(
        "no profile F_w available: supply one on the weight, or use an "
        "inhomogeneous weight with s in {(n-1)/2, (n+1)/2}"
    )


def _legendre_form_raw(weight: WeightSpec, k: int) -> float:
    """Uncalibrated |S^{n-2}|/(2 pi)^n int_{-1}^1 F_w(1-t) P_{n,k}(t)
    (1-t^2)^{(n-3)/2} dt, via the substitution u = sqrt(2(1-t))."""
    n = weight.n
    F = _profile_F(weight)
    # With u = sqrt(2(1-t)) the integral becomes
    #   int_0^2 u^{b} (2-u)^{a} G(u) du,   a = (n-3)/2,  b = gamma_u + n - 2,
    # where gamma_u is the power-law exponent of F(u^2/2) at u -> 0 and
    #   G(u) = [F(u^2/2) / u^gamma_u] P_{n,k}(1 - u^2/2) ((2+u)/4)^{a}.
    a_exp = (n - 3) / 2.0
    u1, u2 = 1e-6, 2e-6
    f1, f2 = float(F(0.5 * u1 * u1)), float(F(0.5 * u2 * u2))
    gamma_u = math.log(f2 / f1) / math.log(2.0) if f1 > 0 and f1 != f2 else 0.0
    b_exp = gamma_u + n - 2.0
    if b_exp <= -1.0 or a_exp <= -1.0:
        raise ValueError("legendre-form integrand is non-integrable for this weight")
    xj, wj = sp.roots_jacobi(80, a_exp, b_exp)
    u = xj + 1.0
    t = np.clip(1.0 - 0.5 * u * u, -1.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = F(0.5 * u * u) / u ** gamma_u * legendre(n, k, t) * (0.25 * (2.0 + u)) ** a_exp
    val = float(np.sum(wj * g))
    return sphere_area(n - 1) / (2.0 * math.pi) ** n * val


def legendre_form_calibration(weight: WeightSpec, tol: float = 1e-8) -> float:
    """Multiplicative constant matching the Legendre-form lambda_0 to the
    direct quadrature; checked for consistency at k = 1."""
    raw0 = _legendre_form_raw(weight, 0)
    lam0, _ = lambda_quadrature(weight, 0, tol)
    if raw0 <= 0:
        raise InconsistencyError("legendre-form lambda_0 is non-positive")
    c = lam0 / raw0
    lam1, _ = lambda_quadrature(weight, 1, tol)
    pred1 = c * _legendre_form_raw(weight, 1)
    if abs(pred1 - lam1) > 1e-6 * max(abs(lam1), 1e-30) + 1e-10:
        raise InconsistencyError(
            f"legendre-form calibration failed: k=1 residual {abs(pred1 - lam1):.3e}"
        )
    return c


def lambda_legendre_form(weight: WeightSpec, k: int, calibration: float | None = None) -> float:
    """lambda_k via the Legendre-polynomial representation (requires F_w)."""
    if calibration is None:
        calibration = legendre_form_calibration(weight)
    return calibration * _legendre_form_raw(weight, k)


# ---------------------------------------------------------------------------
# spectrum assembly


@dataclass(frozen=True)
class TruncationCertificate:
    K: int
    tail_bound: float
    method: str
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
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
_V_ROUNDING = 1e-12            # relative rounding allowance on each Hoelder moment


def _holder_moments(weight: WeightSpec, pairs: list[tuple[float, float]]) -> list[float]:
    """Upper bounds on V = int_0^infty w(r)^{p'} r^e dr, one per admissible
    (p', e) pair, for an inhomogeneous or a custom weight.

    Inhomogeneous: V = B((e+1)/2, s p' - (e+1)/2) / 2 (DLMF 5.12.3 with
    t = r^2), which converges exactly when 2 s p' > e + 1.  Custom table:
    w = w_table[0] on [0, r0] and w = c r^{-a} past r1 integrate in closed
    form; on [r0, r1] Gauss rules of 24 and 12 points on _knot_panels give the
    24-point value plus |24-point - 12-point|.  (12 and 6 points, as in
    _envelope_integral, overstate V by up to 2.6e-7 relative on a sparse
    table, where w^{p'} is a power 16 of one cubic over a long knot interval;
    the 12-point value there is already exact to round-off.)  w is evaluated
    on those nodes once for all pairs.

    Rounding allowance: each V is raised by the relative factor
    1 + _V_ROUNDING = 1 + 1e-12.  The closed forms and each term of a panel
    sum are good to a few ulps, and numpy sums N positive terms pairwise, to
    about (log2 N + 8) ulps; both stay below 1e-14 relative."""
    if weight.kind == "inhomogeneous":
        vals = [0.5 * sp.beta((e + 1.0) / 2.0, weight.s * pp - (e + 1.0) / 2.0)
                 for pp, e in pairs]
    else:
        knots, a = weight.r_table, weight.tail_exponent
        r0, r1 = knots[0], knots[-1]
        c = weight.w_table[-1] * r1 ** a
        rules = [(r, wq, weight.w(r)) for r, wq in
                 (_gauss_panels(_knot_panels(r0, r1, knots), m) for m in (24, 12))]
        vals = []
        for pp, e in pairs:
            fine, coarse = (float(np.sum(wq * wr ** pp * r ** e)) for r, wq, wr in rules)
            head = weight.w_table[0] ** pp * r0 ** (e + 1.0) / (e + 1.0)
            tail = c ** pp * r1 ** (e + 1.0 - a * pp) / (a * pp - e - 1.0)
            vals.append(head + fine + abs(fine - coarse) + tail)
    return [float(v) * (1.0 + _V_ROUNDING) for v in vals]


def _holder_tail_bound(weight: WeightSpec, k_from: int, s_eff: float) -> tuple[float, dict]:
    """Upper bound on sup_{k >= k_from} lambda_k via the Landau envelope and
    a Hoelder split with exponents (p, p') and a small epsilon."""
    n = weight.n
    c_landau = landau_envelope_constant()
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
    moments = _holder_moments(weight, [(pp, expo) for pp, _, expo in admissible])
    best = None
    for (p_prime, eps, _), val in zip(admissible, moments):
        if not np.isfinite(val):
            continue
        p = p_prime / (p_prime - 1.0)
        watson = watson_integral(n, k_from, 1.0 + eps)
        bound = (
            c_landau ** (2.0 / p_prime)
            * watson ** (1.0 / p)
            * val ** (1.0 / p_prime)
        )
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
    n = weight.n
    if weight.kind == "homogeneous":
        vals = np.array([lambda_homogeneous_closed(n, weight.s, k) for k in range(K + 1)])
        tail = lambda_homogeneous_closed(n, weight.s, K + 1)
        cert = TruncationCertificate(K, tail, "monotone-closed-form")
    elif weight.kind == "inhomogeneous" and abs(weight.s - 1.0) < 1e-12:
        vals = np.array([lambda_inhomogeneous_s1(n, k) for k in range(K + 1)])
        tail = lambda_inhomogeneous_s1(n, K + 1)
        cert = TruncationCertificate(K, tail, "monotone-closed-form")
    else:
        vals = np.array([lambda_quadrature(weight, k, tol)[0] for k in range(K + 1)])
        s_eff = weight.s if weight.kind == "inhomogeneous" else weight.tail_exponent / 2.0
        tail, detail = _holder_tail_bound(weight, K + 1, s_eff)
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
    c = spectrum.lambda0 - spectrum.lambda_star
    return max(c, 0.0)


# ---------------------------------------------------------------------------
# export


def _weight_summary(weight: WeightSpec) -> dict:
    out = {"kind": weight.kind, "n": weight.n}
    if weight.s is not None:
        out["s"] = weight.s
    if weight.kind == "custom":
        out["tail_exponent"] = weight.tail_exponent
        out["table_points"] = int(weight.r_table.size)
    return out


def spectrum_to_json(spectrum: LambdaSpectrum) -> str:
    doc = {
        "n": spectrum.weight.n,
        "weight": _weight_summary(spectrum.weight),
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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "lambda_k"])
    for k, v in enumerate(spectrum.values):
        writer.writerow([k, repr(float(v))])
    return buf.getvalue()
