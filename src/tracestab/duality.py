"""Finite-dimensional duality laboratory: duality maps, lp->lq operator
norms with extremiser certificates, extremiser transfer between an
operator and its adjoint, stable-Hoelder inequalities, the local
duality-stability pipeline, the unit-interval counterexample family, and
stereographic/pushforward identities.

Everything is real-valued; the phase freedom of the continuous theory is
realised by signs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import ConvergenceError, InconsistencyError

__all__ = [
    "FiniteOperator",
    "NormCertificate",
    "LocalStabilityReport",
    "lp_norm",
    "duality_map",
    "operator_norm",
    "brute_force_norm",
    "extremiser_transfer",
    "cfl3_gap",
    "cfl1_gap",
    "aldaz_ratio",
    "ray_distance",
    "local_stability_pipeline",
    "sigma_counterexample",
    "stereographic",
    "pushforward_isometry",
    "operator_to_json",
    "operator_from_json",
]


def lp_norm(x: np.ndarray, p: float) -> float:
    x = np.asarray(x, dtype=float)
    if math.isinf(p):
        return float(np.max(np.abs(x)))
    return float(np.sum(np.abs(x) ** p) ** (1.0 / p))


def _conjugate(r: float) -> float:
    return r / (r - 1.0)


@dataclass(frozen=True)
class FiniteOperator:
    """Matrix operator from l^p(X) to l^q(Y), X and Y finite."""

    matrix: np.ndarray
    p: float
    q: float

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or not np.all(np.isfinite(m)):
            raise ValueError("operator matrix must be a finite 2-d array")
        object.__setattr__(self, "matrix", m)
        if not 1.0 < self.p <= 2.0:
            raise ValueError(f"requires p in (1, 2], got {self.p}")
        if not 1.0 < self.q < math.inf:
            raise ValueError(f"requires q in (1, inf), got {self.q}")

    @property
    def p_prime(self) -> float:
        return _conjugate(self.p)

    @property
    def q_prime(self) -> float:
        return _conjugate(self.q)

    @property
    def nonnegative(self) -> bool:
        return bool(np.all(self.matrix >= 0.0))

    def apply(self, g: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(g, dtype=float)

    def apply_adjoint(self, h: np.ndarray) -> np.ndarray:
        return self.matrix.T @ np.asarray(h, dtype=float)

    def adjoint(self) -> "FiniteOperator":
        """T*: l^{q'} -> l^{p'} (note the exponent swap)."""
        return FiniteOperator(self.matrix.T, self.q_prime, self.p_prime)


@dataclass(frozen=True)
class NormCertificate:
    value: float
    extremiser: np.ndarray = field(repr=False)
    residual: float
    starts: int
    iterations: int
    certified: bool   # True only for nonnegative matrices with p <= q
    distinct_values: int = 1   # local maxima seen across starts


@dataclass(frozen=True)
class LocalStabilityReport:
    deficit: float
    dist: float
    term_gap: float        # ||T|| - ||T* G||_{p'}
    term_quad: float       # (p-1)/4 ||T* G||_{p'} ||g - D_{p'}(T* G)||_p^2
    lower_bound: float     # term_gap + term_quad <= deficit
    ratio: float           # deficit / dist^2
    tracked_constant: float
    adjoint_norm_ok: bool  # ||T* G||_{p'} >= ||T||/2 inside the regime
    in_regime: bool


def _row_norms(X: np.ndarray, r: float) -> np.ndarray:
    """l^r norm of each row of a (starts x columns) array."""
    return (np.abs(X) ** r).sum(axis=1) ** (1.0 / r)


def _duality_rows(F: np.ndarray, r: float) -> np.ndarray:
    """The duality map D_r applied to each row of F."""
    nrm = _row_norms(F, r)
    if not nrm.all():
        raise ValueError("duality map undefined at the zero vector")
    absF = np.abs(F)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(absF > 0.0, absF ** (r - 2.0) * F, 0.0)
    return out / (nrm ** (r - 1.0))[:, None]


def _apply_rows(M: np.ndarray, G: np.ndarray) -> np.ndarray:
    """M g for each row g of G, as a broadcast product summed by row.  Unlike
    a BLAS product, whose blocking depends on the number of rows, each row's
    result does not depend on the other rows."""
    return (G[:, None, :] * M).sum(axis=2)


def duality_map(F: np.ndarray, r: float) -> np.ndarray:
    """D_r F = |F|^{r-2} F / ||F||_r^{r-1}; a unit vector of l^{r'} pairing
    maximally with F.  Positively homogeneous of degree zero."""
    if r <= 1.0:
        raise ValueError(f"requires r > 1, got {r}")
    F = np.asarray(F, dtype=float)
    return _duality_rows(F.reshape(1, -1), r).reshape(F.shape)


def _fixed_points(T: FiniteOperator, G0: np.ndarray, tol: float = 1e-12,
                  max_iter: int = 10_000):
    """Iterate g -> D_{p'}(T* D_q(T g)) from every row of G0 at once.

    A row stops on the first step whose l^2 length falls below tol.  Every
    operation acts on each row alone, so a row follows the trajectory it
    would follow in a batch of one.  Returns the fixed points (one per row)
    and each row's iteration count."""
    M = T.matrix
    G = G0 / _row_norms(G0, T.p)[:, None]
    its = np.zeros(len(G), dtype=int)
    rows, g = np.arange(len(G)), G
    for it in range(max_iter):
        try:
            H = _duality_rows(_apply_rows(M, g), T.q)
        except ValueError:
            raise ValueError("operator annihilates the start vector") from None
        g_new = _duality_rows((H[:, :, None] * M).sum(axis=1), T.p_prime)
        done = _row_norms(g_new - g, 2.0) < tol
        g = g_new
        if done.any():
            G[rows[done]] = g[done]
            its[rows[done]] = it + 1
            rows, g = rows[~done], g[~done]
            if not rows.size:
                return G, its
    raise ConvergenceError(f"fixed-point iteration did not converge in {max_iter} steps")


def operator_norm(T: FiniteOperator, starts: int = 8,
                  rng: np.random.Generator | None = None) -> NormCertificate:
    """Multistart duality-map iteration for ||T||: l^p -> l^q.

    For entrywise-nonnegative matrices with p <= q the iteration converges
    to positive stationary points; distinct local maxima can still exist
    when p < q, so on disagreement the search escalates and certifies only
    if the top value is reproduced by an independent start.  For general
    matrices the best stationary value is a flagged lower bound.  The
    starts of a sweep iterate as one batch."""
    if starts < 1:
        raise ValueError("starts must be >= 1")
    rng = rng or np.random.default_rng(0)
    certified = T.nonnegative and T.p <= T.q
    ncol = T.matrix.shape[1]

    def sweep(count):
        G0 = np.empty((count, ncol))
        for g0 in G0:
            g0[:] = rng.uniform(0.1, 1.0, size=ncol)
            if not certified:
                g0 *= rng.choice([-1.0, 1.0], size=ncol)
        G, its = _fixed_points(T, G0)
        values = _row_norms(_apply_rows(T.matrix, G), T.q)
        return values.tolist(), list(G), int(its.sum())

    values, extremisers, total_it = sweep(starts)
    used = starts
    if certified and (max(values) - min(values)) > 1e-9 * max(values):
        more_v, more_g, more_it = sweep(4 * starts)
        values += more_v
        extremisers += more_g
        total_it += more_it
        used += 4 * starts
    best = int(np.argmax(values))
    best_val, best_g = values[best], extremisers[best]
    top_hits = sum(1 for v in values if v >= best_val * (1.0 - 1e-9))
    clusters = []
    for v in sorted(values):
        if not clusters or v > clusters[-1] * (1.0 + 1e-9):
            clusters.append(v)
    if certified and top_hits < 2:
        raise InconsistencyError(
            f"top stationary value {best_val!r} seen only once in {used} starts; "
            f"values span {min(values)!r}..{max(values)!r}"
        )
    residual = best_val * lp_norm(best_g, T.p) - lp_norm(T.apply(best_g), T.q)
    return NormCertificate(best_val, best_g, residual, used, total_it, certified,
                           len(clusters))


def brute_force_norm(T: FiniteOperator, mesh: int = 180) -> float:
    """Dense search of sup ||Tg||_q over the nonnegative unit l^p sphere;
    oracle for small instances (2 or 3 columns)."""
    ncol = T.matrix.shape[1]
    t = np.linspace(0.0, 0.5 * math.pi, mesh)
    c, s = np.cos(t), np.sin(t)
    if ncol == 2:
        pts = np.stack([c, s], axis=1)
    elif ncol == 3:
        # point (j, i) is (cos t_i cos t_j, cos t_i sin t_j, sin t_i)
        pts = np.stack([np.outer(c, c).ravel(), np.outer(s, c).ravel(),
                        np.tile(s, mesh)], axis=1)
    else:
        raise ValueError("brute force supports 2 or 3 columns")
    pts = np.abs(pts)
    norms = np.sum(pts ** T.p, axis=1) ** (1.0 / T.p)
    pts = pts / norms[:, None]
    vals = np.sum(np.abs(pts @ T.matrix.T) ** T.q, axis=1) ** (1.0 / T.q)
    return float(np.max(vals))


def extremiser_transfer(T: FiniteOperator, G_star: np.ndarray,
                        norm_value: float | None = None) -> np.ndarray:
    """Map an extremiser of T* to one of T via g = |T* G|^{p'-2} (T* G)."""
    if norm_value is None:
        norm_value = operator_norm(T).value
    G_star = np.asarray(G_star, dtype=float)
    achieved = lp_norm(T.apply_adjoint(G_star), T.p_prime)
    target = norm_value * lp_norm(G_star, T.q_prime)
    defect = abs(achieved - target) / max(target, 1e-300)
    if defect > 1e-9:
        raise ValueError(
            f"input is not an extremiser of the adjoint (relative defect {defect:.3e})"
        )
    h = T.apply_adjoint(G_star)
    g = np.abs(h) ** (T.p_prime - 2.0) * h
    if lp_norm(T.apply(g), T.q) < norm_value * lp_norm(g, T.p) * (1.0 - 1e-8):
        raise InconsistencyError("transferred vector fails to achieve the norm")
    return g


# ---------------------------------------------------------------------------
# stable Hoelder inequalities


def cfl_constant(r: float) -> float:
    return 2.0 * _conjugate(r) ** (r - 1.0) if r <= 2.0 else 4.0 * (r - 1.0)


def cfl3_gap(g1: np.ndarray, g2: np.ndarray, r: float):
    """Duality-map continuity: returns (lhs, rhs) with
    lhs = ||D_r g1 - D_r g2||_{r'} and rhs the explicit-constant bound."""
    lhs = lp_norm(duality_map(g1, r) - duality_map(g2, r), _conjugate(r))
    ratio = lp_norm(np.asarray(g1, float) - np.asarray(g2, float), r) / (
        lp_norm(g1, r) + lp_norm(g2, r)
    )
    rhs = cfl_constant(r) * ratio ** (min(r, 2.0) - 1.0)
    return lhs, rhs


def cfl1_gap(h1: np.ndarray, h2: np.ndarray, r: float):
    """Sharpened Hoelder for unit vectors h1 in l^r, h2 in l^{r'}, r >= 2:
    returns (pairing, bound) with pairing = |<h1, h2>| and
    bound = 1 - (r'-1)/4 ||D_r h1 - sigma h2||_{r'}^2."""
    if r < 2.0:
        raise ValueError(f"requires r >= 2, got {r}")
    h1 = np.asarray(h1, dtype=float)
    h2 = np.asarray(h2, dtype=float)
    rp = _conjugate(r)
    if abs(lp_norm(h1, r) - 1.0) > 1e-9 or abs(lp_norm(h2, rp) - 1.0) > 1e-9:
        raise ValueError("inputs must be unit vectors in l^r and l^{r'}")
    pairing = float(np.dot(h1, h2))
    sigma = 1.0 if pairing >= 0.0 else -1.0
    bound = 1.0 - (rp - 1.0) / 4.0 * lp_norm(duality_map(h1, r) - sigma * h2, rp) ** 2
    return abs(pairing), bound


def aldaz_ratio(h1: np.ndarray, h2: np.ndarray, r: float) -> float:
    """Empirical constant of the Aldaz stable-Hoelder inequality:
    || |h1|^{r/2} - |h2|^{r'/2} ||_2^2  /  (1 - <|h1|, |h2|>)."""
    if r <= 1.0:
        raise ValueError(f"requires r > 1, got {r}")
    h1 = np.abs(np.asarray(h1, dtype=float))
    h2 = np.abs(np.asarray(h2, dtype=float))
    rp = _conjugate(r)
    if abs(lp_norm(h1, r) - 1.0) > 1e-9 or abs(lp_norm(h2, rp) - 1.0) > 1e-9:
        raise ValueError("inputs must be unit vectors in l^r and l^{r'}")
    num = lp_norm(h1 ** (r / 2.0) - h2 ** (rp / 2.0), 2.0) ** 2
    den = 1.0 - float(np.dot(h1, h2))
    if den <= 1e-15:
        return 1.0 if num <= 1e-15 else math.inf
    return num / den


# ---------------------------------------------------------------------------
# local duality-stability


def ray_distance(u: np.ndarray, b: np.ndarray, p: float) -> float:
    """min over c >= 0 of ||u - c b||_p (unweighted sums over all entries),
    by a bounded search over c in [0, 10 ||u||_p / ||b||_p]."""
    res = minimize_scalar(
        lambda c: lp_norm(u - c * b, p),
        bounds=(0.0, 10.0 * lp_norm(u, p) / max(lp_norm(b, p), 1e-300)),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return float(res.fun)


def local_stability_pipeline(T: FiniteOperator, g: np.ndarray,
                             extremiser_samples, cert: NormCertificate | None = None,
                             regime: float = 0.25) -> LocalStabilityReport:
    """Evaluate each link of the local stability chain at g.

    deficit >= (||T|| - ||T* G||) + (p-1)/4 ||T* G|| ||g/||g|| - D_{p'}(T* G)||_p^2
    with G = D_q(T g); outside the relative-distance regime the report is
    returned unasserted (in_regime False)."""
    if cert is None:
        cert = operator_norm(T)
    g = np.asarray(g, dtype=float)
    gn = lp_norm(g, T.p)
    if gn == 0.0:
        raise ValueError("g must be nonzero")
    u = g / gn
    dist = min(ray_distance(u, np.asarray(gs, float), T.p) for gs in extremiser_samples)
    in_regime = dist < regime
    G = duality_map(T.apply(u), T.q)
    TsG = T.apply_adjoint(G)
    TsG_norm = lp_norm(TsG, T.p_prime)
    term_gap = cert.value - TsG_norm
    term_quad = (T.p - 1.0) / 4.0 * TsG_norm * lp_norm(u - duality_map(TsG, T.p_prime), T.p) ** 2
    deficit = cert.value - lp_norm(T.apply(u), T.q)
    ratio = deficit / dist ** 2 if dist > 0 else math.inf
    return LocalStabilityReport(
        deficit=deficit,
        dist=dist,
        term_gap=term_gap,
        term_quad=term_quad,
        lower_bound=term_gap + term_quad,
        ratio=ratio,
        tracked_constant=(T.p - 1.0) / 4.0 * cert.value,
        adjoint_norm_ok=TsG_norm >= cert.value / 2.0 - 1e-12,
        in_regime=in_regime,
    )


# ---------------------------------------------------------------------------
# the [0,1] counterexample family


def sigma_counterexample(r: float, sigma: float, delta_list,
                         grid_points: int = 4000) -> list[dict]:
    """Unit-interval pair h1 = 1, h2 = (1-d)^{-2/r'} on (0, (1-d)^2):
    closed-form ratios ||h1 - h2^{r'-1}||_r^sigma / (2 d) per delta, with
    the exact 2-delta identity residual and a midpoint-grid cross-check of
    the unit norms and the difference norm."""
    if not 1.0 < r < math.inf:
        raise ValueError(f"requires r in (1, inf), got {r}")
    rp = _conjugate(r)
    mid = (np.arange(grid_points) + 0.5) / grid_points
    out = []
    for d in delta_list:
        if not 0.0 < d < 0.5:
            raise ValueError(f"delta must lie in (0, 1/2), got {d}")
        one_m = 1.0 - d
        # || h1^{r/2} - h2^{r'/2} ||_2^2, exactly 2 delta
        sq = one_m ** 2 * (1.0 - 1.0 / one_m) ** 2 + 1.0 - one_m ** 2
        # || h1 - h2^{r'-1} ||_r^r
        diff_r = one_m ** 2 * (
            abs(1.0 - one_m ** (-2.0 / r)) ** r + one_m ** (-2.0) - 1.0
        )
        h2 = np.where(mid < one_m ** 2, one_m ** (-2.0 / rp), 0.0)
        grid_residual = max(
            abs(np.mean(np.ones_like(mid) ** r) - 1.0),
            abs(np.mean(h2 ** rp) - 1.0),
            abs(np.mean(np.abs(1.0 - h2 ** (rp - 1.0)) ** r) - diff_r),
        )
        ratio = diff_r ** (sigma / r) / (2.0 * d)
        out.append(
            {
                "delta": d,
                "ratio": ratio,
                "numerator": diff_r ** (sigma / r),
                "identity_residual": abs(sq - 2.0 * d),
                "grid_residual": float(grid_residual),
            }
        )
    return out


# ---------------------------------------------------------------------------
# stereographic projection and pushforward isometry


def stereographic(x) -> tuple[np.ndarray, np.ndarray]:
    """Inverse stereographic projection of the rows x in R^{n-1} of an
    (..., n-1) array onto S^{n-1}, with the jacobian (2/(1+|x|^2))^{n-1}."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    s2 = np.sum(x * x, axis=-1, keepdims=True)
    point = np.concatenate([2.0 * x / (1.0 + s2), (1.0 - s2) / (1.0 + s2)], axis=-1)
    jac = (2.0 / (1.0 + s2[..., 0])) ** x.shape[-1]
    return point, jac


def pushforward_isometry(G, q_prime: float, n: int,
                         n_radial: int = 400, n_azimuth: int = 256):
    """Check of the flat-side isometry: returns (sphere L^{q'} norm of G,
    L^{q'} norm of x -> J(x)^{1/q'} G(pi^{-1} x) over R^{n-1}).

    G is a callable taking an (N, n) array of unit vectors."""
    if n not in (2, 3):
        raise ValueError("pushforward check supports n in {2, 3}")
    from .harmonic import sphere_quadrature

    pts, w = sphere_quadrature(n, n_polar=n_radial // 2, n_azimuth=n_azimuth)
    vals = np.asarray(G(pts), dtype=float)
    sphere_norm = float(np.sum(w * np.abs(vals) ** q_prime) ** (1.0 / q_prime))

    # flat side in polar coordinates x = rho * u, rho = tan(psi/2), with u
    # on S^{n-2}: the two points +-1 (n = 2) or n_azimuth rays (n = 3)
    x_gl, w_gl = np.polynomial.legendre.leggauss(n_radial)
    psi = 0.5 * math.pi * (x_gl + 1.0)
    rho = np.tan(0.5 * psi)
    w_rho = 0.5 * math.pi * w_gl * 0.5 / np.cos(0.5 * psi) ** 2 * rho ** (n - 2)
    if n == 2:
        dirs, w_dir = np.array([[1.0], [-1.0]]), 1.0
    else:
        phi = np.linspace(0.0, 2.0 * math.pi, n_azimuth, endpoint=False)
        dirs, w_dir = np.stack([np.cos(phi), np.sin(phi)], axis=1), 2.0 * math.pi / n_azimuth
    sph, jac = stereographic(rho[:, None, None] * dirs)
    gv = np.asarray(G(sph.reshape(-1, n)), dtype=float).reshape(jac.shape)
    flat = float(np.sum(w_rho[:, None] * w_dir * jac * np.abs(gv) ** q_prime))
    return sphere_norm, flat ** (1.0 / q_prime)


# ---------------------------------------------------------------------------
# serialisation


def operator_to_json(T: FiniteOperator) -> str:
    return json.dumps(
        {
            "rows": T.matrix.shape[0],
            "cols": T.matrix.shape[1],
            "p": T.p,
            "q": T.q,
            "entries": T.matrix.ravel().tolist(),
        }
    )


def operator_from_json(text: str) -> FiniteOperator:
    doc = json.loads(text)
    m = np.asarray(doc["entries"], dtype=float).reshape(doc["rows"], doc["cols"])
    return FiniteOperator(m, doc["p"], doc["q"])
