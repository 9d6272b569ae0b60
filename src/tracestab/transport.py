"""Desk-scale kinetic-transport laboratory.

Velocity averages, the X-ray adjoint, the extremising pair, empirical
sharp-constant estimation, and a local stability probe on uniform phase
grids.  Dimension n = 1 is the certified scale (2-d grids throughout);
n = 2 runs coarsely with relaxed tolerances.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .duality import ray_distance
from .errors import InconsistencyError

__all__ = [
    "PhaseGrid",
    "TransportFunction",
    "ProbePoint",
    "exponents",
    "extremiser_f",
    "extremiser_G",
    "velocity_average",
    "xray_adjoint",
    "grid_norm",
    "power_law_tail",
    "pairing",
    "ratio_estimate",
    "ratio_gradient",
    "orthogonalize_direction",
    "make_probe_direction",
    "local_stability_probe",
    "random_phase_function",
    "probe_to_csv",
]


def exponents(n: int) -> tuple[float, float, float]:
    """(p, q, r) with p = (n+2)/(n+1) and q = r = (n+2)/n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (n + 2.0) / (n + 1.0), (n + 2.0) / n, (n + 2.0) / n


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform symmetric grids: x and v over [-L, L] with spacing h, and a
    t-grid over [-t_extent, t_extent] with the same spacing."""

    n: int
    L: float
    h: float
    t_extent: float

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("supported dimensions are 1 and 2")
        if self.L < 10.0:
            raise ValueError("extent L must be >= 10 (slow power-law tails)")
        cap = self.L / 64.0 if self.n == 1 else self.L / 16.0
        if self.h > cap + 1e-12:
            raise ValueError(f"spacing h must be <= {cap} for n={self.n}")
        if self.t_extent <= 0.0:
            raise ValueError("t_extent must be positive")

    @property
    def x(self) -> np.ndarray:
        m = int(round(self.L / self.h))
        return self.h * np.arange(-m, m + 1)

    @property
    def v(self) -> np.ndarray:
        return self.x

    @property
    def t(self) -> np.ndarray:
        m = int(round(self.t_extent / self.h))
        return self.h * np.arange(-m, m + 1)

    @classmethod
    def build(cls, n: int = 1, L: float = 40.0, points: int = 256,
              t_extent: float | None = None) -> "PhaseGrid":
        if points < 1:
            raise ValueError("points must be >= 1")
        return cls(n, L, 2.0 * L / points, t_extent if t_extent is not None else L)


@dataclass(frozen=True)
class TransportFunction:
    """Samples of a function over the phase grid ('phase': (x, v)) or the
    space-time grid ('spacetime': (t, x)), optionally backed by the exact
    callable it was sampled from."""

    grid: PhaseGrid
    kind: str  # "phase" | "spacetime"
    samples: np.ndarray = field(repr=False)
    func: object = None

    def __post_init__(self):
        if self.kind not in ("phase", "spacetime"):
            raise ValueError("kind must be 'phase' or 'spacetime'")
        s = np.asarray(self.samples, dtype=float)
        if not np.all(np.isfinite(s)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", s)

    @classmethod
    def from_callable(cls, grid: PhaseGrid, kind: str, func) -> "TransportFunction":
        if grid.n == 1:
            if kind == "phase":
                X, V = np.meshgrid(grid.x, grid.v, indexing="ij")
                return cls(grid, kind, func(X, V), func)
            T, X = np.meshgrid(grid.t, grid.x, indexing="ij")
            return cls(grid, kind, func(T, X), func)
        xm = _vec_mesh(grid.x)  # (N, N, 2)
        if kind == "phase":
            X = xm[:, :, None, None, :]
            V = xm[None, None, :, :, :]
            return cls(grid, kind, func(X, V), func)
        T = grid.t[:, None, None]
        return cls(grid, kind, func(T, xm[None, :, :, :]), func)

    def tail_fraction(self) -> float:
        """Mass of the outermost grid shell relative to total |.| mass."""
        a = np.abs(self.samples)
        total = float(a.sum())
        if total == 0.0:
            return 0.0
        inner = float(a[(slice(2, -2),) * a.ndim].sum())
        return (total - inner) / total


def _vec_mesh(axis: np.ndarray) -> np.ndarray:
    """(N, N, 2) array of plane points from a 1-d axis."""
    A, B = np.meshgrid(axis, axis, indexing="ij")
    return np.stack([A, B], axis=-1)


@dataclass(frozen=True)
class ProbePoint:
    eps: float
    deficit: float
    dist_sq: float
    ratio: float


def extremiser_f(n: int, x, v):
    """f*(x, v) = ((1+|x|^2)(1+|v|^2) - (x.v)^2)^{-(n+1)/2}; for n = 1 this
    is (1 + x^2 + v^2)^{-1}."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if n == 1:
        return (1.0 + x ** 2 + v ** 2) ** -1.0
    x2 = np.sum(x * x, axis=-1)
    v2 = np.sum(v * v, axis=-1)
    xv = np.sum(x * v, axis=-1)
    return ((1.0 + x2) * (1.0 + v2) - xv ** 2) ** (-(n + 1.0) / 2.0)


def extremiser_G(n: int, t, x):
    """G*(t, x) = 1 / (1 + t^2 + |x|^2)."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    x2 = x ** 2 if n == 1 else np.sum(x * x, axis=-1)
    return 1.0 / (1.0 + t ** 2 + x2)


class _ShiftTable(NamedTuple):
    """Where each output line of a sampled kernel reads its source lines.

    Pairs starts[o]:starts[o+1] feed output line o: pair p adds
    weights[0, p] win[start[p], :-1] + weights[1, p] win[start[p], 1:] of
    the windows `_windows` lays over the source lines, that is, the source
    line shifted by k and by k + 1 rows, with weights 1 - w and w."""

    starts: np.ndarray
    start: np.ndarray
    weights: np.ndarray


@functools.lru_cache(maxsize=8)
def _shift_table(hx: float, nx: int, a_key: bytes, b_key: bytes) -> _ShiftTable:
    """Shift table for output lines over a and source lines over b, whose
    float64 bytes are given (arrays do not hash), on an x axis of nx rows
    spaced hx.

    Pair (a_o, b_r) reads row i of output line o at the point i + s of
    source line r, s = a_o b_r / hx: cell k = floor(s) at weight w = s - k,
    between rows i + k and i + k + 1.  Rows outside [0, nx) read zero, so
    the rule at -s is the transpose of the rule at s.  Pairs whose rows all
    lie off the grid (k < -nx or k >= nx) are dropped."""
    a, b = np.frombuffer(a_key), np.frombuffer(b_key)
    s = a[:, None] * b[None, :] / hx
    k = np.floor(s)
    out, src = np.nonzero((k >= -nx) & (k < nx))
    w = (s - k)[out, src]
    return _ShiftTable(
        starts=np.searchsorted(out, np.arange(a.size + 1)),
        start=(2 * src + 1) * nx + k[out, src].astype(np.int64),
        weights=np.stack([1.0 - w, w]))


def _windows(lines: np.ndarray) -> np.ndarray:
    """Windows of nx + 1 values over the lines laid end to end, each after
    nx zeros: window (2 r + 1) nx + k holds rows k .. k + nx of line r,
    zero off the line, for -nx <= k < nx."""
    n, nx = lines.shape
    block = np.zeros((n + 1, 2, nx))
    block[:-1, 1] = lines
    return np.lib.stride_tricks.sliding_window_view(block.ravel(), nx + 1)


def _shifted_sum(src: np.ndarray, table: _ShiftTable) -> np.ndarray:
    """acc[o] = sum over the table's pairs into output line o of their
    shifted, weighted source lines (rows along axis 1 of src)."""
    win = _windows(src)
    acc = np.zeros((table.starts.size - 1, src.shape[1]))
    for o in range(acc.shape[0]):
        sl = slice(table.starts[o], table.starts[o + 1])
        if sl.start < sl.stop:
            lo, hi = table.weights[:, sl] @ win[table.start[sl]]
            acc[o] = lo[:-1] + hi[1:]
    return acc


def _axis_key(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


def _vel_avg_sampled(fs, hx, v, t):
    """rho f(t, x_i) = h_v sum_j f(x_i - t v_j, v_j), linear interp in x."""
    # x_i - t v_j is x_i + (-t) v_j to the last bit, so the table takes -t
    table = _shift_table(hx, fs.shape[0], _axis_key(-np.asarray(t, dtype=float)),
                         _axis_key(v))
    return (v[1] - v[0]) * _shifted_sum(fs.T, table)


def _xray_sampled(Gs, t, hx, v):
    """rho* G(x_i, v_j) = h_t sum_s G(t_s, x_i + v_j t_s), linear interp in x."""
    table = _shift_table(hx, Gs.shape[1], _axis_key(v), _axis_key(t))
    return (t[1] - t[0]) * np.ascontiguousarray(_shifted_sum(Gs, table).T)


def velocity_average(f: TransportFunction, grid: PhaseGrid,
                     tail_tol: float = 1e-3) -> TransportFunction:
    """rho f(t, x) = integral of f(x - t v, v) dv on the grid rule.

    If f carries its defining callable the integrand is evaluated exactly;
    otherwise f is linearly interpolated in its first argument."""
    if f.kind != "phase":
        raise ValueError("velocity_average expects a phase-space function")
    if f.tail_fraction() > tail_tol:
        raise ValueError(
            f"truncation error: boundary mass fraction {f.tail_fraction():.2e} > {tail_tol}"
        )
    x, v, t = grid.x, grid.v, grid.t
    if grid.n == 2:
        if f.func is None:
            raise ValueError("n = 2 velocity average needs the defining callable")
        xf = _vec_mesh(x).reshape(-1, 2)
        vf = _vec_mesh(v).reshape(-1, 2)
        out = np.empty((t.size, xf.shape[0]))
        for it, tv in enumerate(t):
            out[it] = grid.h ** 2 * np.sum(
                f.func(xf[:, None, :] - tv * vf[None, :, :], vf[None, :, :]), axis=1
            )
        return TransportFunction(grid, "spacetime", out.reshape(t.size, x.size, x.size))
    if f.func is not None:
        out = np.empty((t.size, x.size))
        for it, tv in enumerate(t):
            out[it] = grid.h * np.sum(f.func(x[:, None] - tv * v[None, :], v[None, :]), axis=1)
        return TransportFunction(grid, "spacetime", out)
    out = _vel_avg_sampled(f.samples, grid.h, v, t)
    return TransportFunction(grid, "spacetime", out)


def xray_adjoint(G: TransportFunction, grid: PhaseGrid,
                 tail_tol: float = 1e-3) -> TransportFunction:
    """rho* G(x, v) = integral of G(s, x + v s) ds on the grid rule."""
    if G.kind != "spacetime":
        raise ValueError("xray_adjoint expects a space-time function")
    if G.tail_fraction() > tail_tol:
        raise ValueError(
            f"truncation error: boundary mass fraction {G.tail_fraction():.2e} > {tail_tol}"
        )
    x, v, t = grid.x, grid.v, grid.t
    if grid.n == 2:
        if G.func is None:
            raise ValueError("n = 2 adjoint needs the defining callable")
        xf = _vec_mesh(x).reshape(-1, 2)
        vf = _vec_mesh(v).reshape(-1, 2)
        out = np.zeros((xf.shape[0], vf.shape[0]))
        for ts in t:
            out += G.func(ts, xf[:, None, :] + vf[None, :, :] * ts)
        out *= grid.h
        return TransportFunction(grid, "phase",
                                 out.reshape(x.size, x.size, v.size, v.size))
    if G.func is not None:
        out = np.empty((x.size, v.size))
        for j, vv in enumerate(v):
            out[:, j] = grid.h * np.sum(G.func(t[None, :], x[:, None] + vv * t[None, :]), axis=1)
        return TransportFunction(grid, "phase", out)
    out = _xray_sampled(G.samples, t, grid.h, v)
    return TransportFunction(grid, "phase", out)


def grid_norm(tf: TransportFunction, exponent: float, tail: float = 0.0) -> float:
    """l^e norm under the product rectangle rule, plus an optional analytic
    tail contribution (already raised to the exponent)."""
    cell = tf.grid.h ** tf.samples.ndim
    return float((cell * np.sum(np.abs(tf.samples) ** exponent) + tail) ** (1.0 / exponent))


def power_law_tail(amplitude: float, decay: float, exponent: float, R: float) -> float:
    """integral over |z| > R in the plane of (amplitude (1+|z|^2)^{-decay/2})^e,
    for functions matching that profile outside radius R."""
    me = decay * exponent
    if me <= 2.0:
        raise ValueError("tail integral diverges: decay * exponent must exceed 2")
    return 2.0 * math.pi * amplitude ** exponent * (1.0 + R * R) ** (1.0 - me / 2.0) / (me - 2.0)


def pairing(a: TransportFunction, b: TransportFunction) -> float:
    if a.kind != b.kind or a.samples.shape != b.samples.shape:
        raise ValueError("pairing requires matching domains")
    cell = a.grid.h ** a.samples.ndim
    return float(cell * np.sum(a.samples * b.samples))


def _extremiser_pair(grid: PhaseGrid):
    """Extremiser samples without their callables: comparisons against the
    estimate are only meaningful through the same sampled-grid operator."""
    X, V = np.meshgrid(grid.x, grid.v, indexing="ij")
    T, Xt = np.meshgrid(grid.t, grid.x, indexing="ij")
    f = TransportFunction(grid, "phase", extremiser_f(1, X, V))
    G = TransportFunction(grid, "spacetime", extremiser_G(1, T, Xt))
    return f, G


class _Side:
    """One side of the grid inequality on one grid: the sampled extremiser
    `base`, the input and output exponents, the operator `fwd` and its
    adjoint `bwd`.  'primal' is rho from (x, v) at p to (t, x) at q; 'dual'
    is rho* from (t, x) at q' to (x, v) at p'.  The operator ratio and the
    ratio gradient at the extremiser are computed on first use; arrays are
    read-only, since `_side` hands one instance to every caller."""

    def __init__(self, n: int, grid: PhaseGrid, side: str):
        p, q, _ = exponents(n)
        if n != 1:
            raise ValueError("the probe is certified at n = 1 only")
        if side == "primal":
            self.e_in, self.e_out = p, q
            self.fwd, self.bwd = self._rho, self._rho_star
        elif side == "dual":
            self.e_in, self.e_out = q / (q - 1.0), p / (p - 1.0)
            self.fwd, self.bwd = self._rho_star, self._rho
        else:
            raise ValueError("side must be 'primal' or 'dual'")
        self.grid = grid
        f_star, G_star = _extremiser_pair(grid)
        self.base = f_star if side == "primal" else G_star
        self.base.samples.flags.writeable = False

    # module-level names, looked up per call, so that wrappers see every apply
    def _rho(self, tf):
        return velocity_average(tf, self.grid, tail_tol=1.0)

    def _rho_star(self, tf):
        return xray_adjoint(tf, self.grid, tail_tol=1.0)

    @functools.cached_property
    def image(self) -> TransportFunction:
        out = self.fwd(self.base)
        out.samples.flags.writeable = False
        return out

    @functools.cached_property
    def ratio(self) -> float:
        return grid_norm(self.image, self.e_out) / grid_norm(self.base, self.e_in)

    @functools.cached_property
    def gradient(self) -> np.ndarray:
        base, e_in, e_out, Af = self.base, self.e_in, self.e_out, self.image
        N = grid_norm(Af, e_out)
        D = grid_norm(base, e_in)
        u = np.abs(Af.samples) ** (e_out - 2.0) * Af.samples
        back = self.bwd(TransportFunction(self.grid, Af.kind, u)).samples
        grad_N = back * N ** (1.0 - e_out)
        grad_D = np.abs(base.samples) ** (e_in - 2.0) * base.samples * D ** (1.0 - e_in)
        g = grad_N - (N / D) * grad_D
        g.flags.writeable = False
        return g


@functools.lru_cache(maxsize=4)
def _side(n: int, grid: PhaseGrid, side: str) -> _Side:
    return _Side(n, grid, side)


def ratio_estimate(n: int, grid: PhaseGrid, side: str = "primal") -> float:
    """Empirical sharp-constant estimate: the operator ratio of the
    extremiser on this grid under the sampled-kernel rule (the same rule
    the probe and random sweeps use).  'primal' measures
    |rho f*|_q / |f*|_p; 'dual' measures |rho* G*|_{p'} / |G*|_{q'}.
    Computed once per (n, grid, side)."""
    return _side(n, grid, side).ratio


def orthogonalize_direction(direction: np.ndarray, base: np.ndarray,
                            p: float) -> np.ndarray:
    """Remove the component of the direction along the norm gradient of the
    base point (pairing against |base|^{p-1} sign base), then normalize."""
    dual = np.abs(base) ** (p - 1.0) * np.sign(base)
    d = direction - np.sum(direction * dual) / np.sum(base * dual) * base
    nrm = np.sum(np.abs(d) ** p) ** (1.0 / p)
    if nrm == 0.0:
        raise ValueError("direction is parallel to the base point")
    return d / nrm


def ratio_gradient(n: int, grid: PhaseGrid, side: str = "primal") -> np.ndarray:
    """Gradient of the grid ratio functional |A f|_q / |f|_p at the sampled
    extremiser (A the discrete operator of the chosen side), up to a
    positive scalar.  Nonzero only through discretization; probe
    directions are projected against it so their deficit starts at
    quadratic order.  Computed once per (n, grid, side) and returned
    read-only."""
    return _side(n, grid, side).gradient


def make_probe_direction(raw: np.ndarray, n: int, grid: PhaseGrid,
                         side: str = "primal") -> TransportFunction:
    """Normalize a raw perturbation for the probe: remove the components
    along the extremiser ray and along the discrete ratio gradient, then
    scale to unit input norm."""
    sd = _side(n, grid, side)
    base, e_in = sd.base, sd.e_in
    d = orthogonalize_direction(np.asarray(raw, dtype=float), base.samples, e_in)
    g = ratio_gradient(n, grid, side)
    gg = float(np.sum(g * g))
    if gg > 0.0:
        d = d - float(np.sum(d * g)) / gg * g
    nrm = (grid.h ** d.ndim * np.sum(np.abs(d) ** e_in)) ** (1.0 / e_in)
    return TransportFunction(grid, base.kind, d / nrm)


def local_stability_probe(n: int, direction: TransportFunction, eps_list,
                          grid: PhaseGrid, side: str = "primal",
                          rhat: float | None = None) -> list[ProbePoint]:
    """Deficit/distance curve for f = f* + eps * direction (primal) or
    G = G* + eps * direction (dual), distances minimized over the scalar
    ray of the extremiser."""
    sd = _side(n, grid, side)
    base, e_in, e_out, apply_op = sd.base, sd.e_in, sd.e_out, sd.fwd
    if direction.kind != base.kind:
        domain = "phase-space" if side == "primal" else "space-time"
        raise ValueError(f"{side} probe needs a {domain} direction")
    if rhat is None:
        rhat = ratio_estimate(n, grid, side)
    cell = grid.h ** 2
    d_norm = grid_norm(direction, e_in)
    if d_norm != 0.0 and abs(d_norm - 1.0) > 1e-6:
        raise ValueError("direction must be zero or normalized in the input norm")
    out = []
    for eps in eps_list:
        if not 0.0 <= eps <= 0.25:
            raise ValueError("eps must lie in [0, 0.25] (local regime)")
        samples = base.samples + eps * direction.samples
        tf = TransportFunction(grid, base.kind, samples)
        nrm = grid_norm(tf, e_in)
        ratio = grid_norm(apply_op(tf), e_out) / nrm
        deficit = rhat - ratio
        if deficit < -1e-4 * rhat:
            raise InconsistencyError(
                f"deficit {deficit:.3e} below -1e-4 * ratio estimate; "
                "recalibrate the estimate on this grid"
            )
        dist = ray_distance(samples / nrm, base.samples, e_in) * cell ** (1.0 / e_in)
        out.append(ProbePoint(float(eps), deficit, dist ** 2,
                              deficit / dist ** 2 if dist > 0 else math.inf))
    return out


def random_phase_function(grid: PhaseGrid, rng: np.random.Generator,
                          n_bumps: int = 4) -> TransportFunction:
    """Random resolved Gaussian mixture on phase space, decaying well inside
    the grid (for sharp-constant comparison sweeps)."""
    x, v = grid.x, grid.v
    X, V = np.meshgrid(x, v, indexing="ij")
    s = np.zeros_like(X)
    for _ in range(n_bumps):
        cx, cv = rng.uniform(-0.3 * grid.L, 0.3 * grid.L, size=2)
        wx, wv = rng.uniform(0.8, 4.0, size=2)
        amp = rng.uniform(-1.0, 1.0)
        s += amp * np.exp(-((X - cx) / wx) ** 2 - ((V - cv) / wv) ** 2)
    return TransportFunction(grid, "phase", s)


def probe_to_csv(points: list[ProbePoint], directions: list[int] | None = None) -> str:
    """CSV of probe points; `directions`, one index per point, adds a leading
    direction column."""
    header = "epsilon,deficit,dist_sq,ratio"
    rows = [f"{pt.eps:.6g},{pt.deficit:.12g},{pt.dist_sq:.12g},{pt.ratio:.12g}"
            for pt in points]
    if directions is not None:
        header = "direction," + header
        rows = [f"{i},{row}" for i, row in zip(directions, rows, strict=True)]
    return "\n".join([header, *rows]) + "\n"
