"""Desk-scale kinetic-transport laboratory.

Velocity averages, the X-ray adjoint, the extremising pair, empirical
sharp-constant estimation, and a local stability probe on uniform phase
grids.  Dimension n = 1 only, so every grid is 2-d.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .duality import _ray_minimiser
from .errors import InconsistencyError
from .specfun import add_gaussian

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


def _require_n1(n: int) -> None:
    if n != 1:
        raise ValueError("the supported dimension is n = 1")


_MAX_NODES = 4097   # per axis; the largest grid in use has 1,025


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform symmetric grids: x and v over [-L, L] with spacing h, and a
    t-grid over [-t_extent, t_extent] with the same spacing; axes are cached, read-only."""

    n: int
    L: float
    h: float
    t_extent: float

    def __post_init__(self):
        _require_n1(self.n)
        if not all(map(math.isfinite, (self.L, self.h, self.t_extent))):
            raise ValueError("L, h and t_extent must be finite")
        if self.L < 10.0:
            raise ValueError("extent L must be >= 10 (slow power-law tails)")
        cap = self.L / 64.0
        if self.h > cap + 1e-12:
            raise ValueError(f"spacing h must be <= {cap} for n={self.n}")
        if self.h <= 0.0:
            raise ValueError("spacing h must be positive")
        if not self.t_extent / self.h > 0.5:  # else t = [0.], with no t spacing
            raise ValueError("t_extent must exceed h / 2")
        # an axis has 2 round(extent / h) + 1 nodes; the ratios are compared
        # as floats, since they can be inf, which round() cannot take
        half = (_MAX_NODES - 1) // 2
        if not (self.L / self.h <= half and self.t_extent / self.h <= half):
            raise ValueError(f"at most {_MAX_NODES} nodes per axis: L / h and "
                             f"t_extent / h must be <= {half}")

    @functools.cached_property
    def x(self) -> np.ndarray:
        m = int(round(self.L / self.h))
        return _read_only(self.h * np.arange(-m, m + 1))

    @property
    def v(self) -> np.ndarray:
        return self.x

    @functools.cached_property
    def t(self) -> np.ndarray:
        m = int(round(self.t_extent / self.h))
        return _read_only(self.h * np.arange(-m, m + 1))

    def axes(self, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """(x, v) for kind 'phase', (t, x) for 'spacetime'."""
        return (self.x, self.v) if kind == "phase" else (self.t, self.x)

    @classmethod
    def build(cls, n: int = 1, L: float = 40.0, points: int = 256,
              t_extent: float | None = None) -> "PhaseGrid":
        if points < 1:
            raise ValueError("points must be >= 1")
        return cls(n, L, 2.0 * L / points, t_extent if t_extent is not None else L)


@dataclass(frozen=True, eq=False)
class TransportFunction:
    """Samples of a function over the phase grid ('phase': (x, v)) or the
    space-time grid ('spacetime': (t, x)), in the shape of the grid's axes.
    Only a phase-space function may keep the exact callable it was sampled
    from, which `velocity_average` then integrates.  Compares by identity.
    Samples a caller supplies are checked for shape and finiteness; `_own`
    wraps this module's results from checked inputs without that pass."""

    grid: PhaseGrid
    kind: str  # "phase" | "spacetime"
    samples: np.ndarray = field(repr=False)
    func: object = None

    def __post_init__(self):
        if self.kind not in ("phase", "spacetime"):
            raise ValueError("kind must be 'phase' or 'spacetime'")
        s = np.asarray(self.samples, dtype=float)
        shape = tuple(a.size for a in self.grid.axes(self.kind))
        if s.shape != shape:
            raise ValueError(f"{self.kind} samples have shape {s.shape}, "
                             f"not the grid's {shape}")
        if not np.all(np.isfinite(s)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", s)

    @classmethod
    def _own(cls, grid: PhaseGrid, kind: str, samples: np.ndarray) -> "TransportFunction":
        tf = object.__new__(cls)
        tf.__dict__.update(grid=grid, kind=kind, samples=samples, func=None)
        return tf

    @classmethod
    def from_callable(cls, grid: PhaseGrid, kind: str, func) -> "TransportFunction":
        A, B = np.meshgrid(*grid.axes(kind), indexing="ij")
        return cls(grid, kind, func(A, B), func if kind == "phase" else None)

    def tail_fraction(self) -> float:
        """Mass of the outermost grid shell relative to total |.| mass."""
        a = np.abs(self.samples)
        total = float(a.sum())
        if total == 0.0:
            return 0.0
        inner = float(a[(slice(2, -2),) * a.ndim].sum())
        return (total - inner) / total


@dataclass(frozen=True)
class ProbePoint:
    eps: float
    deficit: float
    dist_sq: float
    ratio: float


def extremiser_f(n: int, x, v):
    """f*(x, v) = (1 + x^2 + v^2)^{-1}, the n = 1 case of
    ((1+|x|^2)(1+|v|^2) - (x.v)^2)^{-(n+1)/2}."""
    _require_n1(n)
    return (1.0 + np.asarray(x, dtype=float) ** 2 + np.asarray(v, dtype=float) ** 2) ** -1.0


def extremiser_G(n: int, t, x):
    """G*(t, x) = 1 / (1 + t^2 + x^2), n = 1."""
    _require_n1(n)
    return 1.0 / (1.0 + np.asarray(t, dtype=float) ** 2 + np.asarray(x, dtype=float) ** 2)


class _Run(NamedTuple):
    """Output lines o0:o1 of a shift table, each fed by the same number c of
    pairs: pair p of line o0 + i reads the window rows[i c + p] of
    `_windows`, with weights weights[i, :, p] = (1 - w, w)."""

    lines: slice
    rows: np.ndarray
    weights: np.ndarray


class _ShiftTable(NamedTuple):
    """Where each output line of a sampled kernel reads its source lines,
    laid out as runs of consecutive output lines that have the same pair
    count c.  A pair adds its source line shifted by k rows at weight 1 - w
    and by k + 1 rows at weight w; a line with no pairs is in no run."""

    lines: int
    runs: tuple[_Run, ...]


@functools.lru_cache(maxsize=8)
def _shift_table(hx: float, nx: int, a_key: bytes, b_key: bytes) -> _ShiftTable:
    """Shift table for output lines over a and source lines over b, whose
    float64 bytes are given (arrays do not hash), on an x axis of nx rows
    spaced hx.

    Pair (a_o, b_r) reads row i of output line o at the point i + s of
    source line r, s = a_o b_r / hx: cell k = floor(s) at weight w = s - k,
    between rows i + k and i + k + 1.  Rows outside [0, nx) read zero, so
    the rule at -s is the transpose of the rule at s.  Pairs whose rows all
    lie off the grid (k < -nx or k >= nx) are dropped.

    A run holds at most max(c, nx) pairs, so the gather `_shifted_sum`
    makes for it stays within max(c, nx) (nx + 1) values: one line's worth
    where c >= nx, as if each line were gathered on its own."""
    a, b = np.frombuffer(a_key), np.frombuffer(b_key)
    s = a[:, None] * b[None, :] / hx
    k = np.floor(s)
    out, src = np.nonzero((k >= -nx) & (k < nx))
    w = (s - k)[out, src]
    rows = (2 * src + 1) * nx + k[out, src].astype(np.int64)
    weights = np.stack([1.0 - w, w])
    starts = np.searchsorted(out, np.arange(a.size + 1))
    count = np.diff(starts).tolist()
    runs, o0 = [], 0
    while o0 < a.size:
        c, o1 = count[o0], o0 + 1
        while o1 < a.size and count[o1] == c and (o1 + 1 - o0) * c <= max(c, nx):
            o1 += 1
        if c:
            pairs = slice(starts[o0], starts[o1])
            runs.append(_Run(slice(o0, o1), rows[pairs], np.ascontiguousarray(
                weights[:, pairs].reshape(2, o1 - o0, c).transpose(1, 0, 2))))
        o0 = o1
    return _ShiftTable(a.size, tuple(runs))


def _windows(lines: np.ndarray) -> np.ndarray:
    """Windows of nx + 1 values over the lines laid end to end, each after
    nx zeros: window (2 r + 1) nx + k holds rows k .. k + nx of line r,
    zero off the line, for -nx <= k < nx."""
    n, nx = lines.shape
    block = np.zeros((n + 1, 2, nx))
    block[:-1, 1] = lines
    return np.lib.stride_tricks.sliding_window_view(block.ravel(), nx + 1)


def _shifted_sum(src: np.ndarray, table: _ShiftTable, scale: float) -> np.ndarray:
    """acc[o] = scale times the sum over the table's pairs into output line
    o of their shifted, weighted source lines (rows along axis 1 of src).

    Each run makes one gather and one stacked matmul.  Its items are the
    unpadded (2 x c) @ (c x (nx + 1)) products that a loop over single lines
    makes, and numpy hands each item to the same dgemm call as that 2-d
    product, so acc is the loop's bit for bit (tests/test_transport.py
    keeps the loop as the oracle)."""
    win = _windows(src)
    acc = np.zeros((table.lines, src.shape[1]))
    for run in table.runs:
        lo_hi = run.weights @ win[run.rows].reshape(len(run.weights), -1, win.shape[1])
        np.add(lo_hi[:, 0, :-1], lo_hi[:, 1, 1:], out=acc[run.lines])
    acc *= scale
    return acc


def _axis_key(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


def _vel_avg_sampled(fs, hx, v, t):
    """rho f(t, x_i) = h_v sum_j f(x_i - t v_j, v_j), linear interp in x."""
    # x_i - t v_j is x_i + (-t) v_j to the last bit, so the table takes -t
    table = _shift_table(hx, fs.shape[0], _axis_key(-np.asarray(t, dtype=float)),
                         _axis_key(v))
    return _shifted_sum(fs.T, table, v[1] - v[0])


def _xray_sampled(Gs, t, hx, v):
    """rho* G(x_i, v_j) = h_t sum_s G(t_s, x_i + v_j t_s), linear interp in x."""
    table = _shift_table(hx, Gs.shape[1], _axis_key(v), _axis_key(t))
    return np.ascontiguousarray(_shifted_sum(Gs, table, t[1] - t[0]).T)


def _require_input(tf: TransportFunction, kind: str, grid: PhaseGrid,
                   tail_tol: float = 1.0) -> None:
    if tf.kind != kind or tf.grid != grid:
        raise ValueError(f"expected a {kind} function on {grid}, got a {tf.kind} "
                         f"function on {tf.grid}")
    # the fraction is at most 1 (the inner mass is >= 0), so tail_tol >= 1
    # passes every function without the pass over the grid
    if tail_tol < 1.0 and (fraction := tf.tail_fraction()) > tail_tol:
        raise ValueError(
            f"truncation error: boundary mass fraction {fraction:.2e} > {tail_tol}"
        )


def velocity_average(f: TransportFunction, grid: PhaseGrid,
                     tail_tol: float = 1e-3) -> TransportFunction:
    """rho f(t, x) = integral of f(x - t v, v) dv on the grid rule.

    If f carries its defining callable the integrand is evaluated exactly;
    otherwise f is linearly interpolated in its first argument."""
    _require_input(f, "phase", grid, tail_tol)
    x, v, t = grid.x, grid.v, grid.t
    if f.func is not None:
        out = np.empty((t.size, x.size))
        for it, tv in enumerate(t):
            out[it] = grid.h * np.sum(f.func(x[:, None] - tv * v[None, :], v[None, :]), axis=1)
        return TransportFunction(grid, "spacetime", out)
    return TransportFunction._own(grid, "spacetime", _vel_avg_sampled(f.samples, grid.h, v, t))


def xray_adjoint(G: TransportFunction, grid: PhaseGrid,
                 tail_tol: float = 1e-3) -> TransportFunction:
    """rho* G(x, v) = integral of G(s, x + v s) ds on the grid rule, G
    linearly interpolated in its second argument: the transpose of
    `velocity_average`'s sampled kernel."""
    _require_input(G, "spacetime", grid, tail_tol)
    return TransportFunction._own(grid, "phase", _xray_sampled(G.samples, grid.t, grid.h, grid.v))


def grid_norm(tf: TransportFunction, exponent: float) -> float:
    """l^e norm under the rectangle rule, (h^2 sum |s|^e)^(1/e) for a finite
    e > 0, each |s|^e by `_abs_pow`.  Samples are not checked again."""
    if not 0.0 < exponent < math.inf:
        raise ValueError(f"the exponent must be finite and > 0, not {exponent}")
    return _norm(tf.samples, exponent, tf.grid.h ** tf.samples.ndim)


def _abs_pow(x, e, out=None, work=None):
    """|x|^e into `out` (may be x), `work` (x's shape) as scratch: a sqrt(a) at e = 3/2,
    (a a) a at e = 3, a = |x|, so two roundings of at most u / (1 + u), within 2u (u =
    2^-53) where |x|^e is normal, and no slow path on zero lanes as pow has; else pow."""
    a = np.abs(x, out=out)
    if e == 1.5:
        return np.multiply(a, np.sqrt(a, out=work), out=a)
    if e == 3.0:
        return np.multiply(a, np.multiply(a, a, out=work), out=a)
    return np.power(a, e, out=a)


def _norm(s, e, cell=1.0, out=None, work=None):  # (cell sum |s|^e)^(1/e)
    return float((cell * np.sum(_abs_pow(s, e, out, work))) ** (1.0 / e))


def pairing(a: TransportFunction, b: TransportFunction) -> float:
    if a.kind != b.kind or a.grid != b.grid:
        raise ValueError("pairing requires matching domains")
    cell = a.grid.h ** a.samples.ndim
    return float(cell * np.sum(a.samples * b.samples))


class _Side:
    """One side of the grid inequality on one grid: the sampled extremiser
    `base`, the input and output exponents, the operator `fwd` and its
    adjoint `bwd`.  'primal' is rho from (x, v) at p to (t, x) at q; 'dual'
    is rho* from (t, x) at q' to (x, v) at p'.  The ratio, the ratio gradient
    and the probe's projections are computed on first use and not checked
    again; arrays are read-only, since `_side` hands one instance to all."""

    def __init__(self, n: int, grid: PhaseGrid, side: str):
        p, q, _ = exponents(n)
        if n != 1:
            raise ValueError("the probe is certified at n = 1 only")
        if side == "primal":
            self.e_in, self.e_out = p, q
            self.fwd, self.bwd = self._rho, self._rho_star
            kind, extremiser = "phase", extremiser_f
        elif side == "dual":
            self.e_in, self.e_out = q / (q - 1.0), p / (p - 1.0)
            self.fwd, self.bwd = self._rho_star, self._rho
            kind, extremiser = "spacetime", extremiser_G
        else:
            raise ValueError("side must be 'primal' or 'dual'")
        self.grid = grid
        # samples without the callable: comparisons against the estimate are
        # only meaningful through the same sampled-grid operator
        A, B = np.meshgrid(*grid.axes(kind), indexing="ij")
        self.base = TransportFunction._own(grid, kind, _read_only(extremiser(1, A, B)))

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
    def base_norm(self) -> float:
        return grid_norm(self.base, self.e_in)

    @functools.cached_property
    def ratio(self) -> float:
        return grid_norm(self.image, self.e_out) / self.base_norm

    @functools.cached_property
    def gradient(self) -> np.ndarray:
        base, e_in, e_out, Af = self.base, self.e_in, self.e_out, self.image
        N = grid_norm(Af, e_out)
        D = self.base_norm
        u = np.abs(Af.samples) ** (e_out - 2.0) * Af.samples
        back = self.bwd(TransportFunction(self.grid, Af.kind, u)).samples
        grad_N = back * N ** (1.0 - e_out)
        grad_D = np.abs(base.samples) ** (e_in - 2.0) * base.samples * D ** (1.0 - e_in)
        return _read_only(grad_N - (N / D) * grad_D)

    @functools.cached_property
    def projections(self) -> tuple[np.ndarray, float, float]:
        """(|base|^{e_in - 1} sign base, its pairing with base, |gradient|^2)"""
        b = self.base.samples
        dual = _read_only(np.abs(b) ** (self.e_in - 1.0) * np.sign(b))
        return dual, np.sum(b * dual), float(np.sum(self.gradient * self.gradient))


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
    base point (pairing against |base|^{p-1} sign base), then normalize.
    p must be finite and >= 1, and the direction must have the base's shape."""
    if not (1.0 <= p < math.inf and np.shape(direction) == np.shape(base)):
        raise ValueError(f"need a finite p >= 1 (got {p}) and a direction of the base's shape")
    dual = np.abs(base) ** (p - 1.0) * np.sign(base)
    return _orthogonalize(direction, base, p, dual, np.sum(base * dual))


def _orthogonalize(direction, base, p, dual, base_dual):
    d = direction - np.sum(direction * dual) / base_dual * base
    nrm = _norm(d, p)
    if nrm == 0.0:
        raise ValueError("direction is parallel to the base point")
    if not nrm < math.inf:  # inf or nan: d / nrm would not have unit norm
        raise ValueError("direction has no finite nonzero norm after the projection")
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
    raw = TransportFunction(grid, base.kind, raw).samples  # checks shape and finiteness
    dual, base_dual, gg = sd.projections
    d = _orthogonalize(raw, base.samples, e_in, dual, base_dual)
    g = ratio_gradient(n, grid, side)
    if gg > 0.0:
        d = d - float(np.sum(d * g)) / gg * g
    nrm = _norm(d, e_in, grid.h ** d.ndim)
    if not 0.0 < nrm < math.inf:  # a finite nonzero norm keeps d / nrm finite
        raise ValueError("direction has no finite nonzero norm after the projections")
    return TransportFunction._own(grid, base.kind, d / nrm)


def local_stability_probe(n: int, direction: TransportFunction, eps_list,
                          grid: PhaseGrid, side: str = "primal",
                          rhat: float | None = None) -> list[ProbePoint]:
    """Deficit/distance curve for f = f* + eps * direction (primal) or
    G = G* + eps * direction (dual), distances minimized over the scalar
    ray of the extremiser.

    The sampled operator A is linear, so A(f* + eps d) is the cached image
    A f* plus eps A d: the direction is applied once, before the eps loop.
    Every eps is checked before any work is done.

    The ray distance is in closed form from one minimisation per
    direction.  With N = |f* + eps d|_p and u = (f* + eps d) / N,
    u - c f* = (eps / N)(d - k f*) for c = (1 + eps k) / N, so the distance
    of u to the whole line through f* is (eps / N) min over k of
    |d - k f*|_p, at a minimiser k* that does not depend on eps.  k* is
    found once, beside the apply; by the triangle inequality it lies in
    |k| <= 2 |d|_p / |f*|_p.  Where c = (1 + eps k*) / N < 0 the nearest
    point of the ray c >= 0 is 0 (the distance is convex in c), at distance
    |u|_p = 1."""
    sd = _side(n, grid, side)
    base, e_in, e_out = sd.base, sd.e_in, sd.e_out
    _require_input(direction, base.kind, grid)
    eps_list = list(eps_list)
    if not all(0.0 <= eps <= 0.25 for eps in eps_list):
        raise ValueError("eps must lie in [0, 0.25] (local regime)")
    if rhat is None:
        rhat = ratio_estimate(n, grid, side)
    elif not 0.0 < rhat < math.inf:
        raise ValueError(f"rhat must be finite and > 0, not {rhat}")
    cell = grid.h ** 2
    d_norm = grid_norm(direction, e_in)
    if d_norm != 0.0 and abs(d_norm - 1.0) > 1e-6:
        raise ValueError("direction must be zero or normalized in the input norm")
    if not eps_list:
        return []
    # the samples only, as they enter f* + eps d: a phase-space callable
    # would select velocity_average's exact-integrand route
    d_image = sd.fwd(TransportFunction._own(grid, base.kind, direction.samples))
    reach = 2.0 * d_norm / sd.base_norm
    kappa, miss = _ray_minimiser(direction.samples, base.samples, e_in, -reach, reach, 0.0)
    samples, image = np.empty_like(base.samples), np.empty_like(d_image.samples)
    spare = np.empty(max(samples.size, image.size))  # each norm overwrites its buffer
    work_in, work_out = (spare[:a.size].reshape(a.shape) for a in (samples, image))
    out = []
    for eps in eps_list:
        np.add(base.samples, np.multiply(direction.samples, eps, out=samples), out=samples)
        nrm = _norm(samples, e_in, cell, samples, work_in)
        np.add(sd.image.samples, np.multiply(d_image.samples, eps, out=image), out=image)
        ratio = _norm(image, e_out, cell, image, work_out) / nrm
        deficit = rhat - ratio
        if deficit < -1e-4 * rhat:
            raise InconsistencyError(
                f"deficit {deficit:.3e} below -1e-4 * ratio estimate; "
                "recalibrate the estimate on this grid"
            )
        dist = eps / nrm * miss * cell ** (1.0 / e_in) if 1.0 + eps * kappa >= 0.0 else 1.0
        out.append(ProbePoint(float(eps), deficit, dist ** 2,
                              deficit / dist ** 2 if dist > 0 else math.inf))
    return out


_PHASE_BUMPS = 4   # Gaussian bumps in a random phase function


def random_phase_function(grid: PhaseGrid, rng: np.random.Generator) -> TransportFunction:
    """Random resolved Gaussian mixture on phase space, decaying well inside
    the grid (for sharp-constant comparison sweeps)."""
    x, v = grid.x, grid.v
    s = np.zeros((x.size, v.size))
    for _ in range(_PHASE_BUMPS):
        cx, cv = rng.uniform(-0.3 * grid.L, 0.3 * grid.L, size=2)
        wx, wv = rng.uniform(0.8, 4.0, size=2)
        amp = rng.uniform(-1.0, 1.0)
        add_gaussian(s, amp, (x, cx, wx), (v, cv, wv))
    return TransportFunction._own(grid, "phase", s)


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
