"""Finite-dimensional duality laboratory: duality maps, lp->lq operator
norms with extremiser certificates, extremiser transfer between an
operator and its adjoint, stable-Hoelder inequalities, the local
duality-stability pipeline and the unit-interval counterexample family.

Everything is real-valued; the phase freedom of the continuous theory is
realised by signs.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

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
    "ray_distance",
    "local_stability_pipeline",
    "sigma_counterexample",
]


def lp_norm(x: np.ndarray, p: float) -> float:
    x = np.abs(np.asarray(x, dtype=float))
    if math.isinf(p):
        return float(np.max(x))
    return float(np.add.reduce(x ** p, axis=None) ** (1.0 / p))


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
        if not m.size:
            raise ValueError(f"operator matrix must not be empty, got shape {m.shape}")
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
    starts: int
    iterations: int
    certified: bool   # upper <= value (1 + _NORM_EXCESS)
    upper: float   # an upper bound on the norm; inf when none is known


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


def _duality_rows(F: np.ndarray, r: float) -> np.ndarray:
    """The duality map D_r applied to each row of F."""
    absF = np.abs(F)
    nrm = np.add.reduce(absF ** r, axis=1)
    nrm **= 1.0 / r
    # fmin skips a NaN norm: as with .all(), only a zero norm raises
    if not np.fmin.reduce(nrm, initial=np.inf):
        raise ValueError("duality map undefined at the zero vector")
    # |F|^{r-2} F as copysign(|F|^{r-1}, F): r - 1 > 0, so zeros stay zero
    out = np.copysign(np.power(absF, r - 1.0, out=absF), F, out=absF)
    nrm **= r - 1.0
    out /= nrm[:, None]
    return out


def duality_map(F: np.ndarray, r: float) -> np.ndarray:
    """D_r F = |F|^{r-2} F / ||F||_r^{r-1}; a unit vector of l^{r'} pairing
    maximally with F.  Positively homogeneous of degree zero."""
    if r <= 1.0:
        raise ValueError(f"requires r > 1, got {r}")
    F = np.asarray(F, dtype=float)
    return _duality_rows(F.reshape(1, -1), r).reshape(F.shape)


def _scaled(M: np.ndarray):
    """(2^-e M, e), with 2^e the power of two that brings the largest
    entry of |M| into [1/2, 1); exact, as only the exponents change."""
    e = np.frexp(np.max(np.abs(M), initial=0.0))[1]
    return np.ldexp(M, -e), e


def _fixed_point(T: FiniteOperator, g: np.ndarray, tol: float = 1e-12,
                 max_iter: int = 10_000):
    """Iterate g -> D_{p'}(T* D_q(T g)) from the start vector g.

    D_{p'} is positively homogeneous of degree zero, so the normalisation
    inside D_q changes nothing, and each step is g -> W / ||W||_p with
    Z = M^T (|M g|^{q-1} sgn M g) and W = |Z|^{p'-1} sgn Z.  As
    |W|^p = |Z|^{p'} = W Z, ||W||_p^p = sum_j W_j Z_j reuses that product.
    Every exponent is positive, so |x|^e sgn x, written
    copysign(|x|^e, x), is 0 at x = 0 and one formula serves signed and
    nonnegative matrices.  Unnormalised, the powers scale with M, so M is
    first scaled by _scaled.  That is exact, and the extremisers do not
    depend on it: M and 2^k M follow the same trajectory bit for bit.

    M g and M^T H are broadcast products summed along an axis, and each
    norm's power is taken on a 1-element array: a BLAS product, or the
    power of a numpy scalar, can round differently in the last bit.  The
    iteration stops on the first step whose l^2 length falls below tol.
    Returns the fixed point and the iterations it took.  At large q the
    powers can leave float64's range: a step norm that is infinite or NaN
    raises that the search overflows, and a zero one that it underflows if
    M g != 0, else that T annihilates the start.  _search silences numpy's
    warnings."""
    M = _scaled(T.matrix)[0]
    e_q, e_p, inv_p = T.q - 1.0, T.p_prime - 1.0, 1.0 / T.p
    norm = np.add.reduce(np.abs(g) ** T.p, keepdims=True)
    norm **= inv_p
    g = g / norm
    for it in range(max_iter):
        Y = np.add.reduce(g * M, axis=1)
        H = np.copysign(np.abs(Y) ** e_q, Y)
        Z = np.add.reduce(H[:, None] * M, axis=0)
        W = np.copysign(np.abs(Z) ** e_p, Z)
        norm = np.add.reduce(W * Z, keepdims=True)   # ||W||_p^p
        if not 0.0 < norm[0] < math.inf:
            if norm[0] or Y.any():   # inf, NaN or a power that underflowed
                raise _range_error(T, "overflows" if norm[0] else "underflows")
            raise ValueError("operator annihilates the start vector")
        norm **= inv_p
        W /= norm
        step = W - g
        step *= step
        if math.sqrt(np.add.reduce(step)) < tol:
            return W, it + 1
        g = W
    raise ConvergenceError(f"fixed-point iteration did not converge in {max_iter} steps")


_NORM_EXCESS = 2.0 ** -33   # rho: a certified norm lies in [value, value (1 + rho)]
_BOUND_ROUNDING = 2.0 ** -50   # 8 u; times a count of operations, a bound's rounding slack
_BRACKET_COLUMNS = 4   # the widest narrower side the bracket takes on
# The bracket's first cells by the number of columns d, as (bits, levels):
# they centre on the extremiser rounded to a multiple of 2^-bits and halve
# `levels` times toward it.  Deep grading closes 2 columns in one pass and
# 3 in few; at 4 columns the d (d - 1) cells it adds per level each split
# further, and bisection from a coarse star refines less.
_GRADING = {1: (16, 17), 2: (16, 17), 3: (16, 17), 4: (4, 1)}
_BRACKET_CELLS = 20_000   # the most cells one bisection round may hold
_RESTARTS = 8   # restarts from vertices that beat the search, per call
_STARTS = 8   # random starts of the uncertified fallback
_TINY = np.finfo(float).tiny


def _range_error(T: FiniteOperator, what: str) -> ValueError:
    return ValueError(f"the norm search {what} float64 at q = {T.q}")


def _search(T: FiniteOperator, g0: np.ndarray):
    """The fixed point g from the start g0, its value ||T g||_q / ||g||_p
    and the iterations it took.  The value is taken on M scaled as in
    _fixed_point, so that for small entries and large q no power of
    ||T g||_q underflows to subnormals that lose its digits.  A value that
    overflows raises ValueError, as the iteration does."""
    with np.errstate(over="ignore", invalid="ignore"):
        g, its = _fixed_point(T, g0)
        M, e = _scaled(T.matrix)
        value = np.add.reduce(np.abs(np.add.reduce(g * M, axis=1)) ** T.q, keepdims=True)
    if value[0] == math.inf:
        raise _range_error(T, "overflows")
    value **= 1.0 / T.q
    return float(np.ldexp(value, e)[0]), g, its


def _norms(X: np.ndarray, r: float, axis: int) -> np.ndarray:
    """l^r norm of a nonnegative array along axis, each line divided by its
    largest entry first, so that no power overflows or underflows."""
    top = np.maximum.reduce(X, axis=axis, keepdims=True)
    sums = np.add.reduce((X / np.maximum(top, _TINY)) ** r, axis=axis)
    return np.squeeze(top, axis) * sums ** (1.0 / r)


def _contraction_upper(T: FiniteOperator, g: np.ndarray, value: float) -> float:
    """An upper bound on ||T|| from the search's fixed point g, for a
    positive matrix that passes Birkhoff's contraction test; inf otherwise.

    Let Delta = max ln(M_ik M_jl / (M_il M_jk)), the projective diameter of
    M, and kappa = tanh(Delta / 4).  M and M^T contract Hilbert's projective
    metric d_H by kappa (Birkhoff-Hopf), and the entrywise powers
    x -> x^{q-1} and x -> x^{p'-1} stretch it by q - 1 and 1/(p - 1).  So
    S: g -> D_{p'}(T* D_q(T g)) contracts d_H by
    c = kappa^2 (q - 1) / (p - 1), the same factor for T and T*.  If c < 1,
    S has one positive fixed point g*, and as every maximiser of
    ||T g||_q / ||g||_p over g >= 0 is positive and fixed by S, g* is the
    global maximiser (Gautier, Tudisco and Hein, J. Sci. Comput. 2019).
    Then d_H(g, g*) <= d_H(g, S g) / (1 - c), and alpha g <= g* <= beta g
    with ln(beta / alpha) = d_H(g, g*) gives
    ||T|| <= value exp(d_H(g, S g) / (1 - c)).

    Rounding, with u = 2^-53 and powers good to 4 ulps.  S g is computed in
    nonnegative sums, and each power is taken on entries scaled into [0, 1],
    so each entry is within (p' - 1)((q - 1)(cols + 1) + rows + 5) u + 4 u
    of the exact one.  d_H takes twice that plus 3 u for the ratio and the
    logarithm, below the slack added, _BOUND_ROUNDING (p' q (rows + cols + 2) + 2).
    Delta gains _BOUND_ROUNDING (max |ln M_ik| + 1) for its logarithms, c a
    factor 1 + _BOUND_ROUNDING for the rest, and value, computed within
    (rows + cols + 6) 8 u, that factor too."""
    M = T.matrix
    least, most = np.minimum.reduce(M, axis=None), np.maximum.reduce(M, axis=None)
    if not (least > 0.0 and np.minimum.reduce(g) > 0.0):
        return math.inf
    L = np.log(M.T)
    # top[i, j] = max_k ln(M_ik / M_jk), and Delta = max_ij top[i, j] + top[j, i]
    top = np.maximum.reduce(L[:, :, None] - L[:, None, :], axis=0)
    delta = np.maximum.reduce(top + top.T, axis=None)
    delta += _BOUND_ROUNDING * (max(-math.log(least), math.log(most), 0.0) + 1.0)
    c = math.tanh(delta / 4.0) ** 2 * (T.q - 1.0) / (T.p - 1.0) * (1.0 + _BOUND_ROUNDING)
    if not c < 1.0:
        return math.inf
    rows, cols = M.shape
    Y = M @ g
    Z = (Y / np.maximum.reduce(Y)) ** (T.q - 1.0) @ M
    ratio = (Z / np.maximum.reduce(Z)) ** (T.p_prime - 1.0) / g
    lo, hi = np.minimum.reduce(ratio), np.maximum.reduce(ratio)
    if not lo > 0.0:   # an entry of S g underflowed
        return math.inf
    d = math.log(hi / lo) + _BOUND_ROUNDING * (T.p_prime * T.q * (rows + cols + 2) + 2.0)
    if not d < 1.0 - c:
        return math.inf
    return value * math.exp(d / (1.0 - c)) * (1.0 + _BOUND_ROUNDING * (rows + cols + 6))


def _vertices(A: np.ndarray, a: float, b: float, V: np.ndarray) -> np.ndarray:
    """The record of each column v of V: v, then v^{a/2}, then
    f(v) = ||A v||_b / ||v||_a, then ||v||_a, stacked along the first axis."""
    length = _norms(V, a, 0)
    f = _norms(A @ V, b, 0) / length
    return np.concatenate([V, V ** (0.5 * a), f[None], length[None]])


@functools.lru_cache(maxsize=None)
def _grading(d: int, levels: int):
    """The cells of _graded_cells for d coordinates, as indices into the
    points x + 2^-l (e_k - x), numbered l d + k, and x, numbered
    (levels + 1) d; and the facet of each cell's star."""
    x, cells, facets = (levels + 1) * d, [], []
    for j in range(d):
        others = [k for k in range(d) if k != j]
        for level in range(levels):
            for i in range(d - 1):
                cells.append([(level + 1) * d + k for k in others[:i + 1]]
                             + [level * d + k for k in others[i:]])
        cells.append([x] + [levels * d + k for k in others])
        facets += [j] * (levels * (d - 1) + 1)
    return np.array(cells), np.array(facets)


def _graded_cells(A: np.ndarray, a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Simplices that cover the standard simplex, graded geometrically
    around the point x / sum(x) rounded to a multiple of 2^-bits, as an
    array (vertex, record, cell) of _vertices records; bits and levels come
    from _GRADING.  The largest coordinate, at least 1/d, keeps the rounded
    point off 0.

    Joining x to each facet F_j = {y_j = 0} that x is off splits the
    simplex into star cells.  Each is cut by the copies of its facet scaled
    toward x by 2^-l, l = 1..levels, into an inner simplex and layers.  A
    layer, a frustum over a (d-2)-simplex, splits into the d - 1 simplices
    (t_0..t_i, b_i..b_{d-2}) of its inner vertices t and outer vertices b.
    Each vertex, x + 2^-l (e_k - x), is computed exactly as a multiple of
    2^-(bits + l)."""
    d = len(x)
    bits, levels = _GRADING[d]
    x = np.ldexp(np.rint(np.ldexp(x / np.add.reduce(x), bits)), -bits)
    scales = np.ldexp(1.0, -np.arange(levels + 1))[:, None, None]
    points = x + (np.eye(d) - x) * scales   # points[l, k] = x + 2^-l (e_k - x)
    records = _vertices(A, a, b, np.vstack([points.reshape(-1, d), x]).T)
    cells, facets = _grading(d, levels)
    return records[:, cells[x[facets] > 0.0]].transpose(2, 0, 1).copy()


def _split(A: np.ndarray, a: float, b: float, cells: np.ndarray):
    """Halve each simplex at the midpoint of its longest edge, as measured
    in the coordinates v^{a/2}, which map the l^a sphere onto the l^2 sphere
    and so spread the bound's slack evenly near the faces.  Returns the
    halves and whether every midpoint is a multiple of 2^-52: vertices in
    [0, 1] on that grid sum and halve exactly, so the halves of a cell cover
    it exactly."""
    d, records, n = cells.shape
    i, j = np.triu_indices(d, 1)
    s = cells[:, d:2 * d]
    diff = s[i] - s[j]
    edge = np.argmax(np.add.reduce(diff * diff, axis=1), axis=0)
    a_k, b_k, col = i[edge], j[edge], np.arange(n)
    mid = (cells[a_k, :d, col] + cells[b_k, :d, col]) * 0.5   # (cell, coordinate)
    scaled = np.ldexp(mid, 52)
    record = _vertices(A, a, b, mid.T).T
    halves = np.empty((d, records, 2, n))
    np.copyto(halves, cells[:, :, None])
    halves[a_k, :, 0, col] = record
    halves[b_k, :, 1, col] = record
    return halves.reshape(d, records, 2 * n), bool(np.all(np.rint(scaled) == scaled))


def _cell_bounds(cells: np.ndarray, a: float, rounding: float) -> np.ndarray:
    """For y >= 0 in the cone of a cell's vertices v_k, and z >= 0 the
    duality map of the cell's centroid,

        ||A y||_b / ||y||_a <= ||z||_{a'} max_k f(v_k) ||v_k||_a / <v_k, z>

    with f(v) = ||A v||_b / ||v||_a: for y = sum_k l_k v_k, l >= 0, the
    triangle inequality bounds ||A y||_b by sum_k l_k f(v_k) ||v_k||_a, and
    Hoelder bounds ||y||_a below by sum_k l_k <v_k, z> / ||z||_{a'}; a ratio
    of such sums is at most the largest ratio of their terms.  Returns each
    cell's bound times rounding.

    Rounding, with u = 2^-53 and powers good to 4 ulps.  Every sum is of
    nonnegative terms and every power is taken on entries scaled into
    [0, 1] (_norms), so f(v_k) comes out within (4 d + rows + 21) u, each
    pairing within (2 d + 11) u and ||z||_{a'} within (d + 10) u.  The
    bound, within (7 d + rows + 45) u, is below its computed value times
    1 + _BOUND_ROUNDING (rows + d + 6), the rounding the caller passes."""
    d = cells.shape[0]
    V, f, length = cells[:, :d], cells[:, 2 * d], cells[:, 2 * d + 1]
    C = np.add.reduce(V, axis=0)
    z = (C / np.maximum.reduce(C, axis=0)) ** (a - 1.0)
    pairing = np.add.reduce(V * z, axis=1) / length
    with np.errstate(divide="ignore"):   # a pairing of 0 leaves the cell unbounded
        bound = np.maximum.reduce(f / pairing, axis=0)
    bound *= _norms(z, a / (a - 1.0), 0) * rounding
    return bound


def _bracket(T: FiniteOperator, g: np.ndarray, value: float):
    """Bound ||T|| above on the narrower of M and M^T, on cells graded
    around the extremiser.  Returns (upper, None) when every cell's bound is
    at most value (1 + rho), or when the cells cannot be refined further
    (upper is then above that); or (inf, start) when a vertex beats
    value (1 + rho), with start a vector on T's side whose value is at least
    the vertex's.

    For a nonnegative A the norm is the maximum of ||A y||_b / ||y||_a over
    y >= 0.  The side with fewer columns, d, has the smaller search space,
    the (d-1)-simplex.  On M^T the exponents are (q', p') and the
    extremiser is D_q(M g); a vertex h there maps to D_{p'}(M^T h), which
    scores ||M D_{p'}(M^T h)||_q >= <h, M D_{p'}(M^T h)> / ||h||_{q'}
    = ||M^T h||_{p'} / ||h||_{q'}.  A is scaled by the power of two that
    brings its largest entry into [1/2, 1), exactly, so that only an image
    far below the others reaches the subnormal floats.  The first pass
    covers the simplex with _graded_cells; each later pass halves the cells
    whose bound is too high, all of them as one batch."""
    M = T.matrix
    if M.shape[1] <= M.shape[0]:
        A, a, b, x = M, T.p, T.q, g
    else:
        A, a, b = M.T, T.q_prime, T.p_prime
        y = M @ g
        x = (y / np.maximum.reduce(y)) ** (T.q - 1.0)
    A_e, e = _scaled(A)
    target = np.ldexp(value * (1.0 + _NORM_EXCESS), -e)
    rounding = 1.0 + _BOUND_ROUNDING * (A.shape[0] + A.shape[1] + 6)
    cells, upper, d = _graded_cells(A_e, a, b, x), 0.0, len(x)
    while True:
        f = cells[:, 2 * d]
        if np.maximum.reduce(f, axis=None) > target:
            k, i = np.unravel_index(np.argmax(f), f.shape)
            v = cells[k, :d, i]
            if A is M:
                return math.inf, v
            y = M.T @ v
            return math.inf, (y / np.maximum.reduce(y)) ** (T.p_prime - 1.0)
        bound = _cell_bounds(cells, a, rounding)
        done = bound <= target
        upper = max(upper, np.ldexp(np.maximum.reduce(bound[done], initial=0.0), e))
        cells = cells[:, :, ~done]
        if not cells.shape[2]:
            return upper, None
        halves, exact = _split(A_e, a, b, cells)
        if not exact or halves.shape[2] > _BRACKET_CELLS:
            return max(upper, np.ldexp(np.maximum.reduce(bound[~done]), e)), None
        cells = halves


def operator_norm(T: FiniteOperator,
                  rng: np.random.Generator | None = None) -> NormCertificate:
    """||T||: l^p -> l^q by the fixed-point iteration g -> D_{p'}(T* D_q(T g)).

    A nonnegative matrix with p <= q takes one start.  Its value is
    certified when an upper bound within a factor 1 + rho of it is found:
    first from Birkhoff's contraction test (_contraction_upper), else from
    the cell bracket on the narrower side (_bracket), if that side has at
    most _BRACKET_COLUMNS columns.  A bracket vertex that beats the value
    restarts the iteration from it.  Signed matrices, p > q, and the
    nonnegative operators that no bound closes take the best of 8 random
    starts instead, with certified False; all 8 are drawn first, and then
    searched one after another.  That value is attained by a vector only up
    to rounding, so it is no rigorous lower bound: the 3 x 3 identity at
    p = q = 2 gives 1 + 2^-52."""
    rng = rng or np.random.default_rng(0)
    ncol = T.matrix.shape[1]
    provable = T.nonnegative and T.p <= T.q
    value, g, upper, used, total_it = -math.inf, None, math.inf, 0, 0
    if provable:
        value, g, total_it = _search(T, rng.uniform(0.1, 1.0, size=ncol))
        used = 1
        upper = _contraction_upper(T, g, value)
        if upper > value * (1.0 + _NORM_EXCESS) and min(T.matrix.shape) <= _BRACKET_COLUMNS:
            for _ in range(_RESTARTS):
                bound, start = _bracket(T, g, value)
                upper = min(upper, bound)
                if start is None:
                    break
                value, g, its = _search(T, start)
                used, total_it = used + 1, total_it + its
    certified = bool(upper <= value * (1.0 + _NORM_EXCESS) < math.inf)
    if not certified:
        G0 = np.empty((_STARTS, ncol))
        for g0 in G0:   # each row's sign draws follow its values
            g0[:] = rng.uniform(0.1, 1.0, size=ncol)
            if not provable:
                g0 *= rng.choice([-1.0, 1.0], size=ncol)
        for g0 in G0:   # the first of equal values wins
            start_value, start_g, its = _search(T, g0)
            used, total_it = used + 1, total_it + its
            if start_value > value:
                value, g = start_value, start_g
    return NormCertificate(value, g, used, total_it, certified, float(upper))


_SCREEN_SLACK = 2.0 ** -18   # 64 u32; the relative slack of brute_force_norm's float32 screen


def _mesh_values(pts: np.ndarray, T: FiniteOperator) -> np.ndarray:
    """||T x||_q / ||x||_p at each row x of pts: the brute-force oracle's
    dense formula."""
    pts = np.abs(pts)
    norms = np.sum(pts ** T.p, axis=1) ** (1.0 / T.p)
    pts = pts / norms[:, None]
    return np.sum(np.abs(pts @ T.matrix.T) ** T.q, axis=1) ** (1.0 / T.q)


def _screen_lines(T: FiniteOperator, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """For each line a of the 3-column mesh, the largest screen value
    sum_k |y_k|^q / ||x||_p^q over its points x = (c_a c_b, s_a c_b, s_b)
    off the pole column b = mesh - 1, with
    y_k = (M_k0 c_a + M_k1 s_a) c_b + M_k2 s_b and
    ||x||_p^p = (c_a^p + s_a^p) c_b^p + s_b^p built from 1-d factors: rows + 1
    powers a point, against rows + 5 in the dense formula.  It runs in
    float32: M, c and s are rounded to within u32 = 2^-24 and the powers
    take p, q and -q/p rounded too (a Python float exponent takes the
    array's dtype); the maxima come back as float64, which holds them
    exactly.  A power that overflows makes its line's maximum infinite or
    NaN; the caller silences numpy's warning.

    The lines go through in blocks of at most 128 KiB a buffer, which stay
    in cache.  Each point gets the same operations in the same order
    whatever its block, so each line's maximum is the whole-mesh screen's
    to the bit.  For a nonnegative M the screen skips |y_k|: y_k is >= +0.0,
    or -0.0 (from a -0.0 entry), which adds a zero to a sum that starts at
    +0.0."""
    p, q = T.p, T.q
    mesh = len(c)
    M = T.matrix.astype(np.float32)
    c, s = c.astype(np.float32), s.astype(np.float32)
    lead = np.multiply.outer(M[:, 0], c) + np.multiply.outer(M[:, 1], s)
    tail = np.multiply.outer(M[:, 2], s)
    signed = not T.nonnegative
    cp, sp = c ** p, s ** p
    weight = cp + sp
    block = max(1, 32_768 // mesh)   # 128 KiB a float32 buffer
    acc = np.empty((min(block, mesh), mesh), np.float32)
    buf = np.empty_like(acc)
    line_max = np.empty(mesh)
    for a in range(0, mesh, block):
        part = slice(a, min(a + block, mesh))
        acc_a, buf_a = acc[:part.stop - a], buf[:part.stop - a]
        acc_a.fill(0.0)
        for lead_k, tail_k in zip(lead, tail):
            np.multiply.outer(lead_k[part], c, out=buf_a)
            buf_a += tail_k
            if signed:
                np.abs(buf_a, out=buf_a)
            buf_a **= q
            acc_a += buf_a
        np.multiply.outer(weight[part], cp, out=buf_a)
        buf_a += sp
        buf_a **= -q / p
        acc_a *= buf_a
        line_max[part] = acc_a[:, :-1].max(axis=1, initial=0.0)
    return line_max


def _candidate_lines(T: FiniteOperator, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The lines of the 3-column mesh that brute_force_norm re-evaluates:
    those whose float32 screen of 2^-e M is within the slack of the top
    value S; every line when S or the slack is infinite or NaN."""
    M, e = _scaled(T.matrix)
    rows, p, q = M.shape[0], T.p, T.q
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow keeps every line
        line_max = _screen_lines(FiniteOperator(M, p, q), c, s)
        top = line_max.max()
        weight = 0.0 if T.nonnegative else np.sum(np.sum(np.abs(M), axis=1) ** q)
        slack = (_SCREEN_SLACK * (q + q / p + rows + 1) * (top + weight)
                 + (rows + 1) * (2.0 ** -23 + q * np.exp2(-1018.0 - e * q)))
    if not np.isfinite(slack):
        return np.arange(len(line_max))
    return np.flatnonzero(line_max >= top - slack)


def brute_force_norm(T: FiniteOperator, mesh: int = 180) -> float:
    """Dense search of sup ||Tg||_q over the nonnegative unit l^p sphere;
    oracle for small instances (2 or 3 columns).

    The mesh is t = linspace(0, pi/2, mesh), c = cos t, s = sin t: the
    points (c_i, s_i) for 2 columns, (c_a c_b, s_a c_b, s_b) for 3.  Each
    point is normalised in l^p and its value ||M x||_q taken by
    _mesh_values; the result is the largest value.  For 3 columns,
    _candidate_lines screens every line of the mesh in float32
    (_screen_lines) on 2^-e M, where 2^e brings the largest entry of M into
    [1/2, 1) as in _fixed_point, and keeps the lines within the slack below
    of the top screen value S.  _mesh_values then re-evaluates those lines
    whole, as in the full mesh (a single row would take numpy's one-row
    matmul route, which can differ in the last bit), and the pole column
    b = mesh - 1, where every line ends near (0, 0, 1), once as a batch of
    mesh rows.  The result is the dense formula's maximum over the whole
    mesh, bit for bit.  Nothing assumes that few lines pass: a zero matrix
    or a flat maximum passes them all.

    Dense error.  The dense formula approximates the real
    V^q = ||M x||_q^q / ||x||_p^q, and u = 2^-53.  Every coordinate lies in
    [0, 1], and each step is correctly rounded or a power good to 4 ulps.
    So each computed y_k = (M x)_k is within 25 u m_k of the true one, with
    m_k = sum_l |M_kl|, and its q-th power within 26 q u m_k^q plus 8 u
    relative; for a nonnegative M, whose y_k sum nonnegative products, m_k
    here can be read as |y_k|.  The row sum and the closing powers bring
    the relative part to (8 + rows + 8 q) u, and underflow adds at most
    (rows + 1) (q + 2) 2^-1072.

    Screen error.  From here m_k, S and V^q are those of 2^-e M, 2^-eq
    times those of M, and u32 = 2^-24.  Rounding M, c and s to float32 puts
    y_k within 7 u32 m_k (|y_k| again for a nonnegative M).  A float32
    power x^r is good to 4 ulps plus u32 |r ln x| x^r (numpy's vectorised
    powf loses accuracy in proportion to |r ln x|), and rounding r to
    float32 costs as much again.  As |y_k| <= ||M_k||_2 <= 3^(1/2) and
    y^q q ln(1/y) <= 1/exp(1) for y < 1, |y_k|^q is within
    7 q u32 m_k^q + 0.74 u32 plus (1.1 q + 8) u32 relative, and ||x||_p^-q,
    whose base lies in [1, 3^(1/2)], within (2 q + 25 q/p + 8) u32 relative.
    Each screen value is then within E (V^q + W) + 0.74 rows u32 + F32 of
    V^q, with E = 25 (q + q/p + rows + 1) u32, W = sum_k m_k^q for a signed M
    and W = 0 for a nonnegative one, and F32 = (rows (9 q + 1) + 1) 2^-126
    for underflow.  The dense error, in these units, is below
    2^-24 E (V^q + W) plus (rows + 1) (q + 2) 2^(-1072 - e q).

    Slack.  Let S be at the point P, and the dense maximum off the pole
    column at Q.  As Q's dense value is at least P's, Q screens within
    twice the screen and the dense errors of S.  While E <= 1/8, that is
    for q + q/p + rows < 2^16, the largest V^q is below
    (S + E W + 0.74 rows u32 + F32) / (1 - E), and the slack
    _SCREEN_SLACK (q + q/p + rows + 1) (S + W)
    + (rows + 1) (2^-23 + q 2^(-1018 - e q)), with
    _SCREEN_SLACK = 2^-18 = 64 u32, covers that: Q's line is a candidate.

    Overflow.  |y_k|^q overflows float32 once q ln(3^(1/2)) > 88.7, past
    q = 160 or so; W and 2^(-1018 - e q) overflow float64 at larger q or
    for entries far below 1.  The overflows are silent, and an infinite or
    NaN screen value or slack keeps every line."""
    ncol = T.matrix.shape[1]
    t = np.linspace(0.0, 0.5 * math.pi, mesh)
    c, s = np.cos(t), np.sin(t)
    if ncol == 2:
        return float(np.max(_mesh_values(np.stack([c, s], axis=1), T)))
    if ncol != 3:
        raise ValueError("brute force supports 2 or 3 columns")
    lines = _candidate_lines(T, c, s)
    # point (a, b) is (cos t_a cos t_b, sin t_a cos t_b, sin t_b)
    pts = np.stack([np.outer(c[lines], c).ravel(), np.outer(s[lines], c).ravel(),
                    np.tile(s, len(lines))], axis=1)
    pole = np.stack([c * c[-1], s * c[-1], np.full(mesh, s[-1])], axis=1)
    return float(np.maximum(np.max(_mesh_values(pts, T)), np.max(_mesh_values(pole, T))))


def extremiser_transfer(T: FiniteOperator, G_star: np.ndarray,
                        norm_value: float) -> np.ndarray:
    """Map an extremiser of T* to one of T via g = |T* G|^{p'-2} (T* G)."""
    G_star = np.asarray(G_star, dtype=float)
    h = T.apply_adjoint(G_star)
    achieved = lp_norm(h, T.p_prime)
    target = norm_value * lp_norm(G_star, T.q_prime)
    defect = abs(achieved - target) / max(target, 1e-300)
    if defect > 1e-9:
        raise ValueError(
            f"input is not an extremiser of the adjoint (relative defect {defect:.3e})"
        )
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
    lhs = ||D_r g1 - D_r g2||_{r'} and rhs the explicit-constant bound.

    g1 and g2 go through _duality_rows and the r-norm sums as rows of one
    array: each row gets the operations it would get alone."""
    if r <= 1.0:
        raise ValueError(f"requires r > 1, got {r}")
    g = np.array([g1, g2], dtype=float)
    D = _duality_rows(g, r)
    lhs = lp_norm(D[0] - D[1], _conjugate(r))
    sums = np.add.reduce(np.abs(np.vstack([g[0] - g[1], g])) ** r, axis=1)
    dist, n1, n2 = sums.tolist()
    ratio = dist ** (1.0 / r) / (n1 ** (1.0 / r) + n2 ** (1.0 / r))
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


# ---------------------------------------------------------------------------
# local duality-stability


def ray_distance(u: np.ndarray, b: np.ndarray, p: float) -> float:
    """min over c >= 0 of ||u - c b||_p (unweighted sums over all entries),
    with c in [0, 10 ||u||_p / ||b||_p].

    `_ray_minimiser` on that bracket, from ||u||_p / ||b||_p, the minimiser
    when u lies on the ray."""
    u = np.asarray(u, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    c = lp_norm(u, p) / max(lp_norm(b, p), 1e-300)
    return _ray_minimiser(u, b, p, 0.0, 10.0 * c, c)[1]


def _ray_minimiser(u: np.ndarray, b: np.ndarray, p: float, lo: float, hi: float,
                   c: float) -> tuple[float, float]:
    """(c, ||u - c b||_p) at the minimiser over c in [lo, hi] (unweighted
    sums over all entries), by secant steps from c in (lo, hi).

    The distance is convex in c, so phi(c) = -<b, |u - c b|^{p-1} sign(u - c b)>
    increases with c: the minimiser is lo if phi(lo) >= 0, hi if
    phi(hi) <= 0, and else the root of phi.  The start c is the caller's
    guess.  Secant steps need no phi', which is singular for p < 2 where
    u - c b vanishes, as at the root when u lies on the ray.  A step that
    leaves the bracket becomes bisection, and a step shorter than tol (tens
    of units in the last place of the larger end) becomes one of length
    tol, so that the bracket also closes from its far side.  The search
    stops once the bracket is 2 tol wide, at its end with the smaller
    |phi|."""
    u = np.asarray(u, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    # every pass writes into r or t: no allocation per evaluation
    r, t = np.empty_like(u), np.empty_like(u)

    def residual(c):
        return np.subtract(u, np.multiply(b, c, out=r), out=r)

    # operator.ipow(t, e) is t **= e, which, unlike np.power, takes numpy's
    # sqrt path at e = 1/2: the exponent p - 1 on both sides of the probe
    def norm(x):  # lp_norm(x, p), computed in t
        return float(np.sum(operator.ipow(np.abs(x, out=t), p)) ** (1.0 / p))

    def phi(c):
        operator.ipow(np.abs(residual(c), out=t), p - 1.0)
        return -float(b @ np.copysign(t, r, out=t))

    f_lo, f_hi = phi(lo), phi(hi)
    if f_lo >= 0.0:
        return lo, norm(residual(lo))
    if f_hi <= 0.0:
        return hi, norm(residual(hi))
    # 2 tol spans 8 floats at the larger end: a midpoint splits it
    tol = 4.0 * np.finfo(float).eps * max(abs(lo), abs(hi))
    c_prev, f_prev = lo, f_lo
    while True:
        f = phi(c)
        if f == 0.0:
            break
        if f < 0.0:
            lo, f_lo = c, f
        else:
            hi, f_hi = c, f
        if hi - lo <= 2.0 * tol:
            c = lo if -f_lo < f_hi else hi
            break
        step = f * (c - c_prev) / (f - f_prev) if f != f_prev else math.inf
        c_prev, f_prev = c, f
        c -= math.copysign(tol, step) if abs(step) < tol else step
        if not lo < c < hi:
            c = 0.5 * (lo + hi)
    return c, norm(residual(c))


_REGIME = 0.25   # the relative distance below which the chain is asserted


def local_stability_pipeline(T: FiniteOperator, g: np.ndarray,
                             extremiser_samples, cert: NormCertificate) -> LocalStabilityReport:
    """Evaluate each link of the local stability chain at g.

    deficit >= (||T|| - ||T* G||) + (p-1)/4 ||T* G|| ||g/||g|| - D_{p'}(T* G)||_p^2
    with G = D_q(T g); outside the relative-distance regime the report is
    returned unasserted (in_regime False)."""
    g = np.asarray(g, dtype=float)
    gn = lp_norm(g, T.p)
    if gn == 0.0:
        raise ValueError("g must be nonzero")
    u = g / gn
    dist = min(ray_distance(u, np.asarray(gs, float), T.p) for gs in extremiser_samples)
    in_regime = dist < _REGIME
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


_SIGMA_GRID = 4000   # midpoints of the cross-check grid on (0, 1)


def sigma_counterexample(r: float, sigma: float, delta_list) -> list[dict]:
    """Unit-interval pair h1 = 1, h2 = (1-d)^{-2/r'} on (0, (1-d)^2):
    closed-form ratios ||h1 - h2^{r'-1}||_r^sigma / (2 d) per delta, with
    the exact 2-delta identity residual and a midpoint-grid cross-check of
    the unit norms and the difference norm."""
    if not 1.0 < r < math.inf:
        raise ValueError(f"requires r in (1, inf), got {r}")
    rp = _conjugate(r)
    mid = (np.arange(_SIGMA_GRID) + 0.5) / _SIGMA_GRID
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
