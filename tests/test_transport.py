"""Kinetic transport lab: velocity averages, x-ray adjoints, the sharp
operator ratio of the grid extremiser, and the local stability probe."""

import math

import numpy as np
import pytest

from tracestab import duality, transport
from tracestab.duality import ray_distance
from tracestab.specfun import add_gaussian
from tracestab.transport import (
    PhaseGrid,
    TransportFunction,
    exponents,
    extremiser_G,
    extremiser_f,
    grid_norm,
    local_stability_probe,
    make_probe_direction,
    orthogonalize_direction,
    pairing,
    probe_to_csv,
    random_phase_function,
    ratio_estimate,
    ratio_gradient,
    velocity_average,
    xray_adjoint,
)

from oracles import CUT, NORMAL_CUT, dense_bump, exact_xray
from test_duality import _bisection_distance


GRID = PhaseGrid.build(n=1, L=40.0, points=256)
FINE = PhaseGrid.build(n=1, L=40.0, points=512)
RESOLVED = PhaseGrid.build(n=1, L=40.0, points=256, t_extent=2.0)


class TestExponents:
    def test_values(self):
        assert exponents(1) == (1.5, 3.0, 3.0)
        assert exponents(2) == (4.0 / 3.0, 2.0, 2.0)
        with pytest.raises(ValueError):
            exponents(0)


class TestExtremisers:
    def test_origin_values(self):
        assert extremiser_f(1, 0.0, 0.0) == 1.0
        assert extremiser_G(1, 0.0, 0.0) == 1.0
        # PhaseGrid and the probe's sides reject n != 1, so no grid reaches
        # another dimension's formula
        for extremiser in (extremiser_f, extremiser_G):
            with pytest.raises(ValueError, match="supported dimension is n = 1"):
                extremiser(2, np.zeros(2), np.zeros(2))

    def test_n1_determinant_identity(self, rng):
        # (1+x^2)(1+v^2) - (xv)^2 collapses to 1 + x^2 + v^2 on the line
        for _ in range(50):
            x, v = rng.normal(size=2) * 3.0
            direct = ((1.0 + x * x) * (1.0 + v * v) - (x * v) ** 2) ** -1.0
            assert extremiser_f(1, x, v) == pytest.approx(direct, rel=1e-15)

    def test_G_radial_decrease(self):
        t = np.array([0.0, 0.0, 1.0])
        x = np.array([0.0, 1.0, 1.0])
        vals = extremiser_G(1, t, x)
        assert vals[0] > vals[1] > vals[2]


class TestPhaseGrid:
    def test_invariants(self):
        with pytest.raises(ValueError):
            PhaseGrid(1, 5.0, 0.05, 5.0)          # L too small
        with pytest.raises(ValueError):
            PhaseGrid(1, 40.0, 1.0, 40.0)         # h too coarse for n=1
        for n in (2, 3):
            with pytest.raises(ValueError, match="supported dimension is n = 1"):
                PhaseGrid(n, 40.0, 0.3125, 40.0)
        with pytest.raises(ValueError):
            PhaseGrid(1, 40.0, 0.3125, -1.0)      # bad t extent

    @pytest.mark.parametrize("L,h,t_extent,message", [
        (40.0, 0.0, 40.0, "spacing h must be positive"),
        (40.0, -0.3125, 40.0, "spacing h must be positive"),
        (math.nan, 0.3125, 40.0, "must be finite"),
        (math.inf, 0.3125, 40.0, "must be finite"),
        (40.0, math.nan, 40.0, "must be finite"),
        (40.0, 0.3125, math.inf, "must be finite"),
        (40.0, 0.3125, math.nan, "must be finite"),
        (40.0, 0.3125, 0.1, "t_extent must exceed h / 2"),      # t = [0.]
        (40.0, 0.3125, 0.15625, "t_extent must exceed h / 2"),  # rounds to 0
        # L / h is inf at h = 1e-320, so the node cap compares floats before round()
        (40.0, 1e-320, 40.0, "at most 4097 nodes per axis"),
        (40.0, 40.0 / 2049, 40.0, "at most 4097 nodes per axis"),
        (40.0, 0.3125, 641.0, "at most 4097 nodes per axis"),
        (40.0, 0.3125, 1e300, "at most 4097 nodes per axis"),
    ], ids=["h-zero", "h-negative", "L-nan", "L-inf", "h-nan", "t-inf", "t-nan",
            "t-one-node", "t-half-h", "L-over-h-inf", "x-4099", "t-4103", "t-huge"])
    def test_degenerate_axes_rejected(self, L, h, t_extent, message):
        with pytest.raises(ValueError, match=message):
            PhaseGrid(1, L, h, t_extent)

    def test_largest_grid_has_4097_nodes(self):
        g = PhaseGrid(1, 40.0, 40.0 / 2048, 40.0)
        assert g.x.size == g.t.size == 4097

    def test_shortest_t_axis_has_three_nodes(self):
        g = PhaseGrid(1, 40.0, 0.3125, 0.16)
        assert g.t.tolist() == [-0.3125, 0.0, 0.3125]
        assert ratio_estimate(1, g, "dual") > 0.0

    @pytest.mark.parametrize("points", [0, -256])
    def test_build_needs_points(self, points):
        with pytest.raises(ValueError, match="points must be >= 1"):
            PhaseGrid.build(n=1, L=40.0, points=points)

    def test_axes(self):
        g = PhaseGrid.build(n=1, L=40.0, points=256, t_extent=2.0)
        assert g.x[0] == -40.0 and g.x[-1] == 40.0
        assert g.x.size == 257
        assert np.allclose(np.diff(g.x), g.h)
        assert g.t[-1] == pytest.approx(2.0, abs=g.h)


class TestGridMatch:
    # a function is sampled on its grid's axes, and each operator takes it
    # only on that grid: (x, v) = (257, 257) and (t, x) = (13, 257) on RESOLVED
    @pytest.mark.parametrize("kind, shape", [("phase", (100, 257)), ("phase", (5, 5)),
                                             ("phase", (13, 257)), ("spacetime", (257, 257)),
                                             ("spacetime", (257, 13))])
    def test_samples_take_the_grid_shape(self, kind, shape):
        with pytest.raises(ValueError, match="shape"):
            TransportFunction(RESOLVED, kind, np.zeros(shape))

    @pytest.mark.parametrize("kind, op", [("phase", velocity_average),
                                          ("spacetime", xray_adjoint)])
    def test_operators_reject_another_grid(self, kind, op):
        # both grids have 257 x points, so the samples alone cannot tell
        half = PhaseGrid.build(1, 20.0, 256)
        A, B = np.meshgrid(*((GRID.x, GRID.v) if kind == "phase" else (GRID.t, GRID.x)),
                           indexing="ij")
        tf = TransportFunction(GRID, kind, np.exp(-A * A - B * B))
        twin = TransportFunction(half, kind, tf.samples)
        with pytest.raises(ValueError, match="expected"):
            op(tf, half, tail_tol=1.0)
        with pytest.raises(ValueError, match="matching domains"):
            pairing(tf, twin)
        with pytest.raises(ValueError, match="matching domains"):
            pairing(twin, tf)

    def test_probe_takes_its_own_grid_and_shape(self):
        half = PhaseGrid.build(1, 20.0, 256)
        zero = TransportFunction(half, "phase", np.zeros((257, 257)))
        with pytest.raises(ValueError, match="expected"):
            local_stability_probe(1, zero, [0.1], GRID)
        with pytest.raises(ValueError, match="shape"):
            make_probe_direction(np.ones((GRID.x.size, 1)), 1, GRID)

    def test_records_compare_by_identity(self):
        tf = TransportFunction(GRID, "phase", np.ones((GRID.x.size, GRID.v.size)))
        twin = TransportFunction(GRID, "phase", tf.samples.copy())
        assert tf == tf and tf != twin and not tf == twin
        assert len({tf, twin, tf}) == 2 and hash(tf) == hash(tf)


class TestVelocityAverage:
    def test_gaussian_closed_form(self):
        f = TransportFunction.from_callable(
            RESOLVED, "phase", lambda x, v: np.exp(-x * x - v * v)
        )
        rho = velocity_average(f, RESOLVED)
        T, X = np.meshgrid(RESOLVED.t, RESOLVED.x, indexing="ij")
        exact = np.sqrt(math.pi / (1.0 + T ** 2)) * np.exp(-X ** 2 / (1.0 + T ** 2))
        assert np.max(np.abs(rho.samples - exact)) < 1e-4

    def test_t_zero_is_plain_quadrature(self):
        f = TransportFunction.from_callable(
            RESOLVED, "phase", lambda x, v: np.exp(-x * x - v * v)
        )
        rho = velocity_average(f, RESOLVED)
        i0 = RESOLVED.t.size // 2
        direct = RESOLVED.h * np.sum(f.samples, axis=1)
        assert np.allclose(rho.samples[i0], direct, atol=1e-13)

    def test_extremiser_closed_form(self):
        f = TransportFunction.from_callable(
            RESOLVED, "phase", lambda x, v: extremiser_f(1, x, v)
        )
        rho = velocity_average(f, RESOLVED, tail_tol=1.0)
        T, X = np.meshgrid(RESOLVED.t, RESOLVED.x, indexing="ij")
        exact = math.pi / np.sqrt(1.0 + T ** 2 + X ** 2)
        # truncation to |v| <= L leaves a O(1/L) defect in the slow tail
        assert np.max(np.abs(rho.samples - exact)) < 0.06
        mid = np.abs(X) < 5.0
        assert np.max(np.abs(rho.samples - exact)[mid] / exact[mid]) < 0.1

    def test_box_indicator_slab(self):
        g = PhaseGrid.build(n=1, L=10.0, points=512, t_extent=2.0)
        f = TransportFunction.from_callable(
            g, "phase",
            lambda x, v: ((np.abs(x) <= 1.0) & (np.abs(v) <= 1.0)).astype(float),
        )
        rho = velocity_average(f, g)
        it = int(np.argmin(np.abs(g.t - 0.5)))
        ix = int(np.argmin(np.abs(g.x)))
        # at t = 1/2, x = 0 every |v| <= 1 stays inside the box
        assert rho.samples[it, ix] == pytest.approx(2.0, abs=3 * g.h)
        # far outside the light cone the average vanishes
        ix_far = int(np.argmin(np.abs(g.x - 5.0)))
        assert rho.samples[it, ix_far] == 0.0

    def test_conservation_on_resolved_window(self):
        f = TransportFunction.from_callable(
            RESOLVED, "phase", lambda x, v: np.exp(-0.5 * (x * x + v * v))
        )
        rho = velocity_average(f, RESOLVED)
        mass_x = RESOLVED.h * np.sum(rho.samples, axis=1)
        assert np.max(np.abs(mass_x - mass_x[0])) < 1e-6 * mass_x[0]

    def test_tail_precondition(self):
        f = TransportFunction.from_callable(
            RESOLVED, "phase", lambda x, v: np.ones_like(x) * np.ones_like(v)
        )
        with pytest.raises(ValueError, match="truncation"):
            velocity_average(f, RESOLVED)

    @pytest.mark.parametrize("op,kind", [(velocity_average, "phase"),
                                         (xray_adjoint, "spacetime")])
    def test_tail_check_runs_only_below_unit_tolerance(self, op, kind, monkeypatch):
        # the boundary mass fraction is at most 1, so tail_tol = 1 skips it
        shape = (GRID.x.size, GRID.v.size) if kind == "phase" else (GRID.t.size, GRID.x.size)
        tf = TransportFunction(GRID, kind, np.ones(shape))
        fraction = tf.tail_fraction()
        calls = []
        tail_fraction = TransportFunction.tail_fraction

        def counted(self):
            calls.append(self)
            return tail_fraction(self)

        monkeypatch.setattr(TransportFunction, "tail_fraction", counted)
        op(tf, GRID, tail_tol=1.0)
        assert calls == []
        with pytest.raises(ValueError) as err:
            op(tf, GRID)
        assert str(err.value) == f"truncation error: boundary mass fraction {fraction:.2e} > 0.001"
        assert calls == [tf]


class TestXrayAdjoint:
    def test_gaussian_closed_form(self):
        # the exact-integrand oracle the sampled kernel is checked against
        g = PhaseGrid.build(n=1, L=10.0, points=640)
        back = exact_xray(lambda t, x: np.exp(-t * t - x * x), g)
        X, V = np.meshgrid(g.x, g.v, indexing="ij")
        exact = np.sqrt(math.pi / (1.0 + V ** 2)) * np.exp(-X ** 2 / (1.0 + V ** 2))
        sl = (np.abs(X) <= 3.0) & (np.abs(V) <= 2.0)
        assert np.max(np.abs(back - exact)[sl]) < 1e-4

    def test_spacetime_callable_keeps_samples_only(self):
        # the adjoint has one route, the sampled kernel's transpose
        def gauss(a, b):
            return np.exp(-a * a - b * b)

        assert TransportFunction.from_callable(RESOLVED, "phase", gauss).func is gauss
        G = TransportFunction.from_callable(RESOLVED, "spacetime", gauss)
        assert G.func is None
        plain = TransportFunction(RESOLVED, "spacetime", G.samples.copy())
        assert np.array_equal(xray_adjoint(G, RESOLVED, tail_tol=1.0).samples,
                              xray_adjoint(plain, RESOLVED, tail_tol=1.0).samples)

    def test_pairing_identity(self, rng):
        # the sampled-route operators are exact transposes, boundary rows
        # included; the taper keeps G a resolved, decaying function
        f = random_phase_function(GRID, rng)
        G_samples = rng.normal(size=(GRID.t.size, GRID.x.size))
        G_samples *= np.exp(-0.01 * (GRID.t[:, None] ** 2 + GRID.x[None, :] ** 2))
        G = TransportFunction(GRID, "spacetime", G_samples)
        lhs = pairing(velocity_average(f, GRID, tail_tol=1.0), G)
        rhs = pairing(f, xray_adjoint(G, GRID, tail_tol=1.0))
        assert abs(lhs - rhs) <= 1e-5 * max(abs(lhs), 1.0)
        # transposed kernels agree far beyond the required tolerance;
        # only summation-order rounding remains
        assert abs(lhs - rhs) <= 1e-7 * max(abs(lhs), 1e-30)

    def test_adjoint_is_exact_transpose(self, rng):
        # full-support noise reaches the x = +-L rows; zero extension past
        # them makes the x-ray rule at shift -s the transpose of the
        # velocity average at s, so only summation-order rounding remains
        for points in (192, 256):
            g = PhaseGrid.build(1, 40.0, points)
            f = TransportFunction(g, "phase", rng.normal(size=(g.x.size, g.v.size)))
            G = TransportFunction(g, "spacetime", rng.normal(size=(g.t.size, g.x.size)))
            lhs = pairing(velocity_average(f, g, tail_tol=1.0), G)
            rhs = pairing(f, xray_adjoint(G, g, tail_tol=1.0))
            assert abs(lhs - rhs) <= 1e-13 * abs(lhs), (points, lhs, rhs)


class TestKernelRoutes:
    def test_sampled_route_within_interpolation_bound(self):
        # Linear interpolation in x of exp(-x^2 - y^2) errs by at most
        # h^2/8 * max|d_x^2| = h^2/4 * exp(-y^2); the rule's sum over y of
        # h exp(-y^2) is at most sqrt(pi), so each route pair differs by at
        # most h^2 sqrt(pi)/4 (0.0433 at 256 points, 0.0108 at 512).  The
        # short t-window cuts the space-time Gaussian off, so no tail gate.
        def gauss(a, b):
            return np.exp(-a * a - b * b)

        for points in (256, 512):
            g = PhaseGrid.build(1, 40.0, points, t_extent=2.0)
            bound = g.h ** 2 * math.sqrt(math.pi) / 4.0
            f = TransportFunction.from_callable(g, "phase", gauss)
            routes = ((velocity_average, TransportFunction(g, "phase", f.samples),
                       velocity_average(f, g, tail_tol=1.0).samples),
                      (xray_adjoint, TransportFunction.from_callable(g, "spacetime", gauss),
                       exact_xray(gauss, g)))
            for op, sampled, exact in routes:
                gap = np.max(np.abs(op(sampled, g, tail_tol=1.0).samples - exact))
                assert gap <= bound, (points, op.__name__, gap)

    def test_sampled_route_matches_interpolation_free_case(self):
        # t = 0 rows need no interpolation: both routes reduce to a sum
        fs = np.exp(-0.2 * (GRID.x[:, None] ** 2 + GRID.v[None, :] ** 2))
        out = transport._vel_avg_sampled(fs, GRID.h, GRID.v, np.array([0.0]))
        assert np.allclose(out[0], GRID.h * fs.sum(axis=1), atol=1e-12)


def _node(a, i, j):
    """a[i, j], reading zero where row i lies off [0, a.shape[0])."""
    on = (i >= 0) & (i < a.shape[0])
    return np.where(on, a[np.clip(i, 0, a.shape[0] - 1), j], 0.0)


def _vel_avg_reference(fs, x0, hx, v, t):
    """Per-element velocity-average rule: each (t, x_i, v_j) interpolates on
    its own between nodes floor(u) and floor(u) + 1, and a node off the
    grid reads zero."""
    nx, nv = fs.shape
    hv = v[1] - v[0]
    x = x0 + hx * np.arange(nx)
    out = np.empty((t.size, nx))
    jj = np.arange(nv)
    for it, tv in enumerate(t):
        u = (x[:, None] - tv * v[None, :] - x0) / hx
        i0 = np.floor(u).astype(np.int64)
        w = u - i0
        vals = (1.0 - w) * _node(fs, i0, jj) + w * _node(fs, i0 + 1, jj)
        out[it] = hv * np.sum(vals, axis=1)
    return out


def _xray_reference(Gs, t, x0, hx, v):
    """Per-element x-ray rule, with the same interpolation and zero nodes."""
    nt, nx = Gs.shape
    ht = t[1] - t[0]
    x = x0 + hx * np.arange(nx)
    out = np.zeros((nx, v.size))
    for s in range(nt):
        u = (x[:, None] + v[None, :] * t[s] - x0) / hx
        i0 = np.floor(u).astype(np.int64)
        w = u - i0
        out += (1.0 - w) * _node(Gs.T, i0, s) + w * _node(Gs.T, i0 + 1, s)
    return ht * out


def _rel_gap(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestShiftKernels:
    # The kernels read one shift per (t, v) pair from a table; the
    # per-element rule is the reference.  192 points give h = 5/12, where
    # rounding moves floor(u) - i by one along x for some pairs; the
    # interpolated value, zero nodes at x = +-L included, moves only by
    # rounding.
    @pytest.mark.parametrize("points, t_extent", [(192, None), (256, None), (512, 2.0)])
    def test_matches_per_element_rule(self, points, t_extent, rng):
        g = PhaseGrid.build(1, 40.0, points, t_extent)
        x0 = float(g.x[0])
        X, V = np.meshgrid(g.x, g.v, indexing="ij")
        T, Xt = np.meshgrid(g.t, g.x, indexing="ij")
        inputs = [(rng.normal(size=X.shape), rng.normal(size=T.shape)),
                  (extremiser_f(1, X, V), extremiser_G(1, T, Xt))]
        for fs, Gs in inputs:
            rho = velocity_average(TransportFunction(g, "phase", fs), g, tail_tol=1.0)
            back = xray_adjoint(TransportFunction(g, "spacetime", Gs), g, tail_tol=1.0)
            assert _rel_gap(rho.samples, _vel_avg_reference(fs, x0, g.h, g.v, g.t)) <= 1e-12
            assert _rel_gap(back.samples, _xray_reference(Gs, g.t, x0, g.h, g.v)) <= 1e-12

    def test_rounded_range_far_from_origin(self, rng):
        # x0 = -300 with step 5/12: x0 + h i rounds, so the per-element
        # positions u are not whole rows at zero shift, and floor(u) - i
        # differs from the table's whole-row shift along x
        x0, hx, nx = -300.0, 5.0 / 12.0, 24
        v = hx * np.arange(-nx, nx + 1)
        t = hx * np.arange(-3, 4)
        x = x0 + hx * np.arange(nx)
        assert np.all(np.floor((x - x0) / hx) <= nx - 2)
        fs = rng.normal(size=(nx, v.size))
        Gs = rng.normal(size=(t.size, nx))
        assert _rel_gap(transport._vel_avg_sampled(fs, hx, v, t),
                        _vel_avg_reference(fs, x0, hx, v, t)) <= 1e-12
        assert _rel_gap(transport._xray_sampled(Gs, t, hx, v),
                        _xray_reference(Gs, t, x0, hx, v)) <= 1e-12


def _line_pairs(hx, nx, a, b):
    """The shift table one output line at a time: pairs starts[o]:starts[o+1]
    feed line o, pair p at window start[p] with weights weights[:, p]."""
    s = a[:, None] * b[None, :] / hx
    k = np.floor(s)
    out, src = np.nonzero((k >= -nx) & (k < nx))
    w = (s - k)[out, src]
    return (np.searchsorted(out, np.arange(a.size + 1)),
            (2 * src + 1) * nx + k[out, src].astype(np.int64), np.stack([1.0 - w, w]))


def _per_line_sum(src, hx, a, b):
    """The kernel as one gather and one (2 x c) @ (c x (nx + 1)) product per
    output line: the oracle the run layout must match bit for bit."""
    nx = src.shape[1]
    starts, start, weights = _line_pairs(hx, nx, a, b)
    win = transport._windows(src)
    acc = np.zeros((a.size, nx))
    for o in range(a.size):
        sl = slice(starts[o], starts[o + 1])
        if sl.start < sl.stop:
            lo, hi = weights[:, sl] @ win[start[sl]]
            acc[o] = lo[:-1] + hi[1:]
    return acc


def _kernel_cases(rng):
    """(hx, v, t, fs, Gs) on the 192-, 256- and 512-point grids, random and
    extremiser inputs, and the x0 = -300 case of 24 rows."""
    for points in (192, 256, 512):
        g = PhaseGrid.build(1, 40.0, points)
        X, V = np.meshgrid(g.x, g.v, indexing="ij")
        T, Xt = np.meshgrid(g.t, g.x, indexing="ij")
        yield g.h, g.v, g.t, rng.normal(size=X.shape), rng.normal(size=T.shape)
        yield g.h, g.v, g.t, extremiser_f(1, X, V), extremiser_G(1, T, Xt)
    hx, nx = 5.0 / 12.0, 24
    v, t = hx * np.arange(-nx, nx + 1), hx * np.arange(-3, 4)
    yield hx, v, t, rng.normal(size=(nx, v.size)), rng.normal(size=(t.size, nx))


class TestShiftRuns:
    # The kernel makes one gather and one stacked matmul per run of output
    # lines with the same pair count; each stacked item is the product the
    # per-line loop makes, so the two agree bit for bit.
    def test_bit_identical_to_per_line_loop(self, rng):
        key = transport._axis_key
        for hx, v, t, fs, Gs in _kernel_cases(rng):
            nx = fs.shape[0]
            vel = _per_line_sum(fs.T, hx, -t, v)
            xray = _per_line_sum(Gs, hx, v, t)
            table = transport._shift_table(hx, nx, key(-t), key(v))
            assert np.array_equal(transport._shifted_sum(fs.T, table, 1.0), vel), (nx, "vel")
            table = transport._shift_table(hx, nx, key(v), key(t))
            assert np.array_equal(transport._shifted_sum(Gs, table, 1.0), xray), (nx, "xray")
            # the h scale in place, and the x-ray result in (x, v) layout
            assert np.array_equal(transport._vel_avg_sampled(fs, hx, v, t),
                                  (v[1] - v[0]) * vel)
            assert np.array_equal(transport._xray_sampled(Gs, t, hx, v),
                                  (t[1] - t[0]) * np.ascontiguousarray(xray.T))

    def test_run_layout(self, rng):
        # every output line with pairs sits in exactly one run, a run has one
        # pair count, and its gather holds at most max(c, nx) pairs, which
        # is no more than the largest per-line gather
        key = transport._axis_key
        for hx, v, t, fs, _ in _kernel_cases(rng):
            nx = fs.shape[0]
            for a, b in ((-t, v), (v, t)):
                starts, start, weights = _line_pairs(hx, nx, a, b)
                count = np.diff(starts)
                table = transport._shift_table(hx, nx, key(a), key(b))
                assert table.lines == a.size
                owner = np.full(a.size, -1)
                for i, run in enumerate(table.runs):
                    lines = np.arange(a.size)[run.lines]
                    c = run.weights.shape[2]
                    assert lines.size >= 1 and np.all(owner[lines] == -1)
                    owner[lines] = i
                    assert np.all(count[lines] == c) and c > 0
                    assert run.weights.shape == (lines.size, 2, c)
                    assert run.rows.size == lines.size * c <= max(c, nx)
                    pairs = slice(starts[lines[0]], starts[lines[-1] + 1])
                    assert np.array_equal(run.rows, start[pairs])
                    assert np.array_equal(run.weights.transpose(1, 0, 2).reshape(2, -1),
                                          weights[:, pairs])
                assert np.array_equal(owner >= 0, count > 0)


class TestSideCache:
    def test_probe_state_computed_once_per_grid_and_side(self, monkeypatch):
        applies = []
        for name in ("velocity_average", "xray_adjoint"):
            op = getattr(transport, name)

            def counted(*args, _op=op, **kwargs):
                applies.append(_op)
                return _op(*args, **kwargs)

            monkeypatch.setattr(transport, name, counted)
        # grids no other test uses, so the cache starts cold for them
        grids = [PhaseGrid.build(1, 40.0, 160), PhaseGrid.build(1, 40.0, 160, t_extent=2.0)]
        cases = [(grids[0], "primal"), (grids[0], "dual"), (grids[1], "primal")]
        for expected in (2, 0):
            for g, side in cases:
                axis0 = g.x if side == "primal" else g.t
                raw = np.exp(-0.5 * ((axis0[:, None] - 1.0) ** 2 + (g.x[None, :] + 2.0) ** 2))
                applies.clear()
                make_probe_direction(raw, 1, g, side)
                assert len(applies) == expected, (g, side)
                if expected:
                    # the operator on the extremiser, then its adjoint
                    fwd = velocity_average if side == "primal" else xray_adjoint
                    assert applies[0] is fwd and applies[1] is not fwd

    def test_gradient_is_read_only(self):
        g = ratio_gradient(1, GRID, "primal")
        with pytest.raises(ValueError):
            g[0, 0] = 1.0

    @pytest.mark.parametrize("side", ["primal", "dual"])
    def test_cached_arrays_are_read_only(self, side):
        grid = PhaseGrid.build(1, 40.0, 192)
        assert grid.x is grid.x and grid.v is grid.x and grid.t is grid.t
        sd = transport._side(1, grid, side)
        for a in (grid.x, grid.t, sd.base.samples, sd.image.samples, sd.gradient,
                  sd.projections[0]):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0


class TestNorms:
    def test_grid_norm_rectangle_rule(self):
        tf = TransportFunction(GRID, "phase", np.ones((GRID.x.size, GRID.v.size)))
        expect = (GRID.h ** 2 * GRID.x.size * GRID.v.size) ** (1.0 / 3.0)
        assert grid_norm(tf, 3.0) == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("e", [0.5, 4.0 / 3.0, 1.5, 2.0, 3.0])
    def test_grid_norm_bit_identical_to_formula(self, e, rng):
        # the formula takes numpy's scalar pow path in each block with a zero,
        # grid_norm skips the zero lanes: neither a zero (of either sign) nor
        # a subnormal lane may move a bit
        x = rng.normal(size=(GRID.x.size, GRID.v.size))
        x[::7] = 0.0
        signed = np.where(rng.uniform(size=x.shape) < 0.3, -0.0, x)
        tiny = np.where(rng.uniform(size=x.shape) < 0.3,
                        5e-324 * rng.integers(1, 2 ** 40, size=x.shape), x)
        bench = PhaseGrid.build(1, 40.0, 192)
        cases = [(GRID, x), (GRID, np.zeros_like(x)), (GRID, signed), (GRID, tiny)]
        cases += [(bench, random_phase_function(bench, np.random.default_rng(seed)).samples)
                  for seed in range(3)]
        for grid, s in cases:
            want = float((grid.h ** 2 * np.sum(np.abs(s) ** e)) ** (1.0 / e))
            assert grid_norm(TransportFunction(grid, "phase", s), e).hex() == want.hex()


class TestRandomPhaseFunction:
    @staticmethod
    def dense_reference(grid, rng, n_bumps=4, cut=CUT):
        """random_phase_function's draws, each bump evaluated on the whole
        grid under a cut of `cut` widths, add_gaussian's by default."""
        X, V = np.meshgrid(grid.x, grid.v, indexing="ij")
        s = np.zeros_like(X)
        for _ in range(n_bumps):
            cx, cv = rng.uniform(-0.3 * grid.L, 0.3 * grid.L, size=2)
            wx, wv = rng.uniform(0.8, 4.0, size=2)
            amp = rng.uniform(-1.0, 1.0)
            s += amp * dense_bump((X, cx, wx), (V, cv, wv), cut=cut)
        return s

    @pytest.mark.parametrize("L", [12.0, 40.0, 200.0])
    def test_bit_identical_to_dense_formula(self, L):
        grid = PhaseGrid.build(1, L, 128)
        for seed in range(20):
            got = random_phase_function(grid, np.random.default_rng(seed)).samples
            want = self.dense_reference(grid, np.random.default_rng(seed))
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    # float.hex of ||rho f||_3 / ||f||_{3/2} at seeds 0-2 on the kinetic
    # benchmark grid (L = 40, 192 points), taken when every bump kept each
    # lane whose dense exp is normal; add_gaussian's cut at u^2 of the peak
    # moves no bit of them.
    RATIO_PINS = ("0x1.67da4b25984cap+0", "0x1.6d158a6da68fdp+0", "0x1.3b85cc07901b3p+0")

    def test_ratios_pinned_on_the_benchmark_grid(self):
        grid = PhaseGrid.build(1, 40.0, 192)
        p, q, _ = exponents(1)
        for seed, want in enumerate(self.RATIO_PINS):
            f = random_phase_function(grid, np.random.default_rng(seed))
            ratio = grid_norm(velocity_average(f, grid), q) / grid_norm(f, p)
            assert float(ratio).hex() == want

    def test_cut_moves_no_ratio_on_the_benchmark_grid(self):
        # add_gaussian drops the lanes below u^2 of each bump's peak; against
        # draws that keep every lane whose exp is normal, no ratio moves
        grid = PhaseGrid.build(1, 40.0, 192)
        p, q, _ = exponents(1)

        def ratio(f):
            return float(grid_norm(velocity_average(f, grid), q) / grid_norm(f, p)).hex()

        for seed in range(100):
            f = random_phase_function(grid, np.random.default_rng(seed))
            dense = self.dense_reference(grid, np.random.default_rng(seed), cut=NORMAL_CUT)
            assert ratio(f) == ratio(TransportFunction(grid, "phase", dense))


class TestSharpRatio:
    def test_value_and_refinement(self):
        r256 = ratio_estimate(1, GRID)
        r512 = ratio_estimate(1, FINE)
        true = math.pi ** (2.0 / 3.0) / 2.0 ** (1.0 / 3.0)
        assert r256 == pytest.approx(1.696707, abs=1e-5)
        assert abs(r512 - r256) / r256 < 0.01
        assert abs(r256 - true) / true < 0.01

    def test_primal_dual_symmetry(self):
        assert ratio_estimate(1, GRID, "primal") == pytest.approx(
            ratio_estimate(1, GRID, "dual"), rel=1e-10
        )

    def test_random_sweep_below_ratio(self, rng):
        rhat = ratio_estimate(1, GRID)
        p, q, _ = exponents(1)
        best = 0.0
        for _ in range(60):
            f = random_phase_function(GRID, rng)
            val = grid_norm(velocity_average(f, GRID, tail_tol=1.0), q) / grid_norm(f, p)
            best = max(best, val)
        assert best < rhat


class TestProbe:
    def test_zero_direction(self):
        zero = TransportFunction(GRID, "phase",
                                 np.zeros((GRID.x.size, GRID.v.size)))
        pts = local_stability_probe(1, zero, [0.0, 0.1], GRID)
        for pt in pts:
            assert abs(pt.deficit) < 1e-12
            assert pt.dist_sq < 1e-12

    def test_ray_direction_rejected(self):
        X, V = np.meshgrid(GRID.x, GRID.v, indexing="ij")
        base = extremiser_f(1, X, V)
        with pytest.raises(ValueError, match="parallel to the base point"):
            orthogonalize_direction(base, base, 1.5)

    def test_orthogonalize_rejects_a_norm_it_cannot_divide_by(self):
        # 1e250 times a bump is finite, but its 3/2-norm overflows; d / inf
        # would return an all-zero "normalized" direction
        grid = PhaseGrid.build(1, 40.0, 128)
        X, V = np.meshgrid(grid.x, grid.v, indexing="ij")
        base = extremiser_f(1, X, V)
        bump = np.exp(-(X - 1.0) ** 2 - (V + 0.5) ** 2)
        nan_bump = bump.copy()
        nan_bump[3, 4] = math.nan
        for bad in (1e250 * bump, nan_bump):
            with pytest.raises(ValueError, match="finite nonzero norm"), \
                    np.errstate(over="ignore", invalid="ignore"):
                orthogonalize_direction(bad, base, 1.5)
        # a large norm that stays finite still normalizes to unit l^p sum
        d = orthogonalize_direction(1e100 * bump, base, 1.5)
        assert np.sum(np.abs(d) ** 1.5) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("side", ["primal", "dual"])
    def test_quadratic_band(self, side, rng):
        rhat = ratio_estimate(1, GRID, side)
        shape = ((GRID.x.size, GRID.v.size) if side == "primal"
                 else (GRID.t.size, GRID.x.size))
        axis0 = GRID.x if side == "primal" else GRID.t
        raw = np.exp(
            -0.5 * ((axis0[:, None] - 1.0) ** 2 + (GRID.x[None, :] + 2.0) ** 2)
        )
        assert raw.shape == shape
        d = make_probe_direction(raw, 1, GRID, side)
        pts = local_stability_probe(1, d, [0.05, 0.1, 0.2], GRID, side, rhat)
        ratios = [pt.ratio for pt in pts]
        assert all(pt.deficit > 0 for pt in pts)
        assert max(ratios) / min(ratios) <= 2.0

    @staticmethod
    def side_setup(side):
        """The side's extremiser, forward operator, exponents and a probe
        direction, from the public functions alone."""
        p, q, _ = exponents(1)
        if side == "primal":
            A, B = np.meshgrid(GRID.x, GRID.v, indexing="ij")
            base, fwd, e_in, e_out = extremiser_f(1, A, B), velocity_average, p, q
        else:
            A, B = np.meshgrid(GRID.t, GRID.x, indexing="ij")
            base, fwd, e_in, e_out = extremiser_G(1, A, B), xray_adjoint, q / (q - 1.0), \
                p / (p - 1.0)
        raw = np.exp(-((A - 0.7) / 1.3) ** 2 - ((B + 1.1) / 2.0) ** 2)
        return base, fwd, e_in, e_out, make_probe_direction(raw, 1, GRID, side)

    @pytest.mark.parametrize("side", ["primal", "dual"])
    def test_matches_one_apply_per_eps(self, side):
        # the probe forms A(f* + eps d) as A f* + eps A d
        base, fwd, e_in, e_out, d = self.side_setup(side)
        rhat = ratio_estimate(1, GRID, side)
        eps_list = [0.05, 0.1, 0.2]
        pts = local_stability_probe(1, d, eps_list, GRID, side, rhat)
        for eps, pt in zip(eps_list, pts, strict=True):
            f = TransportFunction(GRID, d.kind, base + eps * d.samples)
            nrm = grid_norm(f, e_in)
            ratio = grid_norm(fwd(f, GRID, tail_tol=1.0), e_out) / nrm
            # the deficit rhat - ratio is about 2e-5 rhat at eps = 0.05, where
            # one unit in the last place of the ratio moves it by 1e-11
            # relative, so it is compared on the scale of rhat
            assert abs(pt.deficit - (rhat - ratio)) <= 1e-13 * rhat
            dist = ray_distance(f.samples / nrm, base, e_in) * GRID.h ** (2.0 / e_in)
            assert pt.dist_sq == pytest.approx(dist ** 2, rel=1e-13)

    @pytest.mark.parametrize("side", ["primal", "dual"])
    def test_shared_ray_minimiser_matches_per_eps_distance(self, side):
        # one minimiser k* serves every eps: (eps / N) |d - k* f*|_p is the
        # ray distance of (f* + eps d) / N
        base, _, e_in, _, d = self.side_setup(side)
        rhat = ratio_estimate(1, GRID, side)
        eps_list = [0.01, 0.05, 0.1, 0.2, 0.25]
        pts = local_stability_probe(1, d, eps_list, GRID, side, rhat)
        scale = GRID.h ** (2.0 / e_in)
        for eps, pt in zip(eps_list, pts, strict=True):
            f = TransportFunction(GRID, d.kind, base + eps * d.samples)
            u = f.samples / grid_norm(f, e_in)
            dist = ray_distance(u, base, e_in) * scale
            assert pt.dist_sq == pytest.approx(dist ** 2, rel=1e-13)
            assert math.sqrt(pt.dist_sq) <= _bisection_distance(u, base, e_in) * scale \
                * (1.0 + 1e-13)

    @staticmethod
    def opposed_setup(monkeypatch):
        """|G*|_{q'} is about 0.24 on three t rows 0.02 apart, so along d =
        -G* / |G*| the ray minimiser k* is about -4.2: c = (1 + eps k*) / N
        is positive at eps = 0.1 and negative at eps = 0.25, where u = (G* +
        eps d) / N points away from the ray.  The k* the probe finds is
        recorded."""
        grid = PhaseGrid.build(1, 10.0, 1024, t_extent=10.0 / 512)
        sd = transport._side(1, grid, "dual")
        d = TransportFunction(grid, "spacetime", -sd.base.samples / sd.base_norm)
        kappas = []
        minimiser = transport._ray_minimiser

        def recorded(*args):
            kappa, miss = minimiser(*args)
            kappas.append(kappa)
            return kappa, miss

        monkeypatch.setattr(transport, "_ray_minimiser", recorded)
        return grid, sd, d, kappas

    def test_negative_ray_coefficient_gives_unit_distance(self, monkeypatch):
        # where c < 0 the nearest point of the ray is 0, at distance |u| = 1
        grid, sd, d, kappas = self.opposed_setup(monkeypatch)
        pts = local_stability_probe(1, d, [0.1, 0.25], grid, "dual")
        assert 1.0 + 0.25 * kappas[0] < 0.0 < 1.0 + 0.1 * kappas[0]
        assert pts[0].dist_sq < 1e-24  # d lies on the ray
        assert pts[1].dist_sq == 1.0
        f = TransportFunction(grid, "spacetime", sd.base.samples + 0.25 * d.samples)
        oracle = ray_distance(f.samples / grid_norm(f, sd.e_in), sd.base.samples, sd.e_in) \
            * (grid.h ** 2) ** (1.0 / sd.e_in)
        assert pts[1].dist_sq == pytest.approx(oracle ** 2, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("side", ["primal", "dual", "opposed"])
    def test_eps_loop_never_calls_ray_distance(self, side, monkeypatch):
        def refused(*args):
            raise AssertionError("the probe's distance is in closed form")

        if side == "opposed":
            grid, _, d, _ = self.opposed_setup(monkeypatch)
            side = "dual"
        else:
            grid, d = GRID, self.side_setup(side)[-1]
        assert not hasattr(transport, "ray_distance")  # no binding of its own to patch
        monkeypatch.setattr(duality, "ray_distance", refused)
        pts = local_stability_probe(1, d, [0.0, 0.05, 0.1, 0.2, 0.25], grid, side)
        assert len(pts) == 5

    @pytest.mark.parametrize("side", ["primal", "dual"])
    def test_zero_distance_is_exact(self, side):
        base, _, _, _, d = self.side_setup(side)
        zero = TransportFunction(GRID, d.kind, np.zeros_like(base))
        for direction, eps_list in ((d, [0.0]), (zero, [0.0, 0.1])):
            pts = local_stability_probe(1, direction, eps_list, GRID, side)
            assert [pt.dist_sq for pt in pts] == [0.0] * len(eps_list)

    @pytest.mark.parametrize("side", ["primal", "dual"])
    def test_one_ray_minimisation_per_call(self, side, monkeypatch):
        _, _, _, _, d = self.side_setup(side)
        rhat = ratio_estimate(1, GRID, side)
        calls = []
        minimiser = transport._ray_minimiser

        def counted(*args):
            calls.append(args)
            return minimiser(*args)

        monkeypatch.setattr(transport, "_ray_minimiser", counted)
        for eps_list in ([], [0.1], [0.05, 0.1, 0.2], [0.0, 0.05, 0.1, 0.15, 0.2, 0.25]):
            calls.clear()
            local_stability_probe(1, d, eps_list, GRID, side, rhat)
            assert len(calls) == min(len(eps_list), 1), eps_list

    @pytest.mark.parametrize("side", ["primal", "dual"])
    def test_one_forward_apply_per_call(self, side, monkeypatch):
        _, fwd, _, _, d = self.side_setup(side)  # also fills the side's cache
        rhat = ratio_estimate(1, GRID, side)
        applies = []
        for name in ("velocity_average", "xray_adjoint"):
            op = getattr(transport, name)

            def counted(*args, _op=op, **kwargs):
                applies.append(_op)
                return _op(*args, **kwargs)

            monkeypatch.setattr(transport, name, counted)
        for eps_list in ([], [0.1], [0.05, 0.1, 0.2], [0.0, 0.05, 0.1, 0.15, 0.2, 0.25]):
            applies.clear()
            pts = local_stability_probe(1, d, eps_list, GRID, side, rhat)
            assert len(pts) == len(eps_list)
            assert applies == [fwd] * min(len(eps_list), 1), eps_list

    @pytest.mark.parametrize("side", ["primal", "dual"])
    def test_direction_bit_identical_to_public_steps(self, side):
        # the side's dual map, its pairing and |gradient|^2 are cached; the
        # direction must be the one the public functions build per call
        grid = PhaseGrid.build(1, 40.0, 192)
        p, q, _ = exponents(1)
        e_in = p if side == "primal" else q / (q - 1.0)
        a, b = (grid.x, grid.v) if side == "primal" else (grid.t, grid.x)
        A, B = np.meshgrid(a, b, indexing="ij")
        base = (extremiser_f if side == "primal" else extremiser_G)(1, A, B)
        g = ratio_gradient(1, grid, side)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            cli = np.zeros(A.shape)  # transport-probe's draw
            add_gaussian(cli, 1.0, (a, rng.uniform(-2, 2), rng.uniform(1, 2.5)),
                         (b, rng.uniform(-2, 2), rng.uniform(1, 2.5)))
            dense = np.exp(-((A - rng.uniform(-2, 2)) / rng.uniform(1.5, 2.5)) ** 2
                           - ((B - rng.uniform(-2, 2)) / rng.uniform(1.5, 2.5)) ** 2)
            for raw in (cli, dense):
                d = orthogonalize_direction(raw, base, e_in)
                d = d - float(np.sum(d * g)) / float(np.sum(g * g)) * g
                d = d / (grid.h ** 2 * np.sum(np.abs(d) ** e_in)) ** (1.0 / e_in)
                got = make_probe_direction(raw, 1, grid, side).samples
                assert np.array_equal(got.view(np.int64), d.view(np.int64))

    def test_direction_rejects_what_it_cannot_normalize(self):
        X, V = np.meshgrid(GRID.x, GRID.v, indexing="ij")
        bump = np.exp(-(X - 1.0) ** 2 - (V + 0.5) ** 2)
        for bad in (math.nan, math.inf, -math.inf):
            raw = bump.copy()
            raw[3, 4] = bad
            with pytest.raises(ValueError, match="finite"):
                make_probe_direction(raw, 1, GRID)
        # finite, but its norm overflows: the result is not checked again,
        # so the norm must be
        with pytest.raises(ValueError, match="finite nonzero norm"), \
                np.errstate(over="ignore", invalid="ignore"):
            make_probe_direction(1e250 * bump, 1, GRID)

    def test_random_directions_positive_deficit(self, rng):
        rhat = ratio_estimate(1, GRID)
        for _ in range(5):
            raw = random_phase_function(GRID, rng).samples
            d = make_probe_direction(raw, 1, GRID)
            pts = local_stability_probe(1, d, [0.1], GRID, rhat=rhat)
            assert pts[0].deficit > 0

    @pytest.mark.parametrize("side", ["primal", "dual"])
    def test_every_eps_checked_before_any_work(self, side, monkeypatch):
        # a 128-point grid that no other test probes, with the ratio estimate
        # left to the probe; the generator is read once, not by the check
        grid = PhaseGrid.build(1, 40.0, 128)
        kind, shape = (("phase", (grid.x.size, grid.v.size)) if side == "primal"
                       else ("spacetime", (grid.t.size, grid.x.size)))
        zero = TransportFunction(grid, kind, np.zeros(shape))
        calls = []
        for name in ("velocity_average", "xray_adjoint", "_ray_minimiser"):
            fn = getattr(transport, name)

            def counted(*args, _fn=fn, **kwargs):
                calls.append(_fn)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(transport, name, counted)
        for eps_list in ([0.5], [0.1, 0.5], [0.05, 0.1, -0.01], [0.1, math.nan]):
            with pytest.raises(ValueError, match="eps must lie"):
                local_stability_probe(1, zero, eps_list, grid, side)
            with pytest.raises(ValueError, match="eps must lie"):
                local_stability_probe(1, zero, iter(eps_list), grid, side)
        assert calls == []
        pts = local_stability_probe(1, zero, (eps for eps in [0.0, 0.1]), grid, side)
        assert [pt.eps for pt in pts] == [0.0, 0.1]

    def test_eps_range_enforced(self):
        zero = TransportFunction(GRID, "phase",
                                 np.zeros((GRID.x.size, GRID.v.size)))
        with pytest.raises(ValueError):
            local_stability_probe(1, zero, [0.5], GRID)

    @pytest.mark.parametrize("n,message", [(0, "n must be >= 1"),
                                           (2, "certified at n = 1 only")])
    @pytest.mark.parametrize("call", [
        lambda n: ratio_estimate(n, GRID),
        lambda n: ratio_gradient(n, GRID),
        lambda n: make_probe_direction(np.ones((GRID.x.size, GRID.v.size)), n, GRID),
        lambda n: local_stability_probe(
            n, TransportFunction(GRID, "phase", np.zeros((GRID.x.size, GRID.v.size))),
            [0.1], GRID),
    ], ids=["ratio_estimate", "ratio_gradient", "make_probe_direction",
            "local_stability_probe"])
    def test_dimension_checked_once(self, call, n, message):
        with pytest.raises(ValueError, match=message):
            call(n)

    # float.hex of (eps, deficit, dist_sq, ratio) for one probe direction per
    # side on the kinetic benchmark grid, drawn as transport-probe draws it:
    # a width 1-2.5 bump through add_gaussian, taken when the bump kept each
    # lane whose dense exp is normal; the cut at u^2 of the peak moves no bit.
    PROBE_PINS = {
        "primal": [
            ("0x1.999999999999ap-5", "0x1.9687aaa410000p-15", "0x1.a7bf80178ee3ap-13",
             "0x1.eb322b04150b6p-3"),
            ("0x1.999999999999ap-4", "0x1.884fde3b34000p-13", "0x1.a7b0e3f4ec1bfp-11",
             "0x1.da14abf0728ddp-3"),
            ("0x1.999999999999ap-3", "0x1.6d910331bf000p-11", "0x1.a725faace8a14p-9",
             "0x1.ba53c2f7fc165p-3"),
        ],
        "dual": [
            ("0x1.999999999999ap-5", "0x1.b9f1b1dcb8000p-15", "0x1.a75e17e1e08abp-13",
             "0x1.0b3b988a53f59p-2"),
            ("0x1.999999999999ap-4", "0x1.abf7531092000p-13", "0x1.a745af54498bbp-11",
             "0x1.02d6c40714bb8p-2"),
            ("0x1.999999999999ap-3", "0x1.91b273930f800p-11", "0x1.a6a71dfac3f65p-9",
             "0x1.e69d43af01e10p-3"),
        ],
    }

    @pytest.mark.parametrize("side", ["primal", "dual"])
    def test_probe_rows_pinned_on_the_benchmark_grid(self, side):
        grid = PhaseGrid.build(1, 40.0, 192)
        rng = np.random.default_rng(3)
        a, b = (grid.t, grid.x) if side == "dual" else (grid.x, grid.v)
        raw = np.zeros((a.size, b.size))
        add_gaussian(raw, 1.0, (a, rng.uniform(-2, 2), rng.uniform(1, 2.5)),
                     (b, rng.uniform(-2, 2), rng.uniform(1, 2.5)))
        d = make_probe_direction(raw, 1, grid, side)
        pts = local_stability_probe(1, d, [0.05, 0.1, 0.2], grid, side=side)
        rows = [tuple(float(x).hex() for x in (pt.eps, pt.deficit, pt.dist_sq, pt.ratio))
                for pt in pts]
        assert rows == self.PROBE_PINS[side]

    def test_csv_export(self):
        zero = TransportFunction(GRID, "phase",
                                 np.zeros((GRID.x.size, GRID.v.size)))
        pts = local_stability_probe(1, zero, [0.0, 0.1], GRID)
        text = probe_to_csv(pts)
        lines = text.strip().splitlines()
        assert lines[0].split(",")[0] == "epsilon"
        assert len(lines) == 3

    def test_csv_direction_column(self):
        zero = TransportFunction(GRID, "phase",
                                 np.zeros((GRID.x.size, GRID.v.size)))
        pts = local_stability_probe(1, zero, [0.0, 0.1], GRID)
        plain = probe_to_csv(pts).splitlines()
        indexed = probe_to_csv(pts, [4, 4]).splitlines()
        assert indexed == ["direction," + plain[0], "4," + plain[1], "4," + plain[2]]
        with pytest.raises(ValueError):
            probe_to_csv(pts, [0])
