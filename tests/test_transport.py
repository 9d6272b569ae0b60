"""Kinetic transport lab: velocity averages, x-ray adjoints, the sharp
operator ratio of the grid extremiser, and the local stability probe."""

import math

import numpy as np
import pytest

from tracestab import transport
from tracestab.errors import InconsistencyError
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
    power_law_tail,
    probe_to_csv,
    random_phase_function,
    ratio_estimate,
    ratio_gradient,
    velocity_average,
    xray_adjoint,
)


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
        assert extremiser_f(2, np.zeros(2), np.zeros(2)) == 1.0

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
        with pytest.raises(ValueError):
            PhaseGrid(3, 40.0, 0.3125, 40.0)      # unsupported dimension
        with pytest.raises(ValueError):
            PhaseGrid(1, 40.0, 0.3125, -1.0)      # bad t extent

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


class TestXrayAdjoint:
    def test_gaussian_closed_form(self):
        g = PhaseGrid.build(n=1, L=10.0, points=640)
        G = TransportFunction.from_callable(
            g, "spacetime", lambda t, x: np.exp(-t * t - x * x)
        )
        back = xray_adjoint(G, g)
        X, V = np.meshgrid(g.x, g.v, indexing="ij")
        exact = np.sqrt(math.pi / (1.0 + V ** 2)) * np.exp(-X ** 2 / (1.0 + V ** 2))
        sl = (np.abs(X) <= 3.0) & (np.abs(V) <= 2.0)
        assert np.max(np.abs(back.samples - exact)[sl]) < 1e-4

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
        for points in (256, 512):
            g = PhaseGrid.build(1, 40.0, points, t_extent=2.0)
            bound = g.h ** 2 * math.sqrt(math.pi) / 4.0
            for kind, op in (("phase", velocity_average), ("spacetime", xray_adjoint)):
                exact = TransportFunction.from_callable(
                    g, kind, lambda a, b: np.exp(-a * a - b * b)
                )
                sampled = TransportFunction(g, kind, exact.samples)
                gap = np.max(np.abs(op(sampled, g, tail_tol=1.0).samples
                                    - op(exact, g, tail_tol=1.0).samples))
                assert gap <= bound, (points, kind, gap)

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


class TestNorms:
    def test_grid_norm_rectangle_rule(self):
        tf = TransportFunction(GRID, "phase", np.ones((GRID.x.size, GRID.v.size)))
        expect = (GRID.h ** 2 * GRID.x.size * GRID.v.size) ** (1.0 / 3.0)
        assert grid_norm(tf, 3.0) == pytest.approx(expect, rel=1e-13)

    def test_power_law_tail_value(self):
        # decay 2, exponent 3: integrand (1+rho^2)^{-3}, closed form pi/ (2 (1+R^2)^2)
        val = power_law_tail(1.0, 2.0, 3.0, 10.0)
        assert val == pytest.approx(2.0 * math.pi * 101.0 ** -2.0 / 4.0, rel=1e-13)
        with pytest.raises(ValueError):
            power_law_tail(1.0, 1.0, 2.0, 10.0)


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
        with pytest.raises(ValueError):
            orthogonalize_direction(base, base, 1.5)

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

    def test_random_directions_positive_deficit(self, rng):
        rhat = ratio_estimate(1, GRID)
        for _ in range(5):
            raw = random_phase_function(GRID, rng).samples
            d = make_probe_direction(raw, 1, GRID)
            pts = local_stability_probe(1, d, [0.1], GRID, rhat=rhat)
            assert pts[0].deficit > 0

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


class TestTwoDimensional:
    def test_coarse_pairing_defect_small(self):
        g = PhaseGrid(2, 10.0, 10.0 / 16.0, 2.0)
        f = TransportFunction.from_callable(
            g, "phase",
            lambda x, v: np.exp(-np.sum(x * x, axis=-1) - np.sum(v * v, axis=-1)),
        )
        G = TransportFunction.from_callable(
            g, "spacetime",
            lambda t, x: np.exp(-t * t - np.sum(x * x, axis=-1)),
        )
        rho = velocity_average(f, g)
        # the short t-window is not a decay direction; skip the tail gate
        back = xray_adjoint(G, g, tail_tol=1.0)
        lhs = g.h ** 3 * np.sum(rho.samples * G.samples)
        rhs = g.h ** 4 * np.sum(f.samples * back.samples)
        assert abs(lhs - rhs) / abs(lhs) < 1e-2
