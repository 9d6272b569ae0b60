"""Finite-dimensional duality lab: duality maps, l^p -> l^q operator
norms, extremiser transfer, sharpened Hoelder inequalities, the local
stability pipeline, and the unit-interval counterexample family."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tracestab.duality import (
    FiniteOperator,
    _fixed_points,
    aldaz_ratio,
    brute_force_norm,
    cfl1_gap,
    cfl3_gap,
    cfl_constant,
    duality_map,
    extremiser_transfer,
    local_stability_pipeline,
    lp_norm,
    operator_from_json,
    operator_to_json,
    operator_norm,
    pushforward_isometry,
    sigma_counterexample,
    stereographic,
)
from tracestab.errors import ConvergenceError


def random_operator(rng, rows=None, cols=None, p=None, q=None):
    rows = rows or int(rng.integers(2, 6))
    cols = cols or int(rng.integers(2, 6))
    p = p or rng.uniform(1.1, 2.0)
    q = q or rng.uniform(1.1, 4.0)
    return FiniteOperator(rng.uniform(0.05, 1.0, (rows, cols)), p, q)


class TestDualityMap:
    def test_unit_norm_and_pairing(self):
        F = np.array([3.0, -4.0])
        for r in (1.5, 2.0, 3.0):
            D = duality_map(F, r)
            rp = r / (r - 1.0)
            assert lp_norm(D, rp) == pytest.approx(1.0, rel=1e-14)
            assert float(np.dot(D, F)) == pytest.approx(lp_norm(F, r), rel=1e-14)

    def test_r2_is_normalisation(self):
        F = np.array([1.0, 2.0, -2.0])
        assert np.allclose(duality_map(F, 2.0), F / 3.0)

    def test_zero_entries_and_zero_vector(self):
        D = duality_map(np.array([0.0, 1.0]), 1.5)
        assert D[0] == 0.0
        with pytest.raises(ValueError):
            duality_map(np.zeros(3), 1.5)

    @given(
        st.lists(st.floats(-5, 5), min_size=2, max_size=6),
        st.floats(1.1, 4.0),
        st.floats(0.1, 10.0),
    )
    def test_homogeneity_degree_zero(self, vals, r, c):
        F = np.array(vals)
        if lp_norm(F, r) < 1e-6:
            return
        assert np.allclose(duality_map(c * F, r), duality_map(F, r), atol=1e-10)


class TestOperatorNorm:
    def test_rank_one(self):
        # ||a b^T||_{p->q} = ||a||_q ||b||_{p'}
        a = np.array([1.0, 2.0])
        b = np.array([3.0, 1.0])
        T = FiniteOperator(np.outer(a, b), 1.5, 2.5)
        cert = operator_norm(T)
        expect = lp_norm(a, 2.5) * lp_norm(b, 3.0)
        assert cert.certified
        assert cert.value == pytest.approx(expect, rel=1e-10)

    def test_diagonal(self):
        T = FiniteOperator(np.diag([2.0, 0.7, 0.1]), 2.0, 3.0)
        assert operator_norm(T).value == pytest.approx(2.0, rel=1e-10)

    def test_p2_q2_is_spectral_norm(self, rng):
        M = rng.normal(size=(4, 4))
        T = FiniteOperator(np.abs(M), 2.0, 2.0)
        assert operator_norm(T).value == pytest.approx(
            np.linalg.norm(np.abs(M), 2), rel=1e-10
        )

    def test_matches_brute_force(self, rng):
        for _ in range(12):
            T = random_operator(rng, cols=int(rng.integers(2, 4)))
            cert = operator_norm(T)
            bf = brute_force_norm(T, mesh=300)
            assert cert.value >= bf - 1e-10
            assert cert.value == pytest.approx(bf, rel=5e-4)

    def test_adjoint_norm_equal(self, rng):
        for _ in range(10):
            # q >= 2 keeps the adjoint exponent pair inside the lab's range
            T = random_operator(rng, q=rng.uniform(2.0, 4.0))
            v1 = operator_norm(T).value
            v2 = operator_norm(T.adjoint()).value
            assert v1 == pytest.approx(v2, rel=1e-11)

    def test_extremiser_achieves_value(self, rng):
        T = random_operator(rng)
        cert = operator_norm(T)
        g = cert.extremiser
        assert lp_norm(T.apply(g), T.q) == pytest.approx(
            cert.value * lp_norm(g, T.p), rel=1e-10
        )


class TestBatchedFixedPoints:
    @pytest.mark.parametrize("p,q", [(1.5, 2.5), (2.0, 3.0)])
    def test_rows_match_rows_run_alone(self, rng, p, q):
        for _ in range(10):
            T = FiniteOperator(rng.uniform(0.0, 1.0, rng.integers(2, 6, size=2)), p, q)
            G0 = rng.uniform(0.1, 1.0, size=(8, T.matrix.shape[1]))
            G, its = _fixed_points(T, G0)
            for i in range(8):
                g, it = _fixed_points(T, G0[i:i + 1])
                assert it[0] == its[i]
                assert lp_norm(T.apply(G[i]), q) == pytest.approx(
                    lp_norm(T.apply(g[0]), q), rel=1e-14)
                assert np.max(np.abs(G[i] - g[0])) <= 1e-12

    def test_zero_operator_annihilates(self):
        T = FiniteOperator(np.zeros((2, 3)), 1.5, 2.5)
        with pytest.raises(ValueError, match="annihilates"):
            _fixed_points(T, np.ones((4, 3)))

    def test_iteration_cap(self, rng):
        T = random_operator(rng)
        with pytest.raises(ConvergenceError):
            _fixed_points(T, rng.uniform(0.1, 1.0, (4, T.matrix.shape[1])), max_iter=3)

    def test_escalating_operator(self):
        # starts drawn from default_rng(798): the first 8 starts of the T
        # search stop at two stationary values, so it escalates to 40
        T = FiniteOperator(np.array([[0.13003169098233525, 0.9639889659405984],
                                     [0.8363372324055592, 0.07929188977520729]]),
                           1.5, 2.5)
        rng = np.random.default_rng(798)
        cert = operator_norm(T, rng=rng)
        cert_adj = operator_norm(T.adjoint(), rng=rng)
        assert (cert.starts, cert.distinct_values) == (40, 2)
        assert (cert_adj.starts, cert_adj.distinct_values) == (8, 1)
        assert cert.value == pytest.approx(0.96603549141913, rel=1e-12)
        assert cert_adj.value == pytest.approx(0.96603549141913, rel=1e-12)


class TestBruteForce:
    @staticmethod
    def meshgrid_reference(T, mesh):
        t = np.linspace(0.0, 0.5 * math.pi, mesh)
        if T.matrix.shape[1] == 2:
            pts = np.stack([np.cos(t), np.sin(t)], axis=1)
        else:
            u, v = np.meshgrid(t, t)
            pts = np.stack(
                [np.cos(u).ravel() * np.cos(v).ravel(),
                 np.cos(u).ravel() * np.sin(v).ravel(),
                 np.sin(u).ravel()], axis=1)
        pts = np.abs(pts)
        pts = pts / (np.sum(pts ** T.p, axis=1) ** (1.0 / T.p))[:, None]
        vals = np.sum(np.abs(pts @ T.matrix.T) ** T.q, axis=1) ** (1.0 / T.q)
        return float(np.max(vals))

    @pytest.mark.parametrize("cols", [2, 3])
    @pytest.mark.parametrize("mesh", [180, 500])
    def test_matches_meshgrid_reference(self, rng, cols, mesh):
        T = random_operator(rng, cols=cols)
        assert brute_force_norm(T, mesh) == self.meshgrid_reference(T, mesh)

    def test_rejects_four_columns(self, rng):
        with pytest.raises(ValueError):
            brute_force_norm(random_operator(rng, cols=4))


class TestExtremiserTransfer:
    def test_round_trip(self, rng):
        for _ in range(8):
            T = random_operator(rng)
            cert = operator_norm(T)
            G = duality_map(T.apply(cert.extremiser), T.q)
            g = extremiser_transfer(T, G, cert.value)
            u = g / lp_norm(g, T.p)
            u0 = cert.extremiser / lp_norm(cert.extremiser, T.p)
            assert np.allclose(u, u0, atol=1e-7)

    def test_rejects_non_extremiser(self, rng):
        T = random_operator(rng)
        cert = operator_norm(T)
        with pytest.raises(ValueError):
            extremiser_transfer(T, rng.uniform(0.5, 1.0, T.matrix.shape[0]),
                                cert.value)


class TestSharpenedHoelder:
    def test_cfl_constant_values(self):
        assert cfl_constant(2.0) == pytest.approx(4.0)
        assert cfl_constant(1.5) == pytest.approx(2.0 * 3.0 ** 0.5)
        assert cfl_constant(3.0) == pytest.approx(8.0)

    def test_cfl3_equal_arguments(self):
        g = np.array([1.0, 2.0])
        lhs, rhs = cfl3_gap(g, g, 1.7)
        assert lhs == 0.0 and rhs == 0.0

    def test_cfl3_sweep(self, rng):
        worst = 0.0
        for _ in range(300):
            r = rng.uniform(1.1, 4.0)
            g1 = rng.normal(size=5)
            g2 = rng.normal(size=5)
            lhs, rhs = cfl3_gap(g1, g2, r)
            assert lhs <= rhs + 1e-12
            if rhs > 0:
                worst = max(worst, lhs / rhs)
        assert worst < 1.0

    def test_cfl1_trivial_equality(self):
        h1 = duality_map(np.array([1.0, 1.0]), 2.0)  # unit in l^r
        h2 = duality_map(h1, 2.0)                    # = D_r h1, unit in l^{r'}
        pairing, bound = cfl1_gap(h1, h2, 2.0)
        assert pairing == pytest.approx(1.0, rel=1e-14)
        assert bound == pytest.approx(1.0, rel=1e-14)

    def test_cfl1_requires_r_ge_2(self):
        with pytest.raises(ValueError):
            cfl1_gap(np.array([1.0]), np.array([1.0]), 1.5)

    def test_cfl1_sweep(self, rng):
        for _ in range(300):
            r = rng.uniform(2.0, 5.0)
            rp = r / (r - 1.0)
            h1 = rng.normal(size=6)
            h2 = rng.normal(size=6)
            h1 = h1 / lp_norm(h1, r)
            h2 = h2 / lp_norm(h2, rp)
            pairing, bound = cfl1_gap(h1, h2, r)
            assert pairing <= bound + 1e-12

    def test_aldaz_trivial(self):
        h = np.full(4, (1.0 / 4.0) ** (1.0 / 3.0))  # unit in l^3
        g = duality_map(h, 3.0)
        assert aldaz_ratio(h, g, 3.0) == pytest.approx(1.0)

    def test_aldaz_sweep_bounded(self, rng):
        for _ in range(200):
            r = rng.uniform(1.2, 4.0)
            rp = r / (r - 1.0)
            h1 = np.abs(rng.normal(size=5)) + 1e-3
            h2 = np.abs(rng.normal(size=5)) + 1e-3
            h1 = h1 / lp_norm(h1, r)
            h2 = h2 / lp_norm(h2, rp)
            ratio = aldaz_ratio(h1, h2, r)
            assert 0.0 <= ratio <= max(r, rp) + 1e-9


class TestLocalStabilityPipeline:
    def test_at_extremiser(self, rng):
        T = random_operator(rng)
        cert = operator_norm(T)
        rep = local_stability_pipeline(T, cert.extremiser, [cert.extremiser], cert)
        assert rep.in_regime
        assert abs(rep.deficit) < 1e-9 * cert.value
        assert rep.dist < 1e-6

    def test_chain_holds_in_regime(self, rng):
        held = 0
        for _ in range(60):
            T = random_operator(rng)
            cert = operator_norm(T)
            g = cert.extremiser + 0.1 * rng.normal(size=T.matrix.shape[1])
            if lp_norm(g, T.p) == 0.0:
                continue
            rep = local_stability_pipeline(T, g, [cert.extremiser], cert)
            if not rep.in_regime:
                continue
            held += 1
            assert rep.deficit >= rep.lower_bound - 1e-10 * cert.value
            assert rep.adjoint_norm_ok
        assert held >= 40

    def test_ratio_within_band_of_tracked_constant(self, rng):
        # empirical band: ratio / tracked_constant stays within one order
        # (p bounded away from 1, where the tracked constant degenerates)
        for _ in range(40):
            T = random_operator(rng, p=rng.uniform(1.4, 2.0),
                                q=rng.uniform(1.4, 4.0))
            cert = operator_norm(T)
            g = cert.extremiser + 0.05 * rng.normal(size=T.matrix.shape[1])
            rep = local_stability_pipeline(T, g, [cert.extremiser], cert)
            if not rep.in_regime or not math.isfinite(rep.ratio):
                continue
            if rep.dist < 0.02:
                # nearly on the extremiser ray: the ratio degenerates
                continue
            band = rep.ratio / rep.tracked_constant
            assert 0.1 <= band <= 20.0

    def test_quadratic_trend(self, rng):
        T = random_operator(rng)
        cert = operator_norm(T)
        d = rng.normal(size=T.matrix.shape[1])
        ratios = []
        for eps in (0.02, 0.04, 0.08):
            rep = local_stability_pipeline(
                T, cert.extremiser + eps * d, [cert.extremiser], cert
            )
            ratios.append(rep.ratio)
        spread = max(ratios) / max(min(ratios), 1e-300)
        assert spread < 2.0


class TestCounterexample:
    def test_exact_identity(self):
        rows = sigma_counterexample(1.5, 1.5, [0.05, 0.1, 0.2, 0.4])
        for row in rows:
            assert row["identity_residual"] < 1e-14
            assert row["grid_residual"] < 2e-3

    def test_reference_value(self):
        row = sigma_counterexample(1.5, 1.5, [0.1])[0]
        assert row["ratio"] == pytest.approx(1.19, abs=5e-3)

    def test_sigma2_ratio_decreases_to_zero(self):
        deltas = [0.2, 0.1, 0.05, 0.02, 0.01, 0.005]
        rows = sigma_counterexample(1.5, 2.0, deltas)
        ratios = [row["ratio"] for row in rows]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 0.25 * ratios[0]

    def test_sigma_r_ratio_stays_bounded_below(self):
        deltas = [0.2, 0.1, 0.05, 0.01, 0.001]
        rows = sigma_counterexample(1.5, 1.5, deltas)
        for row in rows:
            assert row["ratio"] > 0.9

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sigma_counterexample(1.0, 1.0, [0.1])
        with pytest.raises(ValueError):
            sigma_counterexample(1.5, 1.5, [0.6])


class TestStereographic:
    def test_origin_maps_to_north_pole(self):
        pt, jac = stereographic(np.zeros(2))
        assert np.allclose(pt, [0.0, 0.0, 1.0])
        assert jac == pytest.approx(4.0)

    def test_unit_vectors(self, rng):
        for _ in range(20):
            x = rng.normal(size=2) * rng.uniform(0.1, 20)
            pt, jac = stereographic(x)
            assert np.linalg.norm(pt) == pytest.approx(1.0, rel=1e-14)
            assert jac > 0

    def test_south_pole_limit(self):
        pt, jac = stereographic(np.array([1e8, 0.0]))
        assert pt[2] == pytest.approx(-1.0, abs=1e-10)
        assert jac < 1e-15

    def test_rows_match_single_points(self, rng):
        x = rng.normal(size=(4, 5, 2)) * 3.0
        pts, jac = stereographic(x)
        assert pts.shape == (4, 5, 3) and jac.shape == (4, 5)
        for idx in np.ndindex(4, 5):  # one point at a time, the formula spelled out
            xi = x[idx]
            s2 = float(np.dot(xi, xi))
            ref = np.concatenate([2.0 * xi / (1.0 + s2), [(1.0 - s2) / (1.0 + s2)]])
            assert np.allclose(pts[idx], ref, rtol=1e-15, atol=1e-300)
            assert jac[idx] == pytest.approx((2.0 / (1.0 + s2)) ** 2, rel=1e-15)


class TestPushforward:
    @pytest.mark.parametrize("n,qp", [(2, 4.0), (3, 3.0)])
    def test_constant_function(self, n, qp):
        area = 2.0 * math.pi if n == 2 else 4.0 * math.pi
        sphere, flat = pushforward_isometry(lambda pts: np.ones(len(pts)), qp, n)
        assert sphere == pytest.approx(area ** (1.0 / qp), rel=1e-10)
        assert flat == pytest.approx(area ** (1.0 / qp), rel=1e-5)

    def test_zonal_function(self):
        G = lambda pts: 1.0 + 0.5 * pts[:, 2]
        sphere, flat = pushforward_isometry(G, 3.0, 3)
        assert flat == pytest.approx(sphere, rel=1e-5)


class TestSerialization:
    def test_round_trip(self, rng):
        T = random_operator(rng)
        back = operator_from_json(operator_to_json(T))
        assert np.allclose(back.matrix, T.matrix)
        assert back.p == T.p and back.q == T.q

    def test_schema(self, rng):
        doc = json.loads(operator_to_json(random_operator(rng)))
        assert set(doc) == {"rows", "cols", "p", "q", "entries"}
