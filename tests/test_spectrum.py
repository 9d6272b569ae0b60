"""Eigenvalue spectra: closed forms versus certified oscillatory
quadrature, the power-weight integral identity, the alternative Legendre
representation, and spectrum assembly with truncation certificates."""

import json
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.special import beta, iv, kv

from tracestab import spectrum as spec_mod
from tracestab.errors import ConvergenceError, InconclusiveError
from tracestab.spectrum import (
    WeightSpec,
    build_spectrum,
    lambda_homogeneous_closed,
    lambda_inhomogeneous_s1,
    lambda_legendre_form,
    lambda_quadrature,
    legendre_form_calibration,
    spectrum_to_csv,
    spectrum_to_json,
    stability_constant,
    watson_integral,
    watson_quadrature,
)


class TestHomogeneousClosedForm:
    def test_reference_values(self):
        assert lambda_homogeneous_closed(3, 1.0, 0) == pytest.approx(1.0, rel=1e-12)
        assert lambda_homogeneous_closed(3, 1.0, 1) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_direct_integral_oracle(self):
        # lambda_0 at n=3, s=1 equals (2/pi) int sin(r)^2 / r^2 dr = 1
        val, _ = quad(lambda r: (2.0 / math.pi) * math.sin(r) ** 2 / r ** 2, 0.0, 2000.0,
                      limit=4000)
        assert val == pytest.approx(lambda_homogeneous_closed(3, 1.0, 0), abs=1e-3)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lambda_homogeneous_closed(3, 0.4, 0)
        with pytest.raises(ValueError):
            lambda_homogeneous_closed(3, 1.5, 0)

    def test_strictly_decreasing_large_range(self):
        for n, s in ((3, 1.0), (4, 0.75), (2, 0.8), (5, 2.2)):
            vals = [lambda_homogeneous_closed(n, s, k) for k in range(51)]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_decay_rate_trend(self):
        # lambda_k * k^{2s-1} approaches a constant (Stirling-rate decay)
        n, s = 3, 1.0
        scaled = [lambda_homogeneous_closed(n, s, k) * k ** (2 * s - 1) for k in range(5, 51)]
        diffs = np.abs(np.diff(scaled))
        assert all(b <= a for a, b in zip(diffs, diffs[1:]))

    def test_quadrature_twin(self):
        for k in (0, 1, 5, 10):
            w = WeightSpec.homogeneous(3, 1.0)
            val, err = lambda_quadrature(w, k, 1e-8)
            closed = lambda_homogeneous_closed(3, 1.0, k)
            assert val == pytest.approx(closed, rel=1e-6)
        w = WeightSpec.homogeneous(3, 1.25)
        val, _ = lambda_quadrature(w, 0, 1e-8)
        assert val == pytest.approx(lambda_homogeneous_closed(3, 1.25, 0), rel=1e-7)


class TestInhomogeneous:
    def test_product_form(self):
        assert lambda_inhomogeneous_s1(2, 0) == pytest.approx(
            float(iv(0, 1.0) * kv(0, 1.0)), rel=1e-12
        )
        assert f"{lambda_inhomogeneous_s1(2, 0):.4f}" == "0.5330"
        assert f"{lambda_inhomogeneous_s1(2, 1):.4f}" == "0.3402"

    def test_quadrature_twin_sample(self):
        for n in (2, 3, 4):
            w = WeightSpec.inhomogeneous(n, 1.0)
            for k in (0, 3, 12):
                val, _ = lambda_quadrature(w, k, 1e-8)
                assert val == pytest.approx(lambda_inhomogeneous_s1(n, k), rel=1e-6)

    def test_monotone_to_zero(self):
        vals = [lambda_inhomogeneous_s1(3, k) for k in range(41)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[40] < vals[0] / 10.0

    def test_decay_at_moderate_smoothness(self):
        # lambda_40 < lambda_1 / 2 holds for s in {1, 2} at every n,
        # but fails for s = 0.6 where the decay rate k^{1-2s} is too slow
        for n in (2, 3, 4):
            for s in (1.0, 2.0):
                w = WeightSpec.inhomogeneous(n, s)
                l1, _ = lambda_quadrature(w, 1, 1e-8)
                l40, _ = lambda_quadrature(w, 40, 1e-8)
                assert l40 < l1 / 2.0
        w = WeightSpec.inhomogeneous(2, 0.6)
        l1, _ = lambda_quadrature(w, 1, 1e-8)
        l40, _ = lambda_quadrature(w, 40, 1e-8)
        assert l40 > l1 / 2.0  # documented deviation from the nominal claim


class TestWatson:
    def test_reference_values(self):
        assert watson_integral(3, 0, 2.0) == pytest.approx(1.0, rel=1e-12)
        assert watson_integral(3, 1, 2.0) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_decreasing_to_zero(self):
        vals = [watson_integral(2, k, 1.5) for k in range(40)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        # decay rate is k^{1-tau} = k^{-1/2} at tau = 3/2
        assert vals[-1] < 0.2 * vals[0]

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            watson_integral(3, 0, 1.0)
        with pytest.raises(ValueError):
            watson_integral(2, 0, 2.5)  # k + (n - tau)/2 <= 0: integral diverges

    def test_quadrature_identity_sample(self):
        for n, k, tau in ((2, 0, 1.5), (3, 2, 2.0), (4, 7, 2.5), (3, 15, 1.5)):
            val, _ = watson_quadrature(n, k, tau, 1e-8)
            assert val == pytest.approx(watson_integral(n, k, tau), rel=1e-6)

    def test_quadrature_is_lambda_quadrature(self):
        # r^{-tau} is the homogeneous weight at s = tau/2 wherever that is a
        # valid WeightSpec, so both routes make the same floating-point steps
        for n in (2, 3, 4, 5):
            for tau in (1.25, 1.5, 2.0, 2.5, 3.0):
                if not 0.5 < tau / 2.0 < n / 2.0:
                    continue
                w = WeightSpec.homogeneous(n, tau / 2.0)
                for k in (0, 1, 5, 10, 20):
                    assert watson_quadrature(n, k, tau) == lambda_quadrature(w, k)


def _counting(monkeypatch, name):
    """Replace spectrum.<name> by a wrapper that counts its calls."""
    calls = []
    inner = getattr(spec_mod, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(spec_mod, name, wrapper)
    return calls


# 60 log-spaced radii on [1e-2, 400], the benchmark's table of (1+r^2)^{-2}
TABLE_R = np.logspace(-2.0, math.log10(400.0), 60)


def _table_weight(r_table):
    return WeightSpec.custom(3, r_table, (1.0 + r_table ** 2) ** -2.0, tail_exponent=4.0)


class TestLambdaQuadrature:
    def test_envelope_integrated_once_per_lambda(self, monkeypatch):
        # s = 0.6 decays slowly: the tail climbs 160 -> 480 -> 1440 half-periods
        quads = _counting(monkeypatch, "quad")
        tails = _counting(monkeypatch, "_tail_integral")
        lambda_quadrature(WeightSpec.inhomogeneous(2, 0.6), 0)
        assert [t[-1] for t in tails] == [160, 480, 1440]
        assert len(quads) == 1

    def test_convergence_error_after_every_level(self, monkeypatch):
        tails = _counting(monkeypatch, "_tail_integral")
        with pytest.raises(ConvergenceError, match="exceeds tol 1.000e-15 for k=3"):
            lambda_quadrature(WeightSpec.inhomogeneous(3, 1.0), 3, 1e-15)
        assert [t[-1] for t in tails] == [160, 480, 1440, 4320]

    @pytest.mark.parametrize("r_table", [TABLE_R, np.linspace(0.1, 1000.0, 10)],
                             ids=["log-60", "linear-10"])
    def test_table_envelope_matches_piecewise_quad(self, r_table):
        # one quad per knot interval and one on the power tail; the sparse
        # linear table has knot intervals far longer than a quarter radius
        w = _table_weight(r_table)
        for k in (0, 7, 14):
            nu = k + 0.5
            r_cut = max(24.0, 2.5 * nu + 12.0)

            def model(r):
                return r * float(w.w(r)) / math.sqrt(r * r - nu * nu) / math.pi

            edges = [r_cut, *r_table[r_table > r_cut], np.inf]
            ref = sum(quad(model, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                      for a, b in zip(edges[:-1], edges[1:]))
            val, err = spec_mod._envelope_integral(nu, w, r_cut)
            assert val == pytest.approx(ref, rel=1e-12, abs=0.0)
            assert err < 1e-12 * ref

    def test_table_build_makes_no_scalar_quad(self, monkeypatch):
        # the Hoelder moments and tail_integral take knot panels, and the
        # envelope of a table never called quad
        quads = _counting(monkeypatch, "quad")
        build_spectrum(_table_weight(TABLE_R), 14)
        assert quads == []

    def test_gauss_rule_cached_read_only(self):
        x, wgt = spec_mod._gauss_rule(12)
        assert spec_mod._gauss_rule(12)[0] is x
        ref_x, ref_w = np.polynomial.legendre.leggauss(12)
        assert np.array_equal(x, ref_x) and np.array_equal(wgt, ref_w)
        with pytest.raises(ValueError):
            x[0] = 0.0

    def test_table_weight_builds_without_integration_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            spec = build_spectrum(_table_weight(TABLE_R), 14)
        assert spec.K_set == (1,)


def _moments_used(monkeypatch, weight, s_eff, k_from=15):
    """The (p', e) pairs and V values one _holder_tail_bound call uses."""
    seen = []
    inner = spec_mod._holder_moments

    def wrapper(w, pairs):
        values = inner(w, pairs)
        seen.extend(zip(pairs, values))
        return values

    monkeypatch.setattr(spec_mod, "_holder_moments", wrapper)
    spec_mod._holder_tail_bound(weight, k_from, s_eff)
    assert seen
    return seen


TABLES = [TABLE_R, np.linspace(0.1, 1000.0, 10)]
TABLE_IDS = ["log-60", "linear-10"]


class TestHolderTail:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("s", [0.6, 1.5, 2.0, 3.0])
    def test_inhomogeneous_moment_is_beta(self, monkeypatch, n, s):
        # int_0^infty (1+r^2)^{-s p'} r^e dr = B((e+1)/2, s p' - (e+1)/2) / 2,
        # raised only by the 1e-12 rounding allowance
        for (pp, e), v in _moments_used(monkeypatch, WeightSpec.inhomogeneous(n, s), s):
            assert 2.0 * s * pp > e + 1.0
            exact = 0.5 * beta((e + 1.0) / 2.0, s * pp - (e + 1.0) / 2.0)
            assert exact <= v <= exact * (1.0 + 2e-12)

    @pytest.mark.parametrize("r_table", TABLES, ids=TABLE_IDS)
    def test_table_moment_bounds_piecewise_quad(self, monkeypatch, r_table):
        w = _table_weight(r_table)
        edges = [0.0, *r_table, np.inf]
        for (pp, e), v in _moments_used(monkeypatch, w, 2.0):
            ref = sum(quad(lambda r: float(w.w(r)) ** pp * r ** e, a, b,
                           epsabs=0.0, epsrel=1e-13, limit=200)[0]
                      for a, b in zip(edges[:-1], edges[1:]))
            assert ref <= v <= ref * (1.0 + 1e-9)

    @pytest.mark.parametrize("r_table", TABLES, ids=TABLE_IDS)
    def test_tail_integral_below_last_knot(self, r_table):
        w = _table_weight(r_table)
        for R in (0.0, 0.05, r_table[1], 0.5 * (r_table[2] + r_table[3]), 275.0):
            edges = [R, *r_table[r_table > R], np.inf]
            ref = sum(quad(lambda r: float(w.w(r)), a, b, epsabs=0.0, epsrel=1e-13,
                           limit=200)[0] for a, b in zip(edges[:-1], edges[1:]))
            assert w.tail_integral(R) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_bound_above_next_lambda(self):
        K = 14
        weights = [WeightSpec.inhomogeneous(n, s) for n in (2, 3, 4)
                   for s in (0.6, 1.5, 2.0, 3.0)] + [_table_weight(TABLE_R)]
        for w in weights:
            bound = build_spectrum(w, K).certificate.tail_bound
            assert bound >= lambda_quadrature(w, K + 1)[0]
        # the sparse table does not separate at K = 14, but its bound holds
        w = _table_weight(TABLES[1])
        bound, _ = spec_mod._holder_tail_bound(w, K + 1, 2.0)
        assert bound >= lambda_quadrature(w, K + 1)[0]


class TestWeightSpec:
    def test_invariant_enforcement(self):
        with pytest.raises(ValueError):
            WeightSpec.homogeneous(2, 1.0)   # s < n/2 violated
        with pytest.raises(ValueError):
            WeightSpec.inhomogeneous(3, 0.5)
        w = WeightSpec.inhomogeneous(3, 1.0)
        assert w.w(2.0) == pytest.approx(1.0 / 5.0, rel=1e-12)

    @pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
    def test_custom_table_matches_inhomogeneous(self):
        r = np.geomspace(1e-4, 600.0, 4000)
        w = WeightSpec.custom(2, r, (1.0 + r ** 2) ** -1.0, tail_exponent=2.0)
        ref = WeightSpec.inhomogeneous(2, 1.0)
        for k in (0, 1, 4):
            val, _ = lambda_quadrature(w, k, 1e-6)
            refv, _ = lambda_quadrature(ref, k, 1e-8)
            assert val == pytest.approx(refv, rel=1e-4)

    def test_custom_rejects_nonpositive(self):
        r = np.linspace(0.1, 10.0, 50)
        with pytest.raises(ValueError):
            WeightSpec.custom(2, r, np.zeros_like(r), tail_exponent=2.0)


class TestLegendreForm:
    def test_matches_product_form_n3_s1(self):
        w = WeightSpec.inhomogeneous(3, 1.0)
        cal = legendre_form_calibration(w)
        for k in range(7):
            val = lambda_legendre_form(w, k, cal)
            assert val == pytest.approx(lambda_inhomogeneous_s1(3, k), rel=1e-7)

    def test_matches_quadrature_n3_s2(self):
        w = WeightSpec.inhomogeneous(3, 2.0)
        cal = legendre_form_calibration(w)
        for k in (0, 1, 2):
            ref, _ = lambda_quadrature(w, k, 1e-8)
            assert lambda_legendre_form(w, k, cal) == pytest.approx(ref, rel=1e-6)

    def test_n2_endpoint_weight(self):
        w = WeightSpec.inhomogeneous(2, 0.5 + 1.0)  # s = (n+1)/2 at n = 2
        cal = legendre_form_calibration(w)
        ref, _ = lambda_quadrature(w, 1, 1e-8)
        assert lambda_legendre_form(w, 1, cal) == pytest.approx(ref, rel=1e-6)

    def test_gap_below_lambda0(self):
        w = WeightSpec.inhomogeneous(3, 1.0)
        cal = legendre_form_calibration(w)
        assert lambda_legendre_form(w, 1, cal) < lambda_legendre_form(w, 0, cal)


class TestBuildSpectrum:
    def test_homogeneous_reference(self):
        spec = build_spectrum(WeightSpec.homogeneous(3, 1.0), K=10)
        assert spec.K_set == (1,)
        assert spec.lambda_star == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert stability_constant(spec) == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_inhomogeneous_reference(self):
        spec = build_spectrum(WeightSpec.inhomogeneous(2, 1.0), K=10)
        assert spec.K_set == (1,)
        c_prime = stability_constant(spec)
        ref = float(iv(0, 1) * kv(0, 1) - iv(1, 1) * kv(1, 1))
        assert c_prime == pytest.approx(ref, rel=1e-10)
        assert c_prime == pytest.approx(0.1928, abs=1e-4)

    def test_decreasing_n4(self):
        spec = build_spectrum(WeightSpec.homogeneous(4, 0.75), K=10)
        assert all(b < a for a, b in zip(spec.values, spec.values[1:]))

    def test_certificate_separates(self):
        for n in (2, 3, 4):
            for s in (0.6, 1.0, 2.0):
                spec = build_spectrum(WeightSpec.inhomogeneous(n, s), K=14)
                assert spec.certificate.tail_bound < spec.lambda_star
                assert spec.K_set == (1,)

    def test_inconclusive_when_k_too_small(self):
        with pytest.raises(InconclusiveError):
            build_spectrum(WeightSpec.inhomogeneous(2, 0.6), K=1)

    def test_gap_identity_on_grid(self):
        # the displayed stability constant equals lambda_0 - lambda_1 under
        # strict monotone decrease, identically in (n, s)
        for n in (2, 3, 4, 6):
            for s in np.linspace(0.6, n / 2.0 - 0.05, 4):
                spec = build_spectrum(WeightSpec.homogeneous(n, float(s)), K=5)
                gap = lambda_homogeneous_closed(n, float(s), 0) - \
                    lambda_homogeneous_closed(n, float(s), 1)
                assert stability_constant(spec) == pytest.approx(gap, rel=1e-12)

    def test_nonnegative_constant(self):
        for w in (WeightSpec.homogeneous(3, 1.2), WeightSpec.inhomogeneous(4, 2.0)):
            assert stability_constant(build_spectrum(w, K=8)) >= 0.0


class TestExport:
    def test_json_schema(self):
        spec = build_spectrum(WeightSpec.homogeneous(3, 1.0), K=5)
        doc = json.loads(spectrum_to_json(spec))
        for key in ("n", "weight", "tol", "lambda", "lambda_star", "K_set", "certificate"):
            assert key in doc
        assert doc["lambda"][0] == pytest.approx(1.0)
        assert doc["K_set"] == [1]

    def test_json_certificate_details(self):
        spec = build_spectrum(WeightSpec.inhomogeneous(3, 2.0), K=14)
        cert = json.loads(spectrum_to_json(spec))["certificate"]
        assert list(cert) == ["K", "tail_bound", "method", "details"]
        assert cert["details"] == spec.certificate.details
        assert sorted(cert["details"]) == ["V", "eps", "p_prime", "watson"]

    def test_csv_columns(self):
        spec = build_spectrum(WeightSpec.homogeneous(3, 1.0), K=5)
        lines = spectrum_to_csv(spec).strip().split("\n")
        assert lines[0] == "k,lambda_k"
        assert len(lines) == 7
        k, lam = lines[1].split(",")
        assert int(k) == 0 and float(lam) == pytest.approx(1.0)
