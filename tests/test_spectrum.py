"""Eigenvalue spectra: closed forms versus certified oscillatory
quadrature, the power-weight integral identity, the alternative Legendre
representation, and spectrum assembly with truncation certificates."""

import dataclasses
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
    lambda_legendre_form,
    lambda_quadrature,
    spectrum_to_csv,
    spectrum_to_json,
    stability_constant,
    watson_integral,
    watson_quadrature,
)


class TestHomogeneousClosedForm:
    def test_reference_values(self):
        assert WeightSpec.homogeneous(3, 1.0).closed_form(0) == pytest.approx(1.0, rel=1e-12)
        assert WeightSpec.homogeneous(3, 1.0).closed_form(1) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_direct_integral_oracle(self):
        # lambda_0 at n=3, s=1 equals (2/pi) int sin(r)^2 / r^2 dr = 1
        val, _ = quad(lambda r: (2.0 / math.pi) * math.sin(r) ** 2 / r ** 2, 0.0, 2000.0,
                      limit=4000)
        assert val == pytest.approx(WeightSpec.homogeneous(3, 1.0).closed_form(0), abs=1e-3)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            WeightSpec.homogeneous(3, 0.4).closed_form(0)
        with pytest.raises(ValueError):
            WeightSpec.homogeneous(3, 1.5).closed_form(0)

    def test_strictly_decreasing_large_range(self):
        for n, s in ((3, 1.0), (4, 0.75), (2, 0.8), (5, 2.2)):
            vals = [WeightSpec.homogeneous(n, s).closed_form(k) for k in range(51)]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_decay_rate_trend(self):
        # lambda_k * k^{2s-1} approaches a constant (Stirling-rate decay)
        n, s = 3, 1.0
        w = WeightSpec.homogeneous(n, s)
        scaled = [w.closed_form(k) * k ** (2 * s - 1) for k in range(5, 51)]
        diffs = np.abs(np.diff(scaled))
        assert all(b <= a for a, b in zip(diffs, diffs[1:]))

    def test_quadrature_twin(self):
        for k in (0, 1, 5, 10):
            w = WeightSpec.homogeneous(3, 1.0)
            val, err = lambda_quadrature(w, k, 1e-8)
            closed = w.closed_form(k)
            assert val == pytest.approx(closed, rel=1e-6)
        w = WeightSpec.homogeneous(3, 1.25)
        val, _ = lambda_quadrature(w, 0, 1e-8)
        assert val == pytest.approx(w.closed_form(0), rel=1e-7)


class TestInhomogeneous:
    def test_product_form(self):
        assert WeightSpec.inhomogeneous(2, 1.0).closed_form(0) == pytest.approx(
            float(iv(0, 1.0) * kv(0, 1.0)), rel=1e-12
        )
        assert f"{WeightSpec.inhomogeneous(2, 1.0).closed_form(0):.4f}" == "0.5330"
        assert f"{WeightSpec.inhomogeneous(2, 1.0).closed_form(1):.4f}" == "0.3402"

    def test_quadrature_twin_sample(self):
        for n in (2, 3, 4):
            w = WeightSpec.inhomogeneous(n, 1.0)
            for k in (0, 3, 12):
                val, _ = lambda_quadrature(w, k, 1e-8)
                assert val == pytest.approx(w.closed_form(k), rel=1e-6)

    def test_monotone_to_zero(self):
        vals = [WeightSpec.inhomogeneous(3, 1.0).closed_form(k) for k in range(41)]
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


def _counting(monkeypatch, owner, name):
    """Replace owner.<name> by a wrapper that counts its calls."""
    calls = []
    inner = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


# 60 log-spaced radii on [1e-2, 400], the benchmark's table of (1+r^2)^{-2}
TABLE_R = np.logspace(-2.0, math.log10(400.0), 60)


def _table_weight(r_table):
    return WeightSpec.custom(3, r_table, (1.0 + r_table ** 2) ** -2.0, tail_exponent=4.0)


ENVELOPE_WEIGHTS = {
    "log-60": _table_weight(TABLE_R),
    "linear-10": _table_weight(np.linspace(0.1, 1000.0, 10)),
    "homogeneous-2-0.75": WeightSpec.homogeneous(2, 0.75),
    "homogeneous-3-1.0": WeightSpec.homogeneous(3, 1.0),
    "homogeneous-5-2.4": WeightSpec.homogeneous(5, 2.4),
    "inhomogeneous-2-0.6": WeightSpec.inhomogeneous(2, 0.6),
    "inhomogeneous-3-2.0": WeightSpec.inhomogeneous(3, 2.0),
    "inhomogeneous-5-3.0": WeightSpec.inhomogeneous(5, 3.0),
    "inhomogeneous-2-5.0": WeightSpec.inhomogeneous(2, 5.0),
}


class TestLambdaQuadrature:
    def test_envelope_integrated_once_per_lambda(self, monkeypatch):
        # s = 0.6 decays slowly: the tail climbs 160 -> 480 -> 1440 half-periods
        envelopes = _counting(monkeypatch, spec_mod.InhomogeneousWeight, "envelope")
        tails = _counting(monkeypatch, spec_mod, "_tail_integral")
        lambda_quadrature(WeightSpec.inhomogeneous(2, 0.6), 0)
        assert [t[-1] for t in tails] == [160, 480, 1440]
        assert len(envelopes) == 1

    def test_convergence_error_after_every_level(self, monkeypatch):
        tails = _counting(monkeypatch, spec_mod, "_tail_integral")
        with pytest.raises(ConvergenceError, match="exceeds tol 1.000e-15 for k=3"):
            lambda_quadrature(WeightSpec.inhomogeneous(3, 1.0), 3, 1e-15)
        assert [t[-1] for t in tails] == [160, 480, 1440, 4320]

    @pytest.mark.parametrize("weight", ENVELOPE_WEIGHTS.values(), ids=ENVELOPE_WEIGHTS.keys())
    def test_table_envelope_matches_piecewise_quad(self, weight):
        # quad in u = r_cut / r on (0, 1], one piece per knot interval of a
        # table; the sparse linear table has knot intervals far longer than a
        # quarter radius.  Power laws and (1 + r^2)^{-s} are closed forms with
        # error 0, held to the oracle up to k = 40 at s = 5.
        for k in (0, 7, 14, 40):
            nu = k + (weight.n - 2.0) / 2.0
            r_cut = max(24.0, 2.5 * nu + 12.0)

            def model(u):
                r = r_cut / u
                return r * float(weight.w(r)) / math.sqrt(r * r - nu * nu) / math.pi * r_cut / u ** 2

            knots = weight.r_table if weight.kind == "custom" else np.array([])
            edges = [0.0, *(r_cut / knots[knots > r_cut])[::-1], 1.0]
            ref = sum(quad(model, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                      for a, b in zip(edges[:-1], edges[1:]))
            val, err = weight.envelope(nu, r_cut)
            assert val == pytest.approx(ref, rel=1e-12, abs=0.0)
            if weight.kind == "custom":
                assert err < 1e-12 * ref
            else:
                assert err == 0.0

    def test_gauss_rule_cached_read_only(self):
        x, wgt = spec_mod._gauss_rule(12)
        assert spec_mod._gauss_rule(12)[0] is x
        ref_x, ref_w = np.polynomial.legendre.leggauss(12)
        assert np.array_equal(x, ref_x) and np.array_equal(wgt, ref_w)
        with pytest.raises(ValueError):
            x[0] = 0.0

    def test_jacobi_rule_drawn_once_per_exponent(self, monkeypatch):
        # each lambda_k keeps the bits it has with a freshly drawn rule
        w = WeightSpec.inhomogeneous(3, 2.0)
        spec_mod._jacobi_rule.cache_clear()
        first = [lambda_quadrature(w, k) for k in range(4)]
        roots, calls = spec_mod.sp.roots_jacobi, []
        monkeypatch.setattr(spec_mod.sp, "roots_jacobi",
                            lambda *args: calls.append(args) or roots(*args))
        assert [lambda_quadrature(w, k) for k in range(4)] == first
        assert not calls
        x, wgt = spec_mod._jacobi_rule(2.0)
        ref_x, ref_w = roots(40, 0.0, 2.0)
        assert np.array_equal(x, ref_x) and np.array_equal(wgt, ref_w)
        with pytest.raises(ValueError):
            wgt[0] = 0.0

    def test_table_weight_builds_without_integration_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            spec = build_spectrum(_table_weight(TABLE_R), 14)
        assert spec.K_set == (1,)


def _moments_used(monkeypatch, weight, k_from=15):
    """The (p', e) pairs and V values one _holder_tail_bound call uses."""
    seen = []
    inner = type(weight).holder_moments

    def wrapper(w, pairs):
        values = inner(w, pairs)
        seen.extend(zip(pairs, values))
        return values

    monkeypatch.setattr(type(weight), "holder_moments", wrapper)
    spec_mod._holder_tail_bound(weight, k_from)
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
        for (pp, e), v in _moments_used(monkeypatch, WeightSpec.inhomogeneous(n, s)):
            assert 2.0 * s * pp > e + 1.0
            exact = 0.5 * beta((e + 1.0) / 2.0, s * pp - (e + 1.0) / 2.0)
            assert exact <= v <= exact * (1.0 + 2e-12)

    @pytest.mark.parametrize("r_table", TABLES, ids=TABLE_IDS)
    def test_table_moment_bounds_piecewise_quad(self, monkeypatch, r_table):
        w = _table_weight(r_table)
        edges = [0.0, *r_table, np.inf]
        for (pp, e), v in _moments_used(monkeypatch, w):
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
        bound, _ = spec_mod._holder_tail_bound(w, K + 1)
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
        for k in range(7):
            val = lambda_legendre_form(w, k)
            assert val == pytest.approx(WeightSpec.inhomogeneous(3, 1.0).closed_form(k), rel=1e-7)

    def test_matches_quadrature_n3_s2(self):
        # every Poisson-kernel pair s = (n +- 1)/2 for n = 2..5; lambda_0
        # and lambda_1 included, since no constant is fitted to them
        for n, s in [(2, 1.5), (3, 1.0), (3, 2.0), (4, 1.5), (4, 2.5), (5, 2.0), (5, 3.0)]:
            w = WeightSpec.inhomogeneous(n, s)
            for k in range(7):
                ref, _ = lambda_quadrature(w, k, 1e-8)
                assert lambda_legendre_form(w, k) == pytest.approx(ref, rel=1e-6)

    def test_n2_endpoint_weight(self):
        w = WeightSpec.inhomogeneous(2, 0.5 + 1.0)  # s = (n+1)/2 at n = 2
        ref, _ = lambda_quadrature(w, 1, 1e-8)
        assert lambda_legendre_form(w, 1) == pytest.approx(ref, rel=1e-6)

    def test_gap_below_lambda0(self):
        w = WeightSpec.inhomogeneous(3, 1.0)
        assert lambda_legendre_form(w, 1) < lambda_legendre_form(w, 0)


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
                gap = WeightSpec.homogeneous(n, float(s)).closed_form(0) - \
                    WeightSpec.homogeneous(n, float(s)).closed_form(1)
                assert stability_constant(spec) == pytest.approx(gap, rel=1e-12)

    def test_equality_is_identity_and_sets_hash(self):
        spec = build_spectrum(WeightSpec.homogeneous(3, 1.0), K=10)
        twin = dataclasses.replace(spec, values=spec.values.copy())
        assert spec == spec and spec != twin and not spec == twin
        assert len({spec, twin, spec}) == 2 and hash(spec) == hash(spec)

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

    def test_json_weight_block_per_family(self):
        blocks = [
            (WeightSpec.homogeneous(3, 1.0), {"kind": "homogeneous", "n": 3, "s": 1.0}),
            (WeightSpec.inhomogeneous(3, 2.0), {"kind": "inhomogeneous", "n": 3, "s": 2.0}),
            (_table_weight(TABLE_R),
             {"kind": "custom", "n": 3, "tail_exponent": 4.0, "table_points": 60}),
        ]
        for w, block in blocks:
            weight = json.loads(spectrum_to_json(build_spectrum(w, K=14)))["weight"]
            assert list(weight.items()) == list(block.items())


# float.hex bits of the three benchmark weights at K = 14: lambda_0..lambda_14,
# lambda_star, the certificate, lambda_quadrature at k = 0, 3, 7 (value, error)
# and the envelope at nu = 0.5, 3.5 (value, error).  A change that moves any of
# these bits must say which.
PINNED = {
    "homogeneous-3-1.0": {
        "lambda": [
            "0x1.0000000000003p+0", "0x1.5555555555551p-2", "0x1.999999999999fp-3",
            "0x1.249249249248dp-3", "0x1.c71c71c71c71fp-4", "0x1.745d1745d1756p-4",
            "0x1.3b13b13b13b02p-4", "0x1.111111111110fp-4", "0x1.e1e1e1e1e1e25p-5",
            "0x1.af286bca1af2ap-5", "0x1.861861861860fp-5", "0x1.642c8590b2159p-5",
            "0x1.47ae147ae1498p-5", "0x1.2f684bda12f55p-5", "0x1.1a7b9611a7bc8p-5",
        ],
        "lambda_star": "0x1.5555555555551p-2",
        "tail_bound": "0x1.0842108421067p-5",
        "details": {},
        "quadrature": {
            0: ("0x1.0000000fdd6dbp+0", "0x1.0de3a9725110fp-29"),
            3: ("0x1.249249a3ca2c5p-3", "0x1.121171549c277p-29"),
            7: ("0x1.111111f21dab2p-4", "0x1.47e2e243bb341p-29"),
        },
        "envelope": {
            0.5: ("0x1.b2a16b34ddedbp-7", "0x0.0p+0"),
            3.5: ("0x1.b4278cd50a596p-7", "0x0.0p+0"),
        },
    },
    "inhomogeneous-3-2.0": {
        "lambda": [
            "0x1.3020005306c49p-3", "0x1.52aaa3bf85321p-5", "0x1.b601d831b3109p-7",
            "0x1.637781a646f34p-8", "0x1.5aa36a380ecaep-9", "0x1.815d823fedefep-10",
            "0x1.d65ddf4711e50p-11", "0x1.33771ccbbf82ap-11", "0x1.a7850e4cc3cc1p-12",
            "0x1.2fe1d0d4a10ecp-12", "0x1.c2abe7bd54cf1p-13", "0x1.5755213b4fae7p-13",
            "0x1.0b8673698667dp-13", "0x1.a8f4d98be14ffp-14", "0x1.5718a7757236ep-14",
        ],
        "lambda_star": "0x1.52aaa3bf85321p-5",
        "tail_bound": "0x1.2d9565790b3d8p-11",
        "details": {"p_prime": "0x1.0000000000000p+4", "eps": "0x1.0000000000000p+1",
                    "V": "0x1.be6d7280d614ap-29", "watson": "0x1.5bade52f95e76p-10"},
        "quadrature": {
            0: ("0x1.3020005306c49p-3", "0x1.88a87bc45c448p-47"),
            3: ("0x1.637781a646f34p-8", "0x1.8dcdd563cfdacp-47"),
            7: ("0x1.33771ccbbf82ap-11", "0x1.a77fc2fd8aac9p-47"),
        },
        "envelope": {
            0.5: ("0x1.0109c22a7136dp-17", "0x0.0p+0"),
            3.5: ("0x1.02a9a5bca3930p-17", "0x0.0p+0"),
        },
    },
    "table-log-60": {
        "lambda": [
            "0x1.30394226c18f1p-3", "0x1.52f124219a0bdp-5", "0x1.b68a869d60898p-7",
            "0x1.63fcbf5b3459cp-8", "0x1.5b34598935365p-9", "0x1.8204e5f2438d6p-10",
            "0x1.d72d3fb1ffdd3p-11", "0x1.340883da099c6p-11", "0x1.a83e3c30a3c9ep-12",
            "0x1.306fbaf8555bap-12", "0x1.c38d12231b704p-13", "0x1.57e5d77c2d016p-13",
            "0x1.0c0237ca4b7c9p-13", "0x1.a9d9aa16d1dabp-14", "0x1.57afa54cc5843p-14",
        ],
        "lambda_star": "0x1.52f124219a0bdp-5",
        "tail_bound": "0x1.2dc8f5b3623dcp-11",
        "details": {"p_prime": "0x1.0000000000000p+4", "eps": "0x1.0000000000000p+1",
                    "V": "0x1.c338d58727427p-29", "watson": "0x1.5bade52f95e76p-10"},
        "quadrature": {
            0: ("0x1.30394226c18f1p-3", "0x1.9343f04db781bp-47"),
            3: ("0x1.63fcbf5b3459cp-8", "0x1.80c525bf86abdp-47"),
            7: ("0x1.340883da099c6p-11", "0x1.9108396e23802p-47"),
        },
        "envelope": {
            0.5: ("0x1.01811340b80c0p-17", "0x1.0000000000000p-69"),
            3.5: ("0x1.0321b94ddb911p-17", "0x0.0p+0"),
        },
    },
}

PINNED_WEIGHTS = {
    "homogeneous-3-1.0": WeightSpec.homogeneous(3, 1.0),
    "inhomogeneous-3-2.0": WeightSpec.inhomogeneous(3, 2.0),
    "table-log-60": _table_weight(TABLE_R),
}


def _hex(values):
    return tuple(float(v).hex() for v in values)


@pytest.mark.parametrize("name", PINNED)
def test_benchmark_weight_bits(name):
    w, pin = PINNED_WEIGHTS[name], PINNED[name]
    spec = build_spectrum(w, K=14)
    assert list(_hex(spec.values)) == pin["lambda"]
    assert spec.lambda_star.hex() == pin["lambda_star"]
    assert float(spec.certificate.tail_bound).hex() == pin["tail_bound"]
    assert {k: float(v).hex() for k, v in spec.certificate.details.items()} == pin["details"]
    for k, bits in pin["quadrature"].items():
        assert _hex(lambda_quadrature(w, k)) == bits
    for nu, bits in pin["envelope"].items():
        assert _hex(w.envelope(nu, max(24.0, 2.5 * nu + 12.0))) == bits
