"""Profile-decomposition stability checks: mode coefficients, deficit
reports, equality cases, extremising sequences, the reverse inequality,
and pointwise trace evaluation on the sphere."""

import dataclasses
import functools
import math
from types import MappingProxyType

import numpy as np
import pytest

from oracles import CUT, NORMAL_CUT, A_coefficient, dense_bump, sphere_quadrature, trace_evaluate
from tracestab import harmonic
from tracestab.errors import InconclusiveError
from tracestab.harmonic import (
    B_coefficient,
    GridSpectrum,
    ProfileSet,
    RadialGrid,
    deficit_report,
    equality_case_builder,
    extremising_sequence,
    random_profile_set,
    reverse_deficit_check,
)
from tracestab.specfun import dim_harmonic
from tracestab.spectrum import WeightSpec, build_spectrum


GRID = RadialGrid.build()
W3 = WeightSpec.homogeneous(3, 1.0)
W2 = WeightSpec.inhomogeneous(2, 1.0)
SPEC3 = build_spectrum(W3, K=10)
SPEC2 = build_spectrum(W2, K=10)


@functools.cache
def sweep_weight(label):
    """The weights of perfbench's sphere-sweep, one object per label, so
    grid_spectrum keeps one GridSpectrum for each across tests."""
    if label == "homogeneous":
        return WeightSpec.homogeneous(3, 1.0)
    if label == "inhomogeneous":
        return WeightSpec.inhomogeneous(3, 2.0)
    # (1+r^2)^-2 at 60 log-spaced radii on [1e-2, 400], tail r^-4
    r = np.logspace(-2.0, math.log10(400.0), 60)
    return WeightSpec.custom(3, r, (1.0 + r ** 2) ** -2.0, tail_exponent=4.0)


class TestCoefficients:
    def test_B_zero_profile(self):
        assert B_coefficient(np.zeros(GRID.r.size), GRID) == 0.0

    def test_B_unit_indicator(self):
        prof = np.where(GRID.r <= 1.0, 1.0, 0.0)
        assert B_coefficient(prof, GRID) == pytest.approx(1.0, abs=3e-2)

    def test_B_extremal_kernel_is_lambda0(self):
        gs = GridSpectrum(W3, GRID)
        assert B_coefficient(gs.kernel(0), GRID) == pytest.approx(1.0, abs=5e-3)

    def test_A_equals_lambda_B_on_kernel(self):
        gs = GridSpectrum(W3, GRID)
        for k in (0, 1, 4):
            prof = gs.kernel(k)
            a = A_coefficient(prof, W3, k, GRID)
            b = B_coefficient(prof, GRID)
            assert a == pytest.approx(gs.lam(k) * b, rel=1e-12)

    def test_A_orthogonal_profile(self):
        gs = GridSpectrum(W3, GRID)
        kern = gs.kernel(2)
        prof = np.exp(-((GRID.r - 8.0) / 2.0) ** 2)
        prof -= GRID.integrate(prof * kern) / GRID.integrate(kern * kern) * kern
        a = A_coefficient(prof, W3, 2, GRID)
        assert a <= 1e-20 * B_coefficient(prof, GRID)

    def test_A_strict_cauchy_schwarz(self, rng):
        gs = GridSpectrum(W3, GRID)
        for k in (0, 1, 3):
            prof = np.exp(-((GRID.r - rng.uniform(2, 30)) / rng.uniform(1, 4)) ** 2)
            a = A_coefficient(prof, W3, k, GRID)
            b = B_coefficient(prof, GRID)
            assert a < gs.lam(k) * b


class TestDeficitReport:
    def test_pure_extremiser(self):
        gs = GridSpectrum(W3, GRID)
        ps = ProfileSet(3, GRID, {(0, 1): gs.kernel(0)})
        rep = deficit_report(ps, W3, SPEC3)
        assert abs(rep.deficit) <= 1e-12 * rep.sumB
        assert abs(rep.dist_sq) <= 1e-12 * rep.sumB

    def test_pure_k1_equality_case(self):
        gs = GridSpectrum(W3, GRID)
        ps = ProfileSet(3, GRID, {(1, 1): gs.kernel(1)})
        rep = deficit_report(ps, W3, SPEC3)
        # grid-level spectral identity: ratio equals the grid gap exactly
        assert rep.ratio == pytest.approx(gs.lam(0) - gs.lam(1), rel=1e-12)
        assert rep.ratio == pytest.approx(2.0 / 3.0, abs=5e-3)
        assert rep.satisfied

    def test_pure_k0_nonextremal(self):
        gs = GridSpectrum(W3, GRID)
        prof = np.exp(-((GRID.r - 6.0) / 1.5) ** 2)
        ps = ProfileSet(3, GRID, {(0, 1): prof})
        rep = deficit_report(ps, W3, SPEC3)
        assert rep.dist_sq > 0
        assert rep.ratio == pytest.approx(gs.lam(0), rel=1e-12)
        assert rep.ratio > rep.constant

    def test_uncovered_degree_is_inconclusive(self):
        gs = GridSpectrum(W3, GRID)
        ps = ProfileSet(3, GRID, {(11, 1): gs.kernel(11)})
        with pytest.raises(InconclusiveError):
            deficit_report(ps, W3, SPEC3)

    def test_scale_invariance(self, rng):
        ps = random_profile_set(W3, GRID, rng)
        base = deficit_report(ps, W3).ratio
        for lam in (0.03, 7.0):
            scaled = ProfileSet(ps.n, ps.grid, {km: lam * g for km, g in ps.entries.items()})
            assert deficit_report(scaled, W3).ratio == pytest.approx(
                base, rel=1e-12
            )


class TestEqualityAndSharpness:
    def test_equality_pure_harmonic(self):
        gs = GridSpectrum(W3, GRID)
        eq = equality_case_builder(W3, SPEC3, 0.0, {1: 1.0}, GRID)
        rep = deficit_report(eq, W3, SPEC3)
        assert rep.ratio == pytest.approx(gs.lam(0) - gs.lam(1), rel=1e-10)

    def test_equality_constant_only(self):
        eq = equality_case_builder(W3, SPEC3, 1.0, None, GRID)
        rep = deficit_report(eq, W3, SPEC3)
        assert abs(rep.deficit) <= 1e-12 * rep.sumB

    def test_equality_mixed(self):
        gs = GridSpectrum(W3, GRID)
        eq = equality_case_builder(W3, SPEC3, 1.0, {1: 1.0, 2: -0.5}, GRID)
        rep = deficit_report(eq, W3, SPEC3)
        assert rep.ratio == pytest.approx(gs.lam(0) - gs.lam(1), rel=1e-10)

    def test_perturbation_increases_ratio(self):
        gs = GridSpectrum(W3, GRID)
        eq = equality_case_builder(W3, SPEC3, 0.0, {1: 1.0}, GRID)
        base = deficit_report(eq, W3, SPEC3).ratio
        kern = gs.kernel(3)
        bump = np.exp(-((GRID.r - 10.0) / 2.0) ** 2)
        entries = dict(eq.entries)
        entries[(3, 1)] = 0.3 * bump
        rep = deficit_report(ProfileSet(3, GRID, entries), W3, SPEC3)
        assert rep.ratio > base

    def test_extremising_sequence_values(self):
        gs = GridSpectrum(W3, GRID)
        ratios = extremising_sequence(W3, SPEC3, [1, 2, 3], GRID)
        for k, r in zip([1, 2, 3], ratios):
            assert r == pytest.approx(gs.lam(0) - gs.lam(k), rel=1e-10)
        assert ratios[0] < ratios[1] < ratios[2]

    def test_extremising_sequence_checks_the_certified_range(self):
        # SPEC3 certifies k <= 10, as deficit_report checks for any profile set
        assert extremising_sequence(W3, SPEC3, [10], GRID)[0] > 0.0
        with pytest.raises(InconclusiveError, match="exceeds the certified range K=10"):
            extremising_sequence(W3, SPEC3, [1, 11], GRID)

    def test_no_extremiser_without_attaining_set(self):
        bad = SPEC3.__class__(SPEC3.weight, SPEC3.values, SPEC3.lambda_star, (),
                              SPEC3.certificate, SPEC3.tol)
        with pytest.raises(ValueError):
            equality_case_builder(W3, bad, 1.0, None, GRID)

    def test_equality_case_needs_finite_coefficients(self):
        # its set skips the public constructor's finiteness check
        for c, coeffs in ((math.nan, None), (math.inf, {1: 0.5}), (1.0, {2: -math.inf})):
            with pytest.raises(ValueError, match="coefficients must be finite"):
                equality_case_builder(W3, SPEC3, c, coeffs, GRID)


class TestRandomSweeps:
    @pytest.mark.parametrize("weight,spec", [(W3, SPEC3), (W2, SPEC2)])
    def test_stability_and_reverse(self, weight, spec, rng):
        for _ in range(150):
            ps = random_profile_set(weight, GRID, rng)
            rep = deficit_report(ps, weight, spec)
            assert rep.satisfied
            assert rep.deficit >= rep.constant * rep.dist_sq - 1e-8 * rep.sumB
            holds, margin = reverse_deficit_check(ps, weight)
            assert holds
            assert rep.deficit <= rep.lambda0 * rep.dist_sq + 1e-9 * rep.sumB

    @staticmethod
    def dense_reference(weight, grid, rng, max_k=6, max_m=3, cut=CUT):
        """random_profile_set's draws, each bump evaluated on the whole grid
        under a cut of `cut` widths, add_gaussian's by default."""
        entries = {}
        for _ in range(int(rng.integers(1, 5))):
            k = int(rng.integers(0, max_k + 1))
            m = int(rng.integers(1, min(dim_harmonic(weight.n, k), max_m) + 1))
            prof = np.zeros_like(grid.r)
            for _ in range(int(rng.integers(1, 4))):
                center = rng.uniform(0.5, 0.5 * grid.r_max)
                width = rng.uniform(0.3, 5.0)
                prof += rng.normal() * dense_bump((grid.r, center, width), cut=cut)
            if rng.random() < 0.4:
                prof += rng.normal() * harmonic.grid_spectrum(weight, grid).kernel(k)
            entries[(k, m)] = entries[(k, m)] + prof if (k, m) in entries else prof
        return entries

    @pytest.mark.parametrize("weight,r_max", [(W3, 200.0), (W2, 60.0)])
    def test_bit_identical_to_dense_formula(self, weight, r_max):
        # on r_max = 60 a bump of width 5 reaches both ends of the grid
        grid = RadialGrid.build(r_max=r_max)
        for seed in range(40):
            got = random_profile_set(weight, grid, np.random.default_rng(seed)).entries
            want = self.dense_reference(weight, grid, np.random.default_rng(seed))
            assert got.keys() == want.keys()
            for key, prof in want.items():
                assert np.array_equal(got[key].view(np.int64), prof.view(np.int64))

    # float.hex of (sumB, deficit, dist_sq, ratio) and of the reverse margin
    # for the first draw at three seeds on the weights of perfbench's
    # sphere-sweep, taken when every bump kept each lane whose dense exp is
    # normal; add_gaussian's cut at u^2 of the peak moves no bit of them.
    SWEEP_PINS = {
        "homogeneous": {
            2: ("0x1.80043819b1121p+4", "0x1.7f5f93be68992p+4", "0x1.8004377573f08p+4",
                "0x1.ff247d7500d4dp-1", "0x1.10492349e7815p-9"),
            3: ("0x1.d6c1e515427dfp+5", "0x1.d6005331d36aap+5", "0x1.d6c1e20794b5ap+5",
                "0x1.ff2d7c0f28afep-1", "0x1.149842e0988dep-10"),
            11: ("0x1.3a93a73db3504p+3", "0x1.3a138865b44dep+3", "0x1.3a936e45b45b9p+3",
                 "0x1.ff2fd5b6951ddp-1", "0x0.0p+0"),
        },
        "inhomogeneous": {
            2: ("0x1.80043819b1121p+4", "0x1.c834cc7e7f4bbp+1", "0x1.800438176ac37p+4",
                "0x1.301fdb92da2ebp-3", "0x1.a3ccfb78e74ecp-18"),
            3: ("0x1.d6c1e515427dfp+5", "0x1.17a083d6cab6dp+3", "0x1.d6c1e51470e52p+5",
                "0x1.301ff6fa49178p-3", "0x1.bdea9b08b08fep-19"),
            11: ("0x1.3a93a73db3504p+3", "0x1.75b6a736d681dp+0", "0x1.3a93a72f70c08p+3",
                 "0x1.301ffe8e37690p-3", "0x0.0p+0"),
        },
        "custom": {
            2: ("0x1.80043819b1121p+4", "0x1.c853d756d5e4fp+1", "0x1.800438174cf41p+4",
                "0x1.30348d3e4be7ep-3", "0x1.a2428f33761d9p-18"),
            3: ("0x1.d6c1e515427dfp+5", "0x1.17b38a9db07ffp+3", "0x1.d6c1e514706e4p+5",
                "0x1.3034a87a895d7p-3", "0x1.c04a3c506c6dep-19"),
            11: ("0x1.3a93a73db3504p+3", "0x1.75d014ea1a855p+0", "0x1.3a93a72f4c385p+3",
                 "0x1.3034b018cb239p-3", "0x0.0p+0"),
        },
    }

    @pytest.mark.parametrize("label", ["homogeneous", "inhomogeneous", "custom"])
    def test_sweep_reports_pinned(self, label):
        weight = sweep_weight(label)
        for seed, want in self.SWEEP_PINS[label].items():
            ps = random_profile_set(weight, GRID, np.random.default_rng(seed))
            rep = deficit_report(ps, weight)
            _, margin = reverse_deficit_check(ps, weight)
            got = (rep.sumB, rep.deficit, rep.dist_sq, rep.ratio, margin)
            assert tuple(float(x).hex() for x in got) == want

    @pytest.mark.parametrize("label", ["homogeneous", "inhomogeneous", "custom"])
    def test_cut_moves_no_sweep_report(self, label):
        # add_gaussian drops the lanes below u^2 of each bump's peak; against
        # profiles that keep every lane whose exp is normal, no bit of any
        # report or reverse margin moves over 100 draws
        weight = sweep_weight(label)

        def report(ps):
            rep = deficit_report(ps, weight)
            _, margin = reverse_deficit_check(ps, weight)
            return [float(x).hex() for x in (*dataclasses.astuple(rep), margin)]

        for seed in range(100):
            ps = random_profile_set(weight, GRID, np.random.default_rng(seed))
            entries = self.dense_reference(weight, GRID, np.random.default_rng(seed),
                                           cut=NORMAL_CUT)
            assert report(ps) == report(ProfileSet(3, GRID, entries))

    def test_per_mode_cauchy_schwarz(self, rng):
        gs = GridSpectrum(W3, GRID)
        for _ in range(50):
            ps = random_profile_set(W3, GRID, rng)
            for (k, m), prof in ps.entries.items():
                a = A_coefficient(prof, W3, k, GRID)
                b = B_coefficient(prof, GRID)
                assert a <= gs.lam(k) * b + 1e-9 * b


class TestTraceEvaluate:
    def test_k0_mode_is_constant(self):
        gs = GridSpectrum(W3, GRID)
        ps = ProfileSet(3, GRID, {(0, 1): gs.kernel(0)})
        pts = [
            np.array([0.0, 0.0, 1.0]),
            np.array([1.0, 0.0, 0.0]),
            np.array([0.0, 1 / math.sqrt(2), 1 / math.sqrt(2)]),
        ]
        vals = [trace_evaluate(ps, W3, th) for th in pts]
        assert max(abs(v - vals[0]) for v in vals) < 1e-12 * abs(vals[0])

    def test_k1_mode_proportional_to_coordinate(self):
        gs = GridSpectrum(W3, GRID)
        ps = ProfileSet(3, GRID, {(1, 1 + 1): gs.kernel(1)})  # mu = 0: z harmonic
        zs = np.linspace(-1, 1, 9)
        vals = np.array([
            trace_evaluate(ps, W3, np.array([math.sqrt(1 - z * z), 0.0, z]))
            for z in zs
        ])
        ref = vals[-1]
        assert np.allclose(vals, zs * ref, atol=1e-12 * abs(ref))

    @pytest.mark.parametrize("n,weight", [(2, W2), (3, W3)])
    def test_sphere_norm_identity(self, n, weight, rng):
        ps = random_profile_set(weight, GRID, rng, max_k=3, n_modes=2)
        pts, wq = sphere_quadrature(n)
        vals = np.array([abs(trace_evaluate(ps, weight, th)) ** 2 for th in pts])
        lhs = float(np.sum(wq * vals))
        gs = GridSpectrum(weight, GRID)
        sumA = sum(
            A_coefficient(g, weight, k, GRID) for (k, m), g in ps.entries.items()
        )
        assert lhs == pytest.approx(sumA / (2 * math.pi) ** n, rel=1e-5)


class TestGridSpectrumCache:
    def test_one_grid_spectrum_per_weight_and_grid(self, monkeypatch, rng):
        built = []

        class Counted(GridSpectrum):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        harmonic.grid_spectrum.cache_clear()
        monkeypatch.setattr(harmonic, "GridSpectrum", Counted)
        weight = WeightSpec.homogeneous(3, 1.0)  # equal to W3, but a new object
        ps = random_profile_set(weight, GRID, rng)
        deficit_report(ps, weight, SPEC3)
        reverse_deficit_check(ps, weight)
        equality_case_builder(weight, SPEC3, 1.0, {1: 0.7}, GRID)
        extremising_sequence(weight, SPEC3, [1, 2, 3], GRID)
        trace_evaluate(ps, weight, np.array([0.0, 0.0, 1.0]))
        (k, _), prof = next(iter(ps.entries.items()))
        A_coefficient(prof, weight, k, RadialGrid.build())  # equal grid, same entry
        assert len(built) == 1
        twin = WeightSpec.homogeneous(3, 1.0)
        deficit_report(random_profile_set(twin, GRID, rng), twin)
        assert len(built) == 2
        r = np.logspace(-2.0, 2.0, 30)
        custom = WeightSpec.custom(3, r, (1.0 + r * r) ** -2.0, tail_exponent=4.0)
        rep = deficit_report(random_profile_set(custom, GRID, rng), custom)
        assert len(built) == 3
        assert rep.satisfied
        # grids key by r_max alone, which fixes their nodes
        deficit_report(random_profile_set(weight, RadialGrid.build(100.0), rng), weight)
        assert len(built) == 4

    def test_lambda_is_integrated_once_per_k(self, monkeypatch):
        gs = GridSpectrum(W3, GRID)
        integrate = RadialGrid.integrate
        calls = []

        def counting(grid, samples):
            calls.append(1)
            return integrate(grid, samples)

        monkeypatch.setattr(RadialGrid, "integrate", counting)
        for k in (0, 3, 0, 1, 3, 1):
            ker = gs.kernel(k)
            assert gs.lam(k).hex() == integrate(GRID, ker * ker).hex()
        assert len(calls) == 3

    def test_kernels_are_read_only(self):
        gs = harmonic.grid_spectrum(W3, GRID)
        with pytest.raises(ValueError):
            gs.kernel(0)[0] = 1.0


class TestProfileSet:
    def test_dimension_bound_enforced(self):
        gs = GridSpectrum(W2, GRID)
        with pytest.raises(ValueError):
            ProfileSet(2, GRID, {(1, 3): gs.kernel(1)})  # dim H_1 = 2 at n = 2

    def test_entries_are_read_only(self, rng):
        ps = random_profile_set(W3, GRID, rng)
        key, prof = next(iter(ps.entries.items()))
        with pytest.raises(ValueError):
            prof[0] = 1.0
        with pytest.raises(TypeError):
            ps.entries[key] = np.zeros(GRID.r.size)
        with pytest.raises(TypeError):
            del ps.entries[key]

    def test_equality_is_identity_and_sets_hash(self, rng):
        ps = random_profile_set(W3, GRID, rng)
        rep = deficit_report(ps, W3)
        kept = dict(ps._sums)
        twin = ProfileSet(ps.n, ps.grid, dict(ps.entries))
        assert ps == ps and ps != twin and not ps == twin
        assert len({ps, twin, ps}) == 2 and hash(ps) == hash(ps)
        assert ps._sums == kept
        assert deficit_report(ps, W3) == rep

    def test_views_are_copied_and_owned_arrays_frozen(self):
        owned = np.exp(-((GRID.r - 6.0) / 1.5) ** 2)
        base = np.stack([owned, owned])
        ps = ProfileSet(3, GRID, {(0, 1): owned, (1, 1): base[1]})
        assert ps.entries[(0, 1)] is owned and not owned.flags.writeable
        assert ps.entries[(1, 1)] is not base[1] and base.flags.writeable
        base[1] = 0.0
        assert np.array_equal(ps.entries[(1, 1)], owned)

    def test_non_finite_profiles_are_rejected(self):
        # one NaN or inf lane read a deficit of nan and a ratio of inf, and
        # reverse_deficit_check (False, nan), with no error
        bump = np.exp(-((GRID.r - 6.0) / 1.5) ** 2)
        for bad in (math.nan, math.inf, -math.inf):
            prof = bump.copy()
            prof[40] = bad
            for given in (prof, list(prof), prof[::-1][::-1]):
                with pytest.raises(ValueError, match=r"profile \(1,2\) must be finite"):
                    ProfileSet(3, GRID, {(0, 1): bump, (1, 2): given})
        assert bump.flags.writeable

    @pytest.mark.parametrize("label", ["homogeneous", "inhomogeneous", "custom"])
    def test_built_sets_read_what_the_public_constructor_reads(self, label):
        # random_profile_set and equality_case_builder wrap their own arrays
        # without the public checks; every report bit must be the same
        weight = sweep_weight(label)

        def report(ps):
            rep = deficit_report(ps, weight)
            _, margin = reverse_deficit_check(ps, weight)
            return [float(x).hex() for x in (*dataclasses.astuple(rep), margin)]

        spec = build_spectrum(weight, K=6)
        built = [random_profile_set(weight, GRID, np.random.default_rng(seed))
                 for seed in range(200)]
        built.append(equality_case_builder(weight, spec, 1.0, {1: 0.7}, GRID))
        for ps in built:
            assert isinstance(ps.entries, MappingProxyType) and ps._sums == {}
            assert not any(g.flags.writeable for g in ps.entries.values())
            public = ProfileSet(ps.n, ps.grid, {km: g.copy() for km, g in ps.entries.items()})
            assert report(ps) == report(public)

    @pytest.mark.parametrize("label", ["homogeneous", "inhomogeneous", "custom"])
    def test_pure_kernel_entries_read_lambda_k(self, label, monkeypatch):
        # an entry that is the GridSpectrum's own kernel reads B = inner =
        # lambda_k without integrating; a copy of it takes the general route
        weight = sweep_weight(label)
        spec = build_spectrum(weight, K=6)
        gs = harmonic.grid_spectrum(weight, GRID)
        ks = list(range(1, 7))
        want = []
        for k in ks:
            copy = ProfileSet(3, GRID, {(k, 1): gs.kernel(k).copy()})
            want.append(deficit_report(copy, weight).ratio.hex())
        integrate = RadialGrid.integrate
        calls = []

        def counting(grid, samples):
            calls.append(1)
            return integrate(grid, samples)

        monkeypatch.setattr(RadialGrid, "integrate", counting)
        got = [r.hex() for r in extremising_sequence(weight, spec, ks, GRID)]
        assert got == want and calls == []

    def test_sums_are_kept_per_weight(self, rng):
        other = WeightSpec.inhomogeneous(3, 2.0)
        ps = random_profile_set(W3, GRID, rng)
        got = [deficit_report(ps, w) for w in (W3, other, W3, other)]
        for w, rep in zip((W3, other, W3, other), got):
            fresh = deficit_report(ProfileSet(3, GRID, dict(ps.entries)), w)
            assert repr(rep) == repr(fresh)
        assert repr(got[0]) != repr(got[1])

    @pytest.mark.parametrize("reverse_first", [False, True])
    def test_reports_read_one_set_of_sums(self, reverse_first, monkeypatch, rng):
        ps = random_profile_set(W3, GRID, rng)
        fresh = ProfileSet(3, GRID, dict(ps.entries))
        want = (repr(deficit_report(fresh, W3, SPEC3)),
                repr(reverse_deficit_check(fresh, W3)))
        integrate = RadialGrid.integrate
        calls = []

        def counting(grid, samples):
            calls.append(1)
            return integrate(grid, samples)

        monkeypatch.setattr(RadialGrid, "integrate", counting)
        if reverse_first:
            rev = repr(reverse_deficit_check(ps, W3))
            n_calls = len(calls)
            rep = repr(deficit_report(ps, W3, SPEC3))
        else:
            rep = repr(deficit_report(ps, W3, SPEC3))
            n_calls = len(calls)
            rev = repr(reverse_deficit_check(ps, W3))
        assert (rep, rev) == want
        assert n_calls >= 2 * len(ps.entries) and len(calls) == n_calls


class TestBadSizes:
    def test_reports_check_the_sphere_dimension(self):
        # an n = 3 set scored under an n = 2 weight reads a plausible report
        # unless the dimensions are compared
        bump = np.exp(-((GRID.r - 6.0) / 1.5) ** 2)
        ps = ProfileSet(3, GRID, {(3, 3): bump, (5, 1): 0.5 * bump})
        w = WeightSpec.homogeneous(2, 0.75)
        with pytest.raises(ValueError, match="dimension n=3 does not match the weight's n=2"):
            deficit_report(ps, w)
        with pytest.raises(ValueError, match="dimension n=3"):
            reverse_deficit_check(ps, w)
        assert ps._sums == {}

    def test_grid_needs_positive_radius(self):
        for r_max in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="r_max > 0"):
                RadialGrid.build(r_max)

    @pytest.mark.parametrize("kwargs,message", [({"n_modes": 0}, "n_modes >= 1"),
                                                ({"max_k": -1}, "max_k >= 0")])
    def test_random_profiles_check_before_drawing(self, kwargs, message, rng):
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            random_profile_set(W3, GRID, rng, **kwargs)
        assert rng.bit_generator.state == state
