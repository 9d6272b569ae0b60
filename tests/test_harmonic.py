"""Profile-decomposition stability checks: mode coefficients, deficit
reports, equality cases, extremising sequences, the reverse inequality,
and pointwise trace evaluation on the sphere."""

import dataclasses
import functools
import itertools
import math
from types import MappingProxyType

import numpy as np
import pytest

from oracles import CUT, NORMAL_CUT, A_coefficient, dense_bump, sphere_quadrature, trace_evaluate
from tracestab import harmonic
from tracestab.errors import InconclusiveError
from tracestab.harmonic import (
    B_coefficient,
    DeficitReport,
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
        """random_profile_set's draws in their documented layout, each bump
        evaluated on the whole grid under a cut of `cut` widths,
        add_gaussian's by default."""
        entries = {}
        n_modes = int(rng.integers(1, 5))
        uniforms, normals = rng.random((n_modes, 10)), rng.normal(size=(n_modes, 4))
        for u, z in zip(uniforms, normals):
            k = int(u[0] * (max_k + 1))
            m = 1 + int(u[1] * min(dim_harmonic(weight.n, k), max_m))
            prof = np.zeros_like(grid.r)
            for j in range(1 + int(u[2] * 3)):
                center = 0.5 + (0.5 * grid.r_max - 0.5) * u[4 + j]
                width = 0.3 + (5.0 - 0.3) * u[7 + j]
                prof += z[j] * dense_bump((grid.r, center, width), cut=cut)
            if u[3] < 0.4:
                prof += z[3] * harmonic.grid_spectrum(weight, grid).kernel(k)
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

    @pytest.mark.parametrize("lo,hi", [(0.5, 30.0), (0.5, 100.0), (0.3, 5.0)],
                             ids=["centre-r60", "centre-r200", "width"])
    def test_uniform_is_lo_plus_span_times_random(self, lo, hi):
        # random_profile_set draws a bump's centre, on [0.5, r_max / 2) at
        # r_max 60 and 200 here, and its width, on [0.3, 5), as
        # lo + (hi - lo) * u from a block of rng.random() draws: the formula
        # rng.uniform(lo, hi) evaluates for scalars, so the documented
        # distribution is uniform's.  A numpy that changes that formula
        # fails here.
        a, b = np.random.default_rng(7), np.random.default_rng(7)
        got = [lo + (hi - lo) * b.random() for _ in range(10_000)]
        want = [a.uniform(lo, hi) for _ in range(10_000)]
        assert [x.hex() for x in got] == [x.hex() for x in want]
        assert a.bit_generator.state == b.bit_generator.state

    # float.hex of (sumB, deficit, dist_sq, ratio) and of the reverse margin
    # for the first draw at three seeds on the weights of perfbench's
    # sphere-sweep, taken when every bump kept each lane whose dense exp is
    # normal; add_gaussian's cut at u^2 of the peak moves no bit of them.
    # The sums run in numpy's own einsum loop, not BLAS, so the pins hold
    # on every OpenBLAS core.
    SWEEP_PINS = {
        "homogeneous": {
            2: ("0x1.075d0ff2dfc8bp+5", "0x1.06ee4d2b427ddp+5", "0x1.075d0ff2dfc8bp+5",
                "0x1.ff28ac0399212p-1", "0x1.d79c5e48b7356p-10"),
            3: ("0x1.1ac801c6ddf34p+2", "0x1.d24e7edf3542ep+1", "0x1.e2d4124c06f76p+1",
                "0x1.ee7ae1891c3f4p-1", "0x1.f828ac9829278p-4"),
            11: ("0x1.3642bfb3cdf94p-4", "0x1.2a051f10a7a99p-4", "0x1.3642bfb3cdf94p-4",
                 "0x1.ebcccf5173671p-1", "0x1.77ef7ca9c818dp-9"),
        },
        "inhomogeneous": {
            2: ("0x1.077122c50834ep+5", "0x1.38f744c1d5eedp+2", "0x1.077122c50834ep+5",
                "0x1.301ffd66d9906p-3", "0x1.2ff3f170580fdp-22"),
            3: ("0x1.c54e09aab76c2p+1", "0x1.053ecbd8ea11dp-1", "0x1.b9820f01795f6p+1",
                "0x1.2ef4c8a39db98p-3", "0x1.0203f206e10c8p-9"),
            11: ("0x1.cc9407c3e7e50p-5", "0x1.117134e3296a9p-7", "0x1.cc9407c3e7e50p-5",
                 "0x1.2ff8912b6672ap-3", "0x1.1bbd67fb10bc1p-18"),
        },
        "custom": {
            2: ("0x1.0771229b6fec7p+5", "0x1.390c901a3c9dcp+2", "0x1.0771229b6fec7p+5",
                "0x1.3034aef0bb1bbp-3", "0x1.30ab4fe152b03p-22"),
            3: ("0x1.c54ffd5ec5d94p+1", "0x1.0550ebca3a18dp-1", "0x1.b983298d82960p+1",
                "0x1.2f090b791b2e6p-3", "0x1.02640e7b6ae54p-9"),
            11: ("0x1.cc966a8c19e88p-5", "0x1.118522b98714ep-7", "0x1.cc966a8c19e88p-5",
                 "0x1.300d256602c09p-3", "0x1.1c91d3e799b15p-18"),
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

    def test_draws_stay_in_their_ranges(self, monkeypatch):
        # 10,000 sets over max_k 0, 2 and 6, half of them with n_modes given;
        # each bump and each kernel a mode adds is recorded as it is drawn
        bumps, kernels = [], []
        add, kernel = harmonic.add_gaussian, GridSpectrum.kernel

        def recording_add(out, amp, term):
            bumps.append((out, term[1], term[2]))
            add(out, amp, term)

        def recording_kernel(gs, k):
            kernels.append(k)
            return kernel(gs, k)

        monkeypatch.setattr(harmonic, "add_gaussian", recording_add)
        monkeypatch.setattr(GridSpectrum, "kernel", recording_kernel)
        rng = np.random.default_rng(36)
        modes = 0
        for i in range(10_000):
            max_k, n_modes = (0, 2, 6)[i % 3], (None, 1 + i % 4)[i % 2]
            bumps.clear()
            ps = random_profile_set(W3, GRID, rng, max_k=max_k, n_modes=n_modes)
            for k, m in ps.entries:
                assert 0 <= k <= max_k and 1 <= m <= min(dim_harmonic(3, k), 3)
            # one fresh profile per mode, and 1-3 bumps on each
            counts = [len(list(run)) for _, run in itertools.groupby(bumps, lambda b: id(b[0]))]
            assert set(counts) <= {1, 2, 3}
            assert n_modes is None or len(counts) == n_modes
            assert 1 <= len(counts) <= 4
            modes += len(counts)
            for _, center, width in bumps:
                assert 0.5 <= center < 0.5 * GRID.r_max and 0.3 <= width < 5.0
        # the kernel share of the modes lies within five binomial standard
        # deviations of 0.4, which a correct draw misses with odds of 6e-7
        assert abs(len(kernels) / modes - 0.4) < 5.0 * math.sqrt(0.4 * 0.6 / modes)

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
        dot = harmonic._dot
        calls = []

        def counting(a, b):
            calls.append(1)
            return dot(a, b)

        monkeypatch.setattr(harmonic, "_dot", counting)
        for k in (0, 3, 0, 1, 3, 1):
            ker = gs.kernel(k)
            assert gs.lam(k).hex() == dot(ker * GRID.wq, ker).hex()
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
            fields = [float(x).hex() for x in dataclasses.astuple(rep)]
            # deficit_report skips the frozen __init__; each field must read
            # what the public constructor stores from the documented formulas
            assert fields == [float(x).hex() for x in dataclasses.astuple(public_report(ps))]
            return [*fields, float(margin).hex()]

        def public_report(ps):
            gs = harmonic.grid_spectrum(weight, GRID)
            sumB, sumA, a01 = harmonic._mode_sums(ps, gs)
            lam0 = gs.lam(0)
            const = lam0 - max(gs.lam(k) for k in range(1, max(ps.max_degree(), 1) + 1))
            deficit, dist_sq = lam0 * sumB - sumA, sumB - a01 / lam0
            ratio = deficit / dist_sq if dist_sq > 0 else math.inf
            return DeficitReport(sumB, deficit, dist_sq, ratio, const, lam0,
                                 deficit >= const * dist_sq - 1e-8 * sumB)

        spec = build_spectrum(weight, K=6)
        built = [random_profile_set(weight, GRID, np.random.default_rng(seed))
                 for seed in range(200)]
        built.append(equality_case_builder(weight, spec, 1.0, {1: 0.7}, GRID))
        # c = 1.0 holds the kernel itself, which reads lambda_0's bits
        assert built[-1].entries[(0, 1)] is harmonic.grid_spectrum(weight, GRID).kernel(0)
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
        dot = harmonic._dot
        calls = []

        def counting(a, b):
            calls.append(1)
            return dot(a, b)

        monkeypatch.setattr(harmonic, "_dot", counting)
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
        dot = harmonic._dot
        calls = []

        def counting(a, b):
            calls.append(1)
            return dot(a, b)

        monkeypatch.setattr(harmonic, "_dot", counting)
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

    def test_grid_needs_finite_radius(self):
        with pytest.raises(ValueError, match="finite r_max > 0"):
            RadialGrid.build(math.inf)

    # sizes that are not integers are rejected before any draw; a max_k of
    # 2.5 would draw k = int(u * 3.5), up to 3
    @pytest.mark.parametrize("kwargs,message", [({"max_k": 2.5}, "integer max_k"),
                                                ({"max_k": 6.0}, "integer max_k"),
                                                ({"n_modes": 2.0}, "integer n_modes"),
                                                ({"n_modes": 1.5}, "integer n_modes")])
    def test_random_profiles_need_integer_sizes(self, kwargs, message, rng):
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            random_profile_set(W3, GRID, rng, **kwargs)
        assert rng.bit_generator.state == state

    # bump centres lie in [0.5, r_max / 2), an empty range below r_max = 1
    @pytest.mark.parametrize("kwargs,message", [({"n_modes": 0}, "n_modes >= 1"),
                                                ({"max_k": -1}, "max_k >= 0"),
                                                ({"grid": RadialGrid.build(0.9)}, "r_max >= 1")])
    def test_random_profiles_check_before_drawing(self, kwargs, message, rng):
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            random_profile_set(W3, rng=rng, **{"grid": GRID, **kwargs})
        assert rng.bit_generator.state == state
