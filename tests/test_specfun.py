"""Special-function kernel: independent series/integral oracles, closed
forms, and the envelope/recurrence properties everything downstream leans
on.  Bessel values are checked on scipy.special and Gamma values on
math.gamma, the routines the package calls."""

import math

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, strategies as st
from scipy.integrate import quad

from oracles import CUT, dense_bump
from tracestab.harmonic import RadialGrid
from tracestab.specfun import (
    LANDAU_ENVELOPE,
    dim_harmonic,
    add_gaussian,
    legendre,
    legendre_all,
)
from tracestab.transport import PhaseGrid


def j_series_oracle(nu: float, x: float, terms: int = 60) -> float:
    """Power series of the Bessel function of the first kind, summed far
    past machine precision for the small arguments used here."""
    total = 0.0
    for m in range(terms):
        total += (-1.0) ** m * (0.5 * x) ** (2 * m + nu) / (
            math.gamma(m + 1) * math.gamma(m + nu + 1.0)
        )
    return total


def i0_series_oracle(x: float, terms: int = 60) -> float:
    return sum((0.25 * x * x) ** m / math.gamma(m + 1) ** 2 for m in range(terms))


def half_integer_j(nu: float, x):
    """Closed-form J_nu for half-integer nu > 0 (odd dimensions), from
    J_{-1/2}(x) = sqrt(2/(pi x)) cos x, J_{1/2}(x) = sqrt(2/(pi x)) sin x
    and the upward recurrence J_{nu+1} = (2 nu / x) J_nu - J_{nu-1}."""
    jm = np.sqrt(2.0 / (np.pi * x)) * np.cos(x)
    jp = np.sqrt(2.0 / (np.pi * x)) * np.sin(x)
    mu = 0.5
    while mu < nu - 1e-12:
        jm, jp = jp, (2.0 * mu / x) * jp - jm
        mu += 1.0
    return jp


class TestGamma:
    def test_trivial_values(self):
        assert math.gamma(1.0) == pytest.approx(1.0, abs=1e-14)
        assert math.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
        assert math.gamma(2.5) == pytest.approx(0.75 * math.sqrt(math.pi), rel=1e-13)

    @given(st.floats(0.1, 30.0))
    def test_recurrence(self, x):
        assert math.gamma(x + 1.0) == pytest.approx(x * math.gamma(x), rel=1e-12)


class TestBesselJ:
    def test_half_integer_value(self):
        assert sp.jv(0.5, math.pi / 2) == pytest.approx(2.0 / math.pi, rel=1e-12)

    def test_small_argument_limit(self):
        assert sp.jv(0.0, 1e-12) == pytest.approx(1.0, abs=1e-10)

    def test_series_oracle(self):
        assert sp.jv(1.0, 1.0) == pytest.approx(0.4400505857449335, rel=1e-12)
        for nu in (0.0, 0.5, 1.5, 3.0, 7.5):
            for x in (0.3, 1.0, 4.0):
                assert sp.jv(nu, x) == pytest.approx(j_series_oracle(nu, x), rel=1e-10)

    def test_small_x_power_behavior(self):
        x = 1e-6
        for nu in (0.5, 1.0, 2.5, 6.0):
            lim = 1.0 / (2.0 ** nu * math.gamma(nu + 1.0))
            assert sp.jv(nu, x) / x ** nu == pytest.approx(lim, rel=1e-6)

    def test_half_integer_closed_forms(self, rng):
        for nu in (0.5, 1.5, 2.5, 3.5, 5.5, 7.5):
            for x in rng.uniform(0.2, 30.0, size=5):
                assert half_integer_j(nu, x) == pytest.approx(
                    sp.jv(nu, float(x)), rel=1e-9, abs=1e-12
                )

    def test_landau_envelope(self):
        c = LANDAU_ENVELOPE
        assert c == 0.8
        r = np.linspace(1e-3, 1000.0, 20000)
        observed = 0.0
        for k in range(61):  # nu = 1/2, 1, ..., 30
            nu = 0.5 * (k + 1)
            observed = max(observed, float(np.max(np.abs(sp.jv(nu, r)) * r ** (1.0 / 3.0))))
        assert observed < c
        # the envelope is not wastefully loose
        assert observed > 0.6


class TestBesselIK:
    def test_half_integer_values(self):
        assert sp.iv(0.5, 1.0) == pytest.approx(
            math.sqrt(2.0 / math.pi) * math.sinh(1.0), rel=1e-12
        )
        assert sp.kv(0.5, 1.0) == pytest.approx(
            math.sqrt(math.pi / 2.0) / math.e, rel=1e-12
        )

    def test_product_series_integral_oracle(self):
        k0_oracle, _ = quad(lambda t: math.exp(-math.cosh(t)), 0.0, 30.0)
        prod = sp.iv(0.0, 1.0) * sp.kv(0.0, 1.0)
        assert prod == pytest.approx(i0_series_oracle(1.0) * k0_oracle, rel=1e-10)
        assert f"{prod:.4f}" == "0.5330"

    def test_monotonicity(self):
        xs = np.linspace(0.2, 8.0, 50)
        for nu in (0.0, 0.5, 2.0):
            iv = np.array([sp.iv(nu, x) for x in xs])
            kv = np.array([sp.kv(nu, x) for x in xs])
            assert np.all(np.diff(iv) > 0)
            assert np.all(np.diff(kv) < 0)

    def test_wronskian(self, rng):
        for nu in (0.0, 0.5, 1.0, 2.5, 6.0):
            for x in rng.uniform(0.1, 20.0, size=8):
                x = float(x)
                w = sp.iv(nu, x) * sp.kv(nu + 1.0, x) + \
                    sp.iv(nu + 1.0, x) * sp.kv(nu, x)
                assert w == pytest.approx(1.0 / x, rel=1e-9)


class TestLegendre:
    def test_degree_zero_and_one(self):
        for n in (2, 3, 4, 7):
            for t in (-1.0, -0.4, 0.0, 0.9, 1.0):
                assert legendre(n, 0, t) == pytest.approx(1.0, abs=1e-14)
                assert legendre(n, 1, t) == pytest.approx(t, abs=1e-14)

    def test_classical_n3(self):
        for t in np.linspace(-1, 1, 21):
            assert legendre(3, 2, t) == pytest.approx((3 * t * t - 1) / 2, abs=1e-13)
            assert legendre(3, 3, t) == pytest.approx((5 * t ** 3 - 3 * t) / 2, abs=1e-13)

    def test_chebyshev_n2(self):
        for k in range(8):
            for t in np.linspace(-1, 1, 17):
                assert legendre(2, k, t) == pytest.approx(
                    math.cos(k * math.acos(t)), abs=1e-11
                )

    def test_normalization_at_one(self):
        for n in (2, 3, 5):
            for k in range(25):
                assert legendre(n, k, 1.0) == pytest.approx(1.0, rel=1e-11)

    @given(st.integers(2, 6), st.integers(1, 30), st.floats(-1.0, 1.0))
    def test_bounded_by_one(self, n, k, t):
        assert abs(legendre(n, k, t)) <= 1.0 + 1e-11

    def test_legendre_all_consistency(self):
        t = np.linspace(-1, 1, 31)
        table = legendre_all(4, 10, t)
        for k in (0, 3, 10):
            assert np.allclose(table[k], [legendre(4, k, tt) for tt in t], atol=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            legendre(3, 2, 1.5)


class TestIndexing:
    def test_dim_harmonic(self):
        assert dim_harmonic(2, 0) == 1
        assert dim_harmonic(2, 5) == 2
        for k in range(8):
            assert dim_harmonic(3, k) == 2 * k + 1
        assert dim_harmonic(4, 2) == 9


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


class TestGaussianWindow:
    """Bumps evaluated on their window carry the bits of the dense formula
    under add_gaussian's cut (oracles.dense_bump), and the cut meets the
    contract: it keeps every lane whose exp is at least 2^-106 and no lane
    whose exp is below 2^-107.  The first two tests pin the numpy properties
    this rests on."""

    def test_exp_is_normal_above_the_cut_and_negligible_below(self):
        # each range reaches 1e-6 past the cut, far more than the ulps by
        # which a computed exponent or window bound can stray
        cut = -CUT * CUT
        above = np.exp(np.linspace(cut * (1.0 + 1e-6), 0.0, 200_001))
        below = np.exp(np.linspace(-800.0, cut * (1.0 - 1e-6), 200_001))
        assert above.min() >= 2.0 ** -107
        assert below.max() < 2.0 ** -106

    def test_exp_of_a_lane_does_not_depend_on_the_others(self):
        rng = np.random.default_rng(7)
        x = -rng.uniform(0.0, 800.0, 4099)
        y = np.exp(x)
        tiny = np.finfo(float).tiny
        assert (y >= tiny).any() and ((y > 0.0) & (y < tiny)).any() and (y == 0.0).any()
        mask = rng.random(x.size) < 0.5
        assert np.array_equal(bits(y[mask]), bits(np.exp(x[mask])))
        for lo, hi in [(1, 4098), (3, 17), (1000, 1001)]:
            assert np.array_equal(bits(y[lo:hi]), bits(np.exp(x[lo:hi])))

    def test_window_sum_matches_dense(self):
        r = RadialGrid.build(r_max=60.0).r
        rng = np.random.default_rng(3)
        dense, windowed = np.zeros_like(r), np.zeros_like(r)
        # random_profile_set draws widths in [0.3, 5]; on r_max = 60 the
        # window |z| < 8.6 of a width-5 bump is clipped at both ends, and
        # centres below, at and beyond the ends clip it at one or empty it
        windows = set()
        for center in (-3.0, 0.5, 17.3, 30.0, 59.9, 65.0):
            for width in (0.3, 5.0):
                lo, hi = r.searchsorted([center - CUT * width, center + CUT * width])
                windows.add("empty" if lo == hi else (lo == 0, hi == r.size))
                amp = rng.normal()
                bump = dense_bump((r, center, width))
                dense += amp * bump
                add_gaussian(windowed, amp, (r, center, width))
                alone = np.zeros_like(r)
                add_gaussian(alone, 1.0, (r, center, width))
                assert np.array_equal(bits(alone), bits(bump))
        assert np.array_equal(bits(windowed), bits(dense))
        assert windows == {"empty", (False, False), (True, False), (False, True), (True, True)}

    @pytest.mark.parametrize("side", ["primal", "dual"])
    def test_bump_2d_matches_dense(self, side):
        grid = PhaseGrid.build(1, 40.0, 128, t_extent=10.0)
        a, b = (grid.x, grid.v) if side == "primal" else (grid.t, grid.x)
        A, B = np.meshgrid(a, b, indexing="ij")
        rng = np.random.default_rng(5)
        dense, windowed = np.zeros(A.shape), np.zeros(A.shape)
        # the ends of the width ranges drawn for phase functions (0.8, 4),
        # pairing functions (1, 3) and probe directions (1, 2.5)
        widths = (0.8, 1.0, 2.5, 3.0, 4.0)
        for ca, cb in [(-45.0, 0.3), (-12.0, 39.9), (0.7, -40.0), (9.0, 50.0)]:
            for wa in widths:
                for wb in widths:
                    amp = rng.uniform(-1.0, 1.0)
                    bump = dense_bump((A, ca, wa), (B, cb, wb))
                    dense += amp * bump
                    add_gaussian(windowed, amp, (a, ca, wa), (b, cb, wb))
                    alone = np.zeros(A.shape)
                    add_gaussian(alone, 1.0, (a, ca, wa), (b, cb, wb))
                    assert np.array_equal(bits(alone), bits(bump))
        assert np.array_equal(bits(windowed), bits(dense))

    @pytest.mark.parametrize("dims", [1, 2])
    def test_cut_keeps_lanes_above_u2_and_flushes_those_below(self, dims):
        # against the dense formula without any cut: lanes at or above
        # 2^-106 keep its bits, lanes below 2^-107 become +0.0, and the lanes
        # between may take either
        r = RadialGrid.build(r_max=200.0).r
        axes = (r,) if dims == 1 else (r[::4], r[1::4])
        meshes = np.meshgrid(*axes, indexing="ij")
        rng = np.random.default_rng(11)
        flushed = 0
        for _ in range(40):
            terms = [(axis, rng.uniform(0.0, 200.0), rng.uniform(0.3, 5.0)) for axis in axes]
            exponent = sum(-((X - c) / w) ** 2 for X, (_, c, w) in zip(meshes, terms))
            want = np.exp(exponent)
            got = np.zeros(want.shape)
            add_gaussian(got, 1.0, *terms)
            big = want >= 2.0 ** -106
            small = want < 2.0 ** -107
            assert np.array_equal(bits(got[big]), bits(want[big]))
            assert not bits(got[small]).any()
            flushed += int((small & (want > 0.0)).sum())
        assert flushed > 100
