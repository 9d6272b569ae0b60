"""Finite-dimensional duality lab: duality maps, l^p -> l^q operator
norms, extremiser transfer, sharpened Hoelder inequalities, the local
stability pipeline, and the unit-interval counterexample family."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tracestab import duality
from tracestab.duality import (
    FiniteOperator,
    _fixed_point,
    _ray_minimiser,
    brute_force_norm,
    cfl1_gap,
    cfl3_gap,
    cfl_constant,
    duality_map,
    extremiser_transfer,
    local_stability_pipeline,
    lp_norm,
    operator_norm,
    ray_distance,
    sigma_counterexample,
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

    def test_underflowing_row_is_the_zero_vector(self):
        # every entry is nonzero, but its r-th power, and so the row norm,
        # underflows to 0: the map is undefined there, alone or in a batch
        tiny = [1e-200, 1e-200]
        with pytest.raises(ValueError, match="undefined at the zero vector"):
            duality_map(np.array(tiny), 2.5)
        for F in ([tiny], [tiny, [1.0, 2.0]], [[1.0, 2.0], tiny]):
            with pytest.raises(ValueError, match="undefined at the zero vector"):
                duality._duality_rows(np.array(F), 2.5)


STUCK = np.array(
    [[0.9431453228057903, 0.18016846261219888, 0.09169682519562405, 0.026179649286026008],
     [0.008980974556175303, 0.34755391132841595, 0.500794195885301, 0.18769016529023586],
     [0.046303106749281286, 0.4694608019567894, 0.6901044159335149, 0.4244528509843073]])

# operator_norm's certificates, recorded from the batched search that the
# one-start search replaced: (matrix, p, q, seed, whether the certificate
# is of T* after a call on T, value, upper, extremiser, starts, iterations,
# certified, then the generator's state, has_uint32 and uinteger after it).
# For the seeds of "contraction", "identity" and "zeros-5x5" a norm's
# power taken on a numpy scalar, not a 1-element array, changes some bit
PINNED = {
    "contraction": (
        [[1.5, 1.2, 1.9], [1.3, 1.8, 1.1]], 1.5, 2.5, 1, False,
        "0x1.663ad3def7dc1p+1", "0x1.663ad3def81e9p+1",
        ["0x1.c141af40c7581p-2", "0x1.ef005988f243ap-2", "0x1.09732e7027d73p-1"],
        1, 14, True, 236658695069053534921881806884699931691, 0, 0),
    "stuck-adjoint": (
        STUCK, 1.5, 2.5, 10, True,
        "0x1.e48163eb271ebp-1", "0x1.e48163ec18f1fp-1",
        ["0x1.ff6497e07bd1ap-1", "0x1.7874ab9c6c22bp-8", "0x1.705f949d71139p-6"],
        2, 32, True, 329640405292392707750618492515244047650, 0, 0),
    "bracket-square": (
        [[0.13003169098233525, 0.9639889659405984],
         [0.8363372324055592, 0.07929188977520729]], 1.5, 2.5, 798, False,
        "0x1.ee9c3434d745cp-1", "0x1.ee9c3434e9d2bp-1",
        ["0x1.b7949ab6bbeb1p-6", "0x1.fe7fb46d3f5ebp-1"],
        1, 15, True, 162736008361603366864374669654844531121, 0, 0),
    "signed": (
        [[0.5, -0.2, 0.9], [-0.3, 0.8, 0.1], [0.4, 0.6, -0.7]], 1.5, 2.5, 5, False,
        "0x1.1a165098e1088p+0", "inf",
        ["0x1.cfda05c5b6ab1p-7", "-0x1.c3979e15c3ff8p-3", "0x1.db6bb87ba25e8p-1"],
        8, 232, False, 105705410879532449520963230723136797146, 0, 1395618031),
    "p-above-q": (
        [[0.9, 0.2], [0.3, 0.7], [0.5, 0.6]], 2.0, 1.5, 11, False,
        "0x1.92e5f8a1b44d0p+0", "inf",
        ["0x1.84947bf3bce1fp-1", "0x1.4d6419c188013p-1"],
        8, 108, False, 89093105619512444616308357561074884262, 0, 2077152256),
    "identity": (
        np.eye(3), 2.0, 2.0, 0, False,
        "0x1.0000000000001p+0", "0x1.00a944641ad16p+0",
        ["0x1.1e0c3cd45c513p-1", "0x1.4f0320d8ed62bp-1", "0x1.04ef8d74932dbp-1"],
        9, 9, False, 149016169330749493134370448296911543734, 0, 0),
    "zeros-5x5": (
        np.eye(5) + 0.1 * (np.arange(25).reshape(5, 5) % 3), 1.5, 2.5, 2, False,
        "0x1.093687095c1d7p+0", "inf",
        ["0x1.0535672d974bbp-4", "0x1.5b709b0686416p-4", "0x1.e3bf6720d5d6dp-1",
         "0x1.0535672d974bbp-4", "0x1.5b709b0686419p-4"],
        9, 392, False, 108440923582043035961748593436460677287, 0, 0),
}


class TestOperatorNorm:
    @pytest.mark.parametrize("case", PINNED)
    def test_certificates_are_pinned_bit_for_bit(self, case):
        # the contraction test, the bracket with a restart (STUCK's T*), a
        # square bracketed operator, and the 8-start fallback: signed, with
        # p > q, at a flat maximum (the identity, p = q = 2) and for a
        # nonnegative operator with zero entries that no bound closes
        (M, p, q, seed, adjoint, value, upper, extremiser, starts, iterations,
         certified, state, has_uint32, uinteger) = PINNED[case]
        T = FiniteOperator(np.array(M), p, q)
        rng = np.random.default_rng(seed)
        if adjoint:
            operator_norm(T, rng=rng)
            T = T.adjoint()
        cert = operator_norm(T, rng=rng)
        assert cert.value.hex() == value and cert.upper.hex() == upper
        expected = np.array([float.fromhex(x) for x in extremiser])
        assert cert.extremiser.dtype == expected.dtype
        assert cert.extremiser.tobytes() == expected.tobytes()
        assert (cert.starts, cert.iterations, cert.certified) == (starts, iterations, certified)
        after = rng.bit_generator.state
        assert after["state"]["state"] == state
        assert (after["has_uint32"], after["uinteger"]) == (has_uint32, uinteger)

    def test_records_compare_and_hash_by_identity(self):
        # field-wise equality would compare matrices, whose truth value is
        # ambiguous, and hashing would hash an array
        M = np.array([[0.9, 0.2], [0.1, 0.7]])
        T, twin = FiniteOperator(M, 1.5, 2.5), FiniteOperator(M.copy(), 1.5, 2.5)
        cert = operator_norm(T, rng=np.random.default_rng(0))
        again = operator_norm(twin, rng=np.random.default_rng(0))
        for a, b in ((T, twin), (cert, again)):
            assert a == a and a != b and not a == b
            assert len({a, b, a}) == 2 and hash(a) == hash(a)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_rejects_an_empty_matrix(self, shape):
        # the search would report that it annihilates its start, and the
        # oracle would read 0
        with pytest.raises(ValueError, match=rf"empty, got shape \({shape[0]}, {shape[1]}\)"):
            FiniteOperator(np.zeros(shape), 1.5, 2.5)

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

    def test_certified_adjoint_norm_reaches_the_oracle(self):
        T = FiniteOperator(STUCK, 1.5, 2.5)
        rng = np.random.default_rng(10)
        operator_norm(T, rng=rng)
        cert = operator_norm(T.adjoint(), rng=rng)
        assert cert.certified
        # the oracle reads 0.9462994717222072, the search 0.9160525982
        assert cert.value >= brute_force_norm(T.adjoint(), 2000) * (1.0 - 1e-6)

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
    @pytest.mark.parametrize("M", [
        [[0.5, 0.2, 0.9], [0.3, 0.8, 0.1]],
        [[0.5, -0.2, 0.9], [-0.3, 0.8, 0.1], [0.4, 0.6, -0.7]],
    ], ids=["nonnegative", "signed"])
    def test_extremisers_do_not_depend_on_scale(self, rng, M):
        # the step runs on M scaled to a largest entry in [1/2, 1), so these
        # scales, where unscaled powers overflow or underflow, change no bit
        M = np.array(M)
        G0 = rng.uniform(0.1, 1.0, (8, 3)) * rng.choice([-1.0, 1.0], (8, 3))
        for g0 in G0:
            g, its = _fixed_point(FiniteOperator(M, 1.5, 2.5), g0)
            for scale in (2.0 ** 500, 2.0 ** -500):
                g_s, its_s = _fixed_point(FiniteOperator(M * scale, 1.5, 2.5), g0)
                assert np.array_equal(g_s, g) and its_s == its

    @pytest.mark.parametrize("M", [
        [[1.0, 0.0, 0.0], [0.0, 0.5, 0.3]],
        [[0.0, 0.7, 0.0], [0.0, 0.0, 0.0], [0.2, 0.0, 0.9]],
        [[0.5, -0.2, 0.0], [0.0, 0.8, -0.1], [0.4, 0.0, -0.7]],
        [[0.0, -0.6], [0.9, 0.0], [-0.3, 0.4]],
    ], ids=["sparse", "zero-row-and-column", "signed", "signed-tall"])
    @pytest.mark.parametrize("p,q", [(1.5, 2.5), (1.25, 3.0), (2.0, 2.0)])
    def test_rows_are_fixed_points_of_the_duality_maps(self, rng, M, p, q):
        # the step without the inner normalisation has the fixed points of
        # g -> D_{p'}(T* D_q(T g)), zeros of M and signs included
        T = FiniteOperator(np.array(M), p, q)
        ncol = T.matrix.shape[1]
        G0 = rng.uniform(0.1, 1.0, (8, ncol)) * rng.choice([-1.0, 1.0], (8, ncol))
        for g0 in G0:
            g, _ = _fixed_point(T, g0)
            image = duality_map(T.apply_adjoint(duality_map(T.apply(g), q)), T.p_prime)
            assert np.max(np.abs(image - g)) <= 1e-12

    def test_zero_operator_annihilates(self):
        T = FiniteOperator(np.zeros((2, 3)), 1.5, 2.5)
        for g0 in np.ones((4, 3)):
            with pytest.raises(ValueError, match="annihilates"):
                _fixed_point(T, g0)

    @pytest.mark.parametrize("M,p,q,what", [
        # |M g| reaches 0.99 cols^(1/p'), and |M^T |M g|^(q-1)|^p' overflows
        (np.full((2, 5), 0.99), 1.9, 1000.0, "overflows"),
        (np.full((3, 4), 0.99), 1.9, 800.0, "overflows"),
        # a signed start's |M^T |M g|^(q-1)|^p' underflows to 0 though M g != 0
        (-np.full((3, 4), 0.99), 1.9, 800.0, "underflows"),
    ])
    def test_search_names_float64_range_errors(self, M, p, q, what):
        # a step norm that is not finite, or zero for M g != 0, is not an
        # operator that annihilates the start: the search names the
        # failure and q, with no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=rf"{what} float64 at q = {q}"):
                operator_norm(FiniteOperator(M, p, q), rng=np.random.default_rng(0))

    def test_large_q_search_that_does_not_overflow(self):
        # at q = 1000 a search whose powers stay normal still certifies
        T = FiniteOperator(np.array([[0.99, 0.05], [0.05, 0.99]]), 2.0, 1000.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cert = operator_norm(T, rng=np.random.default_rng(0))
        assert cert.value <= cert.upper <= cert.value * (1.0 + duality._NORM_EXCESS)
        assert cert.value == pytest.approx(brute_force_norm(T, 2000), rel=1e-6)

    def test_iteration_cap(self, rng):
        T = random_operator(rng)
        for g0 in rng.uniform(0.1, 1.0, (4, T.matrix.shape[1])):
            with pytest.raises(ConvergenceError):
                _fixed_point(T, g0, max_iter=3)

    def test_escalating_operator(self):
        # 8 starts drawn from default_rng(798) stop at two stationary values
        # of the T search, which once escalated it to 40 starts.  The
        # operator fails the contraction test, so each side takes one start
        # and the bracket, which certifies it
        T = FiniteOperator(np.array([[0.13003169098233525, 0.9639889659405984],
                                     [0.8363372324055592, 0.07929188977520729]]),
                           1.5, 2.5)
        assert contraction_factor(T.matrix, T.p, T.q) >= 1.0
        rng = np.random.default_rng(798)
        cert = operator_norm(T, rng=rng)
        cert_adj = operator_norm(T.adjoint(), rng=rng)
        for c in (cert, cert_adj):
            assert c.certified and c.starts == 1
            assert c.value <= c.upper <= c.value * (1.0 + duality._NORM_EXCESS)
        assert cert.value == pytest.approx(0.96603549141913, rel=1e-12)
        assert cert_adj.value == pytest.approx(0.96603549141913, rel=1e-12)

    @staticmethod
    def per_row_starts(seed, count, ncol, signed):
        """The starts of operator_norm drawn one row at a time, and the
        generator left after them."""
        rng = np.random.default_rng(seed)
        rows = []
        for _ in range(count):
            rows.append(rng.uniform(0.1, 1.0, size=ncol))
            if signed:
                rows[-1] = rows[-1] * rng.choice([-1.0, 1.0], size=ncol)
        return np.array(rows), rng

    @pytest.mark.parametrize("M,p,q,seed,starts,certified", [
        ([[1.5, 1.2, 1.9], [1.3, 1.8, 1.1]], 1.5, 2.5, 3, 1, True),
        ([[0.13003169098233525, 0.9639889659405984],
          [0.8363372324055592, 0.07929188977520729]], 1.5, 2.5, 798, 1, True),
        ([[0.5, -0.2, 0.9], [-0.3, 0.8, 0.1], [0.4, 0.6, -0.7]], 1.5, 2.5, 5, 8, False),
        (np.eye(5) + 0.1 * (np.arange(25).reshape(5, 5) % 3), 1.5, 2.5, 7, 9, False),
    ], ids=["certified", "escalating", "signed", "fallback"])
    def test_draws_follow_the_per_row_stream(self, monkeypatch, M, p, q, seed, starts,
                                             certified):
        # same-seed duality-sweep reports depend on this stream.  A
        # nonnegative operator with p <= q draws one start, whether the
        # contraction test ("certified") or the bracket ("escalating", the
        # operator that once escalated to 40 starts) proves it; signed ones
        # draw `starts` with their signs, and a nonnegative one that no
        # bound certifies (5 columns on both sides, zero entries) draws them
        # without signs after its first
        T = FiniteOperator(np.array(M), p, q)
        drawn = []
        fixed_point = duality._fixed_point

        def recording(T, g0, *args):
            drawn.append(g0.copy())
            return fixed_point(T, g0, *args)

        monkeypatch.setattr(duality, "_fixed_point", recording)
        rng = np.random.default_rng(seed)
        cert = operator_norm(T, rng=rng)
        assert cert.starts == starts
        assert cert.certified == certified
        G0, expected = self.per_row_starts(seed, starts, T.matrix.shape[1],
                                           signed=not T.nonnegative)
        assert np.array_equal(np.stack(drawn), G0)
        assert rng.bit_generator.state == expected.bit_generator.state


def contraction_factor(M, p, q):
    """kappa(M)^2 (q - 1) / (p - 1) with kappa = tanh(Delta / 4) and Delta
    the largest ln(M_ik M_jl / (M_il M_jk)), over every i, j, k, l."""
    rows, cols = M.shape
    delta = max(math.log(M[i, k] * M[j, l] / (M[i, l] * M[j, k]))
                for i in range(rows) for j in range(rows)
                for k in range(cols) for l in range(cols))
    return math.tanh(delta / 4.0) ** 2 * (q - 1.0) / (p - 1.0)


class TestCertifiedNorm:
    @pytest.mark.parametrize("M,p,q", [
        # trial 13, counting from 0, of duality-sweep --p 1.01 --q 3
        # --trials 30 --seed 3: all 8 starts of the T* search stopped at
        # 0.9355405147, 4.7% below the norm, and extremiser_transfer raised
        ([[0.4517738988120612, 0.9790191915234716],
          [0.30657641069053165, 0.18322174870810548],
          [0.886971591489767, 0.08475413891924166]], 1.01, 3.0),
        # trial 10 of --p 1.05 --q 4 (T* stopped at 0.6743831413)
        ([[0.7021922783592982, 0.5810416849024087],
          [0.08126628557881777, 0.5019370405954758],
          [0.1446539880202673, 0.41348301580597624]], 1.05, 4.0),
    ], ids=["p1.01-q3", "p1.05-q4"])
    def test_near_p1_sweep_operators(self, M, p, q):
        T = FiniteOperator(np.array(M), p, q)
        rng = np.random.default_rng(3)
        cert = operator_norm(T, rng=rng)
        cert_adj = operator_norm(T.adjoint(), rng=rng)
        oracle = brute_force_norm(T, 2000)
        for c in (cert, cert_adj):
            assert c.certified
            assert c.value == pytest.approx(oracle, rel=1e-9)
        g = extremiser_transfer(T, cert_adj.extremiser, cert.value)
        assert lp_norm(T.apply(g), q) == pytest.approx(cert.value * lp_norm(g, p), rel=1e-9)

    def test_contraction_test_needs_one_start(self, monkeypatch, rng):
        # positive matrices whose factor is below 1: the one start is the
        # best of 64 and the oracle's value, and no bracket runs
        monkeypatch.setattr(duality, "_bracket", None)
        checked = 0
        while checked < 16:
            cols = 2 + checked % 2
            p = rng.uniform(1.2, 2.0)
            T = FiniteOperator(rng.uniform(1.0, 3.0, (int(rng.integers(2, 6)), cols)),
                               p, rng.uniform(p, 4.0))
            if contraction_factor(T.matrix, T.p, T.q) >= 1.0:
                continue
            checked += 1
            cert = operator_norm(T, rng=rng)
            assert cert.certified and cert.starts == 1
            assert cert.value <= cert.upper <= cert.value * (1.0 + duality._NORM_EXCESS)
            G = [_fixed_point(T, g0)[0] for g0 in rng.uniform(0.1, 1.0, (64, cols))]
            best = max(lp_norm(T.apply(g), T.q) / lp_norm(g, T.p) for g in G)
            assert cert.value == pytest.approx(best, rel=1e-12)
            # the mesh's values are lower bounds of the norm
            oracle = brute_force_norm(T, 2000 if cols == 2 else 500)
            assert oracle * (1.0 - 1e-12) <= cert.value <= cert.upper
            assert oracle <= cert.upper
            assert cert.value == pytest.approx(oracle, rel=1e-6)

    def test_failed_contraction_test_takes_the_bracket(self, monkeypatch):
        # Birkhoff's factor of this operator is 1.9: the bracket decides
        T = FiniteOperator(np.array([[0.011834550622285889, 0.476241203658356],
                                     [0.5254591076722313, 0.008992788206820479]]),
                           2.0, 3.0)
        assert contraction_factor(T.matrix, T.p, T.q) >= 1.0
        calls = []
        bracket = duality._bracket

        def recording(T, g, value):
            calls.append(value)
            return bracket(T, g, value)

        monkeypatch.setattr(duality, "_bracket", recording)
        for side in (T, T.adjoint()):
            calls.clear()
            cert = operator_norm(side, rng=np.random.default_rng(1853))
            assert calls and cert.certified
            assert cert.value <= cert.upper <= cert.value * (1.0 + duality._NORM_EXCESS)
            assert brute_force_norm(T, 2000) <= cert.upper

    def test_bracket_vertex_restarts_the_search(self):
        # STUCK: the one start of the T* search stops at the local maximum
        # 0.9160525982; a bracket vertex beats it, and the search restarted
        # from it reaches the norm, which the bracket then certifies
        T = FiniteOperator(STUCK, 1.5, 2.5)
        rng = np.random.default_rng(10)
        cert = operator_norm(T, rng=rng)
        cert_adj = operator_norm(T.adjoint(), rng=rng)
        assert cert_adj.starts == 2
        for c in (cert, cert_adj):
            assert c.certified
            assert c.value == pytest.approx(0.946300, abs=5e-7)
            assert c.value <= c.upper <= c.value * (1.0 + duality._NORM_EXCESS)

    @pytest.mark.parametrize("p,q", [(1.3, 35.5), (1.5, 40.0)])
    def test_certified_values_do_not_depend_on_scale(self, p, q):
        # at large q the powers of ||T g||_q underflow for small entries and
        # overflow for large ones, unless they are taken on M scaled by a
        # power of two, which changes no bit
        M = np.array([[0.9, 0.2], [0.3, 0.7], [0.5, 0.6]])
        base = operator_norm(FiniteOperator(M, p, q), rng=np.random.default_rng(0))
        for scale in (2.0 ** -30, 2.0 ** 400):
            cert = operator_norm(FiniteOperator(M * scale, p, q), rng=np.random.default_rng(0))
            assert cert.certified and cert.value == scale * base.value
            assert cert.value <= cert.upper <= cert.value * (1.0 + duality._NORM_EXCESS)

    def test_random_sweep_operators_match_the_oracle(self, rng):
        # entries in [0, 1] as duality-sweep draws them, p near 1 included,
        # where most fail the contraction test.  The mesh's values are lower
        # bounds of the norm, and near p = 1 a maximiser can sit closer to
        # a face than the angular mesh resolves
        for _ in range(24):
            p, q = rng.uniform(1.01, 2.0), rng.uniform(2.0, 5.0)
            T = FiniteOperator(rng.uniform(0.0, 1.0, (int(rng.integers(2, 6)), 2)), p, q)
            oracle = brute_force_norm(T, 2000)
            for side in (T, T.adjoint()):
                cert = operator_norm(side, rng=rng)
                assert cert.certified
                assert oracle * (1.0 - 1e-12) <= cert.value
                assert oracle <= cert.upper <= cert.value * (1.0 + duality._NORM_EXCESS)
                assert cert.value == pytest.approx(oracle, rel=1e-6)

    def test_contraction_test_decides_the_path(self, monkeypatch, rng):
        # the bracket runs exactly when Birkhoff's factor is 1 or more
        calls = []
        bracket = duality._bracket

        def recording(T, g, value):
            calls.append(value)
            return bracket(T, g, value)

        monkeypatch.setattr(duality, "_bracket", recording)
        seen = set()
        for _ in range(60):
            p = rng.uniform(1.1, 2.0)
            T = FiniteOperator(rng.uniform(0.3, 3.0, (int(rng.integers(2, 5)), 2)),
                               p, rng.uniform(p, 4.0))
            factor = contraction_factor(T.matrix, T.p, T.q)
            if abs(factor - 1.0) < 1e-6:
                continue
            calls.clear()
            assert operator_norm(T, rng=rng).certified
            assert bool(calls) == (factor >= 1.0)
            seen.add(factor >= 1.0)
        assert seen == {False, True}

    def test_contraction_bound_from_any_positive_vector(self, rng):
        # the bound value exp(d_H(g, S g) / (1 - c)) holds for every
        # positive g, a fixed point or not (here one perturbed by up to
        # 0.1 %), and is above the oracle's value
        checked = 0
        while checked < 8:
            p = rng.uniform(1.3, 2.0)
            T = FiniteOperator(rng.uniform(1.0, 3.0, (int(rng.integers(2, 6)), 2)),
                               p, rng.uniform(p, 1.0 + 2.0 * (p - 1.0)))
            c = contraction_factor(T.matrix, T.p, T.q)
            if c >= 0.9:
                continue
            checked += 1
            g = operator_norm(T, rng=rng).extremiser * rng.uniform(0.999, 1.001, 2)
            Sg = duality_map(T.apply_adjoint(duality_map(T.apply(g), T.q)), T.p_prime)
            value = lp_norm(T.apply(g), T.q) / lp_norm(g, T.p)
            expect = value * math.exp(math.log(max(Sg / g) / min(Sg / g)) / (1.0 - c))
            upper = duality._contraction_upper(T, g, value)
            assert expect <= upper <= expect * (1.0 + 1e-9)
            assert brute_force_norm(T, 2000) <= upper

    @pytest.mark.parametrize("x", [[0.3, 0.7], [1.0, 0.0], [0.2, 0.5, 0.3],
                                   [0.0, 0.4, 0.6], [0.1, 0.2, 0.3, 0.4],
                                   [0.0, 0.0, 1.0, 0.0]])
    def test_cells_tile_the_simplex(self, rng, x):
        # the cones of the cells cover the orthant, and their volumes, |det|
        # of the vertex matrices, sum to that of the identity: they tile it,
        # and so do the halves after each round of splitting
        x = np.array(x)
        d = len(x)
        A = rng.uniform(0.1, 1.0, (3, d))
        points = rng.dirichlet(np.ones(d), 400)
        cells = duality._graded_cells(A, 1.5, 2.5, x)
        for _ in range(3):
            V = cells[:, :d].transpose(2, 1, 0)   # (cell, coordinate, vertex)
            dets = np.abs(np.linalg.det(V))
            assert np.all(dets > 0.0)
            assert math.fsum(dets) == pytest.approx(1.0, rel=1e-12)
            weights = np.linalg.solve(V[:, None], points[None, :, :, None])[..., 0]
            inside = np.all(weights >= -1e-9, axis=2)   # (cell, point)
            assert np.all(inside.any(axis=0))
            cells, exact = duality._split(A, 1.5, 2.5, cells)
            assert exact

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

    @pytest.mark.parametrize("entries", [(-1.0, 1.0), (0.0, 1.0), (1.0, 3.0)])
    def test_bit_identical_to_dense_formula(self, rng, entries):
        # the screen only picks the mesh lines; every value returned comes
        # from the dense formula on whole lines, so equality is exact
        for mesh in (37, 180, 300):
            for rows in range(2, 6):
                for _ in range(2):
                    T = FiniteOperator(rng.uniform(*entries, (rows, 3)),
                                       rng.uniform(1.1, 2.0), rng.uniform(1.1, 4.0))
                    assert brute_force_norm(T, mesh) == self.meshgrid_reference(T, mesh)

    @pytest.mark.parametrize("scale", [2.0 ** -120, 1.0, 2.0 ** 120])
    @pytest.mark.parametrize("entries", [(-1.0, 1.0), (0.0, 1.0)])
    def test_bit_identical_at_extreme_scales(self, rng, scale, entries):
        # entries near 2^-120, 1 and 2^120, with rows that mix 1e-20 and 1,
        # a zero row and q up to 8: no overflow (a RuntimeWarning fails the
        # suite), and no underflow that hides the dense maximum's line
        for mesh in (37, 180):
            for rows in range(2, 6):
                M = rng.uniform(*entries, (rows, 3))
                M[rng.random(M.shape) < 0.4] *= 1e-20
                if rows > 2:
                    M[rng.integers(rows)] = 0.0
                T = FiniteOperator(scale * M, rng.uniform(1.1, 2.0),
                                   rng.uniform(1.1, 8.0))
                assert brute_force_norm(T, mesh) == self.meshgrid_reference(T, mesh)

    @pytest.mark.parametrize("M,p,q", [(np.zeros((3, 3)), 1.5, 2.5),
                                       (np.eye(3), 2.0, 2.0)], ids=["zero", "flat"])
    def test_flat_maximum_reevaluates_every_line(self, monkeypatch, M, p, q):
        # every point of the mesh has the same value, so no line may be
        # screened out
        evaluated = []
        mesh_values = duality._mesh_values

        def counting(pts, T):
            evaluated.append(len(pts))
            return mesh_values(pts, T)

        monkeypatch.setattr(duality, "_mesh_values", counting)
        T = FiniteOperator(M, p, q)
        for mesh in (37, 180):
            evaluated.clear()
            assert brute_force_norm(T, mesh) == self.meshgrid_reference(T, mesh)
            assert sum(evaluated) == mesh * mesh + mesh

    @staticmethod
    def whole_mesh_screen(T, c, s):
        """_screen_lines over the whole mesh at once, in float32, with |y_k|
        taken for every sign of M."""
        p, q = T.p, T.q
        c, s = c.astype(np.float32), s.astype(np.float32)
        acc = np.zeros((len(c), len(c)), np.float32)
        buf = np.empty_like(acc)
        for m0, m1, m2 in T.matrix.astype(np.float32):
            np.multiply.outer(m0 * c + m1 * s, c, out=buf)
            buf += m2 * s
            np.abs(buf, out=buf)
            buf **= q
            acc += buf
        cp, sp = c ** p, s ** p
        np.multiply.outer(cp + sp, cp, out=buf)
        buf += sp
        buf **= -q / p
        acc *= buf
        return acc[:, :-1].max(axis=1, initial=0.0).astype(float)

    @pytest.mark.parametrize("entries", [(-1.0, 1.0), (0.0, 1.0), (1.0, 3.0)])
    @pytest.mark.parametrize("mesh", [2, 3, 31, 32, 33, 37, 180, 500])
    def test_screen_blocks_bit_identical_to_whole_mesh(self, rng, entries, mesh):
        # every line maximum, and so the set of lines re-evaluated, is the
        # whole-mesh screen's to the bit, below, at and off a block's size
        t = np.linspace(0.0, 0.5 * math.pi, mesh)
        c, s = np.cos(t), np.sin(t)
        ops = [FiniteOperator(rng.uniform(*entries, (rows, 3)),
                              rng.uniform(1.1, 2.0), rng.uniform(1.1, 4.0))
               for rows in (1, 3, 5)]
        # -0.0 counts as nonnegative; a row of it makes y_k = -0.0, a cube -0.0
        ops.append(FiniteOperator(np.array([[-0.0, -0.0, -0.0], [0.5, -0.0, 0.9]]),
                                  1.5, 3.0))
        for T in ops:
            got = duality._screen_lines(T, c, s)
            want = self.whole_mesh_screen(T, c, s)
            assert got.tobytes() == want.tobytes()

    def test_zero_matrix(self):
        T = FiniteOperator(np.zeros((3, 3)), 1.5, 2.5)
        assert brute_force_norm(T, 37) == 0.0

    @pytest.mark.parametrize("M", [
        [[0.2, 0.2, 0.9], [0.4, 0.4, 0.1]],
        [[0.3, 0.3, 1.0], [0.3, 0.3, 1.0]],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    ])
    def test_tied_maxima(self, M):
        # the maximum sits at (0, 0, 1), which every line of the mesh
        # reaches at its last point (for the first two at (1.2, 4) only).
        # That point is in the pole column, which is evaluated on its own,
        # so the screen need not pass every line: here only the identity at
        # p = q = 2, whose mesh values all tie, re-evaluates them all
        for p, q in [(1.5, 2.5), (2.0, 2.0), (1.2, 4.0)]:
            T = FiniteOperator(np.array(M), p, q)
            for mesh in (37, 180):
                assert brute_force_norm(T, mesh) == self.meshgrid_reference(T, mesh)


    def test_pole_maximum_reevaluates_few_points(self, monkeypatch):
        # the identity's maximum sits at (0, 0, 1), the end of every line;
        # the pole column is evaluated apart, so the screen passes few lines
        evaluated = []
        mesh_values = duality._mesh_values

        def counting(pts, T):
            evaluated.append(len(pts))
            return mesh_values(pts, T)

        monkeypatch.setattr(duality, "_mesh_values", counting)
        mesh = 300
        T = FiniteOperator(np.eye(3), 1.5, 2.5)
        assert brute_force_norm(T, mesh) == self.meshgrid_reference(T, mesh)
        assert sum(evaluated) < mesh ** 2 / 2

    def test_nonnegative_operators_reevaluate_few_lines(self, monkeypatch, rng):
        # operators as the duality-lab benchmark draws them: with no
        # sum_k m_k^q term in a nonnegative M's slack, few lines pass
        evaluated = []
        mesh_values = duality._mesh_values

        def counting(pts, T):
            evaluated.append(len(pts))
            return mesh_values(pts, T)

        monkeypatch.setattr(duality, "_mesh_values", counting)
        mesh = 500
        for i in range(40):
            p, q = [(1.5, 2.5), (2.0, 2.0), (1.5, 2.0), (2.0, 3.0)][i % 4]
            T = FiniteOperator(rng.uniform(1.0, 3.0, (int(rng.integers(2, 6)), 3)), p, q)
            evaluated.clear()
            brute_force_norm(T, mesh)
            assert evaluated[-1] == mesh   # the pole column
            assert sum(evaluated[:-1]) <= 16 * mesh

    @pytest.mark.parametrize("q", [170.0, 300.0])
    def test_screen_overflow_keeps_the_result(self, rng, q):
        # past q = 160 or so |y_k|^q can overflow float32 in the screen; that
        # is silent, and a non-finite screen re-evaluates every line
        ops = [np.full((3, 3), 0.99), rng.uniform(0.0, 1.0, (3, 3)),
               rng.uniform(1.0, 3.0, (4, 3)), rng.uniform(-1.0, 1.0, (2, 3))]
        for M in ops:
            T = FiniteOperator(M, 1.5, q)
            for mesh in (37, 180):
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    got = brute_force_norm(T, mesh)
                assert got == self.meshgrid_reference(T, mesh)


class TestPrescreen:
    """brute_force_norm's float32 screen against the dense formula, and the
    float32 powers its slack assumes."""

    def test_float32_powers(self, rng):
        # the bound the slack assumes for a float32 power x^e: 4 ulps plus
        # u32 |e ln x| x^e, as numpy's vectorised powf loses accuracy in
        # proportion to |e ln x|.  The screen's three powers, with e rounded
        # to float32 as a Python float exponent is: |y|^q, c^p, and
        # ||x||_p^p ** (-q/p) on [1, 3^(1/2)]
        def log_uniform(lo, hi):
            x = np.exp(rng.uniform(math.log(lo), math.log(hi), 4096))
            return x.astype(np.float32)

        y, c = log_uniform(1e-30, 3.0), log_uniform(1e-17, 1.0)
        norm = log_uniform(1.0, 1.75)
        for _ in range(50):
            p, q = rng.uniform(1.01, 2.0), rng.uniform(1.01, 8.0)
            for x, e in [(y, q), (y, 2.0), (c, p), (norm, -q / p)]:
                e = float(np.float32(e))
                exact = x.astype(float) ** e
                normal = exact >= np.finfo(np.float32).tiny
                err = np.abs((x ** e).astype(float) - exact)[normal]
                bound = (4.0 * np.spacing(exact[normal].astype(np.float32))
                         + 2.0 ** -24 * np.abs(e * np.log(x[normal])) * exact[normal])
                assert np.all(err <= bound)

    def test_float32_slack(self, rng):
        for trial in range(160):
            rows = int(rng.integers(1, 6))
            M = rng.uniform(-1.0 if trial % 2 else 0.0, 1.0, (rows, 3))
            if trial % 4 > 1:
                M *= rng.uniform(0.5, 3.0)
            T = FiniteOperator(M, rng.uniform(1.01, 2.0), rng.uniform(1.01, 8.0))
            mesh = int(rng.integers(2, 501))
            t = np.linspace(0.0, 0.5 * math.pi, mesh)
            c, s = np.cos(t), np.sin(t)
            e = np.frexp(np.max(np.abs(M)))[1]
            scaled = FiniteOperator(np.ldexp(M, -e), T.p, T.q)
            s32 = duality._screen_lines(scaled, c, s)
            # the dense formula's q-th powers of 2^-e M, line by line off
            # the pole column
            pts = np.stack([np.outer(c, c).ravel(), np.outer(s, c).ravel(),
                            np.tile(s, mesh)], axis=1)
            dense = duality._mesh_values(pts, T).reshape(mesh, mesh)[:, :-1]
            dense_q = np.max(np.ldexp(dense, -e) ** T.q, axis=1, initial=0.0)
            # each float32 line maximum within half the slack of the dense
            # one: the error bound the slack doubles
            w = 0.0 if T.nonnegative else np.sum(np.sum(np.abs(scaled.matrix), axis=1) ** T.q)
            half = 0.5 * (duality._SCREEN_SLACK * (T.q + T.q / T.p + rows + 1)
                          * (s32.max() + w) + (rows + 1) * 2.0 ** -23)
            assert np.all(np.abs(s32 - dense_q) <= half)
            # the candidates hold the line of the dense maximum
            assert np.argmax(np.max(dense, axis=1, initial=0.0)) in duality._candidate_lines(T, c, s)


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


def _bisection_minimiser(u, b, p, lo, hi):
    """Oracle for _ray_minimiser: bisect phi(c) = -<b, |u - cb|^{p-1} sign(u - cb)>,
    which increases with c, on [lo, hi] until the bracket's ends are
    adjacent floats; (c, distance) at the end with the smaller distance."""
    def phi(c):
        r = u - c * b
        return -np.sum(b * np.abs(r) ** (p - 1.0) * np.sign(r))

    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if phi(mid) < 0.0 else (lo, mid)
    return min((lp_norm(u - c * b, p), c) for c in (lo, hi))[::-1]


def _bisection_distance(u, b, p):
    """Oracle for ray_distance: the bisection oracle on [0, 10 ||u||_p / ||b||_p]."""
    return _bisection_minimiser(u, b, p, 0.0, 10.0 * lp_norm(u, p) / lp_norm(b, p))[1]


class TestRayDistance:
    @staticmethod
    def probe_like(rng, p, eps):
        """(f* + eps d) / ||f* + eps d||_p and f* on a 97 x 97 grid, with
        f* = 1/(1 + x^2 + v^2) and d a random bump with no component along
        the duality map of f*, as the kinetic probe builds them."""
        x = np.linspace(-20.0, 20.0, 97)
        X, V = np.meshgrid(x, x, indexing="ij")
        b = 1.0 / (1.0 + X ** 2 + V ** 2)
        c0, c1, w0, w1 = rng.uniform(-2.0, 2.0, 2).tolist() + rng.uniform(1.0, 2.5, 2).tolist()
        d = np.exp(-((X - c0) / w0) ** 2 - ((V - c1) / w1) ** 2)
        dual = b ** (p - 1.0)
        d -= np.sum(d * dual) / np.sum(b * dual) * b
        f = b + eps * d / lp_norm(d, p)
        return f / lp_norm(f, p), b

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_against_bisection_and_bounded_search(self, rng, p):
        from scipy.optimize import minimize_scalar

        for _ in range(4):
            for eps in (0.05, 0.1, 0.2):
                u, b = self.probe_like(rng, p, eps)
                got = ray_distance(u, b, p)
                assert got <= _bisection_distance(u, b, p) * (1.0 + 1e-13)
                bounded = minimize_scalar(
                    lambda c: lp_norm(u - c * b, p), method="bounded",
                    bounds=(0.0, 10.0 * lp_norm(u, p) / lp_norm(b, p)),
                    options={"xatol": 1e-12})
                assert got <= bounded.fun * (1.0 + 1e-13)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_optimum_at_zero(self, rng, p):
        # u anti-aligned with b: phi(0) > 0, and c = 0 is the minimiser
        _, b = self.probe_like(rng, p, 0.1)
        assert ray_distance(-b, b, p) == lp_norm(b, p)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_zero_ray(self, rng, p):
        u, b = self.probe_like(rng, p, 0.1)
        assert ray_distance(u, np.zeros_like(b), p) == lp_norm(u, p)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_on_the_ray(self, rng, p):
        # the start ||u||_p / ||b||_p is the minimiser; phi' is singular there
        # for p < 2 and the distance is |c - c*| ||b||_p nearby
        _, b = self.probe_like(rng, p, 0.1)
        assert ray_distance(b / lp_norm(b, p), b, p) <= 1e-14

    def test_root_at_upper_end(self):
        # ||b||_p underflows to 0, so the 1e-300 guard caps the bracket at
        # hi = 10 ||u||_p 1e300, below the minimiser c = 1e305 ||u||_p
        p = 1.5
        u, b = np.full(4, 4.0 ** (-1.0 / p)), np.full(4, 1e-305)
        hi = 10.0 * lp_norm(u, p) / 1e-300
        assert lp_norm(b, p) == 0.0
        assert ray_distance(u, b, p) == lp_norm(u - hi * b, p)
        assert ray_distance(u, b, p) == pytest.approx(1.0 - 1e-4 * 4.0 ** (1.0 / p),
                                                      rel=1e-12)

    @pytest.mark.parametrize("p", [4.0 / 3.0, 1.5, 3.0])
    def test_minimiser_on_a_bracket_with_negative_c(self, rng, p):
        # the kinetic probe's use: u = d and b = f*, with the minimiser k* < 0
        # inside |k| <= 2 ||d||_p / ||b||_p
        for _ in range(4):
            u, b = self.probe_like(rng, p, 1.0)
            d = u - b / lp_norm(b, p) - 0.3 * b  # the ray part of u, and more, removed
            reach = 2.0 * lp_norm(d, p) / lp_norm(b, p)
            c, dist = _ray_minimiser(d, b, p, -reach, reach, 0.0)
            c_oracle, dist_oracle = _bisection_minimiser(d, b, p, -reach, reach)
            assert c < 0.0 and c_oracle < 0.0
            assert abs(c - c_oracle) <= 64.0 * np.finfo(float).eps * reach
            assert dist == lp_norm(d - c * b, p)
            assert dist <= dist_oracle * (1.0 + 1e-13)


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
