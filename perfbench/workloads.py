"""The four workloads.  Each follows one CLI command, calling the library
through module attributes (so the tracer can wrap them) in the same order
as the command does.

A workload has `setup()` (the fixed objects, timed as setup_s),
`prepare()` (reference values for the checks, untimed), `round()` (one
fixed batch of operations drawn from the seeded generator; a run repeats
rounds for --seconds) and `final_checks()`.  Every operation goes through
`meter.op`, which times it; checks run between operations, outside the
timed calls.
"""

from __future__ import annotations

import math

import numpy as np
from tracestab import duality, harmonic, spectrum, transport

import reference as ref

MODULES = {"spectrum": spectrum, "harmonic": harmonic, "transport": transport,
           "duality": duality}


# ---------------------------------------------------------------------------
# sphere-sweep: verify-trace over three weights on S^2


N_SPHERE = 3
K = 14
TRIALS_PER_WEIGHT = 4          # per round
EXTREMISING_KS = [1, 2, 3]
MAX_PROFILE_K = 6              # random_profile_set's default max_k
# (1+r^2)^{-2} tabulated at 60 log-spaced radii on [1e-2, 400], tail r^{-4}
TABLE_R = np.logspace(-2.0, math.log10(400.0), 60)


def _w_s2(r):
    return (1.0 + np.asarray(r, float) ** 2) ** -2.0


class SphereSweep:
    name = "sphere-sweep"
    primary = "sphere.trial"

    def setup(self):
        self.weights = {
            "homogeneous": spectrum.WeightSpec.homogeneous(N_SPHERE, 1.0),
            "inhomogeneous": spectrum.WeightSpec.inhomogeneous(N_SPHERE, 2.0),
            "custom": spectrum.WeightSpec.custom(N_SPHERE, TABLE_R, _w_s2(TABLE_R),
                                                 tail_exponent=4.0),
        }
        self.spectra = {k: spectrum.build_spectrum(w, K) for k, w in self.weights.items()}
        self.grid = harmonic.RadialGrid.build()

    def prepare(self):
        """Kernels and grid eigenvalues from this file's own weight formulas."""
        r = self.grid.r
        w_r = {"homogeneous": r ** -2.0, "inhomogeneous": _w_s2(r),
               "custom": ref.table_weight(TABLE_R, _w_s2(TABLE_R), 4.0)(r)}
        self.ref = {}
        for label, w in w_r.items():
            kernels = ref.grid_kernels(r, w, N_SPHERE, MAX_PROFILE_K)
            lam = kernels ** 2 @ self.grid.wq
            self.ref[label] = (kernels, lam, lam[0] - np.max(lam[1:]))

    def _trial(self, w, spec, rng):
        ps = harmonic.random_profile_set(w, self.grid, rng)
        return ps, harmonic.deficit_report(ps, w, spec), harmonic.reverse_deficit_check(ps, w)

    def _equality(self, w, spec):
        eq = harmonic.equality_case_builder(w, spec, 1.0, {1: 0.7}, self.grid)
        return harmonic.deficit_report(eq, w, spec)

    def round(self, meter, rng, checks):
        wq = self.grid.wq
        for label, w in self.weights.items():
            spec = self.spectra[label]
            kernels, lam, c_prime = self.ref[label]
            for _ in range(TRIALS_PER_WEIGHT):
                out = meter.op("sphere.trial", self._trial, w, spec, rng)
                if out is not None:
                    ps, rep, (holds, margin) = out
                    ref.check_trial(checks, f"sphere.{label}",
                                    ref.trial_sums(ps.entries, wq, kernels), lam[0], c_prime,
                                    rep.deficit, rep.dist_sq, rep.satisfied, holds, margin)
            rep = meter.op("sphere.equality", self._equality, w, spec)
            if rep is not None:
                ref.check_ratio(checks, f"sphere.{label}.equality_case", rep.ratio,
                                c_prime, lam[0])
            ratios = meter.op("sphere.extremising", harmonic.extremising_sequence,
                              w, spec, EXTREMISING_KS, self.grid)
            if ratios is not None:
                for k, r in zip(EXTREMISING_KS, ratios):
                    ref.check_ratio(checks, f"sphere.{label}.extremising", r,
                                    lam[0] - lam[k], lam[0])

    def final_checks(self, checks, seed):
        ref.check_radial_grid(checks, self.grid.r, self.grid.wq, self.grid.r_max)
        hom = self.spectra["homogeneous"]
        exact = [ref.homogeneous_lambda(N_SPHERE, 1.0, k) for k in range(K + 2)]
        ref.check_spectrum(checks, "sphere.homogeneous", hom.values, exact[:-1], 1e-13,
                           hom.lambda_star, hom.K_set, hom.certificate.tail_bound, exact[-1])
        ref.check_unit_constants(checks, hom.lambda0, spectrum.stability_constant(hom))
        exact = [ref.inhomogeneous_s2_lambda(N_SPHERE, k) for k in range(K + 2)]
        for label, tol in (("inhomogeneous", 0.0),
                           ("custom", ref.table_error_bound(TABLE_R, _w_s2(TABLE_R), 4.0,
                                                            _w_s2))):
            spec = self.spectra[label]
            # 1e-8 is the error budget build_spectrum is asked to meet
            ref.check_spectrum(checks, f"sphere.{label}", spec.values, exact[:-1],
                               tol + spec.tol, spec.lambda_star, spec.K_set,
                               spec.certificate.tail_bound, exact[-1])


# ---------------------------------------------------------------------------
# kinetic-primal / kinetic-dual: transport-probe on one L = 40 grid


L = 40.0
POINTS = 192                   # 193 grid points per axis
EPS = [0.05, 0.1, 0.2]
DRAWS_PER_ROUND = 1
PAIRING_PAIRS = 3
# Probe bumps are at least 1.5 wide, 3.6 grid spacings.  The CLI draws widths
# from 1, and on this grid some bumps narrower than 1.5 give deficits that
# are not quadratic or are negative, which vanish on finer grids (CHANGES.md).
WIDTHS = (1.5, 2.5)


class Kinetic:
    primary = "kinetic.probe"

    def __init__(self, side: str):
        self.side = side
        self.name = f"kinetic-{side}"

    def setup(self):
        self.grid = transport.PhaseGrid.build(1, L, POINTS)
        self.rhat = transport.ratio_estimate(1, self.grid, self.side)

    def prepare(self):
        g = self.grid
        self.p, self.q, _ = transport.exponents(1)
        self.e_in = self.p if self.side == "primal" else self.q / (self.q - 1.0)
        self.Tm, self.Xm = np.meshgrid(g.t, g.x, indexing="ij")
        Xg, Vg = np.meshgrid(g.x, g.v, indexing="ij")
        self.base_mesh = (self.Tm, self.Xm) if self.side == "dual" else (Xg, Vg)

    def _draw(self, rng):
        f = transport.random_phase_function(self.grid, rng)
        rho = transport.velocity_average(f, self.grid)
        return f, rho, transport.grid_norm(rho, self.q) / transport.grid_norm(f, self.p)

    def _probe(self, raw):
        d = transport.make_probe_direction(raw, 1, self.grid, self.side)
        return d, transport.local_stability_probe(1, d, EPS, self.grid, side=self.side,
                                                  rhat=self.rhat)

    def round(self, meter, rng, checks):
        h = self.grid.h
        for _ in range(DRAWS_PER_ROUND):
            out = meter.op("kinetic.draw", self._draw, rng)
            if out is not None:
                f, rho, ratio = out
                ref.check_draw(checks, f.samples, rho.samples, h, self.p, self.q, ratio,
                               self.rhat)
        A, B = self.base_mesh
        raw = np.exp(-((A - rng.uniform(-2, 2)) / rng.uniform(*WIDTHS)) ** 2
                     - ((B - rng.uniform(-2, 2)) / rng.uniform(*WIDTHS)) ** 2)
        out = meter.op("kinetic.probe", self._probe, raw)
        if out is not None:
            d, pts = out
            ref.check_probe(checks, d.samples, h, self.e_in, EPS, [pt.deficit for pt in pts],
                            [pt.dist_sq for pt in pts], [pt.ratio for pt in pts])

    def final_checks(self, checks, seed):
        g = self.grid
        ref.check_rhat(checks, self.rhat, L, g.h)
        gauss = transport.PhaseGrid(1, L, 2.0 * L / POINTS, 2.0)
        f = transport.TransportFunction.from_callable(
            gauss, "phase", lambda x, v: np.exp(-x ** 2 - v ** 2))
        T, X = np.meshgrid(gauss.t, gauss.x, indexing="ij")
        ref.check_gaussian(checks, transport.velocity_average(f, gauss).samples,
                           ref.gaussian_velocity_average(T, X))
        rng = np.random.default_rng([seed, 1])
        for _ in range(PAIRING_PAIRS):
            ff = transport.random_phase_function(g, rng)
            Gs = np.exp(-((self.Tm - rng.uniform(-2, 2)) / rng.uniform(1, 3)) ** 2
                        - ((self.Xm - rng.uniform(-2, 2)) / rng.uniform(1, 3)) ** 2)
            GG = transport.TransportFunction(g, "spacetime", Gs)
            ref.check_pairing(checks, transport.velocity_average(ff, g).samples, Gs,
                              ff.samples, transport.xray_adjoint(GG, g).samples, g.h)


# ---------------------------------------------------------------------------
# duality-lab: duality-sweep over several (p, q) pairs


PAIRS = ((1.5, 2.5), (2.0, 2.0), (1.5, 2.0), (2.0, 3.0))
OPS_PER_PAIR = 3               # per round, with 2, 3 and 4 columns
HOLDER_PAIRS = 16              # per round
BRUTE_MESH = 500
# Operator entries lie in [1, 3].  Then Birkhoff's contraction ratio of M and
# M^T is at most tanh(ln(3)/2) = 1/2, so the fixed-point map
# g -> J_{p'}(M^T J_q(M g)) contracts Hilbert's projective metric by at most
# (q-1)/(p-1) / 4 <= 3/4 for every pair above: its positive fixed point is
# unique and is the extremiser, so the multistart search cannot stop at a
# local maximum.  With entries in [0, 1], as the CLI draws them, it does so
# for some seeds, and extremiser_transfer raises (CHANGES.md).
ENTRIES = (1.0, 3.0)
# Three fixed operators with entries in [0, 1], as the CLI draws them, run in
# every round with their starts drawn from a fixed generator, so their
# outcome does not depend on the seed.  On each, the first 8 starts of at
# least one search (T or T*) stop at two different stationary values, so the
# search escalates to 40 starts and certifies the larger; the entries near 0
# make the fixed-point iteration slow (about 600-1400 iterations for each
# search that escalates, against about 80 for a seeded operator).
# Each has 2 rows and 2 columns, so both norms are checked against the dense
# angular search.  (M, p, q, start seed):
ESCALATING = (
    # (1.5, 2.5): the T search escalates, the T* search does not
    (np.array([[0.13003169098233525, 0.9639889659405984],
               [0.8363372324055592, 0.07929188977520729]]), 1.5, 2.5, 798),
    # (1.5, 2): the T* search escalates
    (np.array([[0.7189784006177873, 0.0423279026148663],
               [0.07382175234343491, 0.6515469583753363]]), 1.5, 2.0, 1273),
    # (2, 3): both searches escalate
    (np.array([[0.011834550622285889, 0.476241203658356],
               [0.5254591076722313, 0.008992788206820479]]), 2.0, 3.0, 1853),
)
# An operator on which the search certifies a wrong norm (CHANGES.md): all 8
# starts of the T* search, drawn from default_rng(10), stop at a local maximum
# 3.2% below the norm, so it does not escalate and extremiser_transfer raises.
# It runs once after the timed rounds, untimed and outside `attempted`, and
# its outcome is reported as a note: whether it fails depends on the exact
# random stream the search draws, so it is no measure of a fix.
STUCK = (np.array([[0.9431453228057903, 0.18016846261219888, 0.09169682519562405,
                    0.026179649286026008],
                   [0.008980974556175303, 0.34755391132841595, 0.500794195885301,
                    0.18769016529023586],
                   [0.046303106749281286, 0.4694608019567894, 0.6901044159335149,
                    0.4244528509843073]]), 1.5, 2.5, 10)


class DualityLab:
    name = "duality-lab"
    primary = "duality.op"

    def setup(self):
        self.rounds = 0

    def prepare(self):
        pass

    @staticmethod
    def _op(T, rng):
        cert = duality.operator_norm(T, rng=rng)
        cert_adj = duality.operator_norm(T.adjoint(), rng=rng)
        return cert, cert_adj, duality.extremiser_transfer(T, cert_adj.extremiser, cert.value)

    @staticmethod
    def _brute(T, rng):
        return duality.operator_norm(T, rng=rng).value, duality.brute_force_norm(T, BRUTE_MESH)

    @staticmethod
    def _holder(pairs):
        return [(duality.cfl3_gap(g1, g2, r3), duality.cfl1_gap(h1, h2, r1))
                for g1, g2, r3, h1, h2, r1 in pairs]

    def _check_op(self, checks, M, p, q, cert, cert_adj, g):
        ref.check_transfer(checks, M, g, p, q, cert.value)
        ref.check_norm(checks, "duality.adjoint_norm", cert_adj.value, cert.value, 1e-9)
        if p == q == 2.0:
            sigma = float(np.linalg.svd(M, compute_uv=False)[0])
            ref.check_norm(checks, "duality.l2_singular_value", cert.value, sigma, 1e-12)
            ref.check_norm(checks, "duality.l2_singular_value", cert_adj.value, sigma, 1e-12)
        if M.shape[1] == 2:
            ref.check_norm(checks, "duality.two_column", cert.value,
                           ref.two_column_norm(M, p, q), 1e-8)
        if M.shape[0] == 2:
            ref.check_norm(checks, "duality.two_column", cert_adj.value,
                           ref.two_column_norm(M.T, q / (q - 1.0), p / (p - 1.0)), 1e-8)

    def round(self, meter, rng, checks):
        for p, q in PAIRS:
            for i in range(OPS_PER_PAIR):
                M = rng.uniform(*ENTRIES, size=(int(rng.integers(2, 6)), 2 + i))
                out = meter.op("duality.op", self._op, duality.FiniteOperator(M, p, q), rng)
                if out is not None:
                    self._check_op(checks, M, p, q, *out)
        p, q = PAIRS[self.rounds % len(PAIRS)]
        self.rounds += 1
        M = rng.uniform(*ENTRIES, size=(int(rng.integers(2, 6)), 3))
        out = meter.op("duality.brute_force", self._brute, duality.FiniteOperator(M, p, q), rng)
        if out is not None:
            ref.check_brute_force(checks, *out)
        for M, p, q, start_seed in ESCALATING:
            out = meter.op("duality.op", self._op, duality.FiniteOperator(M, p, q),
                           np.random.default_rng(start_seed))
            if out is not None:
                self._check_op(checks, M, p, q, *out)
        pairs = []
        for _ in range(HOLDER_PAIRS):
            r3 = float(rng.uniform(1.1, 4.0))
            sz = int(rng.integers(2, 8))
            g1, g2 = rng.normal(size=sz), rng.normal(size=sz)
            r1 = float(rng.uniform(2.0, 5.0))
            h1 = rng.normal(size=sz)
            h2 = rng.normal(size=sz)
            pairs.append((g1, g2, r3, h1 / ref.lp(h1, r1), h2 / ref.lp(h2, r1 / (r1 - 1.0)), r1))
        out = meter.op("duality.holder", self._holder, pairs)
        if out is not None:
            for (g1, g2, r3, h1, h2, r1), ((lhs, rhs), (pairing, bound)) in zip(pairs, out):
                ref.check_cfl3(checks, g1, g2, r3, lhs, rhs)
                ref.check_cfl1(checks, h1, h2, pairing, bound)

    def final_checks(self, checks, seed):
        M, p, q, start_seed = STUCK
        try:
            cert, cert_adj, _ = self._op(duality.FiniteOperator(M, p, q),
                                         np.random.default_rng(start_seed))
            checks.note(f"duality.stuck: no error; norm of T {cert.value!r}, "
                        f"of T* {cert_adj.value!r}")
        except (ValueError, RuntimeError) as exc:
            checks.note(f"duality.stuck: {type(exc).__name__}: {exc}")


WORKLOADS = {
    "sphere-sweep": SphereSweep,
    "kinetic-primal": lambda: Kinetic("primal"),
    "kinetic-dual": lambda: Kinetic("dual"),
    "duality-lab": DualityLab,
}
