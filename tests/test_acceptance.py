"""End-to-end acceptance gate.

Each test covers one headline guarantee of the package and prints a
single pass/fail line (through captured-output suppression, so the lines
appear in any pytest run)."""

import math
import time

import numpy as np

from tracestab import duality, spectrum as spec_mod, transport
from tracestab.harmonic import (
    GridSpectrum,
    RadialGrid,
    deficit_report,
    equality_case_builder,
    extremising_sequence,
    random_profile_set,
)
from tracestab.spectrum import WeightSpec, build_spectrum


def report(capsys, name: str, ok: bool, elapsed: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" {detail}" if detail else ""
    with capsys.disabled():
        print(f"ACCEPTANCE {name}: {status} ({elapsed:.1f}s){extra}")
    assert ok, f"{name} failed: {detail}"


def test_01_sharp_constant_homogeneous(capsys):
    t0 = time.perf_counter()
    w = WeightSpec.homogeneous(3, 1.0)
    spec = build_spectrum(w, K=14)
    c_sq = spec.lambda0
    c_prime = spec_mod.stability_constant(spec)
    quad1, _ = spec_mod.lambda_quadrature(w, 1)
    ok = (
        abs(c_sq - 1.0) < 1e-12
        and abs(c_prime - 2.0 / 3.0) < 1e-12
        and abs(quad1 - spec.values[1]) / spec.values[1] < 1e-6
    )
    el = time.perf_counter() - t0
    report(capsys, "sharp-constant", ok and el < 1.0, el,
           f"C^2={c_sq:.14g} C'={c_prime:.14g}")


def test_02_inhomogeneous_product_form(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4):
        w = WeightSpec.inhomogeneous(n, 1.0)
        for k in range(0, 21, 4):
            closed = w.closed_form(k)
            quad, _ = spec_mod.lambda_quadrature(w, k)
            worst = max(worst, abs(quad - closed) / closed)
    el = time.perf_counter() - t0
    report(capsys, "inhomogeneous-product-form", worst < 1e-6 and el < 30.0,
           el, f"worst rel err {worst:.2e}")


def test_03_watson_identity(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4):
        for tau in (1.5, 2.0, 2.5):
            for k in (0, 1, 5, 10, 20):
                if k + (n - tau) / 2.0 <= 0.0:
                    continue  # the integral diverges at this corner
                closed = spec_mod.watson_integral(n, k, tau)
                quad, _ = spec_mod.watson_quadrature(n, k, tau)
                worst = max(worst, abs(quad - closed) / closed)
    el = time.perf_counter() - t0
    report(capsys, "watson-identity", worst < 1e-6 and el < 30.0, el,
           f"worst rel err {worst:.2e}")


def test_04_stability_sweep(capsys):
    t0 = time.perf_counter()
    grid = RadialGrid.build()
    rng = np.random.default_rng(11)
    ok = True
    detail = ""
    for w in (WeightSpec.homogeneous(3, 1.0), WeightSpec.inhomogeneous(2, 1.0)):
        spec = build_spectrum(w, K=14)
        gs = GridSpectrum(w, grid)
        for _ in range(1000):
            ps = random_profile_set(w, grid, rng)
            rep = deficit_report(ps, w, spec)
            if rep.deficit < rep.constant * rep.dist_sq - 1e-8 * rep.sumB:
                ok, detail = False, "stability inequality violated"
                break
        eq = equality_case_builder(w, spec, 1.0, {1: 1.0}, grid)
        rep = deficit_report(eq, w, spec)
        if abs(rep.ratio - rep.constant) > 1e-8 * max(rep.constant, 1.0):
            ok, detail = False, "equality case misses C'"
        for k, r in zip([1, 2, 3], extremising_sequence(w, spec, [1, 2, 3], grid)):
            expect = gs.lam(0) - gs.lam(k)
            if abs(r - expect) > 1e-8 * max(expect, 1.0):
                ok, detail = False, "extremising sequence off"
    el = time.perf_counter() - t0
    report(capsys, "stability-sweep", ok and el < 120.0, el,
           detail or "2x1000 draws, equality cases, sequences")


def test_05_reverse_inequality(capsys):
    t0 = time.perf_counter()
    grid = RadialGrid.build()
    rng = np.random.default_rng(11)  # same seed: same draw stream per family
    violations = 0
    for w in (WeightSpec.homogeneous(3, 1.0), WeightSpec.inhomogeneous(2, 1.0)):
        for _ in range(1000):
            ps = random_profile_set(w, grid, rng)
            rep = deficit_report(ps, w)
            if rep.deficit > rep.lambda0 * rep.dist_sq + 1e-9 * rep.sumB:
                violations += 1
    el = time.perf_counter() - t0
    report(capsys, "reverse-inequality", violations == 0, el,
           f"{violations} violations in 2000 draws")


def test_06_duality_lab(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    ok = True
    detail = ""
    # extremiser transfer at the operator norm
    for i in range(100):
        p = 1.5 if i % 2 == 0 else 2.0
        q = 2.5 if i % 4 < 2 else 4.0
        T = duality.FiniteOperator(rng.uniform(0.05, 1.0, (4, 4)), p, q)
        cert = duality.operator_norm(T, rng=rng)
        G = duality.duality_map(T.apply(cert.extremiser), T.q)
        g = duality.extremiser_transfer(T, G, cert.value)
        achieved = duality.lp_norm(T.apply(g), T.q) / duality.lp_norm(g, T.p)
        if abs(achieved - cert.value) > 1e-8 * cert.value:
            ok, detail = False, f"transfer off by {abs(achieved-cert.value):.2e}"
            break
    # brute-force agreement on 3-column instances
    if ok:
        for _ in range(10):
            T = duality.FiniteOperator(rng.uniform(0.05, 1.0, (3, 3)), 1.5, 3.0)
            bf = duality.brute_force_norm(T, mesh=400)
            if abs(duality.operator_norm(T, rng=rng).value - bf) > 1e-4 * bf:
                ok, detail = False, "brute-force disagreement"
                break
    # sharpened-Hoelder sweeps, zero violations
    if ok:
        for _ in range(10_000):
            r = rng.uniform(2.0, 5.0)
            h1 = rng.normal(size=5)
            h2 = rng.normal(size=5)
            h1 /= duality.lp_norm(h1, r)
            h2 /= duality.lp_norm(h2, r / (r - 1.0))
            pairing, bound = duality.cfl1_gap(h1, h2, r)
            if pairing > bound + 1e-12:
                ok, detail = False, "pairing bound violated"
                break
    if ok:
        for _ in range(10_000):
            r = rng.uniform(1.1, 5.0)
            lhs, rhs = duality.cfl3_gap(rng.normal(size=5), rng.normal(size=5), r)
            if lhs > rhs + 1e-12:
                ok, detail = False, "duality-map continuity violated"
                break
    el = time.perf_counter() - t0
    report(capsys, "duality-lab", ok and el < 180.0, el,
           detail or "transfer, brute force, 2x10^4 Hoelder trials")


def test_07_counterexample_family(capsys):
    t0 = time.perf_counter()
    ok = True
    detail = ""
    deltas = [10.0 ** -e for e in range(1, 5)]
    for r in (1.2, 1.5, 1.8):
        rows = duality.sigma_counterexample(r, 2.0, deltas)
        ratios = [row["ratio"] for row in rows]
        if not all(b < a for a, b in zip(ratios, ratios[1:])):
            ok, detail = False, f"r={r}: ratios not decreasing"
        # the closed form decays like delta^{2/r - 1}; over three decades
        # that reaches 0.1x only for r <= 1.5, so the larger exponent is
        # checked against its exact power law instead
        drop = ratios[-1] / ratios[0]
        predicted = (deltas[-1] / deltas[0]) ** (2.0 / r - 1.0)
        if r <= 1.5:
            if not drop < 0.1:
                ok, detail = False, f"r={r}: decay too slow"
        elif abs(drop - predicted) > 0.1 * predicted:
            ok, detail = False, f"r={r}: decay off the predicted power law"
        if max(row["identity_residual"] for row in rows) > 1e-14:
            ok, detail = False, f"r={r}: identity residual too large"
    el = time.perf_counter() - t0
    report(capsys, "counterexample-family", ok and el < 1.0, el, detail)


def test_08_transport_probe(capsys):
    t0 = time.perf_counter()
    ok = True
    detail = ""
    grid = transport.PhaseGrid.build(n=1, L=40.0, points=256)
    resolved = transport.PhaseGrid.build(n=1, L=40.0, points=256, t_extent=2.0)
    # Gaussian closed form
    f = transport.TransportFunction.from_callable(
        resolved, "phase", lambda x, v: np.exp(-x * x - v * v))
    rho = transport.velocity_average(f, resolved)
    T, X = np.meshgrid(resolved.t, resolved.x, indexing="ij")
    exact = np.sqrt(math.pi / (1.0 + T ** 2)) * np.exp(-X ** 2 / (1.0 + T ** 2))
    if np.max(np.abs(rho.samples - exact)) > 1e-4:
        ok, detail = False, "gaussian closed form"
    # adjoint pairing
    rng = np.random.default_rng(2)
    if ok:
        fr = transport.random_phase_function(grid, rng)
        Gs = rng.normal(size=(grid.t.size, grid.x.size)) * np.exp(
            -0.01 * (grid.t[:, None] ** 2 + grid.x[None, :] ** 2))
        G = transport.TransportFunction(grid, "spacetime", Gs)
        lhs = transport.pairing(transport.velocity_average(fr, grid, tail_tol=1.0), G)
        rhs = transport.pairing(fr, transport.xray_adjoint(G, grid, tail_tol=1.0))
        if abs(lhs - rhs) > 1e-5 * max(abs(lhs), 1.0):
            ok, detail = False, "adjoint pairing"
    # sharp ratio unbeaten
    rhat = transport.ratio_estimate(1, grid)
    p, q, _ = transport.exponents(1)
    if ok:
        for _ in range(100):
            fr = transport.random_phase_function(grid, rng)
            val = transport.grid_norm(
                transport.velocity_average(fr, grid, tail_tol=1.0), q
            ) / transport.grid_norm(fr, p)
            if val > rhat * 1.001:
                ok, detail = False, f"random draw beats the ratio: {val:.6f}"
                break
    # quadratic deficit band for 5 seeded directions
    if ok:
        for i in range(5):
            raw = transport.random_phase_function(grid, rng).samples
            d = transport.make_probe_direction(raw, 1, grid)
            pts = transport.local_stability_probe(
                1, d, [0.05, 0.1, 0.2], grid, rhat=rhat)
            curv = [pt.deficit / pt.eps ** 2 for pt in pts]
            if max(curv) / min(curv) > 2.0:
                ok, detail = False, f"direction {i}: band {max(curv)/min(curv):.2f}"
                break
    el = time.perf_counter() - t0
    report(capsys, "transport-probe", ok and el < 300.0, el,
           detail or f"R^={rhat:.6f}")
