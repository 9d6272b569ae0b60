"""Quick mode: show that every output check can fail.

Each case feeds one check function the program's real output, which it
must accept, and the same output with one value pushed beyond the check's
tolerance, which it must reject.  Runs in a few seconds:

    python3 perfbench/run.py --selftest
"""

from __future__ import annotations

import numpy as np
from tracestab import duality, harmonic, spectrum, transport

import reference as ref
import workloads as wl


def _bumped(values, i, delta):
    out = np.array(values, dtype=float)
    out[i] += delta
    return out


def cases():
    """(name, call) pairs; call(checks, wrong) runs the check on the right
    value when wrong is False and on the wrong one when it is True."""
    out = []

    # -- spectrum -----------------------------------------------------------
    hom = spectrum.build_spectrum(spectrum.WeightSpec.homogeneous(3, 1.0), wl.K)
    inh = spectrum.build_spectrum(spectrum.WeightSpec.inhomogeneous(3, 2.0), wl.K)
    exact_h = [ref.homogeneous_lambda(3, 1.0, k) for k in range(wl.K + 2)]
    exact_i = [ref.inhomogeneous_s2_lambda(3, k) for k in range(wl.K + 2)]

    def spectrum_case(spec, exact, tol, wrong_values=None, wrong_star=None, wrong_tail=None):
        def call(checks, wrong):
            values = wrong_values if wrong and wrong_values is not None else spec.values
            star = wrong_star if wrong and wrong_star is not None else spec.lambda_star
            tail = wrong_tail if wrong and wrong_tail is not None else spec.certificate.tail_bound
            ref.check_spectrum(checks, "spectrum", values, exact[:-1], tol, star,
                               spec.K_set, tail, exact[-1])
        return call

    out.append(("homogeneous lambda_3 off by 1e-9",
                spectrum_case(hom, exact_h, 1e-13, wrong_values=_bumped(hom.values, 3, 1e-9))))
    out.append(("C' of the s = 1 weight off by 1e-12",
                lambda checks, wrong: ref.check_unit_constants(
                    checks, hom.lambda0,
                    spectrum.stability_constant(hom) + (1e-12 if wrong else 0.0))))
    out.append(("inhomogeneous lambda_7 off by 1e-7",
                spectrum_case(inh, exact_i, 1e-8, wrong_values=_bumped(inh.values, 7, 1e-7))))
    out.append(("inhomogeneous lambda_star off by 1e-6",
                spectrum_case(inh, exact_i, 1e-8, wrong_star=inh.lambda_star + 1e-6)))
    out.append(("tail certificate below lambda_{K+1}",
                spectrum_case(inh, exact_i, 1e-8, wrong_tail=0.5 * exact_i[-1])))
    cus = spectrum.build_spectrum(spectrum.WeightSpec.custom(
        3, wl.TABLE_R, wl._w_s2(wl.TABLE_R), tail_exponent=4.0), wl.K)
    bound = ref.table_error_bound(wl.TABLE_R, wl._w_s2(wl.TABLE_R), 4.0, wl._w_s2)
    out.append(("custom-table lambda_0 off by twice its interpolation bound",
                spectrum_case(cus, exact_i, bound + 1e-8,
                              wrong_values=_bumped(cus.values, 0, 2.0 * bound))))

    # -- harmonic -----------------------------------------------------------
    w = spectrum.WeightSpec.homogeneous(3, 1.0)
    grid = harmonic.RadialGrid.build()
    kernels = ref.grid_kernels(grid.r, grid.r ** -2.0, 3, wl.MAX_PROFILE_K)
    lam = kernels ** 2 @ grid.wq
    c_prime = lam[0] - np.max(lam[1:])
    ps = harmonic.random_profile_set(w, grid, np.random.default_rng(3), n_modes=3)
    rep = harmonic.deficit_report(ps, w, hom)
    holds, margin = harmonic.reverse_deficit_check(ps, w)
    sums = ref.trial_sums(ps.entries, grid.wq, kernels)

    def trial_case(deficit=rep.deficit, c=c_prime, rev=holds):
        def call(checks, wrong):
            ref.check_trial(checks, "trial", sums, lam[0], c if wrong else c_prime,
                            deficit if wrong else rep.deficit, rep.dist_sq, rep.satisfied,
                            rev if wrong else holds, margin)
        return call

    out.append(("deficit off by 1e-6 of lambda_0 sumB",
                trial_case(deficit=rep.deficit + 1e-6 * lam[0] * sums[0])))
    out.append(("stability constant above the spectral gap",
                trial_case(c=lam[0] + rep.deficit / max(rep.dist_sq, 1e-300))))
    out.append(("reverse inequality reported broken", trial_case(rev=False)))
    eq = harmonic.deficit_report(
        harmonic.equality_case_builder(w, hom, 1.0, {1: 0.7}, grid), w, hom)
    out.append(("equality-case ratio off by 1e-6",
                lambda checks, wrong: ref.check_ratio(
                    checks, "equality", eq.ratio + (1e-6 if wrong else 0.0), c_prime, lam[0])))
    out.append(("radial-grid weights scaled by 1 + 1e-9",
                lambda checks, wrong: ref.check_radial_grid(
                    checks, grid.r, grid.wq * (1.0 + (1e-9 if wrong else 0.0)), grid.r_max)))

    # -- transport ----------------------------------------------------------
    g = transport.PhaseGrid.build(1, wl.L, wl.POINTS)
    p, q, _ = transport.exponents(1)
    gauss = transport.PhaseGrid(1, wl.L, g.h, 2.0)
    f = transport.TransportFunction.from_callable(
        gauss, "phase", lambda x, v: np.exp(-x ** 2 - v ** 2))
    rho_g = transport.velocity_average(f, gauss).samples
    T, X = np.meshgrid(gauss.t, gauss.x, indexing="ij")
    exact = ref.gaussian_velocity_average(T, X)
    out.append(("Gaussian velocity average off by 2e-4 at one point",
                lambda checks, wrong: ref.check_gaussian(
                    checks, _bumped(rho_g, (0, 0), 2e-4) if wrong else rho_g, exact)))

    rng = np.random.default_rng(5)
    ff = transport.random_phase_function(g, rng)
    rho = transport.velocity_average(ff, g).samples
    Tm, Xm = np.meshgrid(g.t, g.x, indexing="ij")
    Gs = np.exp(-(Tm / 2.0) ** 2 - ((Xm - 1.0) / 2.0) ** 2)
    ray = transport.xray_adjoint(transport.TransportFunction(g, "spacetime", Gs), g).samples
    out.append(("x-ray adjoint scaled by 1 + 1e-4",
                lambda checks, wrong: ref.check_pairing(
                    checks, rho, Gs, ff.samples, ray * (1.0 + (1e-4 if wrong else 0.0)), g.h)))

    rhat = transport.ratio_estimate(1, g, "primal")
    out.append(("R-hat 5% above its value",
                lambda checks, wrong: ref.check_rhat(
                    checks, rhat * (1.05 if wrong else 1.0), wl.L, g.h)))
    ratio = transport.grid_norm(transport.TransportFunction(g, "spacetime", rho), q) \
        / transport.grid_norm(ff, p)
    out.append(("draw ratio off by 1e-9",
                lambda checks, wrong: ref.check_draw(
                    checks, ff.samples, rho, g.h, p, q, ratio * (1.0 + (1e-9 if wrong else 0.0)),
                    rhat)))
    out.append(("R-hat below a random draw",
                lambda checks, wrong: ref.check_draw(
                    checks, ff.samples, rho, g.h, p, q, ratio, 0.5 * ratio if wrong else rhat)))

    X2, V2 = np.meshgrid(g.x, g.v, indexing="ij")
    d = transport.make_probe_direction(np.exp(-((X2 - 1.0) / 1.5) ** 2 - (V2 / 2.0) ** 2),
                                       1, g, "primal")
    pts = transport.local_stability_probe(1, d, wl.EPS, g, side="primal", rhat=rhat)
    deficits = [pt.deficit for pt in pts]
    dist_sq = [pt.dist_sq for pt in pts]
    ratios = [pt.ratio for pt in pts]

    def probe_case(direction=d.samples, defs=deficits, rats=ratios):
        def call(checks, wrong):
            ref.check_probe(checks, direction if wrong else d.samples, g.h, p, wl.EPS,
                            defs if wrong else deficits, dist_sq, rats if wrong else ratios)
        return call

    out.append(("probe direction scaled by 1.01", probe_case(direction=1.01 * d.samples)))
    out.append(("negative deficit", probe_case(defs=[-deficits[0]] + deficits[1:])))
    out.append(("deficit/eps^2 band of 3", probe_case(defs=deficits[:2] + [3.0 * deficits[2]])))
    out.append(("probe ratio != deficit / dist^2", probe_case(rats=[2.0 * r for r in ratios])))

    # -- duality ------------------------------------------------------------
    rng = np.random.default_rng(7)
    M2 = rng.uniform(*wl.ENTRIES, size=(4, 2))
    T2 = duality.FiniteOperator(M2, 1.5, 2.5)
    cert = duality.operator_norm(T2, rng=rng)
    cert_adj = duality.operator_norm(T2.adjoint(), rng=rng)
    gt = duality.extremiser_transfer(T2, cert_adj.extremiser, cert.value)
    search = ref.two_column_norm(M2, 1.5, 2.5)
    out.append(("2-column norm off by 1e-7",
                lambda checks, wrong: ref.check_norm(
                    checks, "two_column", cert.value * (1.0 + (1e-7 if wrong else 0.0)),
                    search, 1e-8)))
    out.append(("adjoint norm off by 1e-8",
                lambda checks, wrong: ref.check_norm(
                    checks, "adjoint", cert_adj.value * (1.0 + (1e-8 if wrong else 0.0)),
                    cert.value, 1e-9)))
    out.append(("transferred extremiser perturbed",
                lambda checks, wrong: ref.check_transfer(
                    checks, M2, gt + (np.array([0.0, 0.05]) if wrong else 0.0), 1.5, 2.5,
                    cert.value)))
    T22 = duality.FiniteOperator(M2, 2.0, 2.0)
    val22 = duality.operator_norm(T22, rng=rng).value
    sigma = float(np.linalg.svd(M2, compute_uv=False)[0])
    out.append(("l2 norm off the top singular value by 1e-11",
                lambda checks, wrong: ref.check_norm(
                    checks, "l2", val22 * (1.0 + (1e-11 if wrong else 0.0)), sigma, 1e-12)))
    M3 = rng.uniform(*wl.ENTRIES, size=(3, 3))
    T3 = duality.FiniteOperator(M3, 1.5, 2.5)
    val3 = duality.operator_norm(T3, rng=rng).value
    brute = duality.brute_force_norm(T3, wl.BRUTE_MESH)
    out.append(("norm below the mesh sup",
                lambda checks, wrong: ref.check_brute_force(
                    checks, brute * (1.0 - 1e-9) if wrong else val3, brute)))
    out.append(("norm 1e-3 above the mesh sup",
                lambda checks, wrong: ref.check_brute_force(
                    checks, brute * (1.0 + 1e-3) if wrong else val3, brute)))
    g1, g2 = rng.normal(size=5), rng.normal(size=5)
    lhs, rhs = duality.cfl3_gap(g1, g2, 1.7)
    out.append(("continuity lhs off by 1e-6",
                lambda checks, wrong: ref.check_cfl3(
                    checks, g1, g2, 1.7, lhs + (1e-6 if wrong else 0.0), rhs)))
    out.append(("continuity bound below lhs",
                lambda checks, wrong: ref.check_cfl3(
                    checks, g1, g2, 1.7, lhs, 0.5 * lhs if wrong else rhs)))
    h1, h2 = rng.normal(size=5), rng.normal(size=5)
    h1, h2 = h1 / ref.lp(h1, 3.0), h2 / ref.lp(h2, 1.5)
    pairing, bnd = duality.cfl1_gap(h1, h2, 3.0)
    out.append(("sharpened-Hoelder bound below the pairing",
                lambda checks, wrong: ref.check_cfl1(
                    checks, h1, h2, pairing, pairing - 1e-6 if wrong else bnd)))
    return out


def main() -> int:
    bad = 0
    for name, call in cases():
        right, wrong = ref.Checks(), ref.Checks()
        call(right, False)
        call(wrong, True)
        ok = right.correct and not wrong.correct
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: right value "
              f"{'accepted' if right.correct else 'REJECTED'}, wrong value "
              f"{'rejected' if not wrong.correct else 'ACCEPTED'}")
    print(f"selftest: {bad} of the cases failed")
    return 1 if bad else 0
