"""Command-line front end: spectra, sharp constants, stability sweeps,
duality-lab sweeps, the stability-exponent counterexample family, and the
kinetic-transport probe.

Exit codes: 0 = all checks pass, 1 = some check failed, 2 = bad config.
Every check line carries an anchor id from ANCHORS identifying the
mathematical statement being exercised.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import duality, harmonic, spectrum as spec_mod, transport
from .errors import ConvergenceError, InconclusiveError, InconsistencyError

OUTPUT_DIR_ENV = "TRACESTAB_OUTPUT_DIR"

ANCHORS = {
    "sharp-constant-eigenvalue": "sharp constant C(w)^2 equals the degree-0 eigenvalue",
    "stability-eigenvalue-gap": "stability constant C'(w) equals the spectral gap lambda_0 - lambda_star",
    "eigenvalue-quadrature-twin": "closed-form eigenvalues match the oscillatory quadrature route",
    "stability-inequality": "deficit >= C'(w) * squared distance to the extremisers",
    "reverse-inequality": "deficit <= lambda_0 * squared distance to the extremisers",
    "equality-cases": "equality-case profiles achieve deficit/distance ratio C'(w)",
    "extremising-sequences": "pure-mode ratios equal lambda_0 - lambda_k",
    "norm-duality-transfer": "adjoint extremisers transfer to extremisers of the operator",
    "brute-force-norm-agreement": "duality-iteration norm matches dense sphere search",
    "duality-map-continuity": "duality map is Hoelder continuous with explicit constant",
    "sharpened-hoelder": "pairing bounded by 1 minus a quadratic duality-gap term",
    "counterexample-identity": "two-delta identity of the counterexample pair",
    "counterexample-decay": "counterexample ratios decay, defeating the exponent",
    "gaussian-velocity-average": "velocity average of a Gaussian matches its closed form",
    "transport-adjointness": "velocity average and ray adjoint satisfy the pairing identity",
    "transport-sharp-ratio": "no random function beats the extremiser operator ratio",
    "transport-quadratic-deficit": "deficit grows quadratically along probe directions",
}


@dataclass(frozen=True)
class Check:
    anchor: str
    passed: bool
    value: float
    tol: float
    detail: str

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (f"CHECK {self.anchor}: {status} value={self.value:.12g} "
                f"tol={self.tol:.3g} ({self.detail})")


def _check(checks: list[Check], anchor: str, passed: bool, value: float,
           tol: float, detail: str) -> None:
    if anchor not in ANCHORS:
        raise KeyError(f"unregistered anchor {anchor}")
    checks.append(Check(anchor, bool(passed), float(value), float(tol), detail))


def _out_dir(args) -> str:
    d = args.output or os.environ.get(OUTPUT_DIR_ENV) or "."
    os.makedirs(d, exist_ok=True)
    return d


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _report(checks: list[Check], args, name: str) -> None:
    d = _out_dir(args)
    for c in checks:
        print(c.line())
    if args.format == "json":
        doc = [
            {"anchor": c.anchor, "passed": c.passed, "value": c.value,
             "tol": c.tol, "detail": c.detail}
            for c in checks
        ]
        _write(os.path.join(d, f"{name}.json"), json.dumps(doc, indent=2) + "\n")
    else:
        lines = ["anchor,passed,value,tol,detail"]
        for c in checks:
            lines.append(f"{c.anchor},{int(c.passed)},{c.value:.12g},{c.tol:.3g},{c.detail}")
        _write(os.path.join(d, f"{name}.csv"), "\n".join(lines) + "\n")


def _weight(args) -> spec_mod.WeightSpec:
    if args.weight == "homogeneous":
        return spec_mod.WeightSpec.homogeneous(args.n, args.s)
    return spec_mod.WeightSpec.inhomogeneous(args.n, args.s)


# ---------------------------------------------------------------------------
# validation


def validate_args(args) -> list[str]:
    """Precondition violations of a run configuration, without executing."""
    v: list[str] = []
    cmd = args.command
    if cmd in ("spectrum", "constants", "verify-trace"):
        if args.n < 2:
            v.append("dimension n >= 2 required")
        if args.weight == "homogeneous":
            if not 0.5 < args.s:
                v.append("s > 1/2 required")
            if args.n >= 2 and not args.s < args.n / 2.0:
                v.append("s < n/2 required")
        else:
            if not args.s > 0.5:
                v.append("s > 1/2 required")
        k_min = 6 if cmd == "verify-trace" else 1  # random profiles reach degree 6
        if getattr(args, "K", 1) < k_min:
            v.append(f"K >= {k_min} required")
        if getattr(args, "tau", None) is not None and args.tau <= 1.0:
            v.append("tau > 1 required")
        if getattr(args, "trials", 1) < 1:
            v.append("trials >= 1 required")
    elif cmd == "duality-sweep":
        if args.trials < 1:
            v.append("trials >= 1 required")
        if not 1.0 < args.p <= 2.0:
            v.append("p in (1, 2] required")
        if not args.q >= args.p:
            v.append("q >= p required")
    elif cmd == "counterexample":
        if not 1.0 < args.r:
            v.append("r > 1 required")
        if args.sigma <= 0:
            v.append("sigma > 0 required")
        for d in args.deltas:
            if not 0.0 < d < 0.5:
                v.append(f"delta {d} outside (0, 1/2)")
    elif cmd == "transport-probe":
        if args.n != 1:
            v.append("transport probe is certified for n = 1 only")
        if args.L < 10.0:
            v.append("extent L >= 10 required")
        if args.points < 128:
            v.append("at least 128 grid points per axis required")
        for e in args.eps:
            if not 0.0 < e <= 0.25:
                v.append(f"eps {e} outside (0, 0.25]")
    return v


# ---------------------------------------------------------------------------
# commands


def _lambda_twin_check(checks: list[Check], w, spectrum, kq: int, tol: float) -> None:
    quadv, _ = spec_mod.lambda_quadrature(w, kq, tol)
    rel = abs(quadv - spectrum.values[kq]) / spectrum.values[kq]
    _check(checks, "eigenvalue-quadrature-twin", rel < 1e-6, rel, 1e-6,
           f"lambda_{kq} twin-route agreement")


def cmd_spectrum(args) -> int:
    w = _weight(args)
    spectrum = spec_mod.build_spectrum(w, args.K, args.tol)
    d = _out_dir(args)
    if args.format == "json":
        _write(os.path.join(d, "spectrum.json"), spec_mod.spectrum_to_json(spectrum))
    else:
        _write(os.path.join(d, "spectrum.csv"), spec_mod.spectrum_to_csv(spectrum))
    checks: list[Check] = []
    if args.tau is not None:
        closed = spec_mod.watson_integral(args.n, 0, args.tau)
        quadv, _ = spec_mod.watson_quadrature(args.n, 0, args.tau)
        rel = abs(closed - quadv) / closed
        _check(checks, "eigenvalue-quadrature-twin", rel < 1e-6, rel, 1e-6,
               f"power-weight identity at tau={args.tau}")
    _lambda_twin_check(checks, w, spectrum, min(3, args.K), args.tol)
    _report(checks, args, "spectrum_report")
    return 0 if all(c.passed for c in checks) else 1


def cmd_constants(args) -> int:
    w = _weight(args)
    spectrum = spec_mod.build_spectrum(w, args.K, args.tol)
    c_sq = spectrum.lambda0
    c_prime = spec_mod.stability_constant(spectrum)
    checks: list[Check] = []
    _check(checks, "sharp-constant-eigenvalue", c_sq > 0, c_sq, 0.0,
           "C(w)^2 = lambda_0")
    _check(checks, "stability-eigenvalue-gap", 0.0 < c_prime < c_sq, c_prime, 0.0,
           f"C'(w) = lambda_0 - lambda_star, attaining set {list(spectrum.K_set)}")
    _lambda_twin_check(checks, w, spectrum, min(2, args.K), args.tol)
    d = _out_dir(args)
    doc = {
        "n": args.n,
        "s": args.s,
        "weight": args.weight,
        "sharp_constant_squared": c_sq,
        "stability_constant": c_prime,
        "lambda_star": spectrum.lambda_star,
        "attaining_set": list(spectrum.K_set),
    }
    _write(os.path.join(d, "constants.json"), json.dumps(doc, indent=2) + "\n")
    _report(checks, args, "constants_report")
    return 0 if all(c.passed for c in checks) else 1


def cmd_verify_trace(args) -> int:
    w = _weight(args)
    spectrum = spec_mod.build_spectrum(w, args.K, args.tol)
    grid = harmonic.RadialGrid.build()
    rng = np.random.default_rng(args.seed)
    ok_fwd = ok_rev = 0
    for _ in range(args.trials):
        ps = harmonic.random_profile_set(w, grid, rng)
        rep = harmonic.deficit_report(ps, w, spectrum)
        if rep.satisfied:
            ok_fwd += 1
        holds, _ = harmonic.reverse_deficit_check(ps, w)
        if holds:
            ok_rev += 1
    checks: list[Check] = []
    _check(checks, "stability-inequality", ok_fwd == args.trials, ok_fwd,
           args.trials, f"{ok_fwd}/{args.trials} random profile sets")
    _check(checks, "reverse-inequality", ok_rev == args.trials, ok_rev,
           args.trials, f"{ok_rev}/{args.trials} random profile sets")
    eq = harmonic.equality_case_builder(w, spectrum, 1.0, {1: 0.7}, grid)
    rep = harmonic.deficit_report(eq, w, spectrum)
    gs = harmonic.grid_spectrum(w, grid)
    c_prime_grid = gs.lam(0) - gs.lam(min(spectrum.K_set))
    dev = abs(rep.ratio - c_prime_grid) / max(c_prime_grid, 1e-300)
    _check(checks, "equality-cases", dev < 1e-8, dev, 1e-8,
           "deficit/distance ratio at the equality case")
    ks = [1, 2, 3]
    ratios = harmonic.extremising_sequence(w, spectrum, ks, grid)
    worst = max(
        abs(r - (gs.lam(0) - gs.lam(k))) / gs.lam(0) for r, k in zip(ratios, ks)
    )
    _check(checks, "extremising-sequences", worst < 1e-8, worst, 1e-8,
           "pure-mode ratios vs lambda_0 - lambda_k")
    _report(checks, args, "verify_trace_report")
    return 0 if all(c.passed for c in checks) else 1


def cmd_duality_sweep(args) -> int:
    rng = np.random.default_rng(args.seed)
    checks: list[Check] = []
    worst_transfer = 0.0
    for _ in range(args.trials):
        M = rng.uniform(0.0, 1.0, size=(int(rng.integers(2, 6)), int(rng.integers(2, 5))))
        T = duality.FiniteOperator(M, args.p, args.q)
        cert = duality.operator_norm(T, rng=rng)
        cert_adj = duality.operator_norm(T.adjoint(), rng=rng)
        g = duality.extremiser_transfer(T, cert_adj.extremiser, cert.value)
        achieved = duality.lp_norm(T.apply(g), T.q) / duality.lp_norm(g, T.p)
        worst_transfer = max(worst_transfer, abs(achieved - cert.value) / cert.value)
    _check(checks, "norm-duality-transfer", worst_transfer < 1e-8,
           worst_transfer, 1e-8, f"{args.trials} random nonnegative operators")
    worst_bf = 0.0
    for _ in range(10):
        M = rng.uniform(0.0, 1.0, size=(int(rng.integers(2, 6)), 3))
        T = duality.FiniteOperator(M, args.p, args.q)
        val = duality.operator_norm(T, rng=rng).value
        bf = duality.brute_force_norm(T, mesh=500)
        worst_bf = max(worst_bf, abs(val - bf) / bf)
    _check(checks, "brute-force-norm-agreement", worst_bf < 1e-4, worst_bf,
           1e-4, "3-column instances vs dense sphere search")
    bad3 = bad1 = 0
    for _ in range(args.trials):
        r = float(rng.uniform(1.1, 4.0))
        sz = int(rng.integers(2, 8))
        lhs, rhs = duality.cfl3_gap(rng.normal(size=sz), rng.normal(size=sz), r)
        if lhs > rhs * (1.0 + 1e-12):
            bad3 += 1
        r = float(rng.uniform(2.0, 5.0))
        h1 = rng.normal(size=sz)
        h1 /= duality.lp_norm(h1, r)
        h2 = rng.normal(size=sz)
        h2 /= duality.lp_norm(h2, r / (r - 1.0))
        pairing, bound = duality.cfl1_gap(h1, h2, r)
        if pairing > bound + 1e-12:
            bad1 += 1
    _check(checks, "duality-map-continuity", bad3 == 0, bad3, 0,
           f"{args.trials} random pairs")
    _check(checks, "sharpened-hoelder", bad1 == 0, bad1, 0,
           f"{args.trials} random unit pairs")
    _report(checks, args, "duality_report")
    return 0 if all(c.passed for c in checks) else 1


def cmd_counterexample(args) -> int:
    rows = duality.sigma_counterexample(args.r, args.sigma, args.deltas)
    d = _out_dir(args)
    lines = ["delta,ratio,numerator,identity_residual"]
    for row in rows:
        lines.append(
            f"{row['delta']:.6g},{row['ratio']:.12g},{row['numerator']:.12g},"
            f"{row['identity_residual']:.3g}"
        )
    _write(os.path.join(d, "counterexample.csv"), "\n".join(lines) + "\n")
    checks: list[Check] = []
    worst_id = max(row["identity_residual"] for row in rows)
    _check(checks, "counterexample-identity", worst_id < 1e-14, worst_id,
           1e-14, "closed-form two-delta identity")
    ratios = [row["ratio"] for row in rows]
    decreasing = all(b < a for a, b in zip(ratios, ratios[1:]))
    _check(checks, "counterexample-decay", decreasing, ratios[-1] / ratios[0],
           1.0, "ratios strictly decreasing along the delta list")
    _report(checks, args, "counterexample_report")
    return 0 if all(c.passed for c in checks) else 1


def cmd_transport_probe(args) -> int:
    grid = transport.PhaseGrid.build(1, args.L, args.points)
    p, q, _ = transport.exponents(1)
    checks: list[Check] = []
    gauss_grid = transport.PhaseGrid(1, args.L, 2.0 * args.L / args.points, 2.0)
    f = transport.TransportFunction.from_callable(
        gauss_grid, "phase", lambda x, v: np.exp(-x ** 2 - v ** 2))
    rho = transport.velocity_average(f, gauss_grid)
    T, X = np.meshgrid(gauss_grid.t, gauss_grid.x, indexing="ij")
    exact = np.sqrt(np.pi / (1 + T ** 2)) * np.exp(-X ** 2 / (1 + T ** 2))
    gerr = float(np.max(np.abs(rho.samples - exact)))
    _check(checks, "gaussian-velocity-average", gerr < 1e-4, gerr, 1e-4,
           "closed-form Gaussian velocity average")
    rng = np.random.default_rng(args.seed)
    worst_adj = 0.0
    Tm, Xm = np.meshgrid(grid.t, grid.x, indexing="ij")
    for _ in range(5):
        ff = transport.random_phase_function(grid, rng)
        Gs = np.exp(-((Tm - rng.uniform(-2, 2)) / rng.uniform(1, 3)) ** 2
                    - ((Xm - rng.uniform(-2, 2)) / rng.uniform(1, 3)) ** 2)
        GG = transport.TransportFunction(grid, "spacetime", Gs)
        lhs = transport.pairing(transport.velocity_average(ff, grid), GG)
        rhs = transport.pairing(ff, transport.xray_adjoint(GG, grid))
        worst_adj = max(worst_adj, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    _check(checks, "transport-adjointness", worst_adj < 1e-5, worst_adj, 1e-5,
           "pairing identity on random resolved pairs")
    rhat = transport.ratio_estimate(1, grid, args.side)
    best = 0.0
    for _ in range(args.trials):
        ff = transport.random_phase_function(grid, rng)
        val = transport.grid_norm(transport.velocity_average(ff, grid), q) / \
            transport.grid_norm(ff, p)
        best = max(best, val)
    _check(checks, "transport-sharp-ratio", best <= rhat * 1.001, best,
           rhat * 1.001, f"{args.trials} random functions vs ratio estimate {rhat:.6f}")
    Xg, Vg = np.meshgrid(grid.x, grid.v, indexing="ij")
    base_mesh = (Tm, Xm) if args.side == "dual" else (Xg, Vg)
    curves = []
    worst_band = 0.0
    for i in range(args.directions):
        A, B = base_mesh
        raw = np.exp(-((A - rng.uniform(-2, 2)) / rng.uniform(1, 2.5)) ** 2
                     - ((B - rng.uniform(-2, 2)) / rng.uniform(1, 2.5)) ** 2)
        direction = transport.make_probe_direction(raw, 1, grid, args.side)
        pts = transport.local_stability_probe(1, direction, args.eps, grid,
                                              side=args.side, rhat=rhat)
        curves.append(pts)
        quad_coef = [pt.deficit / pt.eps ** 2 for pt in pts]
        worst_band = max(worst_band, max(quad_coef) / min(quad_coef))
    _check(checks, "transport-quadratic-deficit", worst_band <= 2.0,
           worst_band, 2.0, f"{args.directions} seeded directions, eps {args.eps}")
    d = _out_dir(args)
    lines = ["direction,epsilon,deficit,dist_sq,ratio"]
    for i, pts in enumerate(curves):
        for pt in pts:
            lines.append(f"{i},{pt.eps:.6g},{pt.deficit:.12g},{pt.dist_sq:.12g},{pt.ratio:.12g}")
    _write(os.path.join(d, "transport_probe.csv"), "\n".join(lines) + "\n")
    _report(checks, args, "transport_report")
    return 0 if all(c.passed for c in checks) else 1


def cmd_validate(args) -> int:
    target = argparse.Namespace(**vars(args))
    target.command = args.target
    violations = validate_args(target)
    for msg in violations:
        print(f"violation: {msg}")
    if not violations:
        print("config ok")
    return 1 if violations else 0


# ---------------------------------------------------------------------------
# parser


def _csv_floats(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t.strip()]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tracestab",
        description="Sharp constants and stability diagnostics for trace-type inequalities",
    )
    ap.add_argument("--config", help="JSON file of defaults mirroring the flags")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", "-o", default=None,
                       help=f"output directory (default ${OUTPUT_DIR_ENV} or .)")
        p.add_argument("--format", choices=("json", "csv"), default="csv")

    def weight_opts(p):
        p.add_argument("--n", type=int, default=3)
        p.add_argument("--s", type=float, default=1.0)
        p.add_argument("--weight", choices=("homogeneous", "inhomogeneous"),
                       default="homogeneous")
        p.add_argument("--K", type=int, default=14)
        p.add_argument("--tol", type=float, default=1e-8)

    p = sub.add_parser("spectrum", help="eigenvalue spectrum of a weight")
    weight_opts(p)
    p.add_argument("--tau", type=float, default=None,
                   help="also cross-check the power-weight integral identity")
    common(p)

    p = sub.add_parser("constants", help="sharp and stability constants")
    weight_opts(p)
    common(p)

    p = sub.add_parser("verify-trace", help="randomized stability verification")
    weight_opts(p)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, required=True)
    common(p)

    p = sub.add_parser("duality-sweep", help="finite-dimensional duality lab sweep")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--p", type=float, default=1.5)
    p.add_argument("--q", type=float, default=2.5)
    common(p)

    p = sub.add_parser("counterexample", help="stability-exponent counterexample family")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--sigma", type=float, default=2.0)
    p.add_argument("--deltas", type=_csv_floats, default=[0.1, 0.01, 0.001])
    common(p)

    p = sub.add_parser("transport-probe", help="kinetic-transport stability probe")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--L", type=float, default=40.0)
    p.add_argument("--points", type=int, default=256)
    p.add_argument("--eps", type=_csv_floats, default=[0.05, 0.1, 0.2])
    p.add_argument("--directions", type=int, default=5)
    p.add_argument("--trials", type=int, default=100,
                   help="random functions for the sharp-ratio check")
    p.add_argument("--side", choices=("primal", "dual"), default="primal")
    common(p)

    p = sub.add_parser("validate", help="report precondition violations without executing")
    p.add_argument("--target", required=True,
                   choices=("spectrum", "constants", "verify-trace", "duality-sweep",
                            "counterexample", "transport-probe"))
    weight_opts(p)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--p", type=float, default=1.5)
    p.add_argument("--q", type=float, default=2.5)
    p.add_argument("--r", type=float, default=1.5)
    p.add_argument("--sigma", type=float, default=2.0)
    p.add_argument("--deltas", type=_csv_floats, default=[0.1, 0.01])
    p.add_argument("--L", type=float, default=40.0)
    p.add_argument("--points", type=int, default=256)
    p.add_argument("--eps", type=_csv_floats, default=[0.05, 0.1, 0.2])
    common(p)
    return ap


_DISPATCH = {
    "spectrum": cmd_spectrum,
    "constants": cmd_constants,
    "verify-trace": cmd_verify_trace,
    "duality-sweep": cmd_duality_sweep,
    "counterexample": cmd_counterexample,
    "transport-probe": cmd_transport_probe,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    ap = build_parser()
    args, _ = ap.parse_known_args(argv)
    if args.config:
        try:
            with open(args.config) as fh:
                defaults = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        clean = {k.replace("-", "_"): v for k, v in defaults.items()}
        # subparsers keep their own defaults, so push the config values
        # into each of them as well as into the root parser
        ap.set_defaults(**clean)
        for action in ap._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub_ap in action.choices.values():
                    sub_ap.set_defaults(**clean)
        args = ap.parse_args(argv)
    else:
        args = ap.parse_args(argv)
    violations = validate_args(args)
    if violations and args.command != "validate":
        for msg in violations:
            print(f"config error: {msg}", file=sys.stderr)
        return 2
    try:
        return _DISPATCH[args.command](args)
    except (ConvergenceError, InconclusiveError, InconsistencyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
