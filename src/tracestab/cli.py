"""Command-line front end: spectra, sharp constants, stability sweeps,
duality-lab sweeps, the stability-exponent counterexample family, and the
kinetic-transport probe.

Exit codes: 0 = all checks pass, 1 = some check failed, 2 = bad config.
Every check line carries an anchor id from ANCHORS identifying the
mathematical statement being exercised.  A command appends its checks and
writes its data file; `main` prints the checks, writes the report and
returns the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

# harmonic and spectrum, which load scipy, are imported by the commands
# that use them, so the duality and transport commands start without it
from . import duality, specfun, transport
from .errors import ConvergenceError, InconclusiveError, InconsistencyError

if TYPE_CHECKING:
    from .spectrum import WeightSpec

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


def _write(args, name: str, text: str) -> None:
    """Write one output file into --output, else $TRACESTAB_OUTPUT_DIR, else ."""
    d = args.output or os.environ.get(OUTPUT_DIR_ENV) or "."
    os.makedirs(d, exist_ok=True)
    with open(os.path.join(d, name), "w") as fh:
        fh.write(text)


def _report(checks: list[Check], args, name: str) -> int:
    """Print the check lines, write the report file; the exit code."""
    for c in checks:
        print(c.line())
    if args.format == "json":
        text = json.dumps([asdict(c) for c in checks], indent=2)
    else:
        text = "\n".join(["anchor,passed,value,tol,detail", *(
            f"{c.anchor},{int(c.passed)},{c.value:.12g},{c.tol:.3g},{c.detail}"
            for c in checks)])
    _write(args, f"{name}.{args.format}", text + "\n")
    return 0 if all(c.passed for c in checks) else 1


def _weight(args) -> WeightSpec:
    from . import spectrum as spec_mod
    make = {"homogeneous": spec_mod.WeightSpec.homogeneous,
            "inhomogeneous": spec_mod.WeightSpec.inhomogeneous}.get(args.weight)
    if make is None:
        raise ValueError(f"unknown weight {args.weight!r}")
    return make(args.n, args.s)


# ---------------------------------------------------------------------------
# validation


def validate_args(args) -> list[str]:
    """Precondition violations of a run configuration, without executing.

    The library objects a command builds are constructed here and their
    ValueError messages collected, so each object reports only its first
    violation; the rules written out below are the CLI's own."""
    v: list[str] = []

    def build(make, *a):
        try:
            make(*a)
        except ValueError as exc:
            v.append(str(exc))

    cmd = args.command
    if cmd in ("verify-trace", "duality-sweep", "transport-probe") and args.trials < 1:
        v.append("trials >= 1 required")
    if cmd in ("spectrum", "constants", "verify-trace"):
        from . import spectrum as spec_mod
        build(_weight, args)
        build(spec_mod.check_tol, args.tol)
        if cmd == "spectrum" and args.tau is not None:
            build(spec_mod.watson_integral, args.n, 0, args.tau)
        k_min = 1
        if cmd == "verify-trace":   # the spectrum must reach every random profile's degree
            from .harmonic import MAX_PROFILE_K
            k_min = MAX_PROFILE_K
        if args.K < k_min:
            v.append(f"K >= {k_min} required")
    elif cmd == "duality-sweep":
        build(duality.FiniteOperator, np.ones((1, 1)), args.p, args.q)
        if not args.q >= args.p:
            v.append("q >= p required")
        if not args.q >= 2.0:   # T*: l^{q'} -> l^{p'} needs q' = q / (q - 1) <= 2
            v.append(f"q >= 2 required for the adjoint, got {args.q}")
    elif cmd == "counterexample":
        if args.r is None:
            v.append("--r required")
        else:
            build(duality.sigma_counterexample, args.r, args.sigma, args.deltas)
        if args.sigma <= 0:
            v.append("sigma > 0 required")
        if len(args.deltas) < 2:  # the decay check compares successive deltas
            v.append("at least 2 deltas required")
    elif cmd == "transport-probe":
        build(transport.PhaseGrid.build, 1, args.L, args.points)
        if args.directions < 1:
            v.append("directions >= 1 required")
        if not args.eps:
            v.append("at least 1 eps required")
        elif len(args.eps) < 2:  # the quadratic-deficit check compares eps values
            v.append("at least 2 eps required")
        elif len(set(args.eps)) < len(args.eps):
            v.append("eps values must be distinct")
        for e in args.eps:
            if not 0.0 < e <= 0.25:
                v.append(f"eps {e} outside (0, 0.25]")
    return v


# ---------------------------------------------------------------------------
# commands


def _lambda_twin_check(checks: list[Check], w, spectrum, kq: int, tol: float) -> None:
    """lambda_kq against a route the spectrum did not take: the quadrature
    for closed-form values, the Legendre form for quadrature values; no line
    where the Legendre form does not apply."""
    from . import spectrum as spec_mod
    if spectrum.certificate.method == "monotone-closed-form":
        twin, _ = spec_mod.lambda_quadrature(w, kq, tol)
    else:
        try:
            twin = spec_mod.lambda_legendre_form(w, kq)
        except ValueError:  # s is not a Poisson-kernel exponent (n +- 1)/2
            return
    rel = abs(twin - spectrum.values[kq]) / spectrum.values[kq]
    _check(checks, "eigenvalue-quadrature-twin", rel < 1e-6, rel, 1e-6,
           f"lambda_{kq} twin-route agreement")


def cmd_spectrum(args, checks: list[Check]) -> None:
    from . import spectrum as spec_mod
    w = _weight(args)
    spectrum = spec_mod.build_spectrum(w, args.K, args.tol)
    to_text = spec_mod.spectrum_to_json if args.format == "json" else spec_mod.spectrum_to_csv
    _write(args, f"spectrum.{args.format}", to_text(spectrum))
    if args.tau is not None:
        closed = spec_mod.watson_integral(args.n, 0, args.tau)
        quadv, _ = spec_mod.watson_quadrature(args.n, 0, args.tau)
        rel = abs(closed - quadv) / closed
        _check(checks, "eigenvalue-quadrature-twin", rel < 1e-6, rel, 1e-6,
               f"power-weight identity at tau={args.tau}")
    _lambda_twin_check(checks, w, spectrum, min(3, args.K), args.tol)


def cmd_constants(args, checks: list[Check]) -> None:
    from . import spectrum as spec_mod
    w = _weight(args)
    spectrum = spec_mod.build_spectrum(w, args.K, args.tol)
    c_sq = spectrum.lambda0
    c_prime = spec_mod.stability_constant(spectrum)
    _check(checks, "sharp-constant-eigenvalue", c_sq > 0, c_sq, 0.0,
           "C(w)^2 = lambda_0")
    _check(checks, "stability-eigenvalue-gap", 0.0 < c_prime < c_sq, c_prime, 0.0,
           f"C'(w) = lambda_0 - lambda_star, attaining set {list(spectrum.K_set)}")
    _lambda_twin_check(checks, w, spectrum, min(2, args.K), args.tol)
    doc = {
        "n": args.n,
        "s": args.s,
        "weight": args.weight,
        "sharp_constant_squared": c_sq,
        "stability_constant": c_prime,
        "lambda_star": spectrum.lambda_star,
        "attaining_set": list(spectrum.K_set),
    }
    _write(args, "constants.json", json.dumps(doc, indent=2) + "\n")


def cmd_verify_trace(args, checks: list[Check]) -> None:
    from . import harmonic, spectrum as spec_mod
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


def cmd_duality_sweep(args, checks: list[Check]) -> None:
    rng = np.random.default_rng(args.seed)
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


def cmd_counterexample(args, checks: list[Check]) -> None:
    rows = duality.sigma_counterexample(args.r, args.sigma, args.deltas)
    lines = ["delta,ratio,numerator,identity_residual"]
    for row in rows:
        lines.append(
            f"{row['delta']:.6g},{row['ratio']:.12g},{row['numerator']:.12g},"
            f"{row['identity_residual']:.3g}"
        )
    _write(args, "counterexample.csv", "\n".join(lines) + "\n")
    worst_id = max(row["identity_residual"] for row in rows)
    _check(checks, "counterexample-identity", worst_id < 1e-14, worst_id,
           1e-14, "closed-form two-delta identity")
    ratios = [row["ratio"] for row in rows]
    decreasing = all(b < a for a, b in zip(ratios, ratios[1:]))
    _check(checks, "counterexample-decay", decreasing, ratios[-1] / ratios[0],
           1.0, "ratios strictly decreasing along the delta list")


def cmd_transport_probe(args, checks: list[Check]) -> None:
    grid = transport.PhaseGrid.build(1, args.L, args.points)
    p, q, _ = transport.exponents(1)
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
    for _ in range(5):
        ff = transport.random_phase_function(grid, rng)
        Gs = np.zeros((grid.t.size, grid.x.size))
        specfun.add_gaussian(Gs, 1.0, (grid.t, rng.uniform(-2, 2), rng.uniform(1, 3)),
                             (grid.x, rng.uniform(-2, 2), rng.uniform(1, 3)))
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
    a, b = (grid.t, grid.x) if args.side == "dual" else (grid.x, grid.v)
    curves = []
    worst_band = 0.0
    for i in range(args.directions):
        raw = np.zeros((a.size, b.size))
        specfun.add_gaussian(raw, 1.0, (a, rng.uniform(-2, 2), rng.uniform(1, 2.5)),
                             (b, rng.uniform(-2, 2), rng.uniform(1, 2.5)))
        direction = transport.make_probe_direction(raw, 1, grid, args.side)
        pts = transport.local_stability_probe(1, direction, args.eps, grid,
                                              side=args.side, rhat=rhat)
        curves.append(pts)
        quad_coef = [pt.deficit / pt.eps ** 2 for pt in pts]
        worst_band = max(worst_band, max(quad_coef) / min(quad_coef))
    _check(checks, "transport-quadratic-deficit", worst_band <= 2.0,
           worst_band, 2.0, f"{args.directions} seeded directions, eps {args.eps}")
    _write(args, "transport_probe.csv", transport.probe_to_csv(
        [pt for pts in curves for pt in pts],
        [i for i, pts in enumerate(curves) for _ in pts]))


def cmd_validate(args) -> int:
    violations = validate_args(args)
    for msg in violations:
        print(f"violation: {msg}")
    if not violations:
        print("config ok")
    return 1 if violations else 0


# ---------------------------------------------------------------------------
# parser


def _csv_floats(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t.strip()]


def build_parser(required: bool = True) -> argparse.ArgumentParser:
    """The tracestab parser.  With `required=False` no flag is required
    (validate parses its target's flags so)."""
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
    p.add_argument("--seed", type=int, required=required)
    common(p)

    p = sub.add_parser("duality-sweep", help="finite-dimensional duality lab sweep")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, required=required)
    p.add_argument("--p", type=float, default=1.5)
    p.add_argument("--q", type=float, default=2.5)
    common(p)

    p = sub.add_parser("counterexample", help="stability-exponent counterexample family")
    p.add_argument("--r", type=float, required=required)
    p.add_argument("--sigma", type=float, default=2.0)
    p.add_argument("--deltas", type=_csv_floats, default=[0.1, 0.01, 0.001])
    common(p)

    p = sub.add_parser("transport-probe", help="kinetic-transport stability probe")
    p.add_argument("--seed", type=int, required=required)
    p.add_argument("--L", type=float, default=40.0)
    p.add_argument("--points", type=int, default=256)
    p.add_argument("--eps", type=_csv_floats, default=[0.05, 0.1, 0.2])
    p.add_argument("--directions", type=int, default=5)
    p.add_argument("--trials", type=int, default=100,
                   help="random functions for the sharp-ratio check")
    p.add_argument("--side", choices=("primal", "dual"), default="primal")
    common(p)

    p = sub.add_parser("validate", help="report precondition violations without executing")
    p.add_argument("--target", required=required, choices=tuple(_DISPATCH))
    return ap


# command -> (function appending its checks, report file name)
_DISPATCH = {
    "spectrum": (cmd_spectrum, "spectrum_report"),
    "constants": (cmd_constants, "constants_report"),
    "verify-trace": (cmd_verify_trace, "verify_trace_report"),
    "duality-sweep": (cmd_duality_sweep, "duality_report"),
    "counterexample": (cmd_counterexample, "counterexample_report"),
    "transport-probe": (cmd_transport_probe, "transport_report"),
}


def _flags(ap: argparse.ArgumentParser, command: str) -> set[str]:
    """Destinations of the flags of one command, from a parser built with
    required=False."""
    return set(vars(ap.parse_args([command]))) - {"command", "config"}


def _read_config(path: str, ap: argparse.ArgumentParser) -> dict:
    """Flag values from a JSON object; a key may belong to any command, but
    must name a flag of one."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    config = {k.replace("-", "_"): v for k, v in doc.items()}
    flags = set().union(*(_flags(ap, cmd) for cmd in (*_DISPATCH, "validate")))
    unknown = sorted(set(config) - flags)
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    return config


def _with_config(config: dict, ap: argparse.ArgumentParser, command: str,
                 tokens: list[str]) -> list[str]:
    """argv for one command: each config key that names one of its flags
    becomes a --flag=value token ahead of the command line's tokens, so
    argparse checks its type and choices, and the command line, parsed
    last, wins.  A list is joined by commas; a null leaves the default."""
    flags = _flags(ap, command)
    pre = [f"--{k.replace('_', '-')}="
           + (",".join(map(str, v)) if isinstance(v, list) else str(v))
           for k, v in config.items() if k in flags and v is not None]
    return [command, *pre, *tokens]


def main(argv=None) -> int:
    pre = argparse.ArgumentParser(prog="tracestab", add_help=False)
    pre.add_argument("--config")
    known, argv = pre.parse_known_args(argv)
    loose = build_parser(required=False)
    try:
        config = _read_config(known.config, loose) if known.config else {}
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if argv and argv[0] in ("validate", *_DISPATCH):
        argv = _with_config(config, loose, argv[0], argv[1:])
    ap = build_parser()
    args, rest = ap.parse_known_args(argv)
    if args.command == "validate":
        # the target's own parser: its flags, defaults, types and choices
        return cmd_validate(loose.parse_args(_with_config(config, loose, args.target, rest)))
    if rest:
        ap.error(f"unrecognized arguments: {' '.join(rest)}")
    violations = validate_args(args)
    if violations:
        for msg in violations:
            print(f"config error: {msg}", file=sys.stderr)
        return 2
    run, report = _DISPATCH[args.command]
    checks: list[Check] = []
    try:
        run(args, checks)
    except (ConvergenceError, InconclusiveError, InconsistencyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return _report(checks, args, report)


if __name__ == "__main__":
    sys.exit(main())
