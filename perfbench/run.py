"""tracestab benchmark: one workload per run, in one fresh process.

    python3 perfbench/run.py --workload sphere-sweep --seed 1 --seconds 26 --trace 0

Runs from the root of a checkout and imports the package from its `src/`.
`--trace 0` prints the end-to-end metrics; `--trace 1` wraps the library's
public functions and prints the per-layer metrics instead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
`--workload all` runs the four workloads one after another, each in its own
process; `--selftest` feeds every output check a wrong value (README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
NAMES = ("sphere-sweep", "kinetic-primal", "kinetic-dual", "duality-lab")
SETUP_SAMPLES = 7
# The timings are scaled to a host on which reference_loop() takes 15 ms, as
# it does on the 2-vCPU VM of README.md in its faster state (11-20 ms seen).
REF_NOMINAL_S = 0.015
CHILD_TIMEOUT = 30.0


class Meter:
    """Times operations and sums them per round; counts attempts and
    failures.  In a traced round every operation is also a span."""

    def __init__(self, primary: str, errors: tuple, tracer=None):
        self.primary = primary
        self.errors = errors
        self.tracer = tracer
        self.latencies: dict[bool, list[float]] = {False: [], True: []}
        self.rounds: list[tuple[float, bool]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._busy = 0.0
        self._traced = False

    def begin_round(self, traced: bool) -> None:
        self._busy = 0.0
        self._traced = traced

    def end_round(self) -> None:
        self.rounds.append((self._busy, self._traced))

    def op(self, kind: str, fn, *args):
        self.attempted += 1
        span = self.tracer.begin_op(kind) if self._traced else None
        t0 = perf_counter()
        try:
            out = fn(*args)
        except self.errors as exc:
            self.failed += 1
            msg = f"{kind}: {type(exc).__name__}: {exc}"
            if msg not in self.failures and len(self.failures) < 5:
                self.failures.append(msg)
            out = None
        dt = perf_counter() - t0
        if span is not None:
            self.tracer.end_op(span)
        self._busy += dt
        if kind == self.primary and out is not None:
            self.latencies[self._traced].append(dt)
        return out

    def untraced_rounds(self) -> list[float]:
        return [t for t, traced in self.rounds if not traced]


_REF_BUFFER = np.ones(250_000)


def reference_loop() -> float:
    """Seconds taken by a fixed piece of work that does not touch tracestab:
    interpreted Python, small numpy calls, and passes over a 2 MB array.
    Its median over a run measures the host's speed during the run."""
    t0 = perf_counter()
    s = 0.0
    for i in range(80_000):
        s += i * 0.5
    a = np.arange(256.0)
    for _ in range(1_600):
        a = np.sqrt(a * a + 1.0)
    for _ in range(32):
        np.multiply(_REF_BUFFER, 1.0000001, out=_REF_BUFFER)
    return perf_counter() - t0


def setup_sample(workload: str) -> float:
    """Seconds from starting a fresh interpreter to the end of the workload's
    set-up (import included), read from the child's own clock."""
    t0 = time.time()
    proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), "--setup-only",
                             "--workload", workload], stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    words = out.split()
    if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
        raise RuntimeError(f"set-up child for {workload} failed (exit {proc.returncode})")
    return float(words[1]) - t0


def run_workload(args) -> int:
    import tracestab
    from reference import Checks
    from tracing import Tracer
    from workloads import MODULES, WORKLOADS

    wl = WORKLOADS[args.workload]()
    tracer = Tracer(MODULES) if args.trace else None
    if tracer is not None:
        tracer.install()
    wl.setup()
    wl.prepare()
    errors = (tracestab.ConvergenceError, tracestab.InconclusiveError,
              tracestab.InconsistencyError, ValueError)
    meter = Meter(wl.primary, errors, tracer)
    checks = Checks()
    rng = np.random.default_rng(args.seed)
    setup_times: list[float] = []
    ref_times = [reference_loop()]   # timed after every round and set-up sample
    samples = 0 if tracer else SETUP_SAMPLES
    start = perf_counter()
    # whole rounds until --seconds; a traced run alternates untraced and
    # traced rounds: the latency percentiles come from the untraced ones, and
    # the tracing overhead is the difference between the two medians.  An
    # untraced run spreads its set-up samples evenly over the same seconds,
    # between rounds, so that they meet the host in the states the rounds do
    while True:
        if len(setup_times) < samples and (
                perf_counter() - start >= len(setup_times) * args.seconds / samples):
            setup_times.append(setup_sample(args.workload))
            ref_times.append(reference_loop())
            continue
        traced = tracer is not None and len(meter.rounds) % 2 == 1
        if traced:
            tracer.install()
        elif tracer is not None:
            tracer.uninstall()
        meter.begin_round(traced)
        wl.round(meter, rng, checks)
        meter.end_round()
        ref_times.append(reference_loop())
        enough = len(meter.rounds) >= (2 if tracer else 1) and len(setup_times) == samples
        if enough and perf_counter() - start >= args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()
    wl.final_checks(checks, args.seed)

    if tracer is None:
        # the host's speed in a run is the median reference-loop time; both
        # timings are divided by it and quoted at the nominal speed
        host = statistics.median(ref_times) / REF_NOMINAL_S
        metrics = {
            "setup_s": (statistics.median(setup_times) / host, "s"),
            "round_s": (statistics.median(meter.untraced_rounds()) / host, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        traced_rounds = sum(1 for _, tr in meter.rounds if tr)
        metrics = tracer.layer_metrics(traced_rounds)
        untraced = meter.latencies[False]
        metrics["op_p50_ms"] = (1e3 * float(np.percentile(untraced, 50)), "ms")
        metrics["op_p90_ms"] = (1e3 * float(np.percentile(untraced, 90)), "ms")
        overhead = statistics.median(meter.latencies[True]) / statistics.median(untraced) - 1.0
        metrics["trace.overhead_pct"] = (100.0 * overhead, "%")

    os.makedirs(RESULTS, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(os.path.join(RESULTS, f"trace-{stem}.json"))
    result = {
        "correct": checks.correct,
        "attempted": meter.attempted,
        "failed": meter.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(RESULTS, f"result-{stem}.json"), "w") as fh:
        json.dump(dict(result, rounds=[t for t, _ in meter.rounds],
                       latencies=meter.latencies[False], setup=setup_times,
                       reference=ref_times,
                       checks=checks.tally, notes=checks.notes, failures=meter.failures),
                  fh, indent=1)

    print(f"workload {args.workload}: seed {args.seed}, {len(meter.rounds)} rounds, "
          f"{meter.attempted} operations attempted, {meter.failed} failed, "
          f"{len(meter.latencies[False])} timed {wl.primary} operations")
    for line in checks.summary():
        print(line)
    for line in checks.notes:
        print("note " + line)
    for line in checks.failures() + meter.failures:
        print("FAIL " + line, file=sys.stderr)
    for k, (v, u) in metrics.items():
        print(f"{k} = {float(v):.6g} {u}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints one table and one JSON line."""
    results = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=180)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for k, m in res["metrics"].items():
            print(f"  {k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--selftest", action="store_true",
                    help="check that every output check rejects a wrong value")
    args = ap.parse_args(argv)

    # the package under test is the checkout's own src/, never an installed one
    if not os.path.isfile(os.path.join(SRC, "tracestab", "__init__.py")):
        print(f"error: no tracestab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import tracestab
    if os.path.dirname(os.path.dirname(os.path.abspath(tracestab.__file__))) != SRC:
        print(f"error: imported tracestab from {tracestab.__file__}", file=sys.stderr)
        return 2

    if args.selftest:
        from selftest import main as selftest
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_only:
        from workloads import WORKLOADS
        WORKLOADS[args.workload]().setup()
        print("ready", repr(time.time()), flush=True)
        return 0
    if args.seed is None or args.seconds is None:
        ap.error("--seed and --seconds are required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
