"""In-memory spans around the public functions of each tracestab layer.

The tracer replaces module attributes with timing wrappers, so calls made
inside the package (`build_spectrum` -> `lambda_quadrature`,
`ratio_gradient` -> `velocity_average`) go through them too; the program's
files are not edited.  A span is [name, start, end, parent, op, attrs]:
`parent` is the index of the enclosing span and `op` the index of the
benchmark operation it belongs to (the request identifier), or -1.
"""

from __future__ import annotations

import functools
import json
import statistics
import warnings
from time import perf_counter

from scipy.integrate import IntegrationWarning

# Public functions wrapped per layer.  `specfun` and `cli` are not timed:
# their calls take microseconds and the workloads do not go through the CLI.
TRACED = {
    "spectrum": ("build_spectrum", "lambda_quadrature"),
    "harmonic": ("random_profile_set", "deficit_report", "reverse_deficit_check",
                 "equality_case_builder", "extremising_sequence"),
    "transport": ("velocity_average", "xray_adjoint", "ratio_estimate", "ratio_gradient",
                  "make_probe_direction", "local_stability_probe", "random_phase_function"),
    "duality": ("operator_norm", "brute_force_norm", "extremiser_transfer",
                "cfl3_gap", "cfl1_gap"),
}


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.integration_warnings = 0
        self._saved: list[tuple] = []

    # -- recording -------------------------------------------------------
    def enter(self, name: str) -> int:
        i = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.op, None])
        self.stack.append(i)
        return i

    def exit(self, i: int) -> None:
        self.spans[i][2] = perf_counter()
        self.stack.pop()

    def begin_op(self, kind: str) -> int:
        i = self.enter("op:" + kind)
        self.spans[i][4] = i
        self.op = i
        return i

    def end_op(self, i: int) -> None:
        self.exit(i)
        self.op = -1

    # -- installing the wrappers ------------------------------------------
    def _wrap(self, fn, name: str):
        spectrum_layer = name.startswith("spectrum.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = spectrum_layer and not any(
                self.spans[j][0].startswith("spectrum.") for j in self.stack)
            i = self.enter(name)
            try:
                if outermost:
                    with warnings.catch_warnings(record=True) as seen:
                        # "always": every occurrence is counted, not once per location
                        warnings.simplefilter("always")
                        out = fn(*args, **kwargs)
                    self._count_warnings(seen)
                else:
                    out = fn(*args, **kwargs)
            finally:
                self.exit(i)
            if name == "duality.operator_norm":
                self.spans[i][5] = {"iterations": out.iterations, "starts": out.starts}
            return out

        return traced

    def _count_warnings(self, seen) -> None:
        for w in seen:
            if issubclass(w.category, IntegrationWarning):
                self.integration_warnings += 1
            else:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)

    def install(self) -> None:
        if self._saved:
            return
        for layer, names in TRACED.items():
            mod = self.modules[layer]
            for attr in names:
                fn = getattr(mod, attr)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, f"{layer}.{attr}"))
        harmonic = self.modules["harmonic"]
        base = harmonic.GridSpectrum
        tracer = self

        class TracedGridSpectrum(base):
            def __init__(self, *args, **kwargs):
                i = tracer.enter("harmonic.GridSpectrum")
                try:
                    super().__init__(*args, **kwargs)
                finally:
                    tracer.exit(i)

        self._saved.append((harmonic, "GridSpectrum", base))
        harmonic.GridSpectrum = TracedGridSpectrum

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "attrs"],
                       "spans": self.spans}, fh)

    # -- per-layer metrics --------------------------------------------------
    def layer_metrics(self, traced_rounds: int) -> dict:
        """Per-layer metrics from the spans; see README.md for each one."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            by_name.setdefault(s[0], []).append(i)
        op_kind = {i: spans[i][0][3:] for i in by_name.get("op:sphere.trial", [])
                   + by_name.get("op:kinetic.probe", []) + by_name.get("op:duality.op", [])}

        def ids(name):
            return by_name.get(name, [])

        def median_ms(name, self_time=False):
            d = [spans[i][2] - spans[i][1] - (child_time[i] if self_time else 0.0)
                 for i in ids(name)]
            return 1e3 * statistics.median(d) if d else 0.0

        def per_op(names, kind):
            ops = sum(1 for k in op_kind.values() if k == kind)
            hits = sum(1 for n in names for i in ids(n) if op_kind.get(spans[i][4]) == kind)
            return hits / ops if ops else 0.0

        def per_round(name):
            return sum(1 for i in ids(name) if spans[i][4] >= 0) / max(traced_rounds, 1)

        def attr_per_op(key):
            ops = sum(1 for k in op_kind.values() if k == "duality.op")
            total = sum(spans[i][5][key] for i in ids("duality.operator_norm")
                        if op_kind.get(spans[i][4]) == "duality.op")
            return total / ops if ops else 0.0

        applies = ("transport.velocity_average", "transport.xray_adjoint")
        return {
            "spectrum.build_spectrum.s": (sum(spans[i][2] - spans[i][1]
                                              for i in ids("spectrum.build_spectrum")), "s"),
            "spectrum.lambda_quadrature.calls": (len(ids("spectrum.lambda_quadrature")), "count"),
            "spectrum.lambda_quadrature.ms": (median_ms("spectrum.lambda_quadrature"), "ms"),
            "spectrum.integration_warnings": (self.integration_warnings, "count"),
            "harmonic.random_profile_set.ms": (median_ms("harmonic.random_profile_set"), "ms"),
            "harmonic.deficit_report.ms": (median_ms("harmonic.deficit_report"), "ms"),
            "harmonic.reverse_deficit_check.ms": (median_ms("harmonic.reverse_deficit_check"), "ms"),
            "harmonic.grid_spectra_per_op": (per_op(["harmonic.GridSpectrum"], "sphere.trial"),
                                             "count"),
            "transport.velocity_average.ms": (median_ms("transport.velocity_average"), "ms"),
            "transport.velocity_average.calls": (per_round("transport.velocity_average"), "count"),
            "transport.xray_adjoint.ms": (median_ms("transport.xray_adjoint"), "ms"),
            "transport.xray_adjoint.calls": (per_round("transport.xray_adjoint"), "count"),
            "transport.applies_per_op": (per_op(applies, "kinetic.probe"), "count"),
            "transport.ratio_estimate.ms": (median_ms("transport.ratio_estimate"), "ms"),
            "transport.ratio_gradient.ms": (median_ms("transport.ratio_gradient"), "ms"),
            "transport.make_probe_direction.ms": (median_ms("transport.make_probe_direction"),
                                                  "ms"),
            "transport.local_stability_probe.self_ms": (
                median_ms("transport.local_stability_probe", self_time=True), "ms"),
            "duality.operator_norm.ms": (median_ms("duality.operator_norm"), "ms"),
            "duality.operator_norm.iterations": (attr_per_op("iterations"), "count"),
            "duality.operator_norm.starts": (attr_per_op("starts"), "count"),
            "duality.brute_force_norm.ms": (median_ms("duality.brute_force_norm"), "ms"),
            "duality.extremiser_transfer.ms": (median_ms("duality.extremiser_transfer"), "ms"),
        }
