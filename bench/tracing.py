"""Per-layer timing by wrapping library functions where their callers look
them up, without editing the library.

Each entry in PATCHES names a module attribute, the per-layer metric its
busy (self) time goes to, and optionally a counter bumped per call. A span's
self time is its duration minus the durations of the spans it encloses, so
a call from generator into bath counts under bath only. Spans are
aggregated as they close; nothing is written out.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

# (module, attribute, metric, counter)
PATCHES = (
    ("lindforge.scenario", "loads_scenario", "scenario.load_s", "scenario.docs"),
    ("lindforge.spectral", "build_spectrum", "spectral.spectrum_s", None),
    ("lindforge.generator", "bohr_frequencies", "spectral.spectrum_s", None),
    ("lindforge.dynamics", "bohr_frequencies", "spectral.spectrum_s", None),
    ("lindforge.generator", "eigenoperator_decomposition", "spectral.eigenops_s", None),
    ("lindforge.generator", "gamma_matrix", "bath.rates_s", "bath.rate_calls"),
    ("lindforge.generator", "delta_matrix", "bath.rates_s", "bath.rate_calls"),
    ("lindforge.cli", "gamma_matrix", "bath.rates_s", "bath.rate_calls"),
    ("lindforge.cli", "delta_matrix", "bath.rates_s", "bath.rate_calls"),
    ("lindforge.dynamics", "gamma_matrix", "bath.rates_s", "bath.rate_calls"),
    ("lindforge.cli", "half_fourier_w", "bath.rates_s", None),
    ("lindforge.cli", "correlation_function", "bath.correlation_s", None),
    ("lindforge.bath", "center_couplings", "bath.center_s", None),
    ("lindforge.dynamics", "estimate_correlation_time", "bath.corr_time_s", None),
    ("lindforge.cli", "two_time_correlation", "bath.two_time_s", "bath.two_time_calls"),
    ("lindforge.generator", "derive_generator", "generator.assemble_s", None),
    ("lindforge.cli", "derive_generator", "generator.assemble_s", None),
    ("lindforge.generator", "build_standard_form", "generator.assemble_s", None),
    ("lindforge.generator", "build_presecular", "generator.assemble_s", None),
    ("lindforge.generator", "build_rate_tensors", "generator.rate_tensors_s", None),
    ("lindforge.generator", "pauli_equations", "generator.pauli_s", "generator.pauli_calls"),
    ("lindforge.dynamics", "generator_superoperator_matrix", "generator.superop_s", None),
    ("lindforge.dynamics", "propagate", "dynamics.propagate_s", None),
    ("lindforge.dynamics", "exact_oracle", "dynamics.oracle_s", None),
    ("lindforge.dynamics", "timescale_report", "dynamics.timescale_s", None),
    ("lindforge.cli", "timescale_report", "dynamics.timescale_s", None),
    ("lindforge.cli", "run_checks", "cli.battery_s", None),
    ("lindforge.cli", "build_report", "cli.report_s", None),
    ("lindforge.cli", "trace_distance", "cli.report_s", None),
    ("lindforge.cli", "trajectory_csv_rows", "cli.csv_s", None),
)
# rhs_function gets its own wrapper: building the closure is one span, each
# call of the closure another
RHS_LOOKUPS = ("lindforge.cli", "lindforge.dynamics")


class NullTracer:
    """Stand-in for untraced runs: benchmark-side spans cost nothing."""

    enabled = True

    def span(self, metric: str):
        return nullcontext()


class Tracer:
    """Busy time per metric and call counters while installed and enabled."""

    def __init__(self):
        self.busy = defaultdict(float)
        self.counts = defaultdict(int)
        self.enabled = True
        self._children = []  # enclosed-span time of each open span
        self._rk4 = False
        self._saved = []

    def reset(self):
        self.busy.clear()
        self.counts.clear()

    def snapshot(self) -> dict:
        return {"busy": dict(self.busy), "counts": dict(self.counts)}

    def _close(self, metric: str, start: float):
        duration = perf_counter() - start
        self.busy[metric] += duration - self._children.pop()
        if self._children:
            self._children[-1] += duration

    @contextmanager
    def span(self, metric: str):
        self._children.append(0.0)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(metric, start)

    def _wrap(self, fn, metric: str, counter: str | None):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if counter is not None:
                self.counts[counter] += 1
            self._children.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(metric, start)
        return traced

    def _wrap_propagate(self, fn):
        timed = self._wrap(fn, "dynamics.propagate_s", None)

        def traced(rho0, g, times, method="expm"):
            self._rk4 = self.enabled and method == "rk4"
            try:
                return timed(rho0, g, times, method=method)
            finally:
                self._rk4 = False
        return traced

    def _wrap_rhs_function(self, fn):
        build = self._wrap(fn, "generator.rhs_build_s", None)

        def traced(g):
            rhs = build(g)
            apply = self._wrap(rhs, "generator.rhs_apply_s", "generator.rhs_calls")

            def traced_rhs(rho):
                if self._rk4:
                    self.counts["dynamics.rk4_rhs_calls"] += 1
                return apply(rho)
            return traced_rhs if self.enabled else rhs
        return traced

    def install(self):
        """Replace every listed attribute with its traced wrapper."""
        for module_name, attr, metric, counter in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            if attr == "propagate":
                wrapped = self._wrap_propagate(original)
            else:
                wrapped = self._wrap(original, metric, counter)
            setattr(module, attr, wrapped)
        for module_name in RHS_LOOKUPS:
            module = importlib.import_module(module_name)
            original = module.rhs_function
            self._saved.append((module, "rhs_function", original))
            module.rhs_function = self._wrap_rhs_function(original)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
