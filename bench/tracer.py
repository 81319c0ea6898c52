"""Spans around calls into the program's layers, recorded from benchmark code.

`Tracer.install` replaces each traced public function with a timing wrapper
in every `bandgap` module that binds it by name (for example `recovery` and
`solvers` both import `diagnostics` from `operators`), so nested calls are
seen wherever they are made.  Spans are kept in memory with a link to the
span that was open when they started; self time is a span's duration minus
the durations of its direct children.  Two layers record extra counts:
`kernel.kernel_profile` counts the lag values it evaluates, and
`operators.assemble_rhs` records the `tracemalloc` peak inside each call.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

# Public functions wrapped in a traced run, as "<module>.<function>".
TRACED = (
    "cli.main",
    "series.read_series_csv",
    "masks.make_mask",
    "masks.apply_mask",
    "kernel.kernel_profile",
    "operators.assemble_operator",
    "operators.assemble_rhs",
    "operators.diagnostics",
    "solvers.solve_direct",
    "solvers.error_bound",
    "recovery.recover",
    "forecast.forecast",
    "forecast.dummy_sensitivity",
    "lab.run_experiment",
    "lab.add_noise",
)

# Per-layer metrics reported by a traced run: name -> unit.  Values are per
# operation (`calls`, `ms`, `self_ms`, `evals`) or the largest peak inside
# one call (`peak_mb`).  `trace.overhead_ms` is traced minus untraced
# median latency.
PER_LAYER = {
    "cli.main.self_ms": "ms",
    "series.read_series_csv.ms": "ms",
    "masks.make_mask.ms": "ms",
    "masks.apply_mask.ms": "ms",
    "kernel.kernel_profile.calls": "count",
    "kernel.kernel_profile.evals": "count",
    "operators.assemble_rhs.ms": "ms",
    "operators.assemble_rhs.peak_mb": "MiB",
    "operators.assemble_operator.ms": "ms",
    "operators.diagnostics.calls": "count",
    "operators.diagnostics.ms": "ms",
    "solvers.solve_direct.self_ms": "ms",
    "solvers.error_bound.ms": "ms",
    "recovery.recover.calls": "count",
    "recovery.recover.self_ms": "ms",
    "forecast.forecast.calls": "count",
    "forecast.forecast.self_ms": "ms",
    "lab.run_experiment.self_ms": "ms",
    "lab.add_noise.ms": "ms",
    "trace.overhead_ms": "ms",
}


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        # Each span: [id, parent id or None, name, operation number, start, end].
        self.spans: list[list] = []
        self.evals = 0
        self.rhs_peaks: list[int] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        extra = {
            "kernel.kernel_profile": self._count_evals,
            "operators.assemble_rhs": self._track_memory,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(self.spans), self._stack[-1] if self._stack else None, name, self.op, 0.0, 0.0]
            self.spans.append(span)
            self._stack.append(span[0])
            span[4] = time.perf_counter()
            try:
                if extra is not None:
                    return extra(fn, args, kwargs)
                return fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                self._stack.pop()

        return wrapper

    def _count_evals(self, fn, args, kwargs):
        lags = kwargs["lags"] if "lags" in kwargs else args[1]
        self.evals += np.size(lags)
        return fn(*args, **kwargs)

    def _track_memory(self, fn, args, kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            self.rhs_peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    def install(self) -> None:
        """Wrap every TRACED function in each loaded bandgap module that binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "bandgap" or n.startswith("bandgap.")]
        for target in TRACED:
            mod_name, func_name = target.split(".")
            original = getattr(sys.modules[f"bandgap.{mod_name}"], func_name)
            wrapper = self._wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_times(self) -> list[float]:
        child = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [(end - start) - child[sid] for sid, _, _, _, start, end in self.spans]

    def layer_metrics(self, n_ops: int, overhead_ms: float) -> dict[str, float]:
        """Per-operation totals for the PER_LAYER metrics over `n_ops` traced operations."""
        calls, ms, self_ms = defaultdict(int), defaultdict(float), defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            name = span[2]
            calls[name] += 1
            ms[name] += (span[5] - span[4]) * 1e3
            self_ms[name] += own * 1e3
        out = {}
        for metric in PER_LAYER:
            name, _, kind = metric.rpartition(".")
            if metric == "trace.overhead_ms":
                out[metric] = overhead_ms
            elif kind == "evals":
                out[metric] = self.evals / n_ops
            elif kind == "peak_mb":
                out[metric] = max(self.rhs_peaks, default=0) / 2**20
            else:
                out[metric] = {"calls": calls, "ms": ms, "self_ms": self_ms}[kind][name] / n_ops
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines, times in ms from the first span."""
        t0 = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            for (sid, parent, name, op, start, end), own in zip(self.spans, self.self_times()):
                f.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "op": op,
                    "start_ms": (start - t0) * 1e3, "ms": (end - start) * 1e3, "self_ms": own * 1e3,
                }) + "\n")
