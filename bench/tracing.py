"""Span recorder for the traced run.

Wraps every public function of each hawkpair module (the layers) from the
outside, by rebinding the names in every hawkpair module namespace that holds
them, and records one span per call: name, start, end, parent span and a
size computed from the arguments. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from workloads import LARGE_N

LAYERS = ("cli", "kinematics", "fock", "density", "closed_form", "sweep")
RENAMED = {
    "s_a_closed": "s_a",
    "s_b_closed": "s_b",
    "compare_closed_vs_numeric": "compare",
}


class Tracer:
    def __init__(self, hawkpair):
        self.hp = hawkpair
        self.spans = []  # (name, start, end, parent index, size)
        self._stack = []

    def _wrap(self, fn, name, sized):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name, size = sized(args, kwargs) if sized else (name, 0)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (span_name, start, end, parent, size)

        return traced

    def _sizers(self):
        resolve = self.hp.closed_form.resolve_cutoff

        def s_ab(args, kwargs):
            n = resolve(*args, **kwargs)
            band = "small_n" if n <= LARGE_N else "large_n"
            return f"closed_form.s_ab.{band}", (n + 1) ** 2

        def state(args, kwargs):
            cutoff = args[2] if len(args) > 2 else kwargs["cutoff"]
            return "fock.entangled_pair_state", 8 * (cutoff + 1) ** 4

        def eig(args, kwargs):
            matrix = args[0] if args else kwargs["matrix"]
            return "density.eig_symmetric", len(getattr(matrix, "entries", matrix)) ** 3

        return {"s_ab_closed": s_ab, "entangled_pair_state": state, "eig_symmetric": eig}

    @contextmanager
    def installed(self):
        """Rebind every layer's public functions to traced wrappers, then restore."""
        sizers = self._sizers()
        wrapped = {}
        for layer in LAYERS:
            module = getattr(self.hp, layer)
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{RENAMED.get(attr, attr)}"
                wrapped[id(fn)] = (fn, self._wrap(fn, name, sizers.get(attr)))
        restore = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "hawkpair" and not mod_name.startswith("hawkpair."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    restore.append((module, attr, value))
                    setattr(module, attr, wrapped[id(value)][1])
        try:
            yield self
        finally:
            for module, attr, value in restore:
                setattr(module, attr, value)


def self_times(spans):
    """Per span name: (self time, calls, summed size). Self time is the span's
    duration minus the durations of its direct children."""
    child = defaultdict(float)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(lambda: [0.0, 0, 0])
    for idx, (name, start, end, _, size) in enumerate(spans):
        agg = out[name]
        agg[0] += end - start - child[idx]
        agg[1] += 1
        agg[2] += size
    return out


def layer_metrics(library_spans, cli_spans, numeric_rows, numeric_asked) -> dict:
    """Per-layer figures of one traced pass of the library (and of cli.main).
    A layer or function that did not run reads 0."""
    lib = self_times(library_spans)
    cli = self_times(cli_spans)

    def total(agg, prefix):
        return sum(v[0] for k, v in agg.items() if k.startswith(prefix))

    metrics = {f"{layer}.self_s": total(lib, layer + ".") for layer in LAYERS if layer != "cli"}
    metrics["cli.self_s"] = total(cli, "cli.")
    metrics["sweep.emit.self_s"] = total(cli, "sweep.emit_")
    for name in (
        "closed_form.resolve_cutoff", "closed_form.s_a", "closed_form.s_ab.small_n",
        "closed_form.s_ab.large_n", "fock.entangled_pair_state", "density.reduced_density",
        "density.partial_trace", "density.partial_transpose", "density.mutual_information_numeric",
        "density.eig_symmetric", "sweep.run_point", "sweep.run_sweep", "sweep.compare", "sweep.csv_lines",
    ):
        metrics[f"{name}.self_s"] = lib[name][0]
    small = lib["closed_form.s_ab.small_n"]
    metrics["closed_form.resolve_cutoff.calls"] = lib["closed_form.resolve_cutoff"][1]
    metrics["closed_form.s_ab.small_n.cells_per_s"] = small[2] / small[0] if small[0] > 0 else 0.0
    metrics["density.eig_symmetric.calls"] = lib["density.eig_symmetric"][1]
    metrics["density.eig_symmetric.dim_cubed"] = lib["density.eig_symmetric"][2]
    metrics["fock.state_bytes"] = lib["fock.entangled_pair_state"][2]
    metrics["sweep.numeric_row_ratio"] = numeric_rows / numeric_asked if numeric_asked else 1.0
    return metrics
