"""Span recorder for the traced benchmark run.

The recorder wraps every public function of the decohist modules named in
LAYERS so that each call made while an operation is open becomes a span:
(name, layer, start, end, parent, op). Spans stay in memory; the benchmark
writes them out when it ends. A layer's self time is the sum over its spans
of the span's duration minus its children's durations, so the layers' self
times plus the operation root's own self time add up to the traced wall time
of the operation.

Counts are computed at the same boundaries from the call's inputs or its
result, but only after the operation's root span has closed, so counting
never lands inside a timed span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

# Modules whose public functions are spanned, by layer name. `core` has no
# public entry the workloads call directly; it shows up through its callers.
LAYERS = ("cli", "scenario", "models", "histories", "criteria", "protocol")

ROOT_LAYER = "bench"
IMPORT_SPAN = "import.decohist"

# Spans around which the resident set size is sampled (MB retained by the call).
RSS_SPANS = frozenset({"models.gaussian_instrument"})


_PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")


def vm_rss_mb() -> float:
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * _PAGE_BYTES / 2**20


class Tracer:
    """In-memory spans and computed counts, grouped by operation id."""

    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent, op]
        self.counts: dict[int, dict[str, float]] = {}
        self._stack: list[int] = []
        self._pending: list[tuple] = []
        self.op: int | None = None

    def add_span(self, name, layer, start, end, parent=None, op=None) -> int:
        self.spans.append([name, layer, start, end, parent, op])
        return len(self.spans) - 1

    def begin_op(self, op: int, start: float) -> None:
        self.op = op
        self._stack = [self.add_span("op", ROOT_LAYER, start, None, None, op)]
        self.counts[op] = {}

    def end_op(self, end: float) -> None:
        self.spans[self._stack[0]][3] = end
        self._stack = []
        op, self.op = self.op, None
        for name, args, kwargs, result in self._pending:
            for key, value in COUNTERS[name](args, kwargs, result).items():
                self.counts[op][key] = self.counts[op].get(key, 0) + value
        self._pending = []

    def adopt(self, spans: list[list]) -> None:
        """Attach spans recorded by a child process under the open operation.

        Child timestamps come from another process's clock, so only their
        durations are used (self time needs nothing else)."""
        offset = len(self.spans)
        for name, layer, start, end, parent, _ in spans:
            parent = self._stack[-1] if parent is None else parent + offset
            self.add_span(name, layer, start, end, parent, self.op)

    def add_counts(self, counts: dict) -> None:
        for key, value in counts.items():
            self.counts[self.op][key] = self.counts[self.op].get(key, 0) + value

    def wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span_name = name
            # The analytic mode is its own span, so the sampler's share shows.
            if name == "protocol.run_protocol" and kwargs.get("mode") == "exact":
                span_name = "protocol.run_protocol_exact"
            rss0 = vm_rss_mb() if span_name in RSS_SPANS else None
            index = self.add_span(span_name, layer, time.perf_counter(), None,
                                  self._stack[-1], self.op)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][3] = time.perf_counter()
                self._stack.pop()
            if rss0 is not None:
                self.add_counts({f"{span_name}.rss_mb": vm_rss_mb() - rss0})
            if span_name in COUNTERS:
                self._pending.append((span_name, args, kwargs, result))
            return result

        return traced

    def install(self):
        """Patch every reference to a spanned function inside decohist.

        Returns a callable that restores the originals."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"decohist.{layer}")
            for _, fn in inspect.getmembers(module, inspect.isfunction):
                if fn.__module__ == module.__name__ and not fn.__name__.startswith("_"):
                    wrappers[id(fn)] = (fn, self.wrap(fn, layer))
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "decohist" and not mod_name.startswith("decohist."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)][1])
                    patched.append((module, attr, value))

        def restore():
            for module, attr, value in patched:
                setattr(module, attr, value)

        return restore


def op_breakdown(spans: list[list], op: int) -> dict[str, float]:
    """Wall, per-layer self time and per-function inclusive time of one op."""
    mine = [(i, s) for i, s in enumerate(spans) if s[5] == op]
    child_time: dict[int, float] = {}
    for _, (name, layer, start, end, parent, _) in mine:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out: dict[str, float] = {}
    for i, (name, layer, start, end, parent, _) in mine:
        duration = end - start
        if layer == ROOT_LAYER:
            out["trace.wall_s"] = duration
        else:
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + duration
        key = f"{layer}.self_s"
        out[key] = out.get(key, 0.0) + duration - child_time.get(i, 0.0)
    return out


# ---------------------------------------------------------------------------
# Counts computed from a call's inputs (labelled "computed" in the output).
# Each takes (args, kwargs, result) of the spanned call.
# ---------------------------------------------------------------------------


def _arg(args, kwargs, position, name, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _tolerances(args, kwargs, position):
    from decohist import DEFAULT_TOLERANCES

    return _arg(args, kwargs, position, "tol", DEFAULT_TOLERANCES)


def spec_paths(spec) -> int:
    paths = 1
    for step in spec.steps:
        if step.instrument is not None:
            paths *= len(step.instrument.effects)
    return paths


def _count_functional(args, kwargs, result):
    spec = args[0]
    paths = spec_paths(spec)
    return {"histories.paths": paths, "histories.path_pairs": paths * paths,
            "histories.stack_bytes": 16 * paths * spec.dim**2}


def _count_weak(args, kwargs, result):
    import numpy as np

    functional = args[0]
    tol = _tolerances(args, kwargs, 1)
    above = int(np.count_nonzero(np.triu(np.abs(functional.values.real), 1) > tol.decoherence))
    return {"criteria.weak_witnesses": len(result.witnesses),
            "criteria.weak_pairs_above_tol": above}


def _count_measurement_based(args, kwargs, result):
    spec = args[0]
    counts = {"criteria.subsets": len(result.per_subset)}
    counts.update(_count_functional((spec,), {}, None))
    return counts


def _count_kent(args, kwargs, result):
    from oracles import kent_residuals

    spec = args[0]
    tol = _tolerances(args, kwargs, 2)
    policy = _arg(args, kwargs, 3, "policy", "all")
    residuals = kent_residuals(spec, tol, policy)
    return {"criteria.kent_selections": residuals.size,
            "criteria.kent_witnesses": len(result.witnesses),
            "criteria.kent_selections_above_tol": int((residuals > tol.decoherence).sum())}


def _count_protocol(args, kwargs, result):
    cfg = args[0]
    prefixes = 1
    for step in cfg.spec.steps:
        if step.instrument is not None:
            prefixes *= len(step.instrument.labels)
    return {"protocol.shots": cfg.shots, "protocol.label_prefixes": prefixes,
            "protocol.state_stack_bytes": 16 * cfg.shots * cfg.spec.dim**2}


def _count_instrument(args, kwargs, result):
    return {"models.effect_bytes": 16 * len(result.effects) * result.dim**2}


def _count_report(args, kwargs, result):
    return {"scenario.report_bytes": len(result.encode("utf-8"))}


COUNTERS = {
    "histories.decoherence_functional": _count_functional,
    "criteria.check_weak": _count_weak,
    "criteria.check_measurement_based": _count_measurement_based,
    "criteria.check_kent": _count_kent,
    "protocol.run_protocol": _count_protocol,
    "models.gaussian_instrument": _count_instrument,
    "scenario.emit_report": _count_report,
}
