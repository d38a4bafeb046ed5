"""In-memory span tracer for the traced benchmark run.

Spans are recorded around calls into the public functions of each
``omegafract`` module, from outside the package: :func:`instrument`
temporarily replaces those functions in every package namespace that
holds them (so calls between modules are caught too) and restores them on
exit.  Each span has a name, start, end, parent and the id of the analysis
that caused it; self time is a span's duration minus the time its children
cover.  Nothing is written until :meth:`Tracer.dump` is called at the end.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

#: Span name -> the functions it covers, as "module.attribute" under
#: ``omegafract``.  ``measure._key_prefix_series`` is the private series
#: routine that ``hausdorff_measure`` calls; the public wrapper is listed
#: too.
LAYER_FUNCTIONS = {
    "core.parse": ["core.parse_automaton"],
    "core.trim": ["core.trim", "core.classify_properties", "core.require_trim"],
    "core.scc": ["core.scc_decompose", "core.states_on_cycles"],
    "core.ambiguity": ["core.check_unambiguous"],
    "core.determinize": ["core.prefix_determinization"],
    "core.enumerate": ["core.prefix_count", "core.enumerate_prefixes"],
    "spectral.matrix": ["spectral.counting_matrix", "spectral.transfer_matrix"],
    "spectral.perron": ["spectral.spectral_radius"],
    "spectral.entropy": ["spectral.entropy"],
    "dimension.cycle_entropies": ["dimension.cycle_entropies"],
    "dimension.report": ["dimension.dimension_report"],
    "dimension.mw_alpha": ["dimension.mw_alpha"],
    "dimension.density": ["dimension.density_classifier"],
    "measure.total": ["measure.hausdorff_measure"],
    "measure.key_series": ["measure.key_prefix_series", "measure._key_prefix_series"],
    "measure.scc_measure": ["measure.scc_measure"],
    "geometry.estimate": ["geometry.estimate_box_dimension"],
    "geometry.render": ["geometry.render"],
    "cli.inprocess": ["cli.main"],
}

MODULES = ["core", "spectral", "dimension", "measure", "geometry", "cli"]

#: Counters recorded at layer boundaries (see _hook), per pass.
COUNTERS = [
    "core.determinize_subsets",
    "core.determinize_edges",
    "core.enumerate_words",
    "spectral.matrix_bytes",
    "spectral.perron_calls",
    "dimension.cycle_states",
    "measure.key_states",
]

#: Every per-layer metric the traced run reports.
PER_LAYER_METRICS = (
    ["cli.startup_ms", "cli.import_ms", "cli.subprocess_ms", "cli.inprocess_ms"]
    + [f"{name}_ms" for name in LAYER_FUNCTIONS if not name.startswith("cli.")]
    + COUNTERS
    + ["dimension.nontrivial_sccs", "trace_overhead_ratio"]
)


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or -1, analysis id]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.analysis = 0

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.analysis])
        self.stack.append(idx)
        try:
            yield idx
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def parent_name(self, idx: int) -> str | None:
        parent = self.spans[idx][3]
        return None if parent < 0 else self.spans[parent][0]

    def self_times(self) -> dict[str, float]:
        """Total self time in seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "analysis"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                handle,
            )


def _hook(tracer: Tracer, name: str, idx: int, result) -> None:
    """Counters recorded at the layer boundary from the call's result."""
    counts = tracer.counts
    if name == "core.determinize":
        counts["core.determinize_subsets"] += len(result.states)
        counts["core.determinize_edges"] += len(result.transitions)
    elif name == "core.enumerate":
        counts["core.enumerate_words"] += (
            result if isinstance(result, int) else len(result)
        )
    elif name == "spectral.matrix" and tracer.parent_name(idx) != name:
        counts["spectral.matrix_bytes"] += 8 * len(result.states) ** 2
    elif name == "spectral.perron":
        counts["spectral.perron_calls"] += 1
    elif name == "dimension.cycle_entropies":
        counts["dimension.cycle_states"] += len(result)
    elif name == "measure.total":
        counts["measure.key_states"] += len(result.per_key_state)


def _wrap(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        with tracer.span(name) as idx:
            result = fn(*args, **kwargs)
            _hook(tracer, name, idx, result)
            return result

    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def instrument(tracer: Tracer):
    """Route every call to a listed function through a span for the
    duration of the block.  Functions a later version no longer has are
    skipped; their metrics then read 0."""
    package = importlib.import_module("omegafract")
    modules = [package] + [
        importlib.import_module(f"omegafract.{m}") for m in MODULES
    ]
    wrappers: dict[int, object] = {}
    for name, targets in LAYER_FUNCTIONS.items():
        for target in targets:
            module, attr = target.split(".")
            fn = getattr(importlib.import_module(f"omegafract.{module}"), attr, None)
            if fn is not None:
                wrappers[id(fn)] = _wrap(tracer, name, fn)
    patched = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                patched.append((module, attr, value))
                setattr(module, attr, wrapper)
    try:
        yield
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)
