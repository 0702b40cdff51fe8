"""Outside-in tracing: wrap graphsynth's public functions where their callers
look them up, record one span per call, and fold spans into per-layer
metrics.

Nothing under ``src/`` is edited.  Each entry of ``WRAPS`` names the module
whose global namespace a caller reads (``site``), the attribute there, and
the layer metric the call is charged to.  A call site that no longer
resolves to the expected function is a hard error, so a refactor that moves
a call cannot silently turn a layer's time into zero.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass, field

# Counters: name -> function(args, kwargs, result) -> number added per call.
def _n_edges_result(args, kwargs, result):
    return result.n_edges


def _n_edges_arg(args, kwargs, result):
    return args[0].n_edges


def _rows_arg(args, kwargs, result):
    return len(args[0])


def _split_dyads(args, kwargs, result):
    return (len(result.train_labels) + len(result.val_labels)
            + len(result.test_labels))


def _one(args, kwargs, result):
    return 1


@dataclass(frozen=True)
class Wrap:
    site: str        # module whose globals the caller reads, e.g. "experiments"
    attr: str        # attribute name at that site
    origin: str      # module that defines the function
    layer: str       # metric prefix "<module>.<function>"
    counters: tuple = ()   # ((suffix, counter function), ...)
    errors: bool = False   # count raised exceptions as "<layer>.errors"


WRAPS = (
    Wrap("cli", "main", "cli", "cli.main"),
    Wrap("cli", "run_experiment", "experiments", "experiments.run_experiment"),
    Wrap("experiments", "load_edge_list", "experiments", "experiments.load_edge_list"),
    Wrap("experiments", "fit_agents_to_graph", "experiments",
         "experiments.fit_agents_to_graph"),
    Wrap("experiments", "agent_dyad_probs", "experiments", "experiments.agent_dyad_probs"),
    Wrap("experiments", "sample_dyads", "sampling", "sampling.sample_dyads"),
    Wrap("experiments", "phase_sweep", "sampling", "sampling.phase_sweep"),
    Wrap("experiments", "graph_from_edge_array", "sampling",
         "sampling.graph_from_edge_array"),
    Wrap("sampling", "sample_sparse_graph", "sampling", "sampling.sample_sparse_graph",
         (("edges", _n_edges_result),)),
    Wrap("sampling", "giant_fraction", "sampling", "sampling.giant_fraction",
         (("calls", _one),)),
    Wrap("sampling", "sample_graph", "sampling", "sampling.sample_graph",
         (("edges", _n_edges_result),)),
    Wrap("experiments", "make_split", "evaluation", "evaluation.make_split",
         (("dyads", _split_dyads),)),
    # make_split audits its own split; the runner then audits it again
    Wrap("evaluation", "audit_split", "evaluation", "evaluation.audit_split",
         (("calls", _one),)),
    Wrap("experiments", "audit_split", "evaluation", "evaluation.audit_split",
         (("calls", _one),)),
    Wrap("experiments", "fit_logistic_stack", "evaluation",
         "evaluation.fit_logistic_stack", (("calls", _one), ("rows", _rows_arg))),
    Wrap("experiments", "score_metrics", "evaluation", "evaluation.score_metrics",
         (("rows", _rows_arg),)),
    Wrap("experiments", "cv_best_agent", "evaluation", "evaluation.cv_best_agent"),
    Wrap("experiments", "paired_gaps", "evaluation", "evaluation.paired_gaps"),
    Wrap("experiments", "fit_ls", "synthesis", "synthesis.fit_ls", errors=True),
    Wrap("experiments", "fit_ridge", "synthesis", "synthesis.fit_ridge"),
    Wrap("experiments", "fit_simplex", "synthesis", "synthesis.fit_simplex"),
    Wrap("experiments", "predict_clipped", "synthesis", "synthesis.predict_clipped"),
    Wrap("experiments", "fit_tail_exponent", "netstats", "netstats.fit_tail_exponent"),
    Wrap("netstats", "triangle_count", "netstats", "netstats.triangle_count"),
    Wrap("netstats", "graph_statistics", "netstats", "netstats.graph_statistics"),
    Wrap("netstats", "centralities", "netstats", "netstats.centralities",
         (("edges", _n_edges_arg),)),
    # phase_sweep imports spectral_radius from graphons at call time
    Wrap("graphons", "spectral_radius", "graphons", "graphons.spectral_radius"),
    # every writer the verbs call is charged to one serialize layer
    Wrap("experiments", "write_metric_reports_csv", "serialize", "serialize.writers"),
    Wrap("experiments", "write_gap_report_csv", "serialize", "serialize.writers"),
    Wrap("experiments", "write_phase_curve_csv", "serialize", "serialize.writers"),
)

PACKAGE = "graphsynth"


def layer_metric_names() -> list:
    """Every per-layer metric the traced run reports, in a stable order."""
    names = []
    for w in WRAPS:
        for suffix in ["self_s"] + [s for s, _ in w.counters] + (["errors"] if w.errors else []):
            name = f"{w.layer}.{suffix}"
            if name not in names:
                names.append(name)
    return names


def resolve_wraps():
    """Return [(module object, Wrap, original function)] for every entry of
    WRAPS; raise LookupError if any call site no longer holds the expected
    public function."""
    resolved = []
    for w in WRAPS:
        module = importlib.import_module(f"{PACKAGE}.{w.site}")
        fn = getattr(module, w.attr, None)
        if fn is None or not callable(fn):
            raise LookupError(f"{PACKAGE}.{w.site}.{w.attr} no longer resolves")
        if (getattr(fn, "__module__", None) != f"{PACKAGE}.{w.origin}"
                or getattr(fn, "__name__", None) != w.attr):
            raise LookupError(
                f"{PACKAGE}.{w.site}.{w.attr} is {fn!r}, expected "
                f"{PACKAGE}.{w.origin}.{w.attr}")
        resolved.append((module, w, fn))
    return resolved


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int    # index of the parent span in Tracer.spans, -1 for a root
    op: int        # op id the span belongs to


@dataclass
class Tracer:
    """In-memory span recorder; ``install`` patches every call site in
    WRAPS and ``uninstall`` restores the original functions."""

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    op: int = -1
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    def _wrapper(self, w: Wrap, fn):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = len(tracer.spans)
            span = Span(w.layer, time.perf_counter(), 0.0, parent, tracer.op)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if w.errors:
                    tracer._count(f"{w.layer}.errors", 1)
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            for suffix, counter in w.counters:
                tracer._count(f"{w.layer}.{suffix}", counter(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name, value):
        key = (self.op, name)
        self.counts[key] = self.counts.get(key, 0) + value

    def install(self, resolved) -> None:
        for module, w, fn in resolved:
            self._saved.append((module, w.attr, fn))
            setattr(module, w.attr, self._wrapper(w, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op}) + "\n")


def self_times(spans) -> list:
    """Self time of each span: its duration minus the part of its interval
    covered by its direct children."""
    children = [[] for _ in spans]
    for idx, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(idx)
    out = []
    for idx, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children[idx], key=lambda k: spans[k].start):
            lo = max(spans[c].start, cursor)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((s.end - s.start) - covered)
    return out


def layer_totals(spans, counts, ops) -> dict:
    """Per-layer metrics summed over the traced ``ops``: self seconds and
    counters.  Layers those ops never call report 0."""
    ops = set(ops)
    totals = {name: 0.0 for name in layer_metric_names()}
    for s, self_s in zip(spans, self_times(spans)):
        if s.op in ops:
            totals[f"{s.name}.self_s"] += self_s
    for (op, name), value in counts.items():
        if op in ops:
            totals[name] += value
    return totals
