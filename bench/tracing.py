"""Span tracer for the per-layer run.

The tracer wraps angleset's public functions from outside the package: every
module attribute that refers to a traced function is replaced by a wrapper
that records a span ``(name, operation, start, end, parent)``, and
``uninstall`` puts the originals back. Spans stay in memory until the run
ends. A span's parent is the innermost traced call around it, so its self
time is its duration minus that of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
import types
from collections import Counter, defaultdict

# Span name -> (module, attribute) of the wrapped function.
TARGETS = {
    "graphs.tree_from_pruefer": ("angleset.graphs", "tree_from_pruefer"),
    "graphs.from_edges": ("angleset.graphs", "Graph.from_edges"),
    "graphs.generate_named": ("angleset.graphs", "generate_named"),
    "graphs.parse_edge_list": ("angleset.graphs", "parse_edge_list"),
    "graphs.adjacency_matrix": ("angleset.graphs", "adjacency_matrix"),
    "spectra.eigen_symmetric": ("angleset.spectra", "eigen_symmetric"),
    "admissible.gram_matrix": ("angleset.admissible", "gram_matrix"),
    "admissible.existence": ("angleset.admissible", "existence"),
    "admissible.sigma_tree": ("angleset.admissible", "sigma_tree"),
    "admissible.sigma_cycle": ("angleset.admissible", "sigma_cycle"),
    "admissible.trichotomy": ("angleset.admissible", "trichotomy"),
    "classify.classify_structure": ("angleset.classify", "classify_structure"),
    "classify.classify_index": ("angleset.classify", "classify_index"),
    "configurations.construct": ("angleset.configurations", "construct_configuration"),
    "configurations.verify": ("angleset.configurations", "verify_configuration"),
    "configurations.document": ("angleset.configurations", "configuration_document"),
    "configurations.load": ("angleset.configurations", "load_configuration"),
    "cli.main": ("angleset.cli", "main"),
}

# Per-layer time metric -> (inclusive "total" or "self", span names).
LAYER_TIMES = {
    "graphs.build_ms": ("total", ("graphs.tree_from_pruefer", "graphs.from_edges",
                                  "graphs.generate_named", "graphs.parse_edge_list")),
    "graphs.adjacency_ms": ("total", ("graphs.adjacency_matrix",)),
    "spectra.eig_ms": ("self", ("spectra.eigen_symmetric",)),
    "admissible.gram_ms": ("total", ("admissible.gram_matrix",)),
    "admissible.existence_ms": ("self", ("admissible.existence",)),
    "admissible.sigma_ms": ("self", ("admissible.sigma_tree", "admissible.sigma_cycle")),
    "admissible.trichotomy_ms": ("self", ("admissible.trichotomy",)),
    "classify.structure_ms": ("total", ("classify.classify_structure",)),
    "classify.index_ms": ("self", ("classify.classify_index",)),
    "configurations.construct_ms": ("self", ("configurations.construct",)),
    "configurations.verify_ms": ("total", ("configurations.verify",)),
    "configurations.export_ms": ("total", ("configurations.document", "json.dumps_document")),
    "configurations.load_ms": ("total", ("json.loads_document", "configurations.load")),
    "cli.main_ms": ("self", ("cli.main",)),
}


def _is_document(obj) -> bool:
    return isinstance(obj, dict) and "vectors" in obj


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1
        self.eig_work_n3 = 0
        self.doc_bytes = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, perf = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[idx] = (name, self.op, start, end, parent)

        return traced

    def _counted_eig(self, fn):
        def eig(m, *args, **kwargs):
            n = len(m)
            self.eig_work_n3 += n * n * n
            return fn(m, *args, **kwargs)
        return eig

    def _json_proxy(self):
        """A stand-in for the ``json`` module that times configuration
        documents: dumps of a document, and every loads (only documents are
        loaded)."""
        def counted_dumps(obj, *args, **kwargs):
            text = json.dumps(obj, *args, **kwargs)
            self.doc_bytes += len(text)
            return text

        traced_dumps = self.wrap("json.dumps_document", counted_dumps)

        def dumps(obj, *args, **kwargs):
            if _is_document(obj):
                return traced_dumps(obj, *args, **kwargs)
            return json.dumps(obj, *args, **kwargs)

        return types.SimpleNamespace(
            dumps=dumps,
            loads=self.wrap("json.loads_document", json.loads),
            JSONDecodeError=json.JSONDecodeError,
        )

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, workload) -> None:
        """Wrap every target in every loaded angleset module that names it,
        and time documents through the CLI's and the workload's ``json``."""
        modules = [m for name, m in sys.modules.items()
                   if name == "angleset" or name.startswith("angleset.")]
        for span, (modname, attr) in TARGETS.items():
            module = sys.modules.get(modname)
            if module is None:
                continue
            if attr == "Graph.from_edges":
                graph = module.Graph
                fn = graph.__dict__["from_edges"].__func__
                self._replace(graph, "from_edges", classmethod(self.wrap(span, fn)))
                continue
            orig = getattr(module, attr)
            fn = orig
            if span == "spectra.eigen_symmetric":
                fn = self._counted_eig(orig)
            wrapped = self.wrap(span, fn)
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is orig]:
                    self._replace(m, key, wrapped)
        proxy = self._json_proxy()
        if "angleset.cli" in sys.modules:
            self._replace(sys.modules["angleset.cli"], "json", proxy)
        if hasattr(workload, "codec"):
            self._replace(workload, "codec", proxy)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self, workload):
        self.install(workload)
        try:
            yield self
        finally:
            self.uninstall()

    def layer_metrics(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for k, (name, _, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[k]
            calls[name] += 1
        out = {}
        for metric, (kind, names) in LAYER_TIMES.items():
            source = total if kind == "total" else own
            out[metric] = 1000.0 * sum(source[n] for n in names)
        out["spectra.eig_calls"] = calls["spectra.eigen_symmetric"]
        out["spectra.eig_work_n3"] = self.eig_work_n3
        out["configurations.doc_bytes"] = self.doc_bytes
        return out

    def write(self, path) -> None:
        """JSON lines: a field list, then one array per span. ``op`` is the
        operation's index in the run (-1 during set-up), ``parent`` the index
        of the enclosing span (-1 for none); times are microseconds from the
        first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "op", "parent", "start_us", "dur_us"]) + "\n")
            for name, op, start, end, parent in self.spans:
                fh.write(json.dumps([name, op, parent, round((start - t0) * 1e6, 1),
                                     round((end - start) * 1e6, 1)]) + "\n")
