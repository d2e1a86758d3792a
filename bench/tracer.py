"""Per-layer tracing of partgraph from outside the package.

Modules bind names at import (`from .transfers import are_adjacent`), so
wrapping the defining module alone misses most calls.  `Tracer.install`
replaces the function in every partgraph module namespace that holds it,
plus two class-level entries (`Partition.__post_init__` and
`SimpleGraph.degree`), and `Tracer.remove` puts every original back.

Each wrapper records a span.  A layer's self time is its span minus the spans
of wrapped calls made inside it; work counts are read off arguments and
results.  Stats accumulate until `reset`.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

def _graph_counts(stats: "LayerStats", args: tuple, graph) -> None:
    stats.add("pairs", graph.vertex_count * (graph.vertex_count - 1) // 2)
    stats.add("edges", graph.edge_count)


# (layer, defining module, attribute path, work counter or None)
PROBES: list[tuple[str, str, str, Callable | None]] = [
    ("partitions.conjugate", "partgraph.partitions", "conjugate",
     lambda s, args, result: s.add("cells", sum(args[0].parts))),
    ("partitions.Partition", "partgraph.partitions", "Partition.__post_init__", None),
    ("partitions.enumerate_partitions", "partgraph.partitions", "enumerate_partitions",
     lambda s, args, result: s.add("yielded", len(result))),
    ("transfers.are_adjacent", "partgraph.transfers", "are_adjacent",
     lambda s, args, result: s.add("true", int(result))),
    ("transfers.neighbors", "partgraph.transfers", "neighbors",
     lambda s, args, result: s.add("moves", len(result))),
    ("transfers.apply_transfer", "partgraph.transfers", "apply_transfer", None),
    ("local_model.local_type", "partgraph.local_model", "local_type",
     lambda s, args, result: s.seen.add(result)),
    ("local_model.admissibility_graph", "partgraph.local_model", "admissibility_graph", None),
    ("local_model.closed_forms", "partgraph.local_model", "degree_formula", None),
    ("local_model.closed_forms", "partgraph.local_model", "side_degrees", None),
    ("local_model.closed_forms", "partgraph.local_model", "local_clique_number", None),
    ("local_model.closed_forms", "partgraph.local_model", "local_dimension", None),
    ("graphs.build_partition_graph", "partgraph.graphs", "build_partition_graph",
     _graph_counts),
    ("graphs.SimpleGraph.degree", "partgraph.graphs", "SimpleGraph.degree", None),
    ("graphs.induced_neighborhood", "partgraph.graphs", "induced_neighborhood", None),
    ("graphs.verify_line_graph_theorem", "partgraph.graphs", "verify_line_graph_theorem",
     lambda s, args, result: s.add("pairs_checked", result.pairs_checked)),
    ("graphs.cliques_through", "partgraph.graphs", "cliques_through",
     lambda s, args, result: s.add("cliques", len(result))),
    ("graphs.line_graph", "partgraph.graphs", "line_graph", None),
    ("graphs.classify_clique", "partgraph.graphs", "classify_clique", None),
    ("oracle.verify_degrees", "partgraph.oracle", "verify_degrees", None),
    ("oracle.verify_neighborhoods", "partgraph.oracle", "verify_neighborhoods", None),
    ("oracle.verify_cliques", "partgraph.oracle", "verify_cliques", None),
    ("oracle.verify_type_determinacy", "partgraph.oracle", "verify_type_determinacy", None),
    ("cli.main", "partgraph.cli", "main", None),
]

# Extra per-layer stats beyond calls and self_s: (layer, stat, unit).
WORK_STATS = [
    ("partitions.conjugate", "cells", "count"),
    ("partitions.enumerate_partitions", "yielded", "count"),
    ("transfers.are_adjacent", "true_ratio", "ratio"),
    ("transfers.neighbors", "moves", "count"),
    ("local_model.local_type", "distinct_types", "count"),
    ("graphs.build_partition_graph", "pairs", "count"),
    ("graphs.build_partition_graph", "edges", "count"),
    ("graphs.verify_line_graph_theorem", "pairs_checked", "count"),
    ("graphs.cliques_through", "cliques", "count"),
    ("cli.main", "bytes_out", "bytes"),
]

LAYERS = list(dict.fromkeys(layer for layer, *_ in PROBES))


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)
    seen: set = field(default_factory=set)

    def add(self, stat: str, amount: int) -> None:
        self.counts[stat] = self.counts.get(stat, 0) + amount

    def work(self, stat: str) -> float:
        if stat == "true_ratio":
            return self.counts.get("true", 0) / self.calls if self.calls else 0.0
        if stat == "distinct_types":
            return len(self.seen)
        return self.counts.get(stat, 0)


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, LayerStats] = {}
        self._open: list[float] = []  # child time accumulated by each open span
        self._undo: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.stats = {layer: LayerStats() for layer in LAYERS}

    def add(self, layer: str, stat: str, amount: int) -> None:
        self.stats[layer].add(stat, amount)

    def _wrap(self, layer: str, fn: Callable, count: Callable | None) -> Callable:
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                stats = self.stats[layer]
                stats.calls += 1
                stats.self_s += span - open_spans.pop()
                if open_spans:
                    open_spans[-1] += span
            if count is not None:
                count(stats, args, result)
            return result

        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in sys.modules.items()
                   if name == "partgraph" or name.startswith("partgraph.")]
        for layer, module_name, path, count in PROBES:
            owner_name, _, attr = path.rpartition(".")
            owner = sys.modules[module_name]
            if owner_name:
                owner = getattr(owner, owner_name)
                self._rebind(owner, attr, self._wrap(layer, getattr(owner, attr), count))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(layer, original, count)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, name, wrapper)

    def _rebind(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def remove(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Current stats as {metric name: (value, unit)}."""
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            stats = self.stats[layer]
            out[f"{layer}.calls"] = (stats.calls, "count")
            out[f"{layer}.self_s"] = (stats.self_s, "s")
        for layer, stat, unit in WORK_STATS:
            out[f"{layer}.{stat}"] = (self.stats[layer].work(stat), unit)
        return out
