"""Exhaustive cross-checking of every closed form against brute force.

Each verifier sweeps all partitions of a weight.  degrees compares distinct
neighbors, the formula and the degree in the built graph; neighborhoods, the
conjugate test on actual neighbors against corner sharing of the move labels;
cliques, Bron-Kerbosch search against the closed form, plus the classification;
type_determinacy, its own adjacency and clique search against the type model.
Each failure records the partition, both values and a `replay` CLI command.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .graphs import (
    CliqueClassificationError,
    _maximal_cliques,
    _relation_graph,
    build_partition_graph,
    classify_clique,
    cliques_through,
    line_graph,
    verify_line_graph_theorem,
)
from .local_model import (
    LocalType,
    admissibility_graph,
    degree_formula,
    local_clique_number,
    local_dimension,
    local_type,
)
from .partitions import Partition, enumerate_partitions
from .transfers import are_adjacent, neighbors


@dataclass
class CheckResult:
    """Outcome of one verifier: how many partitions it saw and what failed."""

    name: str
    examined: int
    failures: list[dict] = field(default_factory=list)
    ms: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {"name": self.name, "examined": self.examined, "failures": self.failures}


@dataclass
class VerificationReport:
    n_range: tuple[int, int]
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_json(self) -> dict:
        """Report as one JSON object; identical runs differ only in timings_ms."""
        return {
            "n_range": list(self.n_range),
            "checks": [check.to_json() for check in self.checks],
            "timings_ms": {check.name: round(check.ms, 3) for check in self.checks},
            "pass": self.passed,
        }


def _failure(check: str, n: int, p: Partition, detail: str, degrees_only: bool = False) -> dict:
    if check == "neighborhoods":
        replay = f"partgraph neighborhood {p}"
    elif check == "cliques":
        replay = f"partgraph cliques {p}"
    else:
        replay = f"partgraph verify --nmax {n}" + (" --degrees-only" if degrees_only else "")
    return {"check": check, "n": n, "partition": str(p), "detail": detail, "replay": replay}


def verify_degrees(n: int, with_graph: bool = True) -> CheckResult:
    """Three-way degree check over all partitions of n.

    Compares the count of distinct neighbors, the closed formula, and, unless
    with_graph is false, the vertex degree in the fully built transfer graph.
    """
    start = time.perf_counter()
    failures: list[dict] = []
    graph = build_partition_graph(n) if with_graph else None
    vertices = graph.labels if graph is not None else enumerate_partitions(n)
    for idx, p in enumerate(vertices):
        values = {
            "neighbor_count": len(set(neighbors(p).values()) - {p}),
            "formula": degree_formula(local_type(p)),
        }
        if graph is not None:
            values["graph_degree"] = graph.degree(idx)
        if len(set(values.values())) != 1:
            failures.append(_failure(
                "degrees", n, p, f"degree mismatch: {values}", degrees_only=not with_graph,
            ))
    ms = (time.perf_counter() - start) * 1000
    return CheckResult("degrees", len(vertices), failures, ms)


def verify_neighborhoods(n: int) -> CheckResult:
    """Pairwise neighborhood-adjacency check over all partitions of n."""
    start = time.perf_counter()
    failures: list[dict] = []
    vertices = enumerate_partitions(n)
    for p in vertices:
        result = verify_line_graph_theorem(n, p)
        for v in result.violations:
            failures.append(_failure(
                "neighborhoods", n, p,
                f"pair {v.first}/{v.second}: adjacent_in_graph={v.adjacent_in_graph}, "
                f"share_corner={v.share_corner}",
            ))
    ms = (time.perf_counter() - start) * 1000
    return CheckResult("neighborhoods", len(vertices), failures, ms)


def verify_cliques(n: int) -> CheckResult:
    """Clique check over all partitions of n.

    Every maximal clique found by search must classify by a shared corner,
    and one plus the largest clique size must match the closed-form clique
    number, with the dimension one below that.
    """
    start = time.perf_counter()
    failures: list[dict] = []
    vertices = enumerate_partitions(n)
    for p in vertices:
        cliques = cliques_through(n, p)
        for clique in cliques:
            try:
                classify_clique(clique)
            except CliqueClassificationError as exc:
                failures.append(_failure(
                    "cliques", n, p,
                    f"unclassifiable clique {[str(m) for m in clique]}: {exc}",
                ))
        searched = 1 + max((len(clique) for clique in cliques), default=0)
        T = local_type(p)
        formula = local_clique_number(T)
        if searched != formula:
            failures.append(_failure(
                "cliques", n, p,
                f"clique number mismatch: search={searched}, formula={formula}",
            ))
        if local_dimension(T) != formula - 1:
            failures.append(_failure(
                "cliques", n, p,
                f"dimension mismatch: {local_dimension(T)} vs clique number {formula}",
            ))
    ms = (time.perf_counter() - start) * 1000
    return CheckResult("cliques", len(vertices), failures, ms)


def _local_signature(p: Partition) -> dict:
    # Recomputed from the concrete partition, observed once: moves via the
    # admissibility test, adjacency via conjugates of the actual neighbors and
    # clique number via search on that graph.  Nothing reads the type-level
    # closed forms, and no other check's neighborhood is reused.
    nbrs = neighbors(p)
    moves = tuple(nbrs)
    graph = _relation_graph(nbrs.values(), are_adjacent)
    omega = 1 + max((len(clique) for clique in _maximal_cliques(graph)), default=0)
    return {
        "moves": moves,
        "adjacency": tuple((moves[a], moves[b]) for a, b in graph.sorted_edges()),
        "degree": len(moves),
        "clique_number": omega,
        "dimension": omega - 1,
    }


def _type_prediction(T: LocalType) -> dict:
    B = admissibility_graph(T)
    L = line_graph(B)
    return {
        "moves": tuple(B.sorted_edges()),
        "adjacency": tuple(sorted((L.labels[a], L.labels[b]) for a, b in L.edges)),
        "degree": degree_formula(T),
        "clique_number": local_clique_number(T),
        "dimension": local_dimension(T),
    }


def verify_type_determinacy(n_max: int) -> CheckResult:
    """Partitions of equal local type must expose identical local data.

    Sweeps every partition of every weight up to n_max and checks each one
    against what its type alone predicts, so by transitivity all partitions
    of a type agree with each other, across different weights.
    """
    start = time.perf_counter()
    failures: list[dict] = []
    predictions: dict[LocalType, dict] = {}
    examined = 0
    for n in range(1, n_max + 1):
        for p in enumerate_partitions(n):
            examined += 1
            signature = _local_signature(p)
            T = local_type(p)
            if T not in predictions:
                predictions[T] = _type_prediction(T)
            predicted = predictions[T]
            for key in signature:
                if signature[key] != predicted[key]:
                    failures.append(_failure(
                        "type_determinacy", n, p,
                        f"{key} disagrees with the type model: "
                        f"{signature[key]!r} vs {predicted[key]!r}",
                    ))
    ms = (time.perf_counter() - start) * 1000
    return CheckResult("type_determinacy", examined, failures, ms)


def run_all(n_max: int, degrees_only: bool = False) -> VerificationReport:
    """Run every verifier for all weights 1..n_max and aggregate one report.

    With degrees_only, only the neighbor-count versus formula comparison runs
    (no graph build, no pair checks); that mode stays cheap at weights where
    the full sweep would not.
    """
    if n_max < 1:
        raise ValueError(f"weight bound must be at least one, got {n_max}")

    def swept(name: str, fn) -> CheckResult:
        merged = CheckResult(name, 0)
        for n in range(1, n_max + 1):
            part = fn(n)
            merged.examined += part.examined
            merged.failures.extend(part.failures)
            merged.ms += part.ms
        return merged

    if degrees_only:
        checks = [swept("degrees", lambda n: verify_degrees(n, with_graph=False))]
    else:
        checks = [
            swept("degrees", verify_degrees),
            swept("neighborhoods", verify_neighborhoods),
            swept("cliques", verify_cliques),
            verify_type_determinacy(n_max),
        ]
    return VerificationReport((1, n_max), checks)
