"""Exhaustive cross-checking of every closed form against brute force.

A full sweep observes each partition once (`observe`).  It builds G_n once
per weight, from the conjugate index, and for every partition it generates
the moves and their targets, tests every pair of targets for adjacency, lays
corner sharing of the move labels next to that (`verify_line_graph_theorem`)
and searches the induced neighborhood for maximal cliques.

Each check reads one observation against a prediction of its own and
returns that partition's failures; it counts nothing and times nothing:

- degrees: distinct targets, the degree formula and the degree in G_n;
- neighborhoods: adjacency of the targets against corner sharing, and every
  target adjacent to its partition;
- cliques: the largest clique found against the closed-form clique number,
  plus the classification of every clique found;
- type_determinacy: moves, adjacency, degree and clique number against the
  model of the partition's local type, built once per type.

`run_all` is the only loop.  It hands each observation to the four checks
before it makes the next, so a sweep holds one partition's observation at a
time, and it tallies what each check examined, failed and took.  It reads
each partition's local type once, off the block form and never off the
observed moves, and hands it to the three checks that predict from it
(degrees, cliques, type_determinacy); no check is timed for that read.
With `--degrees-only` it calls `verify_degrees` on each enumerated partition,
its local type and its `neighbors`, and nothing is observed.

Only the brute-force observation and the type the predictions start from
are shared, never a prediction.  Sharing the observation removes no
independent route: the checks used to observe each partition on
their own, but through the same `neighbors` and `are_adjacent` code.  G_n is
built without either, so the degree in G_n stays a route of its own.

In the report, each check's time includes the part of the observation named
after it: the graph build for degrees, `verify_line_graph_theorem` for
neighborhoods and the clique search for cliques.  type_determinacy's time is
its own.

Each failure records the partition, both values and a `replay` CLI command.
"""

from __future__ import annotations

import time
from typing import Iterable, Iterator, NamedTuple

from .graphs import (
    CliqueClassificationError,
    NeighborhoodCheck,
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
from .transfers import TransferMove, are_adjacent, neighbors


class _Record:
    """A mutable record, equal to another of its class with the same fields,
    and printed as `Class(field=value, ...)` in the order they were set."""

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__name__}({fields})"


class CheckResult(_Record):
    """Outcome of one verifier: how many partitions it saw and what failed."""

    def __init__(self, name: str, examined: int, failures: list[dict] | None = None,
                 ms: float = 0.0) -> None:
        self.name = name
        self.examined = examined
        self.failures = [] if failures is None else failures
        self.ms = ms

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {"name": self.name, "examined": self.examined, "failures": self.failures}


class VerificationReport(_Record):
    def __init__(self, n_range: tuple[int, int], checks: list[CheckResult]) -> None:
        self.n_range = n_range
        self.checks = checks

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


CHECKS = ("degrees", "neighborhoods", "cliques", "type_determinacy")


def _failure(check: str, p: Partition, detail: str, degrees_only: bool = False) -> dict:
    if check == "neighborhoods":
        replay = f"partgraph neighborhood {p}"
    elif check == "cliques":
        replay = f"partgraph cliques {p}"
    else:
        replay = f"partgraph verify --nmax {p.weight}" + (" --degrees-only" if degrees_only else "")
    return {"check": check, "n": p.weight, "partition": str(p), "detail": detail, "replay": replay}


class Observation(NamedTuple):
    """One partition of weight n as brute force sees it, made once for all four checks.

    `neighborhood` holds its moves, their targets and the graph the targets
    induce, next to corner sharing; `cliques` are that graph's maximal
    cliques; `graph_degree` is its degree in G_n.  `ms` is the time the
    observation took, in milliseconds, keyed by the check it is charged to.
    """

    neighborhood: NeighborhoodCheck
    cliques: list[tuple[TransferMove, ...]]
    graph_degree: int
    ms: dict[str, float]

    @property
    def partition(self) -> Partition:
        return self.neighborhood.partition


def observe(n: int) -> Iterator[Observation]:
    """Observe each partition of n once, in enumeration order.

    G_n is built before the first observation, which is charged its time.
    Observations are made one at a time, so a sweep holds one partition's
    neighborhood at once, however many partitions the weight has.
    """
    start = time.perf_counter()
    graph = build_partition_graph(n)
    build_ms = (time.perf_counter() - start) * 1000
    for idx, p in enumerate(graph.labels):
        start = time.perf_counter()
        check = verify_line_graph_theorem(p)
        compared = time.perf_counter()
        cliques = cliques_through(check.neighborhood)
        ms = {"degrees": build_ms, "neighborhoods": (compared - start) * 1000,
              "cliques": (time.perf_counter() - compared) * 1000}
        yield Observation(check, cliques, graph.degree(idx), ms)
        build_ms = 0.0


def verify_degrees(p: Partition, T: LocalType, targets: Iterable[Partition],
                   graph_degree: int | None = None) -> list[dict]:
    """Degree check of one partition of local type T.

    Compares the count of its distinct targets with the closed formula and,
    when given, with its degree in G_n.  `verify --degrees-only` passes
    `neighbors(p).values()` and no graph degree.
    """
    values = {"neighbor_count": len(set(targets) - {p}), "formula": degree_formula(T)}
    if graph_degree is not None:
        values["graph_degree"] = graph_degree
    if len(set(values.values())) == 1:
        return []
    return [_failure("degrees", p, f"degree mismatch: {values}", graph_degree is None)]


def verify_neighborhoods(o: Observation) -> list[dict]:
    """Neighborhood check of one observation.

    Every pair of targets must be adjacent exactly when their moves share a
    corner, and every target must be adjacent to its partition.
    """
    check, p = o.neighborhood, o.partition
    failures = []
    for v in check.violations:
        failures.append(_failure(
            "neighborhoods", p,
            f"pair {v.first}/{v.second}: adjacent_in_graph={v.adjacent_in_graph}, "
            f"share_corner={v.share_corner}",
        ))
    for move, target in zip(check.moves, check.targets):
        if not are_adjacent(p, target):
            failures.append(_failure(
                "neighborhoods", p, f"move {move}: target {target} is not adjacent",
            ))
    return failures


def verify_cliques(o: Observation, T: LocalType) -> list[dict]:
    """Clique check of one observation, of a partition of local type T.

    Every maximal clique found by search must classify by a shared corner,
    and one plus the largest clique size must match the closed-form clique
    number, with the dimension one below that.
    """
    p, cliques = o.partition, o.cliques
    failures = []
    for clique in cliques:
        try:
            classify_clique(clique)
        except CliqueClassificationError as exc:
            failures.append(_failure(
                "cliques", p, f"unclassifiable clique {[str(m) for m in clique]}: {exc}",
            ))
    searched = 1 + max((len(clique) for clique in cliques), default=0)
    formula = local_clique_number(T)
    if searched != formula:
        failures.append(_failure(
            "cliques", p, f"clique number mismatch: search={searched}, formula={formula}",
        ))
    if local_dimension(T) != formula - 1:
        failures.append(_failure(
            "cliques", p, f"dimension mismatch: {local_dimension(T)} vs clique number {formula}",
        ))
    return failures


def _local_signature(check: NeighborhoodCheck, cliques: list[tuple[TransferMove, ...]]) -> dict:
    # Read off the observation of the concrete partition: moves from the
    # admissibility test, adjacency from conjugates of the actual neighbors,
    # clique number from search on that graph.  Nothing reads the type-level
    # closed forms or another check's prediction.
    moves = check.moves
    omega = 1 + max(map(len, cliques), default=0)
    return {
        "moves": moves,
        "adjacency": tuple((moves[a], moves[b]) for a, b in check.neighborhood.sorted_edges()),
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


def verify_type_determinacy(o: Observation, T: LocalType, predictions: dict) -> list[dict]:
    """A partition must expose the local data its local type T alone predicts.

    Checking every partition, of any weight, against its type's model means,
    by transitivity, that all partitions of a type agree with each other,
    across weights.  `predictions` keeps the model of each type seen;
    `run_all` passes one dict to every call.
    """
    p = o.partition
    signature = _local_signature(o.neighborhood, o.cliques)
    if T not in predictions:
        predictions[T] = _type_prediction(T)
    predicted = predictions[T]
    return [
        _failure(
            "type_determinacy", p,
            f"{key} disagrees with the type model: {signature[key]!r} vs {predicted[key]!r}",
        )
        for key in signature
        if signature[key] != predicted[key]
    ]


def run_all(n_max: int, degrees_only: bool = False) -> VerificationReport:
    """Run every check on all partitions of weights 1..n_max and tally one report.

    This is the only loop: it observes each partition once, reads its local
    type once, and hands both to the four checks before making the next.  Each check's
    time is its own plus the part of the observation charged to it.  With
    degrees_only, only the neighbor count versus formula comparison runs on
    each enumerated partition (no graph build, no pair tests); that mode
    stays cheap at weights where the full sweep would not.
    """
    if n_max < 1:
        raise ValueError(f"weight bound must be at least one, got {n_max}")
    weights = range(1, n_max + 1)
    if degrees_only:
        checks = [lambda p, T: verify_degrees(p, T, neighbors(p).values())]
        seen = ((p, local_type(p), {}) for n in weights for p in enumerate_partitions(n))
    else:
        predictions: dict[LocalType, dict] = {}
        checks = [
            lambda o, T: verify_degrees(o.partition, T, o.neighborhood.targets, o.graph_degree),
            lambda o, T: verify_neighborhoods(o),
            verify_cliques,
            lambda o, T: verify_type_determinacy(o, T, predictions),
        ]
        seen = ((o, local_type(o.partition), o.ms) for n in weights for o in observe(n))
    totals = [CheckResult(name, 0) for name in CHECKS[:len(checks)]]
    for subject, T, charged in seen:
        for total, check in zip(totals, checks):
            start = time.perf_counter()
            total.failures += check(subject, T)
            total.ms += (time.perf_counter() - start) * 1000 + charged.get(total.name, 0.0)
            total.examined += 1
    return VerificationReport((1, n_max), totals)
