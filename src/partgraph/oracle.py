"""Exhaustive cross-checking of every closed form against brute force.

A full sweep observes each partition once (`observe`).  It builds G_n once
per weight, from the conjugate index, and for every partition it generates
the moves and their targets, looks each target up once among G_n's vertices
and reads the adjacency of every pair of targets off G_n, lays corner sharing
of the move labels next to that (`verify_line_graph_theorem`) and searches
the induced neighborhood for maximal cliques.  The observation's targets are
G_n's labels, the same object each time a partition is reached, and the
index build gave each its conjugate, so each conjugate is built once per
weight.

Each check reads one observation against a prediction of its own and
returns what disagreed, one detail string each, as a tuple.  It builds no
failure record, keeps no memo, counts nothing and times nothing:

- degrees: distinct targets, the degree formula and the degree in G_n;
- neighborhoods: adjacency of the targets against corner sharing, and every
  target adjacent to its partition under `are_adjacent`;
- cliques: the largest clique found against the closed-form clique number,
  plus the classification of every clique found;
- type_determinacy: moves, adjacency, degree and clique number against the
  model of the partition's local type, built once per type.

`run_all` is the only loop.  It hands each observation to the four checks
before it makes the next, so a sweep holds one partition's observation at a
time.  It alone owns the failure records, their replays, the memo and the
timing: it turns each detail a check returns into a record and tallies what
each check examined, failed and took.  It reads each partition's local type
once, off the block form and never off the observed moves, and hands it to
the three checks that predict from it (degrees, cliques, type_determinacy);
no check is timed for that read.
With `--degrees-only` it calls `verify_degrees` on each enumerated partition,
its local type and its `neighbors`, and nothing is observed.

Only the brute-force observation and the type the predictions start from
are shared, never a prediction.  Sharing the observation removes no
independent route: G_n is built from the conjugates' rows, without
`neighbors`, `apply_transfer` or `are_adjacent`, so the degree in G_n and
the adjacency of the targets in G_n are routes of their own, checked against
the count of `neighbors` and against corner sharing of the move labels.
`are_adjacent` is still checked once per move, between the partition and
the move's target, which equals by parts the partition `neighbors` made.

`run_all` keeps one memo, which dies with the call.  By the line graph
theorem many partitions show the same observed neighborhood (507 of weight
<= 14 show 80), so what is a pure function of that graph is derived once
per distinct graph, keyed by its move labels and the adjacency read off
G_n: in `observe`, the corner comparison and the clique search; in
`run_all`, per local type too, the details of the two checks that read
only the observed graph and the type, cliques and type_determinacy.  Each
partition still gets its own moves, targets, lookups in G_n, `are_adjacent`
per move, degree check and failure records.

In the report, each check's time includes the part of the observation named
after it: the build of G_n and of its index for degrees,
`verify_line_graph_theorem` for neighborhoods and the clique search for
cliques.  type_determinacy's time is its own.  A memo lookup is charged
to the check whose step it replaces.

Each failure records the partition, the check's detail and a `replay` CLI
command, which `run_all` chooses: `partgraph verify --nmax n`, the sweep up
to the failing partition's weight, with `--degrees-only` in that mode.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from .graphs import (
    CliqueClassificationError,
    NeighborhoodCheck,
    Relation,
    SimpleGraph,
    build_partition_graph,
    classify_clique,
    cliques_through,
    corner_violations,
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


class _CheckResultFields(NamedTuple):
    name: str
    examined: int
    failures: tuple[dict, ...] = ()
    ms: float = 0.0


class CheckResult(_CheckResultFields):
    """Outcome of one verifier: how many partitions it saw and what failed.

    `__new__` requires `failures` to be a tuple, and so do `_make`,
    `_replace` and `copy.replace`, which go through it.
    """

    __slots__ = ()

    def __new__(cls, name: str, examined: int, failures: tuple[dict, ...] = (),
                ms: float = 0.0) -> CheckResult:
        # A list would compare unequal to the same tuple and could not be hashed.
        if type(failures) is not tuple:
            raise ValueError(f"failures must be a tuple, got {type(failures).__name__}")
        return super().__new__(cls, name, examined, failures, ms)

    @classmethod
    def _make(cls, iterable: Iterable) -> CheckResult:
        return cls(*iterable)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {"name": self.name, "examined": self.examined, "failures": list(self.failures)}


class _VerificationReportFields(NamedTuple):
    n_range: tuple[int, int]
    checks: tuple[CheckResult, ...]


class VerificationReport(_VerificationReportFields):
    """Every check of one sweep over the weights in n_range.

    `__new__` requires `checks` to be a tuple, as `CheckResult` requires its
    failures to be one.
    """

    __slots__ = ()

    def __new__(cls, n_range: tuple[int, int],
                checks: tuple[CheckResult, ...]) -> VerificationReport:
        if type(checks) is not tuple:
            raise ValueError(f"checks must be a tuple, got {type(checks).__name__}")
        return super().__new__(cls, n_range, checks)

    @classmethod
    def _make(cls, iterable: Iterable) -> VerificationReport:
        return cls(*iterable)

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
    # The replay reruns the sweep up to p's weight: a failure that only G_n
    # or a move's target shows has no single-partition command that sees it.
    replay = f"partgraph verify --nmax {p.weight}" + (" --degrees-only" if degrees_only else "")
    return {"check": check, "n": p.weight, "partition": str(p), "detail": detail, "replay": replay}


def _once(memo: dict | None, derive: Callable[[], Any], tag: str, graph: SimpleGraph,
          *rest: Any) -> Any:
    """derive(), kept in memo per tag, graph and rest; without a memo, run every time.

    The graph's key is the two fields a `SimpleGraph` holds, its labels and its
    bitset adjacency.
    """
    if memo is None:
        return derive()
    key = (tag, graph.labels, graph.adjacency, *rest)
    value = memo.get(key)
    if value is None:
        value = memo[key] = derive()
    return value


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


def _graph_relation(graph: SimpleGraph) -> Relation:
    """Adjacency in G_n, as the relation `verify_line_graph_theorem` takes.

    Each target is looked up once, by its parts, among the vertices of G_n,
    vertices a and b are joined when bit b of a's adjacency bitset is set,
    and vertex a holds G_n's label a.  A target that G_n does not hold has
    another weight, and is rejected as `are_adjacent` rejects it.
    """
    labels = graph.labels
    index = {q.parts: a for a, q in enumerate(labels)}
    adjacency = graph.adjacency

    def vertex(target: Partition) -> int:
        a = index.get(target.parts)
        if a is None:
            raise ValueError(f"partitions of different weights: {target} has {target.weight}, "
                             f"G_n has {labels[0].weight}")
        return a

    return vertex, lambda a, b: adjacency[a] >> b & 1, labels.__getitem__


def observe(n: int, memo: dict | None = None) -> Iterator[Observation]:
    """Observe each partition of n once, in enumeration order.

    G_n and its index are built before the first observation, which is
    charged their time.  Observations are made one at a time, so a sweep
    holds one partition's neighborhood at once, however many partitions the
    weight has.  With a memo, the corner comparison and the clique search
    run once per distinct observed neighborhood, whose observations share
    one list of cliques.
    """
    def compare(observed: SimpleGraph) -> tuple:
        return _once(memo, lambda: corner_violations(observed), "corners", observed)

    start = time.perf_counter()
    graph = build_partition_graph(n)
    relation = _graph_relation(graph)
    build_ms = (time.perf_counter() - start) * 1000
    for idx, p in enumerate(graph.labels):
        start = time.perf_counter()
        check = verify_line_graph_theorem(p, relation, compare)
        compared = time.perf_counter()
        observed = check.neighborhood
        cliques = _once(memo, lambda: cliques_through(observed), "cliques", observed)
        ms = {"degrees": build_ms, "neighborhoods": (compared - start) * 1000,
              "cliques": (time.perf_counter() - compared) * 1000}
        yield Observation(check, cliques, graph.degree(idx), ms)
        build_ms = 0.0


def verify_degrees(p: Partition, T: LocalType, targets: Iterable[Partition],
                   graph_degree: int | None = None) -> tuple[str, ...]:
    """Degree check of one partition of local type T.

    Compares the count of its distinct targets with the closed formula and,
    when given, with its degree in G_n.  `verify --degrees-only` passes
    `neighbors(p).values()` and no graph degree.
    """
    values = {"neighbor_count": len(set(targets) - {p}), "formula": degree_formula(T)}
    if graph_degree is not None:
        values["graph_degree"] = graph_degree
    if len(set(values.values())) == 1:
        return ()
    return (f"degree mismatch: {values}",)


def verify_neighborhoods(o: Observation) -> tuple[str, ...]:
    """Neighborhood check of one observation.

    Every pair of targets must be adjacent exactly when their moves share a
    corner, and every target must be adjacent to its partition.
    """
    check, p = o.neighborhood, o.partition
    return (
        *(f"pair {v}" for v in check.violations),
        *(f"move {move}: target {target} is not adjacent"
          for move, target in zip(check.moves, check.targets) if not are_adjacent(p, target)),
    )


def verify_cliques(o: Observation, T: LocalType) -> tuple[str, ...]:
    """Clique check of one observation, of a partition of local type T.

    Every maximal clique found by search must classify by a shared corner,
    and one plus the largest clique size must match the closed-form clique
    number.
    """
    details = []
    for clique in o.cliques:
        try:
            classify_clique(clique)
        except CliqueClassificationError as exc:
            details.append(f"unclassifiable clique {[str(m) for m in clique]}: {exc}")
    searched = 1 + max(map(len, o.cliques), default=0)
    formula = local_clique_number(T)
    if searched != formula:
        details.append(f"clique number mismatch: search={searched}, formula={formula}")
    return tuple(details)


def _local_signature(check: NeighborhoodCheck, cliques: list[tuple[TransferMove, ...]]) -> dict:
    # Read off the observation of the concrete partition: moves from the
    # admissibility test, adjacency of the actual neighbors in G_n, clique
    # number from search on that graph.  Nothing reads the type-level
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
    moves = admissibility_graph(T)
    return {
        "moves": moves,
        "adjacency": tuple((moves[a], moves[b]) for a, b in line_graph(moves).sorted_edges()),
        "degree": degree_formula(T),
        "clique_number": local_clique_number(T),
        "dimension": local_dimension(T),
    }


def verify_type_determinacy(o: Observation, T: LocalType) -> tuple[str, ...]:
    """A partition must expose the local data its local type T alone predicts.

    Checking every partition, of any weight, against its type's model means,
    by transitivity, that all partitions of a type agree with each other,
    across weights.
    """
    signature = _local_signature(o.neighborhood, o.cliques)
    predicted = _type_prediction(T)
    return tuple(
        f"{key} disagrees with the type model: {signature[key]!r} vs {predicted[key]!r}"
        for key in signature
        if signature[key] != predicted[key]
    )


def run_all(n_max: int, degrees_only: bool = False) -> VerificationReport:
    """Run every check on all partitions of weights 1..n_max and build one report.

    This is the only loop: it observes each partition once, reads its local
    type once, and hands both to the four checks before making the next.  It
    turns what each check returns into failure records, with the replay of
    this mode, and tallies locally, one list of failures and one time per
    check and one count of partitions examined; it builds the report once,
    after the loop.  Each check's time is its own plus the part of the
    observation charged to it.  One memo, made per call, goes to `observe`
    and holds the cliques and type_determinacy details per observed graph
    and type.  With degrees_only, only the neighbor count versus formula
    comparison runs on each enumerated partition (no graph build, no pair
    tests); that mode stays cheap at weights where the full sweep would not.
    """
    if type(n_max) is not int or n_max < 1:
        raise ValueError(f"weight bound must be a positive integer, got {n_max!r}")
    weights = range(1, n_max + 1)
    if degrees_only:
        checks = [lambda p, T: verify_degrees(p, T, neighbors(p).values())]
        seen = ((p, p, local_type(p), {}) for n in weights for p in enumerate_partitions(n))
    else:
        memo: dict = {}
        # Tagged by the check's report name, never by the function's own name,
        # which a wrapper may share.  observe's entries carry no type, so none
        # of their keys equals one of these.
        checks = [
            lambda o, T: verify_degrees(o.partition, T, o.neighborhood.targets, o.graph_degree),
            lambda o, T: verify_neighborhoods(o),
            lambda o, T: _once(memo, lambda: verify_cliques(o, T), "cliques",
                               o.neighborhood.neighborhood, T),
            lambda o, T: _once(memo, lambda: verify_type_determinacy(o, T), "type_determinacy",
                               o.neighborhood.neighborhood, T),
        ]
        seen = ((o.partition, o, local_type(o.partition), o.ms)
                for n in weights for o in observe(n, memo))
    failures: dict[str, list[dict]] = {name: [] for name in CHECKS[:len(checks)]}
    ms = dict.fromkeys(failures, 0.0)
    examined = 0
    for p, subject, T, charged in seen:
        for name, check in zip(failures, checks):
            start = time.perf_counter()
            details = check(subject, T)
            failures[name] += [_failure(name, p, detail, degrees_only) for detail in details]
            ms[name] += (time.perf_counter() - start) * 1000 + charged.get(name, 0.0)
        examined += 1
    return VerificationReport((1, n_max), tuple(
        CheckResult(name, examined, tuple(failures[name]), ms[name]) for name in failures
    ))
