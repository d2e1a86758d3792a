"""Concrete graphs: the transfer graph on all partitions of n, induced
neighborhoods labeled by moves, line graphs, and maximal-clique search.

The load-bearing fact checked here is that the neighborhood of a partition,
as an induced subgraph of the transfer graph, coincides edge for edge with
the line graph of its admissibility graph under the move labeling.  Cliques
of a line graph of a bipartite graph come from stars, which is what makes
the clique classification exhaustive.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, combinations
from typing import Any, Callable, Iterable, Iterator, Mapping

from .local_model import AdmissibilityGraph
from .partitions import Partition, conjugate, enumerate_partitions
from .transfers import TransferMove, are_adjacent, neighbors


@dataclass(frozen=True)
class SimpleGraph:
    """An undirected simple graph over an ordered tuple of opaque labels.

    Edges are stored as index pairs (a, b) with a < b into the label tuple.
    """

    labels: tuple[Any, ...]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for a, b in self.edges:
            if not (0 <= a < b < len(self.labels)):
                raise ValueError(f"edge ({a}, {b}) invalid for {len(self.labels)} vertices")

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    @cached_property
    def _adjacency(self) -> tuple[frozenset[int], ...]:
        """Neighbor set of each vertex, built once from the edges."""
        adj: list[set[int]] = [set() for _ in self.labels]
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return tuple(frozenset(nbrs) for nbrs in adj)

    def degree(self, v: int) -> int:
        return len(self._adjacency[v])

    def to_json(self) -> dict:
        return {
            "labels": [label_json(label) for label in self.labels],
            "edges": [list(edge) for edge in self.sorted_edges()],
        }

    def to_dot(self) -> str:
        lines = ["graph G {"]
        for idx, label in enumerate(self.labels):
            lines.append(f'  {idx} [label="{label}"];')
        for a, b in self.sorted_edges():
            lines.append(f"  {a} -- {b};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def label_json(label: Any) -> Any:
    if isinstance(label, Partition):
        return list(label.parts)
    if isinstance(label, TransferMove):
        return label.to_json()
    if isinstance(label, tuple):
        return list(label)
    return label


def _relation_graph(labels: Iterable[Any], related: Callable[[Any, Any], bool]) -> SimpleGraph:
    """The graph on the labels, in their given order, joining every related pair."""
    labels = tuple(labels)
    pairs = combinations(enumerate(labels), 2)
    return SimpleGraph(labels, frozenset((a, b) for (a, x), (b, y) in pairs if related(x, y)))


def _share_corner(first: TransferMove, second: TransferMove) -> bool:
    return first.i == second.i or first.j == second.j


def build_partition_graph(n: int) -> SimpleGraph:
    """The graph on all partitions of n, joined when a single cell transfer
    maps one to the other.

    Built from an index of the conjugates' rows, with no pair test and no
    `neighbors`: conjugation is a graph automorphism, so the neighbors of p
    are the partitions whose conjugates arise from conjugate(p) by moving one
    cell from the last row of a run to the first row of a run or to a new
    row.  The two moves that give no new partition either give conjugate(p)
    back or rows out of order, which the index does not hold.  Each vertex
    costs one lookup per pair of runs.
    """
    labels = enumerate_partitions(n)
    index = {conjugate(p).parts: a for a, p in enumerate(labels)}
    edges = []
    for rows, a in index.items():
        padded = [*rows, 0]
        ends = list(accumulate(mult for _, mult in conjugate(labels[a]).blocks))
        for end in ends:
            for first in (0, *ends):
                moved = padded.copy()
                moved[end - 1] -= 1
                moved[first] += 1
                b = index.get(tuple(filter(None, moved)))
                if b is not None and b > a:
                    edges.append((a, b))
    return SimpleGraph(tuple(labels), frozenset(edges))


def induced_neighborhood(nbrs: Mapping[TransferMove, Partition]) -> SimpleGraph:
    """The graph the targets of the moves induce, labeled by the moves in sorted order.

    Adjacency comes from `are_adjacent` on every pair of targets, so targets
    of different weights are rejected.
    """
    moves = sorted(nbrs)
    induced = _relation_graph((nbrs[move] for move in moves), are_adjacent)
    return SimpleGraph(tuple(moves), induced.edges)


def line_graph(B: AdmissibilityGraph) -> SimpleGraph:
    """Vertices are the edges of B, which are moves; adjacency is sharing an endpoint."""
    return _relation_graph(B.sorted_edges(), _share_corner)


@dataclass(frozen=True)
class PairCheck:
    """One violating pair: adjacency of the targets disagreed with corner sharing."""

    first: TransferMove
    second: TransferMove
    adjacent_in_graph: bool
    share_corner: bool


@dataclass(frozen=True)
class NeighborhoodCheck:
    """The observed neighborhood of a partition next to the corner-sharing graph
    of its moves, which is the line graph of the moves' bipartite graph."""

    partition: Partition
    neighborhood: SimpleGraph
    targets: tuple[Partition, ...]
    corners: SimpleGraph
    violations: tuple[PairCheck, ...]

    @property
    def moves(self) -> tuple[TransferMove, ...]:
        return self.neighborhood.labels

    @property
    def pairs_checked(self) -> int:
        return len(self.moves) * (len(self.moves) - 1) // 2

    @property
    def adjacent_pairs(self) -> int:
        return self.neighborhood.edge_count

    @property
    def verified(self) -> bool:
        return not self.violations


def verify_line_graph_theorem(n: int, p: Partition) -> NeighborhoodCheck:
    """Check every pair of neighbors of p: adjacent in the weight-n transfer
    graph exactly when their moves share a removable or an addable corner.

    The two sides are computed independently: adjacency comes from the
    induced neighborhood, which applies the conjugate-coordinate test to the
    actual neighbor partitions; corner sharing looks only at the move labels,
    through the line graph of the bipartite graph the moves form.
    """
    if p.weight != n:
        raise ValueError(f"{p} has weight {p.weight}, not {n}")
    nbrs = neighbors(p)
    observed = induced_neighborhood(nbrs)
    moves = observed.labels
    corners = line_graph(AdmissibilityGraph(p.support_size, frozenset(moves)))
    violations = tuple(
        PairCheck(moves[a], moves[b], (a, b) in observed.edges, (a, b) in corners.edges)
        for a, b in sorted(observed.edges ^ corners.edges)
    )
    return NeighborhoodCheck(p, observed, tuple(map(nbrs.get, moves)), corners, violations)


def _maximal_cliques(graph: SimpleGraph) -> Iterator[frozenset[int]]:
    # Bron-Kerbosch with a max-degree pivot; deterministic because candidate
    # iteration and pivot tie-breaks are index-ordered.
    adj = graph._adjacency

    def expand(clique: set[int], candidates: set[int], excluded: set[int]) -> Iterator[frozenset[int]]:
        if not candidates and not excluded:
            if clique:
                yield frozenset(clique)
            return
        pivot = max(candidates | excluded, key=lambda v: (len(adj[v] & candidates), -v))
        for v in sorted(candidates - adj[pivot]):
            yield from expand(clique | {v}, candidates & adj[v], excluded & adj[v])
            candidates.remove(v)
            excluded.add(v)

    yield from expand(set(), set(range(graph.vertex_count)), set())


def cliques_through(graph: SimpleGraph) -> list[tuple[TransferMove, ...]]:
    """All maximal cliques of a partition's induced neighborhood, as sorted move tuples.

    Adjoining the partition itself to any of them gives a maximal clique of
    the full transfer graph through it.  An isolated partition, whose
    neighborhood is empty, yields the empty list.
    """
    found = [
        tuple(graph.labels[v] for v in sorted(clique))
        for clique in _maximal_cliques(graph)
    ]
    return sorted(found)


class CliqueClassificationError(ValueError):
    """The moves share no corner, which never happens for a genuine clique."""


@dataclass(frozen=True)
class CliqueClassification:
    """Which corner a clique of moves has in common.

    kind is "star" (common removable corner), "top" (common addable corner),
    or "both" for a single move, which fixes one corner on each side.
    """

    kind: str
    removable: int | None
    addable: int | None
    members: frozenset[TransferMove]


def classify_clique(moves: Iterable[TransferMove]) -> CliqueClassification:
    """Classify a clique of moves by its shared corner.

    Pairwise-adjacent edges of a bipartite graph always run through one
    common endpoint, so a clique that fits neither pattern is an error.
    """
    members = frozenset(moves)
    if not members:
        raise ValueError("cannot classify an empty set of moves")
    removable = {move.i for move in members}
    addable = {move.j for move in members}
    share_i = len(removable) == 1
    share_j = len(addable) == 1
    if share_i and share_j:
        return CliqueClassification("both", next(iter(removable)), next(iter(addable)), members)
    if share_i:
        return CliqueClassification("star", next(iter(removable)), None, members)
    if share_j:
        return CliqueClassification("top", None, next(iter(addable)), members)
    raise CliqueClassificationError(
        f"moves {[str(m) for m in sorted(members)]} share no removable or addable corner"
    )
