"""Concrete graphs: the transfer graph on all partitions of n, induced
neighborhoods labeled by moves, line graphs, and maximal-clique search.

The load-bearing fact checked here is that the neighborhood of a partition,
as an induced subgraph of the transfer graph, coincides edge for edge with
the line graph of its admissibility graph under the move labeling.  Cliques
of a line graph of a bipartite graph come from stars, which is what makes
the clique classification exhaustive.
"""

from __future__ import annotations

from itertools import accumulate, chain, combinations
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .partitions import Partition, conjugate, enumerate_partitions
from .transfers import TransferMove, are_adjacent, neighbors


class SimpleGraph:
    """An undirected simple graph over an ordered tuple of opaque labels.

    Edges are stored as index pairs (a, b) of ints with a < b into the label
    tuple.  Immutable, and equal and hashed as `(labels, edges)`; a plain
    class, not a named tuple, because it keeps its adjacency in its instance
    dict once built (`_adjacency`, one int bitset per vertex).
    """

    labels: tuple[Any, ...]
    edges: frozenset[tuple[int, int]]

    def __init__(self, labels: tuple[Any, ...], edges: frozenset[tuple[int, int]]) -> None:
        # A list or a set would make the graph unhashable and unequal to its twin.
        if type(labels) is not tuple or type(edges) is not frozenset:
            raise ValueError("labels must be a tuple and edges a frozenset")
        count = len(labels)
        for a, b in edges:
            # bool and float compare equal to ints, but JSON writes them
            # otherwise, and a float can neither index a vertex nor shift a bit.
            if type(a) is not int or type(b) is not int or not (0 <= a < b < count):
                raise ValueError(f"edge ({a}, {b}) invalid for {count} vertices")
        self.__dict__.update(labels=labels, edges=edges)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.labels, self.edges) == (other.labels, other.edges)

    def __hash__(self) -> int:
        return hash((self.labels, self.edges))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(labels={self.labels!r}, edges={self.edges!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __getattr__(self, name: str) -> Any:
        # Called only for a name missing from the instance dict: `_adjacency`,
        # an int bitset of each vertex's neighbors, is stored there on first
        # use, with no lock, as `Partition.blocks` is.
        if name != "_adjacency":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        masks = [0] * len(self.labels)
        for a, b in self.edges:
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        self.__dict__["_adjacency"] = adjacency = tuple(masks)
        return adjacency

    def degree(self, v: int) -> int:
        return self._adjacency[v].bit_count()

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
    if isinstance(label, (Partition, TransferMove)):
        return label.to_json()
    if isinstance(label, tuple):
        return list(label)
    return label


# A relation on partitions, as `induced_neighborhood` takes it: a map from each
# partition to a vertex, and a test of two vertices.
Relation = tuple[Callable[[Partition], Any], Callable[[Any, Any], bool]]


def _relation_edges(items: Sequence, related: Callable[[Any, Any], bool]) -> frozenset[tuple[int, int]]:
    """The index pairs (a, b), a < b, of every related pair of the items."""
    pairs = combinations(enumerate(items), 2)
    return frozenset((a, b) for (a, x), (b, y) in pairs if related(x, y))


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
    back or rows out of order, which the index does not hold.  The index
    keys are the conjugates' rows, expanded from the block forms `conjugate`
    returns, and the run ends are read off those block forms.  Each vertex
    costs one lookup per pair of runs.
    """
    labels = enumerate_partitions(n)
    index = {tuple(chain.from_iterable((size,) * width for size, width in conjugate(p))): a
             for a, p in enumerate(labels)}
    edges = []
    for rows, a in index.items():
        padded = [*rows, 0]
        ends = list(accumulate(width for _, width in conjugate(labels[a])))
        for end in ends:
            for first in (0, *ends):
                moved = padded.copy()
                moved[end - 1] -= 1
                moved[first] += 1
                b = index.get(tuple(filter(None, moved)))
                if b is not None and b > a:
                    edges.append((a, b))
    return SimpleGraph(tuple(labels), frozenset(edges))


def induced_neighborhood(
    nbrs: Mapping[TransferMove, Partition],
    relation: Relation | None = None,
) -> SimpleGraph:
    """The graph the targets of the moves induce, labeled by the moves in sorted order.

    `relation` is a pair (vertex, related): each target is mapped once by
    `vertex`, and two targets are joined when `related` holds of their
    vertices.  The full sweep passes adjacency in G_n this way.  Without it,
    every pair of targets is tested with `are_adjacent`, looked up when
    called, so targets of different weights are rejected.
    """
    moves = tuple(sorted(nbrs))
    vertices = [nbrs[move] for move in moves]
    if relation is None:
        related = are_adjacent
    else:
        vertex, related = relation
        vertices = [vertex(target) for target in vertices]
    return SimpleGraph(moves, _relation_edges(vertices, related))


def _require_moves(moves: tuple) -> None:
    # bool and float compare equal to ints, so a corner set could report True
    # for corner 1, and True would share corner 1 with 1; each move is checked
    # before corners are compared or merged.
    if type(moves) is not tuple or not all(
        type(move) is TransferMove and type(move.i) is type(move.j) is int and min(move) >= 1
        for move in moves
    ):
        raise ValueError(f"moves must be a tuple of TransferMoves with positive integer corners, got {moves}")


def line_graph(moves: tuple[TransferMove, ...]) -> SimpleGraph:
    """The line graph of the bipartite graph whose edges are the moves, labeled
    by the moves in the given order; adjacency is sharing an endpoint.

    Only a tuple of `TransferMove`s with int corners >= 1 is taken.  The check
    is made here and not in `TransferMove`, which `neighbors` builds for every
    cell of its move grid.
    """
    _require_moves(moves)
    return SimpleGraph(moves, _relation_edges(moves, _share_corner))


class PairCheck(NamedTuple):
    """One violating pair: adjacency of the targets disagreed with corner sharing."""

    first: TransferMove
    second: TransferMove
    adjacent_in_graph: bool
    share_corner: bool

    def __str__(self) -> str:
        return (f"{self.first}/{self.second}: adjacent_in_graph={self.adjacent_in_graph}, "
                f"share_corner={self.share_corner}")


class NeighborhoodCheck(NamedTuple):
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


def corner_violations(observed: SimpleGraph) -> tuple[PairCheck, ...]:
    """Every pair of a neighborhood's move labels on which its adjacency
    disagrees with corner sharing, the edges of the moves' line graph."""
    moves = observed.labels
    corners = line_graph(moves)
    return tuple(
        PairCheck(moves[a], moves[b], (a, b) in observed.edges, (a, b) in corners.edges)
        for a, b in sorted(observed.edges ^ corners.edges)
    )


def verify_line_graph_theorem(
    p: Partition,
    relation: Relation | None = None,
    compare: Callable[[SimpleGraph], tuple[PairCheck, ...]] | None = None,
) -> NeighborhoodCheck:
    """Check every pair of neighbors of p: adjacent in the transfer graph of
    p's weight exactly when their moves share a removable or an addable corner.

    The two sides are computed independently: adjacency comes from the
    induced neighborhood of the actual neighbor partitions, under `relation`
    when given (see `induced_neighborhood`) and the conjugate-coordinate test
    otherwise; corner sharing looks only at the move labels, through the line
    graph of the bipartite graph the moves form.  `compare` replaces
    `corner_violations`, so a sweep can compare each distinct neighborhood
    once.  A neighborhood without violations stands in for its line graph.
    """
    nbrs = neighbors(p)
    observed = induced_neighborhood(nbrs, relation)
    moves = observed.labels
    violations = (corner_violations if compare is None else compare)(observed)
    corners = line_graph(moves) if violations else observed
    return NeighborhoodCheck(p, observed, tuple(map(nbrs.get, moves)), corners, violations)


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _maximal_cliques(graph: SimpleGraph) -> Iterator[frozenset[int]]:
    """Every maximal nonempty clique of the graph, as a frozenset of vertex indices.

    Bron-Kerbosch with a pivot, on int bitsets: bit v of a set stands for
    vertex v, and the neighbor sets are the graph's `_adjacency`.  The pivot
    is the vertex of the candidates and the excluded with the most neighbors
    among the candidates, the lowest on ties, and the candidates that are not
    its neighbors are expanded lowest first, so the order of the cliques is
    deterministic.
    """
    masks = graph._adjacency

    def expand(clique: int, candidates: int, excluded: int) -> Iterator[frozenset[int]]:
        if not candidates:
            if not excluded and clique:
                yield frozenset(_bits(clique))
            return
        most = -1
        for v in _bits(candidates | excluded):
            count = (masks[v] & candidates).bit_count()
            if count > most:
                most, pivot = count, v
        for v in _bits(candidates & ~masks[pivot]):
            bit = 1 << v
            yield from expand(clique | bit, candidates & masks[v], excluded & masks[v])
            candidates ^= bit
            excluded |= bit

    yield from expand(0, (1 << graph.vertex_count) - 1, 0)


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


class CliqueClassification(NamedTuple):
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
    moves = tuple(moves)
    _require_moves(moves)
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
