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

    Built from index pairs (a, b) of ints with a < b into the label tuple,
    given as any iterable, it keeps only `adjacency`: one int bitset per
    vertex, bit b of vertex a set when a and b are joined.  Immutable, equal
    and hashed as `(labels, adjacency)`, and it writes nothing after
    construction.
    """

    labels: tuple[Any, ...]
    adjacency: tuple[int, ...]

    def __init__(self, labels: tuple[Any, ...], edges: Iterable[tuple[int, int]]) -> None:
        # A list of labels would make the graph unhashable and unequal to its twin.
        if type(labels) is not tuple:
            raise ValueError("labels must be a tuple")
        count = len(labels)
        masks = [0] * count
        for a, b in edges:
            # bool and float compare equal to ints, but JSON writes them
            # otherwise, and a float can neither index a vertex nor shift a bit.
            if type(a) is not int or type(b) is not int or not (0 <= a < b < count):
                raise ValueError(f"edge ({a}, {b}) invalid for {count} vertices")
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        self.__dict__.update(labels=labels, adjacency=tuple(masks))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.labels, self.adjacency) == (other.labels, other.adjacency)

    def __hash__(self) -> int:
        return hash((self.labels, self.adjacency))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(labels={self.labels!r}, edges={self.sorted_edges()!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.adjacency) // 2

    def sorted_edges(self) -> list[tuple[int, int]]:
        return list(_upper_pairs(self.adjacency))

    def degree(self, v: int) -> int:
        return self.adjacency[v].bit_count()

    def to_json(self) -> dict:
        return {
            "labels": [label_json(label) for label in self.labels],
            "edges": [[a, b] for a, b in _upper_pairs(self.adjacency)],
        }

    def to_dot(self) -> str:
        # Each line ends in its newline, so one join makes the text and no
        # second copy of it is made to end it.
        lines = ["graph G {\n"]
        for idx, label in enumerate(self.labels):
            # Inside a quoted DOT string, a backslash and a quote are escaped.
            text = str(label).replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  {idx} [label="{text}"];\n')
        for a, b in _upper_pairs(self.adjacency):
            lines.append(f"  {a} -- {b};\n")
        lines.append("}\n")
        return "".join(lines)


def label_json(label: Any) -> Any:
    if isinstance(label, (Partition, TransferMove)):
        return label.to_json()
    if isinstance(label, tuple):
        return list(label)
    return label


# Adjacency in a graph of partitions, as `verify_line_graph_theorem` takes it:
# a map from each partition to its vertex, a test of two vertices, and the
# partition the graph holds at a vertex.  Without one, each partition is its
# own vertex, and the test is `induced_neighborhood`'s default.
Relation = tuple[Callable[[Partition], Any], Callable[[Any, Any], bool],
                 Callable[[Any], Partition]]


def _itself(value: Any) -> Any:
    return value


def _relation_edges(items: Sequence, related: Callable[[Any, Any], bool]) -> Iterator[tuple[int, int]]:
    """The index pairs (a, b), a < b, of every related pair of the items, each yielded once tested."""
    pairs = combinations(enumerate(items), 2)
    return ((a, b) for (a, x), (b, y) in pairs if related(x, y))


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
    back or rows out of order, which the index does not hold.  Only moves to
    an earlier row are tried: their conjugate dominates conjugate(p), so, as
    conjugation reverses dominance, their partition is dominated by p, hence
    lex-smaller and later in `enumerate_partitions`' reverse-lex order, at
    b > a.  Any other move gives b <= a, so each edge is found once, from its
    earlier end.  The index keys are the conjugates' rows, expanded from the
    block forms `conjugate` returns, and the run ends are read off those
    block forms.  Each edge goes straight into the graph's bitsets, never
    into a list.
    """
    labels = enumerate_partitions(n)
    index = {tuple(chain.from_iterable((size,) * width for size, width in conjugate(p))): a
             for a, p in enumerate(labels)}

    def edges() -> Iterator[tuple[int, int]]:
        for rows, a in index.items():
            padded = [*rows, 0]
            ends = list(accumulate(width for _, width in conjugate(labels[a])))
            for end in ends:
                for first in (0, *ends):
                    if first >= end - 1:
                        break
                    moved = padded.copy()
                    moved[end - 1] -= 1
                    moved[first] += 1
                    b = index.get(tuple(filter(None, moved)))
                    if b is not None and b > a:
                        yield a, b

    return SimpleGraph(tuple(labels), edges())


def induced_neighborhood(
    nbrs: Mapping[TransferMove, Any],
    related: Callable[[Any, Any], bool] | None = None,
) -> SimpleGraph:
    """The graph the targets of the moves induce, labeled by the moves in sorted order.

    Two targets are joined when `related` holds of them.  The full sweep
    passes each target's vertex of G_n and adjacency in G_n this way.
    Without it, every pair of targets is tested with `are_adjacent`, looked
    up when called, so targets of different weights are rejected.
    """
    moves = tuple(sorted(nbrs))
    if related is None:
        related = are_adjacent
    return SimpleGraph(moves, _relation_edges([nbrs[move] for move in moves], related))


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
    moves, seen = observed.labels, observed.adjacency
    # The rows' XOR marks the pairs the two graphs disagree on, so on each of
    # them corner sharing is the negation of the observed adjacency.
    differ = map(int.__xor__, seen, line_graph(moves).adjacency)
    return tuple(
        PairCheck(moves[a], moves[b], bool(seen[a] >> b & 1), not seen[a] >> b & 1)
        for a, b in _upper_pairs(differ)
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
    when given and the conjugate-coordinate test otherwise; corner sharing
    looks only at the move labels, through the line graph of the bipartite
    graph the moves form.  Under `relation` each target is mapped once to
    its vertex, and the check's targets are the partitions the graph holds
    there, equal to the targets `neighbors` made; without it each target is
    its own vertex.  `compare` replaces `corner_violations`, so a sweep can
    compare each distinct neighborhood once.  A neighborhood without
    violations stands in for its line graph.
    """
    vertex, related, label = relation or (_itself, None, _itself)
    vertices = {move: vertex(target) for move, target in neighbors(p).items()}
    observed = induced_neighborhood(vertices, related)
    targets = tuple(label(vertices[move]) for move in observed.labels)
    moves = observed.labels
    violations = (corner_violations if compare is None else compare)(observed)
    corners = line_graph(moves) if violations else observed
    return NeighborhoodCheck(p, observed, targets, corners, violations)


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _upper_pairs(rows: Iterable[int]) -> Iterator[tuple[int, int]]:
    """The pairs (a, b), a < b, with bit b of row a set, in sorted order."""
    for a, mask in enumerate(rows):
        for b in _bits(mask >> (a + 1) << (a + 1)):
            yield a, b


def _maximal_cliques(graph: SimpleGraph) -> Iterator[frozenset[int]]:
    """Every maximal nonempty clique of the graph, as a frozenset of vertex indices.

    Bron-Kerbosch with a pivot, on int bitsets: bit v of a set stands for
    vertex v, and the neighbor sets are the graph's `adjacency`.  The pivot
    is the vertex of the candidates and the excluded with the most neighbors
    among the candidates, the lowest on ties, and the candidates that are not
    its neighbors are expanded lowest first, so the order of the cliques is
    deterministic.
    """
    masks = graph.adjacency

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
