import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from itertools import combinations, compress, product

import partgraph.graphs
from partgraph import (
    CliqueClassificationError,
    PairCheck,
    Partition,
    SimpleGraph,
    TransferMove,
    admissibility_graph,
    are_adjacent,
    build_partition_graph,
    classify_clique,
    cliques_through,
    degree_formula,
    enumerate_partitions,
    induced_neighborhood,
    line_graph,
    local_type,
    make_partition,
    neighbors,
    run_all,
    verify_line_graph_theorem,
)
from partgraph.graphs import _maximal_cliques, _relation_edges

from oracles import adjacent_by_cells, conjugate_parts_by_cells, naive_maximal_cliques, partition_count


def move(text):
    i, j = text.split("->")
    return TransferMove(int(i), int(j))


@st.composite
def small_edge_sets(draw):
    n = draw(st.integers(0, 8))
    pairs = list(combinations(range(n), 2))
    if pairs:
        edges = draw(st.sets(st.sampled_from(pairs)))
    else:
        edges = set()
    return n, edges


@st.composite
def graphs_up_to_ten(draw):
    # A complete, an edgeless or a drawn graph on `core` of the n vertices,
    # the others isolated, with the vertices shuffled.
    n = draw(st.integers(0, 10))
    core = draw(st.integers(0, n))
    pairs = list(combinations(range(core), 2))
    keep = draw(st.one_of(
        st.just([True] * len(pairs)),
        st.just([False] * len(pairs)),
        st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)),
    ))
    order = draw(st.permutations(range(n)))
    edges = {tuple(sorted((order[a], order[b]))) for a, b in compress(pairs, keep)}
    return SimpleGraph(tuple(range(n)), frozenset(edges))


def complete_graph(n, isolated=0):
    return SimpleGraph(tuple(range(n + isolated)), frozenset(combinations(range(n), 2)))


class TestSimpleGraph:
    def test_basic_accessors(self):
        g = SimpleGraph(("a", "b", "c"), frozenset({(0, 1), (1, 2)}))
        assert g.vertex_count == 3
        assert g.edge_count == 2
        assert g.degree(1) == 2
        assert g.adjacency == (0b010, 0b101, 0b010)
        assert g.sorted_edges() == [(0, 1), (1, 2)]
        assert [g.degree(v) for v in range(3)] == [1, 2, 1]

    @given(small_edge_sets())
    def test_adjacency_agrees_with_edge_scan(self, drawn):
        # Every accessor against the pairs drawn, not against the graph's own edges.
        n, edges = drawn
        g = SimpleGraph(tuple(range(n)), edges)
        assert len(g.adjacency) == n
        for v in range(n):
            scanned = {b if a == v else a for a, b in edges if v in (a, b)}
            assert {u for u in range(n) if g.adjacency[v] >> u & 1} == scanned
            assert g.adjacency[v] >> n == 0
            assert g.degree(v) == len(scanned)
        assert g.edge_count == len(edges)
        assert g.sorted_edges() == sorted(edges)

    def test_any_iterable_of_pairs_gives_one_graph(self):
        pairs = [(1, 2), (0, 2), (0, 1)]
        first, *others = [
            SimpleGraph(("a", "b", "c"), edges)
            for edges in (pairs, set(pairs), frozenset(pairs), (pair for pair in pairs))
        ]
        assert first.sorted_edges() == [(0, 1), (0, 2), (1, 2)]
        for other in others:
            assert other == first
            assert hash(other) == hash(first)

    # (True, 2) would equal the edge (1, 2) yet be written as [true, 2] in
    # JSON; a float cannot index a vertex.
    @pytest.mark.parametrize("edges", [{(0, 3)}, {(1, 0)}, {(2, 2)},
                                       {(True, 2)}, {(0.0, 2.5)}, {(0, 2.0)}])
    def test_rejects_bad_edges(self, edges):
        with pytest.raises(ValueError):
            SimpleGraph(("a", "b", "c"), frozenset(edges))

    @pytest.mark.parametrize("labels", [["a", "b"], "ab"])
    def test_rejects_labels_not_a_tuple(self, labels):
        # Such a graph would be unhashable or unequal to its tuple twin.
        with pytest.raises(ValueError, match="labels must be a tuple"):
            SimpleGraph(labels, [(0, 1)])

    def test_json_uses_native_label_forms(self):
        g = SimpleGraph(
            (make_partition([2, 1]), TransferMove(1, 2)),
            frozenset({(0, 1)}),
        )
        assert g.to_json() == {
            "labels": [[2, 1], {"i": 1, "j": 2}],
            "edges": [[0, 1]],
        }

    def test_dot_renders_labels_and_edges(self):
        dot = build_partition_graph(4).to_dot()
        assert dot.startswith("graph G {")
        assert '0 [label="4"];' in dot
        assert '4 [label="1,1,1,1"];' in dot
        assert dot.count(" -- ") == 5

    def test_dot_escapes_quotes_and_backslashes_in_labels(self):
        dot = SimpleGraph(('say "hi"', "a\\b", "x"), [(0, 1)]).to_dot()
        assert '  0 [label="say \\"hi\\""];' in dot
        assert '  1 [label="a\\\\b"];' in dot
        assert '  2 [label="x"];' in dot


class TestNothingWrittenAfterConstruction:
    """A graph holds its labels and its adjacency, and no read writes more."""

    FIELDS = {"labels", "adjacency"}

    def test_after_every_read(self):
        p = make_partition([4, 4, 2, 2])
        move_graphs = (induced_neighborhood(neighbors(p)), line_graph(admissibility_graph(local_type(p))))
        for g in (build_partition_graph(8), *move_graphs):
            for v in range(g.vertex_count):
                g.degree(v)
            g.to_json()
            g.to_dot()
            list(_maximal_cliques(g))
            assert vars(g).keys() == self.FIELDS
        for g in move_graphs:
            cliques_through(g)
            assert vars(g).keys() == self.FIELDS

    def test_after_a_memoised_sweep(self, monkeypatch):
        built = []
        init = SimpleGraph.__init__

        def recording_init(self, labels, edges):
            init(self, labels, edges)
            built.append(self)

        monkeypatch.setattr(SimpleGraph, "__init__", recording_init)
        assert run_all(8).passed
        # G_n, the observed neighborhoods and the corner-sharing graphs.
        assert {type(g.labels[0]) for g in built if g.labels} == {Partition, TransferMove}
        for g in built:
            assert vars(g).keys() == self.FIELDS


class TestPartitionGraph:
    def test_weight_four(self):
        g = build_partition_graph(4)
        assert [p.parts for p in g.labels] == [
            (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
        ]
        assert g.sorted_edges() == [(0, 1), (1, 2), (1, 3), (2, 3), (3, 4)]
        assert sorted(g.degree(v) for v in range(5)) == [1, 1, 2, 3, 3]

    def test_tiny_weights(self):
        assert build_partition_graph(1).edge_count == 0
        assert build_partition_graph(2).sorted_edges() == [(0, 1)]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            build_partition_graph(0)

    def test_rejects_a_bool_weight(self):
        with pytest.raises(ValueError):
            build_partition_graph(True)

    def test_index_build_matches_pairwise_cell_test_to_twelve(self):
        for n in range(1, 13):
            g = build_partition_graph(n)
            pairs = combinations(enumerate(p.parts for p in g.labels), 2)
            pairwise = {(a, b) for (a, x), (b, y) in pairs if adjacent_by_cells(x, y)}
            assert len(g.labels) == partition_count(n)
            assert g.sorted_edges() == sorted(pairwise), n

    def test_index_build_matches_pairwise_adjacency_to_fourteen(self):
        # The pairwise build it replaced; equal graphs print the same bytes.
        for n in range(1, 15):
            g = build_partition_graph(n)
            labels = enumerate_partitions(n)
            assert g == SimpleGraph(tuple(labels), _relation_edges(labels, are_adjacent)), n

    def test_skipped_moves_reach_no_later_vertex_to_sixteen(self):
        # The index build moves a cell of a conjugate from the last row of a
        # run only to an earlier row that starts a run.  The moves it skips,
        # back to the cell's own row or to a later row, never reach b > a.
        reached = 0
        for n in range(1, 17):
            labels = enumerate_partitions(n)
            index = {conjugate_parts_by_cells(p.parts): a for a, p in enumerate(labels)}
            for rows, a in index.items():
                padded = [*rows, 0]
                lasts = [r for r in range(len(rows)) if padded[r] > padded[r + 1]]
                firsts = [f for f in range(len(padded)) if f == 0 or padded[f - 1] > padded[f]]
                for last, first in product(lasts, firsts):
                    if first >= last:
                        moved = padded.copy()
                        moved[last] -= 1
                        moved[first] += 1
                        b = index.get(tuple(filter(None, moved)))
                        assert b is None or b <= a, (n, rows, last, first)
                        reached += b is not None and b < a
        # Every edge is one such move from its later end.
        assert reached == sum(build_partition_graph(n).edge_count for n in range(1, 17))

    @pytest.mark.parametrize("n, edges", [(14, 525), (16, 1033), (18, 1948), (20, 3545)])
    def test_edge_counts(self, n, edges):
        assert build_partition_graph(n).edge_count == edges

    def test_handshake_and_degree_formula_up_to_nine(self):
        for n in range(1, 10):
            g = build_partition_graph(n)
            degrees = [g.degree(v) for v in range(g.vertex_count)]
            assert sum(degrees) == 2 * g.edge_count
            assert degrees == [degree_formula(local_type(p)) for p in g.labels]


class TestInducedNeighborhood:
    def test_two_neighbors_joined(self):
        g = induced_neighborhood(neighbors(make_partition([2, 2])))
        assert g.labels == (TransferMove(1, 1), TransferMove(1, 2))
        assert g.sorted_edges() == [(0, 1)]

    def test_single_neighbor(self):
        g = induced_neighborhood(neighbors(make_partition([9])))
        assert g.labels == (TransferMove(1, 2),)
        assert g.edge_count == 0

    def test_two_fat_blocks(self):
        g = induced_neighborhood(neighbors(make_partition([4, 4, 2, 2])))
        assert g.vertex_count == 6
        assert g.edge_count == 9

    def test_builds_one_graph(self, monkeypatch):
        built = []
        init = SimpleGraph.__init__

        def counting_init(self, labels, edges):
            built.append(labels)
            init(self, labels, edges)

        monkeypatch.setattr(SimpleGraph, "__init__", counting_init)
        g = induced_neighborhood(neighbors(make_partition([4, 4, 2, 2])))
        assert built == [g.labels]

    def test_weight_mismatch_rejected(self):
        # Targets of weights 4 and 6: the pair test refuses them.
        mixed = {TransferMove(1, 1): make_partition([3, 1]), TransferMove(1, 2): make_partition([3, 3])}
        with pytest.raises(ValueError):
            induced_neighborhood(mixed)


class TestLineGraph:
    def test_full_two_by_three_grid(self):
        L = line_graph(admissibility_graph(local_type(make_partition([4, 4, 2, 2]))))
        assert L.vertex_count == 6
        assert L.edge_count == 9

    def test_single_edge(self):
        L = line_graph(admissibility_graph(local_type(make_partition([9]))))
        assert L.labels == (TransferMove(1, 2),)
        assert L.edge_count == 0

    def test_staircase(self):
        L = line_graph(admissibility_graph(local_type(make_partition([3, 2, 1]))))
        assert L.vertex_count == 6
        assert L.sorted_edges() == [(0, 1), (1, 3), (2, 3), (2, 4), (4, 5)]

    @pytest.mark.parametrize("parts", [[4, 4, 2, 2], [3, 2, 1], [4, 2, 1], [9]])
    def test_labels_keep_the_given_order(self, parts):
        moves = admissibility_graph(local_type(make_partition(parts)))
        forward, backward = line_graph(moves), line_graph(moves[::-1])
        last = len(moves) - 1
        assert forward.labels == moves
        assert backward.labels == moves[::-1]
        assert backward.sorted_edges() == sorted((last - b, last - a) for a, b in forward.sorted_edges())

    def test_rejects_a_list(self):
        with pytest.raises(ValueError):
            line_graph([move("1->1"), move("1->2")])

    @pytest.mark.parametrize("moves", [
        ((1, 1), (1, 2)),
        (TransferMove(1, 1), (1, 2)),
        (TransferMove(True, 2), TransferMove(1, 3)),
        (TransferMove(1.0, 2), TransferMove(1, 3)),
        (TransferMove(1, 2), TransferMove(2, 0)),
        (TransferMove(-1, 2),),
    ])
    def test_rejects_anything_but_moves_with_positive_int_corners(self, moves):
        # True would share corner 1 with 1 and put an edge between 1->3 and True->2.
        with pytest.raises(ValueError, match="positive integer corners"):
            line_graph(moves)

    def test_neighborhood_equals_line_graph_on_labels(self):
        for n in range(1, 9):
            for p in enumerate_partitions(n):
                observed = induced_neighborhood(neighbors(p))
                predicted = line_graph(admissibility_graph(local_type(p)))
                assert observed.labels == predicted.labels
                assert observed.adjacency == predicted.adjacency


class TestLineGraphTheoremCheck:
    def test_two_fat_blocks(self):
        check = verify_line_graph_theorem(make_partition([4, 4, 2, 2]))
        assert check.pairs_checked == 15
        assert check.adjacent_pairs == 9
        assert check.verified
        assert check.violations == ()

    def test_vacuous_for_single_neighbor(self):
        check = verify_line_graph_theorem(make_partition([9]))
        assert check.pairs_checked == 0
        assert check.verified

    def test_all_weight_eight(self):
        for p in enumerate_partitions(8):
            check = verify_line_graph_theorem(p)
            assert check.verified
            assert check.neighborhood == induced_neighborhood(neighbors(p))
            assert check.corners == line_graph(admissibility_graph(local_type(p)))
            assert check.moves == check.neighborhood.labels
            assert check.targets == tuple(neighbors(p)[m] for m in check.moves)

    # 4,4,2,2 admits all six moves: 9 pairs share a corner, 6 do not.
    @pytest.mark.parametrize("adjacent, share_corner, flagged", [
        (lambda p, q: False, True,
         "1->1/1->2 1->1/1->3 1->1/2->1 1->2/1->3 1->2/2->2 "
         "1->3/2->3 2->1/2->2 2->1/2->3 2->2/2->3"),
        (lambda p, q: p != q, False,
         "1->1/2->2 1->1/2->3 1->2/2->1 1->2/2->3 1->3/2->1 1->3/2->2"),
    ])
    def test_violations_in_sorted_move_order(self, monkeypatch, adjacent, share_corner, flagged):
        monkeypatch.setattr(partgraph.graphs, "are_adjacent", adjacent)
        check = verify_line_graph_theorem(make_partition([4, 4, 2, 2]))
        assert check.violations == tuple(
            PairCheck(move(a), move(b), not share_corner, share_corner)
            for a, b in (pair.split("/") for pair in flagged.split())
        )
        assert not check.verified


def neighborhood_of(parts):
    return induced_neighborhood(neighbors(make_partition(parts)))


class TestMaximalCliques:
    @settings(deadline=None, max_examples=300)
    @given(graphs_up_to_ten())
    @example(complete_graph(0))
    @example(complete_graph(0, isolated=10))
    @example(complete_graph(10))
    @example(complete_graph(5, isolated=5))
    def test_matches_subset_enumeration(self, g):
        found = list(_maximal_cliques(g))
        assert len(found) == len(set(found))
        assert set(found) == naive_maximal_cliques(g.vertex_count, g.sorted_edges())

    def test_deterministic_output(self):
        g = build_partition_graph(7)
        assert list(_maximal_cliques(g)) == list(_maximal_cliques(g))

    @pytest.mark.parametrize("g, order", [
        (neighborhood_of([4, 4, 2, 2]), [[0, 1, 2], [0, 3], [1, 4], [3, 4, 5], [2, 5]]),
        (build_partition_graph(6), [[0, 1], [1, 2, 3], [2, 3, 5], [2, 4, 5], [3, 5, 6],
                                    [5, 6, 8], [5, 7, 8], [6, 8, 9], [9, 10]]),
    ])
    def test_order_of_the_cliques(self, g, order):
        # The pivot has the most neighbors among the candidates, the lowest on
        # ties, and the candidates are expanded lowest first.
        assert [sorted(clique) for clique in _maximal_cliques(g)] == order


class TestCliquesThrough:
    def test_one_clique_covering_both_moves(self):
        assert cliques_through(neighborhood_of([2, 2])) == [
            (TransferMove(1, 1), TransferMove(1, 2)),
        ]

    def test_singleton_clique(self):
        assert cliques_through(neighborhood_of([9])) == [(TransferMove(1, 2),)]

    def test_isolated_partition_has_none(self):
        assert cliques_through(neighborhood_of([1])) == []

    def test_two_fat_blocks(self):
        found = cliques_through(neighborhood_of([4, 4, 2, 2]))
        assert found == [
            (TransferMove(1, 1), TransferMove(1, 2), TransferMove(1, 3)),
            (TransferMove(1, 1), TransferMove(2, 1)),
            (TransferMove(1, 2), TransferMove(2, 2)),
            (TransferMove(1, 3), TransferMove(2, 3)),
            (TransferMove(2, 1), TransferMove(2, 2), TransferMove(2, 3)),
        ]
        kinds = [classify_clique(c).kind for c in found]
        assert kinds == ["star", "top", "top", "top", "star"]


class TestClassifyClique:
    def test_star(self):
        cls = classify_clique([TransferMove(1, 1), TransferMove(1, 2), TransferMove(1, 3)])
        assert (cls.kind, cls.removable, cls.addable) == ("star", 1, None)

    def test_top(self):
        cls = classify_clique([TransferMove(1, 2), TransferMove(3, 2)])
        assert (cls.kind, cls.removable, cls.addable) == ("top", None, 2)

    def test_single_move_fixes_both(self):
        cls = classify_clique([TransferMove(2, 1)])
        assert (cls.kind, cls.removable, cls.addable) == ("both", 2, 1)

    def test_no_shared_corner_is_an_error(self):
        with pytest.raises(CliqueClassificationError):
            classify_clique([TransferMove(1, 2), TransferMove(2, 1)])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            classify_clique([])

    @pytest.mark.parametrize("moves", [
        [TransferMove(True, 2), TransferMove(1, 3)],
        [TransferMove(1.5, 2)],
        [TransferMove(0, 1)],
        [TransferMove(1, 2), TransferMove(True, 2)],
        [TransferMove(2, -1)],
    ])
    def test_rejects_indices_other_than_positive_ints(self, moves):
        # True for 1 would come back as `removable=True`, printed `true` in JSON.
        with pytest.raises(ValueError):
            classify_clique(moves)

    def test_accepts_a_one_shot_iterable(self):
        cls = classify_clique(TransferMove(1, j) for j in (1, 2))
        assert (cls.kind, cls.removable, cls.addable) == ("star", 1, None)
