import copy
import json
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partgraph import (
    LocalType,
    Partition,
    TransferMove,
    admissibility_graph,
    degree_formula,
    enumerate_partitions,
    line_graph,
    local_clique_number,
    local_dimension,
    local_type,
    make_partition,
    neighbors,
    side_degrees,
)
from partgraph.cli import main
from partgraph.graphs import _maximal_cliques

from test_block_form import block_patterns, from_pattern

partitions = st.lists(st.integers(1, 9), min_size=1, max_size=8).map(make_partition)


@st.composite
def local_types(draw):
    t = draw(st.integers(1, 5))
    alpha = tuple(draw(st.integers(0, 1)) for _ in range(t))
    beta = tuple(draw(st.integers(0, 1)) for _ in range(t))
    return LocalType(t, alpha, beta)


def staircase_type(t):
    return LocalType(t, (1,) * t, (1,) * t)


class TestLocalType:
    @pytest.mark.parametrize("parts,expected", [
        ((4, 4, 2, 2), LocalType(2, (0, 0), (0, 0))),
        ((3, 2, 1), LocalType(3, (1, 1, 1), (1, 1, 1))),
        ((9,), LocalType(1, (1,), (0,))),
        ((1,), LocalType(1, (1,), (1,))),
        ((1, 1), LocalType(1, (0,), (1,))),
        ((2, 2), LocalType(1, (0,), (0,))),
        ((5, 5, 4, 1), LocalType(3, (0, 1, 1), (1, 0, 1))),
    ])
    def test_known_values(self, parts, expected):
        assert local_type(Partition(parts)) == expected

    @pytest.mark.parametrize("bad", [
        dict(t=0, alpha=(), beta=()),
        dict(t=2, alpha=(1,), beta=(0, 0)),
        dict(t=1, alpha=(2,), beta=(0,)),
        dict(t=1, alpha=(True,), beta=(False,)),
        dict(t=2, alpha=(1, 0), beta=(0, True)),
        dict(t=1, alpha=(1.0,), beta=(0,)),
        dict(t=1.0, alpha=(1,), beta=(0,)),
        dict(t=True, alpha=(1,), beta=(0,)),
        dict(t=1, alpha=[1], beta=[0]),
        dict(t=2, alpha=(1, 0), beta=[0, 1]),
    ])
    def test_rejects_malformed(self, bad):
        valid = LocalType(1, (0,), (0,))
        builds = [
            lambda: LocalType(**bad),
            lambda: LocalType._make((bad["t"], bad["alpha"], bad["beta"])),
            lambda: valid._replace(**bad),
        ]
        if hasattr(copy, "replace"):  # Python 3.13 and later
            builds.append(lambda: copy.replace(valid, **bad))
        for build in builds:
            with pytest.raises(ValueError):
                build()

    def test_counts(self):
        T = LocalType(3, (1, 0, 1), (0, 0, 1))
        assert T.singleton_count == 2
        assert T.unit_gap_count == 1

    def test_json_form(self):
        assert local_type(make_partition([3, 1])).to_json() == {
            "t": 2, "alpha": [1, 1], "beta": [0, 1],
        }


class TestAdmissibilityGraph:
    def test_full_grid_when_no_obstructions(self):
        B = admissibility_graph(LocalType(2, (0, 0), (0, 0)))
        assert B == ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3))

    def test_single_edge_types(self):
        assert admissibility_graph(LocalType(1, (1,), (0,))) == ((1, 2),)
        assert admissibility_graph(LocalType(1, (0,), (1,))) == ((1, 1),)
        assert admissibility_graph(LocalType(1, (1,), (1,))) == ()

    def test_staircase_deletions(self):
        B = admissibility_graph(staircase_type(3))
        assert B == ((1, 3), (1, 4), (2, 1), (2, 4), (3, 1), (3, 2))

    def test_json_form(self, capsys):
        # `local` writes B as its support size and its edges, 1-based and sorted.
        assert main(["local", "2,2", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["admissibility_graph"] == {
            "t": 1, "edges": [[1, 1], [1, 2]],
        }

    @given(partitions)
    def test_edges_are_exactly_the_admissible_moves(self, p):
        B = admissibility_graph(local_type(p))
        assert set(B) == set(neighbors(p))

    @staticmethod
    def assert_edges_are_the_neighbor_moves_in_order(p):
        moves = list(neighbors(p))
        assert moves == sorted(moves)
        edges = admissibility_graph(local_type(p))
        assert edges == tuple(moves)
        assert all(type(edge) is TransferMove for edge in edges)

    def test_sorted_edges_are_the_neighbor_moves_up_to_weight_12(self):
        for n in range(1, 13):
            for p in enumerate_partitions(n):
                self.assert_edges_are_the_neighbor_moves_in_order(p)

    @settings(deadline=None)
    @given(block_patterns())
    def test_sorted_edges_are_the_neighbor_moves_on_block_patterns(self, pattern):
        self.assert_edges_are_the_neighbor_moves_in_order(from_pattern(*pattern))

    def test_every_type_to_four_gives_its_smallest_partition_s_moves_in_order(self):
        types = [LocalType(t, alpha, beta)
                 for t in range(1, 5)
                 for alpha in product((0, 1), repeat=t)
                 for beta in product((0, 1), repeat=t)]
        assert len(types) == 340
        for T in types:
            # Multiplicity 1 on a singleton block, else 2; gap 1 on a unit gap, else 2.
            p = from_pattern(tuple(2 - bit for bit in T.beta), tuple(2 - bit for bit in T.alpha))
            assert local_type(p) == T
            B = admissibility_graph(T)
            assert type(B) is tuple
            assert all(type(move) is TransferMove for move in B)
            assert all(first < second for first, second in zip(B, B[1:]))
            assert B == tuple(neighbors(p))


class TestDegreeFormula:
    @pytest.mark.parametrize("T,expected", [
        (LocalType(2, (0, 0), (0, 0)), 6),
        (LocalType(1, (1,), (1,)), 0),
        (staircase_type(4), 12),
        (LocalType(1, (0,), (0,)), 2),
    ])
    def test_known_values(self, T, expected):
        assert degree_formula(T) == expected

    @given(local_types())
    def test_matches_edge_count(self, T):
        assert degree_formula(T) == len(admissibility_graph(T))


class TestSideDegrees:
    def test_two_fat_blocks(self):
        assert side_degrees(LocalType(2, (0, 0), (0, 0))) == ((3, 3), (2, 2, 2))

    def test_rectangle(self):
        assert side_degrees(LocalType(1, (0,), (0,))) == ((2,), (1, 1))

    @pytest.mark.parametrize("t", range(2, 7))
    def test_staircases(self, t):
        left, right = side_degrees(staircase_type(t))
        assert left == (t - 1,) * t
        assert right == (t - 1,) + (t - 2,) * (t - 1) + (t - 1,)

    @given(local_types())
    def test_matches_vertex_degree_counting(self, T):
        B = admissibility_graph(T)
        left, right = side_degrees(T)
        removable = Counter(i for i, _ in B)
        addable = Counter(j for _, j in B)
        assert left == tuple(removable[i] for i in range(1, T.t + 1))
        assert right == tuple(addable[j] for j in range(1, T.t + 2))
        assert sum(left) == sum(right) == len(B)


class TestCliqueNumber:
    @pytest.mark.parametrize("T,expected", [
        (LocalType(2, (0, 0), (0, 0)), 4),
        (LocalType(1, (0,), (0,)), 3),
        (LocalType(1, (1,), (0,)), 2),
        (LocalType(1, (1,), (1,)), 1),
    ])
    def test_known_values(self, T, expected):
        assert local_clique_number(T) == expected
        assert local_dimension(T) == expected - 1

    @pytest.mark.parametrize("t", range(2, 7))
    def test_staircases(self, t):
        assert local_clique_number(staircase_type(t)) == t

    @given(local_types())
    def test_matches_clique_search_on_the_line_graph(self, T):
        # the +1 accounts for the central vertex next to a clique of moves
        L = line_graph(admissibility_graph(T))
        best = max((len(c) for c in _maximal_cliques(L)), default=0)
        assert local_clique_number(T) == 1 + best


class TestTypeDeterminacy:
    @pytest.mark.parametrize("a,b", [
        ([3], [5]),
        ([2, 2], [3, 3, 3]),
        ([1, 1], [1, 1, 1]),
        ([4, 4, 2, 2], [9, 9, 9, 3, 3]),
    ])
    def test_same_type_means_same_local_data(self, a, b):
        Ta = local_type(make_partition(a))
        Tb = local_type(make_partition(b))
        assert Ta == Tb
        assert admissibility_graph(Ta) == admissibility_graph(Tb)
        assert degree_formula(Ta) == degree_formula(Tb)
        assert local_clique_number(Ta) == local_clique_number(Tb)
