"""Block-form routes (`conjugate`, `are_adjacent`) against the cell oracle.

The partitions here have few blocks but wide gaps, so conjugates of partners
differ in length by tens of columns: the case where a run-by-run comparison
and a cell-by-cell one are most likely to part ways.
"""

import io
import json
import tracemalloc
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partgraph import (
    InadmissibleTransferError,
    Partition,
    TransferMove,
    apply_transfer,
    are_adjacent,
    conjugate,
    enumerate_partitions,
    make_partition,
    neighbors,
    parse_partition,
    transfers,
)
from partgraph.cli import main

from oracles import (
    adjacent_by_cells,
    conjugate_parts_by_cells,
    definition_admissible,
    raw_transfer_parts,
    run_length_blocks,
)

gap_values = st.one_of(st.sampled_from([1, 2]), st.integers(17, 60))


@st.composite
def block_patterns(draw):
    """(gaps, multiplicities) with t in 1..4, gaps in {1, 2, 17..60}."""
    t = draw(st.integers(1, 4))
    gap_list = draw(st.lists(gap_values, min_size=t, max_size=t))
    mults = draw(st.lists(st.integers(1, 3), min_size=t, max_size=t))
    return tuple(gap_list), tuple(mults)


def from_pattern(gap_list, mults):
    sizes = [sum(gap_list[k:]) for k in range(len(gap_list))]
    return make_partition([size for size, mult in zip(sizes, mults) for _ in range(mult)])


def admissible_moves(parts):
    t = len(set(parts))
    return [
        (i, j)
        for i in range(1, t + 1)
        for j in range(1, t + 2)
        if definition_admissible(parts, i, j)
    ]


@st.composite
def partner(draw, parts):
    """One move away, two chained moves away, or any partition of the same weight."""
    kind = draw(st.sampled_from(["one_move", "two_moves", "random"]))
    if kind == "random":
        weight = sum(parts)
        cuts = sorted(draw(st.sets(st.integers(1, weight - 1), max_size=8)) if weight > 1 else [])
        bounds = [0, *cuts, weight]
        return make_partition([b - a for a, b in zip(bounds, bounds[1:])])
    for _ in range(1 if kind == "one_move" else 2):
        moves = admissible_moves(parts)
        if not moves:
            break
        parts = raw_transfer_parts(parts, *draw(st.sampled_from(moves)))
    return Partition(parts)


@st.composite
def pattern_pairs(draw):
    p = from_pattern(*draw(block_patterns()))
    return p, draw(partner(p.parts))


class TestAgainstCells:
    @settings(deadline=None)
    @given(pattern_pairs())
    def test_adjacency_matches_cells_both_ways(self, pair):
        p, q = pair
        expected = adjacent_by_cells(p.parts, q.parts)
        assert are_adjacent(p, q) == expected
        assert are_adjacent(q, p) == expected

    @settings(deadline=None)
    @given(pattern_pairs())
    def test_conjugate_matches_cell_transpose(self, pair):
        for p in pair:
            assert conjugate(p) == run_length_blocks(conjugate_parts_by_cells(p.parts))


@pytest.fixture
def validations(monkeypatch):
    """Counts `Partition.__post_init__` calls while the test runs."""
    calls = []
    original = Partition.__post_init__

    def counting(self):
        calls.append(self.parts)
        original(self)

    monkeypatch.setattr(Partition, "__post_init__", counting)
    return calls


class TestTrustBoundary:
    def test_conjugate_skips_validation(self, validations):
        p = make_partition([453, 453, 303, 153, 152, 2])
        c = Partition(conjugate_parts_by_cells(p.parts))
        validations.clear()
        assert conjugate(p) == c.blocks
        assert conjugate(c) == p.blocks
        assert validations == []

    def test_adjacency_skips_validation(self, validations):
        p, q = make_partition([60, 20, 20]), make_partition([60, 21, 19])
        validations.clear()
        assert are_adjacent(p, q)
        assert validations == []

    def test_moves_skip_validation(self, validations):
        for p in (make_partition([453, 453, 303, 153, 152, 2]), make_partition([2, 1])):
            validations.clear()
            assert [q.parts for q in neighbors(p).values()] == [
                raw_transfer_parts(p.parts, *move) for move in neighbors(p)
            ]
            assert validations == []

    def test_edit_check_rejects_what_validation_rejected(self, monkeypatch):
        monkeypatch.setattr(transfers, "_obstruction", lambda p, move: None)
        with pytest.raises(ValueError, match=r"weakly decreasing, got \(1, 2\)") as excinfo:
            apply_transfer(make_partition([2, 1]), TransferMove(1, 2))
        assert not isinstance(excinfo.value, InadmissibleTransferError)

    def test_edit_check_without_obstructions(self, monkeypatch):
        # With no obstruction check, each obstructed move either raises the
        # edit check's error or, off a singleton block or from a last block of
        # ones, gives p back: never a partition out of order.
        monkeypatch.setattr(transfers, "_obstruction", lambda p, move: None)
        for n in range(1, 11):
            for p in enumerate_partitions(n):
                t = p.support_size
                for i in range(1, t + 1):
                    for j in range(1, t + 2):
                        admissible = definition_admissible(p.parts, i, j)
                        try:
                            q = apply_transfer(p, TransferMove(i, j))
                        except ValueError as err:
                            assert not admissible
                            assert "weakly decreasing" in str(err)
                        else:
                            assert admissible or q == p
                            assert q == Partition(q.parts)

    def test_edge_still_validates(self, validations):
        with pytest.raises(ValueError):
            parse_partition("3,0")
        with pytest.raises(ValueError):
            Partition((1, 2))
        assert validations == [(3, 0), (1, 2)]


class TestCostIndependentOfPartSize:
    def test_huge_parts_cost_no_memory(self):
        tracemalloc.start()
        try:
            with redirect_stdout(io.StringIO()):
                assert main(["cliques", "10000000,10000000,3", "--format", "json"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

        p = parse_partition("10000000,10000000,3")
        assert are_adjacent(p, parse_partition("10000000,9999999,4"))
        assert conjugate(p) == ((3, 3), (2, 9999997))
        assert conjugate(p) is conjugate(p)


def cli_json(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main([*argv, "--format", "json"]) == 0
    return json.loads(out.getvalue())


def widen(gap_list, factor):
    return tuple(gap if gap == 1 else gap * factor for gap in gap_list)


class TestTypeScaling:
    """Widening every non-unit gap keeps the local type, so local output is unchanged."""

    @settings(deadline=None)
    @given(block_patterns())
    def test_local_output_depends_only_on_type(self, pattern):
        gap_list, mults = pattern
        small = str(from_pattern(gap_list, mults))
        large = str(from_pattern(widen(gap_list, 50), mults))

        def without(payload, *keys):
            return {k: v for k, v in payload.items() if k not in keys}

        assert without(cli_json("local", small), "partition", "weight") == without(
            cli_json("local", large), "partition", "weight"
        )
        assert without(cli_json("cliques", small), "partition") == without(
            cli_json("cliques", large), "partition"
        )

        def neighborhood(text):
            payload = cli_json("neighborhood", text)
            kept = without(payload, "partition", "weight", "bijection", "neighborhood")
            kept["edges"] = payload["neighborhood"]["edges"]
            kept["moves"] = [entry["move"] for entry in payload["bijection"]]
            return kept

        assert neighborhood(small) == neighborhood(large)
