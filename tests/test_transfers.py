import copy
import pickle

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
    transfers,
)
from partgraph.graphs import label_json

from oracles import adjacent_by_cells, definition_admissible, parts_from_blocks, raw_transfer_parts
from test_block_form import block_patterns, from_pattern

partitions = st.lists(st.integers(1, 9), min_size=1, max_size=8).map(make_partition)


def move_grid(p):
    t = p.support_size
    return [TransferMove(i, j) for i in range(1, t + 1) for j in range(1, t + 2)]


def columns(p):
    """Column lengths of p's diagram, left to right: the conjugate expanded."""
    return parts_from_blocks(conjugate(p))


def conjugate_corners(p):
    """Corner columns read off the conjugate, right to left: column c has a
    removable corner when it is longer than column c + 1, and takes an added
    cell when c is one or column c - 1 is longer."""
    cols = columns(p) + (0,)
    removable = tuple(c for c in range(len(cols) - 1, 0, -1) if cols[c - 1] > cols[c])
    addable = tuple(c for c in range(len(cols), 0, -1) if c == 1 or cols[c - 2] > cols[c - 1])
    return removable, addable


def column_delta(p, move):
    """The conjugate's columns (losing, gaining) under the move, from the block
    sizes: the cell leaves column sizes[i-1] and joins column sizes[j-1] + 1,
    or column one when j = t + 1."""
    sizes = [size for size, _ in p.blocks]
    return sizes[move.i - 1], (sizes[move.j - 1] if move.j <= len(sizes) else 0) + 1


def shifted_conjugate(p, losing, gaining):
    """The conjugate of p with one cell moved from column `losing` to `gaining`."""
    vec = list(columns(p))
    vec += [0] * (max(losing, gaining) - len(vec))
    vec[losing - 1] -= 1
    vec[gaining - 1] += 1
    while vec and vec[-1] == 0:
        vec.pop()
    return tuple(vec)


class TestCorners:
    @pytest.mark.parametrize("parts,removable,addable", [
        ((4, 4, 2, 2), (4, 2), (5, 3, 1)),
        ((3, 2, 1), (3, 2, 1), (4, 3, 2, 1)),
        ((9,), (9,), (10, 1)),
        ((1, 1, 1), (1,), (2, 1)),
    ])
    def test_columns(self, parts, removable, addable):
        p = Partition(parts)
        assert conjugate_corners(p) == (removable, addable)
        assert tuple(size for size, _ in p.blocks) == removable

    @given(partitions)
    def test_one_removable_per_block_one_extra_addable(self, p):
        removable, addable = conjugate_corners(p)
        assert removable == tuple(size for size, _ in p.blocks)
        assert addable == tuple(size + 1 for size in removable) + (1,)
        assert len(addable) == p.support_size + 1


class TestAdmissibility:
    def test_single_block_of_one_part(self):
        p = make_partition([7])
        assert TransferMove(1, 1) not in neighbors(p)
        assert TransferMove(1, 2) in neighbors(p)

    def test_all_ones(self):
        p = make_partition([1, 1, 1, 1])
        assert TransferMove(1, 1) in neighbors(p)
        assert TransferMove(1, 2) not in neighbors(p)

    def test_two_fat_blocks_everything_allowed(self):
        p = make_partition([4, 4, 2, 2])
        assert list(neighbors(p)) == move_grid(p)

    # bool and float indices compare equal to ints but are not indices.
    @pytest.mark.parametrize("i,j", [
        (0, 1), (3, 1), (1, 4), (1, 0), (True, 2), (1.5, 2), (1, True), (2, 2.0),
    ])
    def test_out_of_range_indices(self, i, j):
        with pytest.raises(ValueError, match="out of range") as excinfo:
            apply_transfer(make_partition([4, 4, 2, 2]), TransferMove(i, j))
        assert not isinstance(excinfo.value, InadmissibleTransferError)

    @given(partitions)
    def test_matches_definition_level_oracle(self, p):
        nbrs = neighbors(p)
        for m in move_grid(p):
            assert (m in nbrs) == definition_admissible(p.parts, m.i, m.j)


class TestApply:
    @pytest.mark.parametrize("parts,move,expected", [
        ((4, 4, 2, 2), (1, 1), (5, 3, 2, 2)),
        ((4, 4, 2, 2), (2, 1), (5, 4, 2, 1)),
        ((4, 4, 2, 2), (2, 3), (4, 4, 2, 1, 1)),
        ((9,), (1, 2), (8, 1)),
        ((2, 1), (2, 1), (3,)),
        ((1, 1), (1, 1), (2,)),
    ])
    def test_known_values(self, parts, move, expected):
        assert apply_transfer(Partition(parts), TransferMove(*move)).parts == expected

    def test_singleton_block_rejection(self):
        with pytest.raises(InadmissibleTransferError) as excinfo:
            apply_transfer(make_partition([7]), TransferMove(1, 1))
        assert excinfo.value.reason == "singleton_block"

    def test_unit_gap_rejection(self):
        with pytest.raises(InadmissibleTransferError) as excinfo:
            apply_transfer(make_partition([1, 1, 1]), TransferMove(1, 2))
        assert excinfo.value.reason == "unit_gap"

    @pytest.mark.parametrize("parts, move", [([3, 1], (1, 1)), ([1, 1, 1], (1, 2))])
    def test_rejection_copies_round_trip(self, parts, move):
        with pytest.raises(InadmissibleTransferError) as excinfo:
            apply_transfer(make_partition(parts), TransferMove(*move))
        err = excinfo.value
        err.__notes__ = [f"while checking {parts}"]
        copies = [copy.copy(err), copy.deepcopy(err)] + [
            pickle.loads(pickle.dumps(err, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for other in copies:
            assert type(other) is InadmissibleTransferError
            assert other.reason == err.reason
            assert str(other) == str(err)
            assert other.__notes__ == err.__notes__

    @given(partitions)
    def test_matches_raw_surgery_and_preserves_weight(self, p):
        for move, q in neighbors(p).items():
            assert q.parts == raw_transfer_parts(p.parts, move.i, move.j)
            assert q.weight == p.weight
            assert q != p


def last_size_one(pattern):
    gap_list, mults = pattern
    return gap_list[:-1] + (1,), mults


class TestWideGaps:
    """The whole move grid on patterns with gaps in {1, 2, 17..60}."""

    @settings(deadline=None)
    @given(st.one_of(block_patterns(), block_patterns().map(last_size_one)))
    def test_grid_matches_definition_and_raw_surgery(self, pattern):
        gap_list, mults = pattern
        p = from_pattern(gap_list, mults)
        blocked = {(i, i): "singleton_block" for i, m in enumerate(mults, 1) if m == 1}
        blocked.update({(i, i + 1): "unit_gap" for i, g in enumerate(gap_list, 1) if g == 1})
        nbrs = neighbors(p)
        for move in move_grid(p):
            reason = blocked.get((move.i, move.j))
            admissible = move in nbrs
            assert admissible == (reason is None)
            assert admissible == definition_admissible(p.parts, move.i, move.j)
            if admissible:
                parts = apply_transfer(p, move).parts
                assert parts == raw_transfer_parts(p.parts, move.i, move.j)
            else:
                with pytest.raises(InadmissibleTransferError) as excinfo:
                    apply_transfer(p, move)
                assert excinfo.value.reason == reason


def assert_matches_validated(q):
    """q, a move's result, against the validated construction of its parts.

    q's block form has not been read yet, so it is built on the read here."""
    assert "blocks" not in vars(q)
    r = Partition(q.parts)
    assert q == r and r == q
    assert hash(q) == hash(r)
    assert q.weight == r.weight
    assert (str(q), repr(q)) == (str(r), repr(r))
    assert q.blocks == r.blocks
    assert q.support_size == r.support_size
    assert conjugate(q) == conjugate(r)


class TestEditedResult:
    """A move's result is built from its two-row edit, not validated again."""

    def test_every_move_to_weight_18(self):
        for n in range(1, 19):
            for p in enumerate_partitions(n):
                for move in neighbors(p):
                    assert_matches_validated(apply_transfer(p, move))

    @settings(deadline=None)
    @given(st.one_of(block_patterns(), block_patterns().map(last_size_one)))
    def test_every_move_on_wide_gaps(self, pattern):
        p = from_pattern(*pattern)
        for move in neighbors(p):
            assert_matches_validated(apply_transfer(p, move))

    def test_copies_before_blocks_are_read(self):
        p = make_partition([4, 4, 2, 2])
        for move in neighbors(p):
            q = apply_transfer(p, move)
            copies = [copy.copy(q), copy.deepcopy(q)] + [
                pickle.loads(pickle.dumps(q, protocol))
                for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
            ]
            assert "blocks" not in vars(q)
            for other in copies:
                assert type(other) is Partition
                assert other == q
                assert other.weight == q.weight
                assert other.blocks == q.blocks == Partition(q.parts).blocks

    def test_other_missing_names_raise(self):
        q = apply_transfer(make_partition([4, 4, 2, 2]), TransferMove(1, 1))
        with pytest.raises(AttributeError, match="nope"):
            getattr(q, "nope")
        assert not hasattr(q, "nope")
        assert "blocks" not in vars(q)

    def test_blocks_are_stored_on_first_read(self):
        q = apply_transfer(make_partition([4, 4, 2, 2]), TransferMove(2, 3))
        assert q.blocks is q.blocks == ((4, 2), (2, 1), (1, 2))
        with pytest.raises(AttributeError):
            q.blocks = ()


class TestNeighbors:
    def test_exact_map_for_small_case(self):
        assert {m: q.parts for m, q in neighbors(make_partition([2, 1])).items()} == {
            TransferMove(1, 3): (1, 1, 1),
            TransferMove(2, 1): (3,),
        }

    def test_exact_map_for_two_blocks(self):
        assert {m: q.parts for m, q in neighbors(make_partition([4, 4, 2, 2])).items()} == {
            TransferMove(1, 1): (5, 3, 2, 2),
            TransferMove(1, 2): (4, 3, 3, 2),
            TransferMove(1, 3): (4, 3, 2, 2, 1),
            TransferMove(2, 1): (5, 4, 2, 1),
            TransferMove(2, 2): (4, 4, 3, 1),
            TransferMove(2, 3): (4, 4, 2, 1, 1),
        }

    def test_keys_sorted(self):
        moves = list(neighbors(make_partition([4, 4, 2, 2])))
        assert moves == sorted(moves)

    @given(partitions)
    def test_distinct_moves_reach_distinct_partitions(self, p):
        nbrs = neighbors(p)
        assert len(set(nbrs.values())) == len(nbrs)

    @given(partitions)
    def test_every_neighbor_is_adjacent(self, p):
        for q in neighbors(p).values():
            assert are_adjacent(p, q)
            assert are_adjacent(q, p)

    def test_classifies_each_move_once(self, monkeypatch):
        # neighbors reads the excluded corners off each block and leaves the
        # classification of each admissible move to apply_transfer, so the
        # moves it keeps are the grid's unobstructed ones, each classified once.
        obstruction = transfers._obstruction
        calls = []

        def counted(p, move):
            calls.append(move)
            return obstruction(p, move)

        monkeypatch.setattr(transfers, "_obstruction", counted)
        wide = [make_partition([453, 453, 303, 153, 152, 2]), make_partition([10**8, 10**8, 3])]
        for p in [*(p for n in range(1, 13) for p in enumerate_partitions(n)), *wide]:
            admissible = [move for move in move_grid(p) if obstruction(p, move) is None]
            calls.clear()
            assert list(neighbors(p)) == admissible, p
            assert calls == admissible, p


class TestConjugateDelta:
    @pytest.mark.parametrize("parts,move,expected", [
        ((4, 4, 2, 2), (1, 3), (4, 1)),
        ((3, 2, 1), (1, 3), (3, 2)),
        ((1, 1, 1, 1, 1), (1, 1), (1, 2)),
    ])
    def test_known_values(self, parts, move, expected):
        p, move = Partition(parts), TransferMove(*move)
        assert column_delta(p, move) == expected
        assert shifted_conjugate(p, *expected) == columns(apply_transfer(p, move))

    @given(partitions)
    def test_rejects_inadmissible(self, p):
        # The two obstructions are the moves whose column shift makes no new
        # conjugate: across a unit gap the cell stays in its column, and off a
        # singleton block it lands in a column longer than the one before.
        nbrs = neighbors(p)
        for move in move_grid(p):
            if move not in nbrs:
                shifted = shifted_conjugate(p, *column_delta(p, move))
                assert shifted == columns(p) or list(shifted) != sorted(shifted)[::-1]
                with pytest.raises(InadmissibleTransferError):
                    apply_transfer(p, move)

    @given(partitions)
    def test_predicts_the_conjugate_of_the_result(self, p):
        for move, q in neighbors(p).items():
            losing, gaining = column_delta(p, move)
            assert losing != gaining
            assert shifted_conjugate(p, losing, gaining) == columns(q)


class TestAdjacency:
    def test_known_pairs(self):
        assert are_adjacent(make_partition([3]), make_partition([2, 1]))
        assert not are_adjacent(make_partition([4]), make_partition([2, 2]))

    def test_not_self_adjacent(self):
        p = make_partition([3, 1])
        assert not are_adjacent(p, p)

    def test_weight_mismatch_rejected(self):
        with pytest.raises(ValueError):
            are_adjacent(make_partition([3]), make_partition([3, 1]))

    @pytest.mark.parametrize("first, second", [
        ([5], [3, 1, 1]),  # rows differ by +2/-1/-1: two cells moved
        ([3, 3], [2, 2, 2]),  # rows differ by +1/+1/-2: two cells moved
        ([453, 453, 303, 153, 152, 2], [453, 453, 303, 153, 152, 2]),  # no cell moved
    ])
    def test_not_one_cell_apart(self, first, second):
        p, q = make_partition(first), make_partition(second)
        assert not adjacent_by_cells(p.parts, q.parts)
        assert not are_adjacent(p, q)
        assert not are_adjacent(q, p)

    @settings(deadline=None)
    @given(st.integers(2, 10), st.data())
    def test_symmetric_conjugate_dual_and_matches_cell_moves(self, n, data):
        pool = enumerate_partitions(n)
        p = data.draw(st.sampled_from(pool))
        q = data.draw(st.sampled_from(pool))
        forward = are_adjacent(p, q)
        assert forward == are_adjacent(q, p)
        assert forward == are_adjacent(Partition(columns(p)), Partition(columns(q)))
        assert forward == adjacent_by_cells(p.parts, q.parts)

    def test_exactly_one_move_per_adjacent_pair(self):
        # completeness and uniqueness of the move producing a given neighbor
        for n in range(2, 9):
            for p in enumerate_partitions(n):
                reached = list(neighbors(p).values())
                for q in enumerate_partitions(n):
                    expected = 1 if are_adjacent(p, q) else 0
                    assert reached.count(q) == expected



class TestMoveValue:
    """A move is its (i, j) pair, with its own text and JSON forms."""

    def test_text_forms(self):
        move = TransferMove(2, 3)
        assert repr(move) == "TransferMove(i=2, j=3)"
        assert str(move) == "2->3"
        assert move.to_json() == {"i": 2, "j": 3}
        assert (move.i, move.j) == (2, 3)

    def test_equals_hashes_and_orders_as_its_pair(self):
        grid = [TransferMove(i, j) for i in range(1, 4) for j in range(1, 5)]
        for move in grid:
            assert move == (move.i, move.j)
            assert hash(move) == hash((move.i, move.j))
        assert sorted(reversed(grid)) == grid
        assert TransferMove(1, 9) < TransferMove(2, 1) < TransferMove(2, 2)
        assert tuple(TransferMove(4, 1)) == (4, 1)

    def test_immutable(self):
        move = TransferMove(1, 2)
        with pytest.raises(AttributeError):
            move.i = 5
        assert move == TransferMove(1, 2)

    def test_copies_round_trip(self):
        move = TransferMove(3, 1)
        for copied in (pickle.loads(pickle.dumps(move)), copy.deepcopy(move)):
            assert copied == move
            assert type(copied) is TransferMove
            assert repr(copied) == repr(move)

    def test_graph_json_is_the_move_form_not_a_list(self):
        assert label_json(TransferMove(2, 3)) == {"i": 2, "j": 3}
        assert label_json((2, 3)) == [2, 3]
