import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partgraph import (
    Partition,
    conjugate,
    enumerate_partitions,
    gaps,
    make_partition,
    parse_partition,
)

from oracles import conjugate_parts_by_cells, partition_count, run_length_blocks

partitions = st.lists(st.integers(1, 9), min_size=1, max_size=8).map(make_partition)

# Few distinct sizes, long runs of each, sizes up to 10^6.
long_runs = st.lists(
    st.tuples(st.integers(1, 10**6), st.integers(1, 300)), min_size=1, max_size=6,
).map(lambda runs: tuple(sorted(
    (size for size, length in runs for _ in range(length)), reverse=True,
)))


class TestConstruction:
    def test_normalizes_and_encodes_blocks(self):
        p = make_partition([2, 4, 2, 4])
        assert p.parts == (4, 4, 2, 2)
        assert p.blocks == ((4, 2), (2, 2))
        assert p.block_sizes() == (4, 2)
        assert p.multiplicities() == (2, 2)
        assert p.weight == 12
        assert p.support_size == 2

    def test_single_part(self):
        p = make_partition([5])
        assert p.blocks == ((5, 1),)
        assert p.support_size == 1

    @pytest.mark.parametrize("bad", [[], [0], [3, -1], [0, 3], [2.0, 1], [True], [True, 1]])
    def test_rejects_invalid_parts(self, bad):
        with pytest.raises(ValueError):
            make_partition(bad)

    def test_direct_constructor_requires_descending(self):
        with pytest.raises(ValueError):
            Partition((2, 4))

    def test_direct_constructor_requires_a_tuple(self):
        # a list would make the instance unhashable and unequal to its tuple twin
        with pytest.raises(ValueError):
            Partition([3, 1])

    @pytest.mark.parametrize("parts,message", [
        ((1, 2, 0), "every part must be a positive integer, got 0"),
        ((1, 2, "a"), "every part must be a positive integer, got 'a'"),
        ((2, 3, True), "every part must be a positive integer, got True"),
        ((1, 2), "parts must be weakly decreasing, got (1, 2)"),
    ])
    def test_bad_part_is_reported_before_order(self, parts, message):
        with pytest.raises(ValueError) as raised:
            Partition(parts)
        assert str(raised.value) == message

    def test_str_form(self):
        assert str(make_partition([4, 2, 4, 2])) == "4,4,2,2"


class TestBlockEncoding:
    @given(long_runs)
    def test_matches_run_length_oracle(self, parts):
        p = Partition(parts)
        assert {"blocks", "weight"} <= vars(p).keys()
        assert p.blocks == run_length_blocks(parts)
        assert p.weight == sum(parts)

    @settings(deadline=None, max_examples=30)
    @given(long_runs)
    def test_conjugate_expands_parts_only_when_read(self, parts):
        c = conjugate(Partition(parts))
        assert {"blocks", "weight"} <= vars(c).keys()
        assert "parts" not in vars(c)
        assert c.blocks == run_length_blocks(c.parts)
        assert c.weight == sum(parts) == sum(c.parts)
        assert "parts" in vars(c)


class TestParse:
    def test_accepts_any_order(self):
        assert parse_partition("2,4,2,4").parts == (4, 4, 2, 2)

    def test_accepts_whitespace(self):
        assert parse_partition(" 3, 1 ").parts == (3, 1)

    @pytest.mark.parametrize("bad", ["", "0,3", "a,b", "3,", "-1"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_partition(bad)

    @given(partitions)
    def test_roundtrips_str(self, p):
        assert parse_partition(str(p)) == p


class TestConjugate:
    @pytest.mark.parametrize("parts,expected", [
        ((3, 1), (2, 1, 1)),
        ((4, 4, 2, 2), (4, 4, 2, 2)),
        ((7,), (1,) * 7),
        ((1,) * 7, (7,)),
    ])
    def test_known_values(self, parts, expected):
        assert conjugate(Partition(parts)).parts == expected

    @given(partitions)
    def test_matches_cell_transpose(self, p):
        assert conjugate(p).parts == conjugate_parts_by_cells(p.parts)

    @given(partitions)
    def test_involution(self, p):
        assert conjugate(conjugate(p)) == p

    @given(partitions)
    def test_preserves_weight(self, p):
        assert conjugate(p).weight == p.weight


class TestGaps:
    @pytest.mark.parametrize("parts,expected", [
        ((4, 4, 2, 2), (2, 2)),
        ((3, 2, 1), (1, 1, 1)),
        ((1, 1, 1), (1,)),
        ((9,), (9,)),
    ])
    def test_known_values(self, parts, expected):
        assert gaps(Partition(parts)) == expected

    @given(partitions)
    def test_positive_with_suffix_sums_giving_sizes(self, p):
        g = gaps(p)
        assert len(g) == p.support_size
        assert all(gap >= 1 for gap in g)
        assert tuple(sum(g[k:]) for k in range(len(g))) == p.block_sizes()


class TestEnumeration:
    def test_exact_list_for_weight_four(self):
        assert [p.parts for p in enumerate_partitions(4)] == [
            (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
        ]

    def test_weight_one(self):
        assert [p.parts for p in enumerate_partitions(1)] == [(1,)]

    def test_counts_match_recurrence(self):
        for n in range(1, 21):
            assert len(enumerate_partitions(n)) == partition_count(n)

    def test_reverse_lexicographic_without_duplicates(self):
        for n in range(1, 13):
            found = enumerate_partitions(n)
            assert len(set(found)) == len(found)
            assert all(p.weight == n for p in found)
            assert all(a.parts > b.parts for a, b in zip(found, found[1:]))
            assert found[0].parts == (n,)
            assert found[-1].parts == (1,) * n

    @pytest.mark.parametrize("bad", [0, -3])
    def test_rejects_nonpositive_weight(self, bad):
        with pytest.raises(ValueError):
            enumerate_partitions(bad)
