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
from partgraph.partitions import parse_digits

from oracles import (
    conjugate_parts_by_cells,
    partition_count,
    parts_from_blocks,
    run_length_blocks,
)
from test_block_form import block_patterns, from_pattern

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

    @given(partitions)
    def test_json_form_is_the_parts_list(self, p):
        assert p.to_json() == list(p.parts)


class TestBlockEncoding:
    @given(long_runs)
    def test_matches_run_length_oracle(self, parts):
        p = Partition(parts)
        assert {"blocks", "weight"} <= vars(p).keys()
        assert p.blocks == run_length_blocks(parts)
        assert p.weight == sum(parts)


class TestParse:
    def test_accepts_any_order(self):
        assert parse_partition("2,4,2,4").parts == (4, 4, 2, 2)

    def test_accepts_whitespace(self):
        assert parse_partition(" 3, 1 ").parts == (3, 1)

    @pytest.mark.parametrize("bad", ["", "0,3", "a,b", "3,", "-1"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_partition(bad)

    @pytest.mark.parametrize("bad", ["1_0,2", "3,1_0", "\u0663,1", "\u00b2", "+3", "3,-1", "0x3"])
    def test_rejects_anything_but_ascii_digits(self, bad):
        # int() would read "1_0" as 10 and the Arabic-Indic "\u0663" as 3.
        with pytest.raises(ValueError) as excinfo:
            parse_partition(bad)
        assert str(excinfo.value) == f"cannot parse partition from {bad!r}"

    @given(partitions)
    def test_roundtrips_str(self, p):
        assert parse_partition(str(p)) == p


class TestParseDigits:
    @pytest.mark.parametrize("text,expected", [("7", 7), (" 12 ", 12), ("\t0\n", 0), ("007", 7)])
    def test_reads_ascii_digits(self, text, expected):
        assert parse_digits(text) == expected

    @pytest.mark.parametrize("bad", ["", " ", "1_0", "\u0663", "\u00b2", "+3", "-3", "3.0", "1 0"])
    def test_rejects_everything_else(self, bad):
        with pytest.raises(ValueError):
            parse_digits(bad)


class TestConjugate:
    @pytest.mark.parametrize("parts,expected", [
        ((3, 1), ((2, 1), (1, 2))),
        ((4, 4, 2, 2), ((4, 2), (2, 2))),
        ((7,), ((1, 7),)),
        ((1,) * 7, ((7, 1),)),
    ])
    def test_known_values(self, parts, expected):
        assert conjugate(Partition(parts)) == expected

    @given(partitions)
    def test_matches_cell_transpose(self, p):
        assert conjugate(p) == run_length_blocks(conjugate_parts_by_cells(p.parts))

    @settings(deadline=None)
    @given(st.one_of(partitions, block_patterns().map(lambda pattern: from_pattern(*pattern))))
    def test_is_a_tuple_of_blocks(self, p):
        c = conjugate(p)
        assert type(c) is tuple
        assert c == run_length_blocks(conjugate_parts_by_cells(p.parts))

    @given(partitions)
    def test_involution(self, p):
        assert conjugate(Partition(parts_from_blocks(conjugate(p)))) == p.blocks

    @given(partitions)
    def test_preserves_weight(self, p):
        assert sum(parts_from_blocks(conjugate(p))) == p.weight


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
        assert [sum(g[k:]) for k in range(len(g))] == [size for size, _ in p.blocks]


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
