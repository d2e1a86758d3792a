"""Value semantics of partgraph's nine value classes.

Each class is pinned by its repr, by equality and hashing of equal values
built independently, by immutability, and by round trips through `copy`,
`deepcopy` and every pickle protocol.
"""

import copy
import pickle

import pytest

from partgraph import (
    CheckResult,
    CliqueClassification,
    LocalType,
    NeighborhoodCheck,
    PairCheck,
    Partition,
    SimpleGraph,
    TransferMove,
    VerificationReport,
    classify_clique,
    local_type,
    verify_line_graph_theorem,
)
from partgraph.oracle import Observation


def neighborhood_check():
    return verify_line_graph_theorem(Partition((2, 1)))


NEIGHBORHOOD_REPR = (
    "NeighborhoodCheck(partition=Partition(parts=(2, 1)), "
    "neighborhood=SimpleGraph(labels=(TransferMove(i=1, j=3), TransferMove(i=2, j=1)), "
    "edges=[]), targets=(Partition(parts=(1, 1, 1)), Partition(parts=(3,))), "
    "corners=SimpleGraph(labels=(TransferMove(i=1, j=3), TransferMove(i=2, j=1)), "
    "edges=[]), violations=())"
)

# (class, a function building a fresh value, its repr, whether it hashes)
FROZEN = [
    (Partition, lambda: Partition((2, 1)), "Partition(parts=(2, 1))", True),
    (LocalType, lambda: local_type(Partition((2, 1))),
     "LocalType(t=2, alpha=(1, 1), beta=(1, 1))", True),
    (SimpleGraph, lambda: SimpleGraph(("a", "b"), frozenset({(0, 1)})),
     "SimpleGraph(labels=('a', 'b'), edges=[(0, 1)])", True),
    (PairCheck, lambda: PairCheck(TransferMove(1, 1), TransferMove(1, 2), True, False),
     "PairCheck(first=TransferMove(i=1, j=1), second=TransferMove(i=1, j=2), "
     "adjacent_in_graph=True, share_corner=False)", True),
    (NeighborhoodCheck, neighborhood_check, NEIGHBORHOOD_REPR, True),
    (CliqueClassification, lambda: classify_clique([TransferMove(1, 2)]),
     "CliqueClassification(kind='both', removable=1, addable=2, "
     "members=frozenset({TransferMove(i=1, j=2)}))", True),
    # A list and a dict among its fields, so it compares but does not hash.
    (Observation,
     lambda: Observation(neighborhood_check(), [(TransferMove(1, 3),)], 2, {"cliques": 0.5}),
     f"Observation(neighborhood={NEIGHBORHOOD_REPR}, cliques=[(TransferMove(i=1, j=3),)], "
     "graph_degree=2, ms={'cliques': 0.5})", False),
    (CheckResult, lambda: CheckResult("degrees", 2),
     "CheckResult(name='degrees', examined=2, failures=(), ms=0.0)", True),
    # A dict among the failures of its one check, so it does not hash.
    (VerificationReport,
     lambda: VerificationReport((1, 2), (CheckResult("cliques", 3, ({"n": 2},), 1.5),)),
     "VerificationReport(n_range=(1, 2), checks=(CheckResult(name='cliques', examined=3, "
     "failures=({'n': 2},), ms=1.5),))", False),
]

# The fields each repr shows, in its order.
FIELDS = {
    Partition: ("parts",),
    LocalType: ("t", "alpha", "beta"),
    SimpleGraph: ("labels", "adjacency"),
    PairCheck: ("first", "second", "adjacent_in_graph", "share_corner"),
    NeighborhoodCheck: ("partition", "neighborhood", "targets", "corners", "violations"),
    CliqueClassification: ("kind", "removable", "addable", "members"),
    Observation: ("neighborhood", "cliques", "graph_degree", "ms"),
    CheckResult: ("name", "examined", "failures", "ms"),
    VerificationReport: ("n_range", "checks"),
}

ALL = [(cls, make, text) for cls, make, text, _ in FROZEN]
ids = [cls.__name__ for cls, *_ in FROZEN]


def round_trips(value):
    return [copy.copy(value), copy.deepcopy(value)] + [
        pickle.loads(pickle.dumps(value, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]


@pytest.mark.parametrize("cls, make, text", ALL, ids=ids)
class TestEveryValue:
    def test_repr(self, cls, make, text):
        value = make()
        assert type(value) is cls
        assert repr(value) == text

    def test_equal_values_are_equal(self, cls, make, text):
        first, second = make(), make()
        assert first is not second
        assert first == second
        assert not first != second

    def test_copies_round_trip(self, cls, make, text):
        value = make()
        for other in round_trips(value):
            assert type(other) is cls
            assert other == value
            assert repr(other) == text


@pytest.mark.parametrize("cls, make, text, hashes", FROZEN, ids=ids)
class TestFrozenValue:
    def test_hash(self, cls, make, text, hashes):
        first, second = make(), make()
        if hashes:
            assert hash(first) == hash(second)
            assert len({first, second, *round_trips(first)}) == 1
        else:
            with pytest.raises(TypeError):
                hash(first)

    def test_fields_cannot_be_set_or_deleted(self, cls, make, text, hashes):
        value = make()
        for name in FIELDS[cls]:
            old = getattr(value, name)
            with pytest.raises(AttributeError):
                setattr(value, name, old)
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert getattr(value, name) is old
        with pytest.raises(AttributeError):
            value.extra = 1
        assert not hasattr(value, "extra")
        assert value == make()
        assert repr(value) == text


class TestPartitionHash:
    @pytest.mark.parametrize("parts", [(1,), (2, 1), (4, 4, 2, 2), (10000000, 10000000, 3)])
    def test_hash_is_that_of_the_parts(self, parts):
        p = Partition(parts)
        assert hash(p) == hash(p.parts)

    def test_unequal_to_other_types(self):
        p = Partition((2, 1))
        assert p != (2, 1)
        assert p != ((2, 1),)
        assert p != Partition((1, 1, 1))


def test_failures_default_to_the_empty_tuple():
    assert CheckResult("degrees", 0).failures == ()
