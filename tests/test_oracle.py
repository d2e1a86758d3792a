import json
from collections import Counter
from itertools import count
from types import SimpleNamespace

import pytest

import partgraph.graphs
import partgraph.oracle
import partgraph.partitions
import partgraph.transfers
from partgraph import (
    CheckResult,
    Partition,
    SimpleGraph,
    TransferMove,
    VerificationReport,
    build_partition_graph,
    enumerate_partitions,
    local_type,
    make_partition,
    neighbors,
    observe,
    run_all,
    verify_cliques,
    verify_degrees,
    verify_line_graph_theorem,
    verify_neighborhoods,
    verify_type_determinacy,
)
from partgraph.cli import main

from oracles import partition_count


def total_partitions(n_max):
    return sum(partition_count(n) for n in range(1, n_max + 1))


def observe_up_to(n_max):
    return [o for n in range(1, n_max + 1) for o in observe(n)]


def observed_degrees(o):
    return verify_degrees(o.partition, local_type(o.partition), o.neighborhood.targets,
                          o.graph_degree)


def enumerated_degrees(n):
    return [f for p in enumerate_partitions(n)
            for f in verify_degrees(p, local_type(p), neighbors(p).values())]


def type_failures(observed):
    return [f for o in observed
            for f in verify_type_determinacy(o, local_type(o.partition))]


class TestSingleWeightVerifiers:
    def test_degrees_weight_twelve(self):
        observed = list(observe(12))
        assert len(observed) == 77
        assert [f for o in observed for f in observed_degrees(o)] == []

    def test_degrees_without_graph(self):
        assert enumerated_degrees(9) == []

    def test_neighborhoods_weight_eight(self):
        observed = list(observe(8))
        assert len(observed) == 22
        assert [f for o in observed for f in verify_neighborhoods(o)] == []

    def test_neighborhoods_read_off_the_graph_equal_the_pair_test_to_twelve(self):
        # The sweep reads pair adjacency off G_n; `verify_line_graph_theorem`
        # on its own tests every pair with `are_adjacent`.
        for n in range(1, 13):
            for o in observe(n):
                assert o.neighborhood == verify_line_graph_theorem(o.partition), o.partition

    def test_cliques_weight_eight(self):
        observed = list(observe(8))
        assert len(observed) == 22
        assert [f for o in observed for f in verify_cliques(o, local_type(o.partition))] == []

    def test_type_determinacy_weight_eight(self):
        observed = observe_up_to(8)
        assert len(observed) == total_partitions(8)
        assert type_failures(observed) == []


class TestTypeDeterminacyFailures:
    def test_every_partition_of_a_mispredicted_type_fails(self, monkeypatch):
        # 2,2 shares its type with 2,2,2 / 2,2,2,2 / 3,3 / 4,4 up to weight 8.
        bad_type = local_type(make_partition([2, 2]))
        predict = partgraph.oracle._type_prediction

        def wrong_degree(T):
            predicted = predict(T)
            if T == bad_type:
                predicted["degree"] += 1
            return predicted

        monkeypatch.setattr(partgraph.oracle, "_type_prediction", wrong_degree)
        failures = type_failures(observe_up_to(8))
        flagged = {(f["n"], f["partition"]) for f in failures}
        expected = {
            (n, str(p))
            for n in range(1, 9)
            for p in enumerate_partitions(n)
            if local_type(p) == bad_type
        }
        assert len(expected) == 5
        assert flagged == expected
        assert len(failures) == len(expected)
        for failure in failures:
            assert failure["check"] == "type_determinacy"
            assert failure["detail"].startswith("degree disagrees with the type model")
            assert failure["replay"] == f"partgraph verify --nmax {failure['n']}"


def replayed_failures(capsys, replay):
    """The failures of the report a replay command prints; it must exit 1."""
    capsys.readouterr()
    assert main(replay.split()[1:]) == 1
    report = json.loads(capsys.readouterr().out)
    return [f for check in report["checks"] for f in check["failures"]]


class TestFailureDetails:
    def test_degrees_count_distinct_neighbors(self, monkeypatch):
        # Send both moves of 4,4 (1->1 and 1->2) to the partition 1->1 reaches.
        apply = partgraph.transfers.apply_transfer
        collided = make_partition([4, 4])

        def collide(p, move):
            return apply(p, TransferMove(1, 1) if p == collided else move)

        monkeypatch.setattr(partgraph.transfers, "apply_transfer", collide)
        without_graph = enumerated_degrees(8)
        with_graph = [f for o in observe(8) for f in observed_degrees(o)]
        assert [(f["partition"], f["detail"]) for f in without_graph] == [
            ("4,4", "degree mismatch: {'neighbor_count': 1, 'formula': 2}"),
        ]
        assert [(f["partition"], f["detail"]) for f in with_graph] == [
            ("4,4", "degree mismatch: {'neighbor_count': 1, 'formula': 2, 'graph_degree': 2}"),
        ]
        assert [f["replay"] for f in without_graph] == [
            "partgraph verify --nmax 8 --degrees-only",
        ]
        assert [f["replay"] for f in with_graph] == ["partgraph verify --nmax 8"]

    @pytest.mark.parametrize("adjacent, flagged", [
        (lambda p, q: False, [
            ("3,1", "pair 1->2/1->3: adjacent_in_graph=False, share_corner=True"),
            ("2,2", "pair 1->1/1->2: adjacent_in_graph=False, share_corner=True"),
            ("2,1,1", "pair 2->1/2->2: adjacent_in_graph=False, share_corner=True"),
        ]),
        (lambda p, q: p != q, [
            ("3,1", "pair 1->2/2->1: adjacent_in_graph=True, share_corner=False"),
            ("3,1", "pair 1->3/2->1: adjacent_in_graph=True, share_corner=False"),
            ("2,1,1", "pair 1->3/2->1: adjacent_in_graph=True, share_corner=False"),
            ("2,1,1", "pair 1->3/2->2: adjacent_in_graph=True, share_corner=False"),
        ]),
    ])
    def test_neighborhood_pair_detail(self, monkeypatch, capsys, adjacent, flagged):
        # The sweep joins two targets through the relation it builds from G_n,
        # so the fault goes into that seam alone, and the replay reruns the
        # sweep through it.  Vertex indices of G_n are distinct exactly when
        # their partitions are.
        graph_relation = partgraph.oracle._graph_relation

        def faulty(graph):
            vertex, _, label = graph_relation(graph)
            return vertex, adjacent, label

        monkeypatch.setattr(partgraph.oracle, "_graph_relation", faulty)
        failures = [f for o in observe(4) for f in verify_neighborhoods(o)]
        assert [(f["partition"], f["detail"]) for f in failures] == flagged
        assert all(f["check"] == "neighborhoods" and f["n"] == 4 for f in failures)
        assert {f["replay"] for f in failures} == {"partgraph verify --nmax 4"}
        replayed = replayed_failures(capsys, "partgraph verify --nmax 4")
        assert all(failure in replayed for failure in failures)

    def test_clique_number_mismatch_detail(self, monkeypatch):
        formula = partgraph.oracle.local_clique_number
        monkeypatch.setattr(partgraph.oracle, "local_clique_number", lambda T: formula(T) + 1)
        failures = [f for o in observe(4) for f in verify_cliques(o, local_type(o.partition))]
        searched = [("4", 2), ("3,1", 3), ("2,2", 3), ("2,1,1", 3), ("1,1,1,1", 2)]
        expected = [
            (partition, f"clique number mismatch: search={omega}, formula={omega + 1}")
            for partition, omega in searched
        ]
        assert [(f["partition"], f["detail"]) for f in failures] == expected
        assert {f["replay"] for f in failures} == {"partgraph verify --nmax 4"}

    def test_dimension_is_checked_against_the_search_once(self, monkeypatch):
        # The dimension formula is compared with the clique search in
        # type_determinacy alone, never with the clique-number formula.
        formula = partgraph.oracle.local_dimension
        monkeypatch.setattr(partgraph.oracle, "local_dimension", lambda T: formula(T) + 1)
        report = run_all(6)
        failures = {c.name: c.failures for c in report.checks}
        assert failures["cliques"] == ()
        assert failures["degrees"] == failures["neighborhoods"] == ()
        flagged = [(f["n"], f["partition"]) for f in failures["type_determinacy"]]
        assert flagged == [(n, str(p)) for n in range(1, 7) for p in enumerate_partitions(n)]
        for failure in failures["type_determinacy"]:
            assert failure["detail"].startswith("dimension disagrees with the type model")

    def test_target_not_adjacent_to_its_partition(self, monkeypatch, capsys):
        # Send the move 1->2 of 2,2 back to 2,2 itself: its pairs still agree
        # with corner sharing, so only the target check can see it.
        apply = partgraph.transfers.apply_transfer
        broken = make_partition([2, 2])

        def back_home(p, move):
            return p if (p, move) == (broken, (1, 2)) else apply(p, move)

        monkeypatch.setattr(partgraph.transfers, "apply_transfer", back_home)
        failures = [f for o in observe(4) for f in verify_neighborhoods(o)]
        assert [(f["partition"], f["detail"], f["replay"]) for f in failures] == [
            ("2,2", "move 1->2: target 2,2 is not adjacent", "partgraph verify --nmax 4"),
        ]
        assert failures[0] in replayed_failures(capsys, failures[0]["replay"])

    def test_every_replay_reproduces_a_fault_only_the_graph_shows(self, monkeypatch, capsys):
        # Drop the edge 2,2 -- 2,1,1 from G_4: `are_adjacent` still joins the
        # two, so only the checks that read G_n see the fault, and each replay
        # must see it too.
        build = partgraph.oracle.build_partition_graph
        dropped = {make_partition([2, 2]), make_partition([2, 1, 1])}

        def without_edge(n):
            graph = build(n)
            edges = [e for e in graph.sorted_edges() if {graph.labels[a] for a in e} != dropped]
            return SimpleGraph(graph.labels, edges)

        monkeypatch.setattr(partgraph.oracle, "build_partition_graph", without_edge)
        failures = [f for c in run_all(4).checks for f in c.failures]
        assert {f["check"] for f in failures} == set(partgraph.oracle.CHECKS)
        assert ("3,1", "pair 1->2/1->3: adjacent_in_graph=False, share_corner=True") in {
            (f["partition"], f["detail"]) for f in failures
        }
        for failure in failures:
            assert failure in replayed_failures(capsys, failure["replay"]), failure

    def test_a_target_of_another_weight_is_rejected(self, monkeypatch):
        # Send the move 1->2 of 2,2 to 2,1,1,1, of weight 5: G_n of weight 4
        # does not hold it, and the sweep rejects it as `are_adjacent` would.
        apply = partgraph.transfers.apply_transfer
        broken = make_partition([2, 2])

        def heavier(p, move):
            q = apply(p, move)
            return Partition((*q.parts, 1)) if (p, move) == (broken, (1, 2)) else q

        monkeypatch.setattr(partgraph.transfers, "apply_transfer", heavier)
        with pytest.raises(ValueError, match="^partitions of different weights: .*2,1,1,1 has 5"):
            run_all(6)

    @staticmethod
    def count_calls(monkeypatch, modules, names):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for module in modules:
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        return calls

    def test_type_determinacy_observes_each_partition_once(self, monkeypatch):
        modules = (partgraph.oracle, partgraph.graphs)
        names = ("are_adjacent", "neighbors", "_graph_relation")
        calls = self.count_calls(monkeypatch, modules, names)
        observed = observe_up_to(8)
        # 66 partitions of weight <= 8, each with one neighbors call, and one
        # relation built from G_n per weight: every pair of targets is read
        # off G_n, so none is tested with are_adjacent.
        assert calls == {"neighbors": 66, "_graph_relation": 8}
        calls.clear()
        assert type_failures(observed) == []
        assert calls == {}

    def test_run_all_observes_each_partition_once(self, monkeypatch):
        modules = (partgraph.oracle, partgraph.graphs, partgraph.transfers)
        checks = ("verify_degrees", "verify_neighborhoods", "verify_cliques",
                  "verify_type_determinacy")
        names = ("are_adjacent", "neighbors", "apply_transfer", "induced_neighborhood",
                 "observe", "_graph_relation", "local_type", *checks)
        calls = self.count_calls(monkeypatch, modules, names)
        assert run_all(8).passed
        # One neighbors call and one induced neighborhood per partition; one
        # adjacency test per move's target, 218 = the sum of the degrees, as
        # the neighbor pairs are read off G_n; apply_transfer once per move;
        # each check and one local type read once per partition; one observe
        # and one relation built from G_n per weight.
        assert calls == {
            "neighbors": 66, "induced_neighborhood": 66,
            "are_adjacent": 218, "apply_transfer": 218, "observe": 8, "_graph_relation": 8,
            "local_type": 66, **dict.fromkeys(checks, 66),
        }
        calls.clear()
        for n in range(1, 9):
            build_partition_graph(n)
        assert calls == {}
        calls.clear()
        assert run_all(8, degrees_only=True).passed
        # One degree check, one local type read and one neighbors call per
        # enumerated partition, and nothing observed.
        assert calls == {"verify_degrees": 66, "local_type": 66, "neighbors": 66,
                         "apply_transfer": 218}

    def test_run_all_builds_one_conjugate_per_partition(self, monkeypatch):
        # Each move's target is G_n's label for it, which the index build
        # gave its conjugate, so are_adjacent builds none: 66 conjugates for
        # the 66 partitions of weight <= 8, none for a move's target.
        conjugate = partgraph.partitions.conjugate
        built = []

        def counted(p):
            if "_conjugate" not in p.__dict__:
                built.append(p)
            return conjugate(p)

        for module in (partgraph.partitions, partgraph.graphs, partgraph.transfers):
            monkeypatch.setattr(module, "conjugate", counted)
        assert run_all(8).passed
        assert len(built) == 66
        assert len(set(built)) == 66

    def test_targets_are_the_labels_of_the_graph(self, monkeypatch):
        graphs = []
        build = partgraph.oracle.build_partition_graph

        def kept(n):
            graphs.append(build(n))
            return graphs[-1]

        monkeypatch.setattr(partgraph.oracle, "build_partition_graph", kept)
        for n in range(1, 9):
            observed = list(observe(n))
            labels = set(map(id, graphs[-1].labels))
            for o in observed:
                # Equal to the fresh targets, in move order, but G_n's own objects.
                targets = o.neighborhood.targets
                assert targets == tuple(neighbors(o.partition).values()), o.partition
                assert {id(target) for target in targets} <= labels, o.partition


def unmemoised_failures(n_max):
    """Each check's failures to weight n_max, from the four checks in run_all's
    order but called without a memo, so every observation is derived afresh."""
    oracle = partgraph.oracle
    failures = {name: [] for name in oracle.CHECKS}
    for o in observe_up_to(n_max):
        T = oracle.local_type(o.partition)
        failures["degrees"] += verify_degrees(o.partition, T, o.neighborhood.targets,
                                              o.graph_degree)
        failures["neighborhoods"] += verify_neighborhoods(o)
        failures["cliques"] += verify_cliques(o, T)
        failures["type_determinacy"] += verify_type_determinacy(o, T)
    return failures


def sweep_failures(n_max):
    return {c.name: list(c.failures) for c in run_all(n_max).checks}


class TestSweepMemo:
    """run_all derives what is a pure function of an observed neighborhood once
    per distinct graph; its failures must be those of the checks without it."""

    def test_a_graph_fault_fails_as_without_the_memo(self, monkeypatch):
        # Drop the edge 5,3 -- 4,3,1 from G_8: 4,4 and 5,2,1 then observe
        # graphs with their type-mates' labels but one edge fewer.
        build = partgraph.oracle.build_partition_graph
        dropped = {make_partition([5, 3]), make_partition([4, 3, 1])}

        def without_edge(n):
            graph = build(n)
            edges = [e for e in graph.sorted_edges() if {graph.labels[a] for a in e} != dropped]
            return SimpleGraph(graph.labels, edges)

        monkeypatch.setattr(partgraph.oracle, "build_partition_graph", without_edge)
        failures = sweep_failures(10)
        assert failures == unmemoised_failures(10)
        assert all(failures.values())
        assert {f["partition"] for f in failures["type_determinacy"]} == {"4,4", "5,2,1"}

    def test_a_wrong_type_model_fails_as_without_the_memo(self, monkeypatch):
        bad_type = local_type(make_partition([2, 2]))
        predict = partgraph.oracle._type_prediction

        def wrong_degree(T):
            predicted = predict(T)
            if T == bad_type:
                predicted["degree"] += 1
            return predicted

        monkeypatch.setattr(partgraph.oracle, "_type_prediction", wrong_degree)
        failures = sweep_failures(8)
        assert failures == unmemoised_failures(8)
        assert len(failures["type_determinacy"]) == 5

    def test_one_graph_read_with_two_types_is_compared_with_each(self, monkeypatch):
        # Give 4,4 the type of 3,1: its graph is the one 2,2 showed first, so a
        # memo keyed by the graph alone would pass it on 2,2's comparison.
        wrong = {make_partition([4, 4]): local_type(make_partition([3, 1]))}
        read = partgraph.oracle.local_type
        monkeypatch.setattr(partgraph.oracle, "local_type", lambda p: wrong.get(p) or read(p))
        failures = sweep_failures(8)
        assert failures == unmemoised_failures(8)
        flagged = {f["partition"] for check in failures.values() for f in check}
        assert flagged == {"4,4"}
        assert failures["type_determinacy"]

    @pytest.mark.parametrize("target", [
        make_partition([4, 4]),  # its own graph again; only the target check sees it
        make_partition([6, 2]),  # not adjacent to 4,3,1, so its graph loses an edge
    ])
    def test_a_fault_in_one_partitions_targets_fails_it_alone(self, monkeypatch, target):
        # 4,4 shares its graph with 2,2, 3,3, 2,2,2 and 2,2,2,2, which come
        # before or after it in the sweep; only 4,4's move 1->1 is changed.
        apply = partgraph.transfers.apply_transfer
        broken = make_partition([4, 4])

        def redirected(p, move):
            return target if (p, move) == (broken, (1, 1)) else apply(p, move)

        monkeypatch.setattr(partgraph.transfers, "apply_transfer", redirected)
        failures = sweep_failures(8)
        assert failures == unmemoised_failures(8)
        flagged = [f for check in failures.values() for f in check]
        assert flagged and {(f["partition"], f["n"]) for f in flagged} == {("4,4", 8)}
        assert {f["replay"] for f in flagged} == {"partgraph verify --nmax 8"}

    def test_every_partition_of_a_failing_graph_gets_its_own_record(self, monkeypatch):
        # Reject the clique 1->1/1->2, which is maximal in the graph of 2,2 and
        # of each of its type-mates: each must fail with its own partition,
        # weight and replay, though the clique is classified once.
        rejected = (TransferMove(1, 1), TransferMove(1, 2))
        classify = partgraph.oracle.classify_clique

        def reject(clique):
            if tuple(clique) == rejected:
                raise partgraph.oracle.CliqueClassificationError("rejected")
            return classify(clique)

        monkeypatch.setattr(partgraph.oracle, "classify_clique", reject)
        failures = sweep_failures(8)
        assert failures == unmemoised_failures(8)
        expected = [o.partition for o in observe_up_to(8) if rejected in o.cliques]
        assert len({p.weight for p in expected}) > 1
        assert [(f["partition"], f["n"], f["replay"]) for f in failures["cliques"]] == [
            (str(p), p.weight, f"partgraph verify --nmax {p.weight}") for p in expected
        ]

    def test_each_distinct_graph_is_searched_once_per_sweep(self, monkeypatch):
        distinct = {}
        for o in observe_up_to(14):
            distinct.setdefault(o.neighborhood.neighborhood, o.cliques)
        assert len(distinct) == 80
        calls = TestFailureDetails.count_calls(
            monkeypatch, (partgraph.oracle,), ("cliques_through", "classify_clique"),
        )
        expected = {"cliques_through": 80,
                    "classify_clique": sum(map(len, distinct.values()))}
        assert run_all(14).passed
        assert calls == expected
        # The memo dies with the sweep: a second one searches every graph again.
        calls.clear()
        assert run_all(14).passed
        assert calls == expected


class TestRunAll:
    def test_aggregates_all_four_checks(self):
        report = run_all(6)
        assert report.n_range == (1, 6)
        assert [c.name for c in report.checks] == [
            "degrees", "neighborhoods", "cliques", "type_determinacy",
        ]
        assert all(c.examined == total_partitions(6) for c in report.checks)
        assert report.passed
        assert all(ms >= 0 for ms in report.to_json()["timings_ms"].values())

    def test_degrees_only_mode(self):
        report = run_all(8, degrees_only=True)
        assert [c.name for c in report.checks] == ["degrees"]
        assert report.checks[0].examined == total_partitions(8)
        assert report.passed
        assert report.to_json()["timings_ms"]["degrees"] >= 0

    @pytest.mark.parametrize("degrees_only", [False, True])
    def test_timings_charge_each_observed_step_to_its_check(self, monkeypatch, degrees_only):
        # A clock that advances one second per reading makes every timed
        # interval 1000 ms, so each total counts the intervals charged to it.
        ticks = count()
        monkeypatch.setattr(partgraph.oracle, "time",
                            SimpleNamespace(perf_counter=lambda: float(next(ticks))))
        timings = run_all(6, degrees_only=degrees_only).to_json()["timings_ms"]
        partitions, weights = total_partitions(6), 6
        if degrees_only:
            assert timings == {"degrees": 1000.0 * partitions}
        else:
            # Its own check per partition, plus: one graph build per weight
            # for degrees, the neighborhood observation for neighborhoods and
            # the clique search for cliques.
            assert timings == {
                "degrees": 1000.0 * (partitions + weights),
                "neighborhoods": 2000.0 * partitions,
                "cliques": 2000.0 * partitions,
                "type_determinacy": 1000.0 * partitions,
            }

    def test_json_shape(self):
        payload = run_all(4).to_json()
        assert set(payload) == {"n_range", "checks", "timings_ms", "pass"}
        assert payload["n_range"] == [1, 4]
        assert payload["pass"] is True
        for check in payload["checks"]:
            assert set(check) == {"name", "examined", "failures"}
            assert check["failures"] == []

    def test_deterministic_modulo_timings(self):
        first = run_all(5).to_json()
        second = run_all(5).to_json()
        first.pop("timings_ms")
        second.pop("timings_ms")
        assert first == second

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            run_all(0)

    @pytest.mark.parametrize("bad", [True, 2.0])
    def test_rejects_a_bound_that_is_not_an_int(self, bad):
        with pytest.raises(ValueError, match=f"got {bad!r}$"):
            run_all(bad)


class TestReportPlumbing:
    def test_failures_flip_the_verdict(self):
        bad = CheckResult("degrees", 1, (
            {"check": "degrees", "n": 3, "partition": "2,1", "detail": "fabricated"},
        ))
        good = CheckResult("cliques", 1, ())
        report = VerificationReport((1, 3), (good, bad))
        assert not bad.passed
        assert good.passed
        assert not report.passed
        assert report.to_json()["pass"] is False

    def test_lists_are_rejected(self):
        # A list would compare unequal to its tuple twin and could not be hashed.
        failure = {"check": "degrees", "n": 3, "partition": "2,1", "detail": "fabricated"}
        with pytest.raises(ValueError, match="failures must be a tuple"):
            CheckResult("degrees", 1, [failure])
        with pytest.raises(ValueError, match="checks must be a tuple"):
            VerificationReport((1, 3), [CheckResult("cliques", 1)])
        result = CheckResult("degrees", 1, (failure,))
        with pytest.raises(ValueError):
            result._replace(failures=[failure])
        with pytest.raises(ValueError):
            CheckResult._make(["degrees", 1, [failure], 0.0])
