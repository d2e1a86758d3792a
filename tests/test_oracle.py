from collections import Counter
from itertools import count
from types import SimpleNamespace

import pytest

import partgraph.graphs
import partgraph.oracle
import partgraph.transfers
from partgraph import (
    CheckResult,
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
    predictions = {}
    return [f for o in observed
            for f in verify_type_determinacy(o, local_type(o.partition), predictions)]


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
        monkeypatch.setattr(partgraph.graphs, "are_adjacent", adjacent)
        failures = [f for o in observe(4) for f in verify_neighborhoods(o)]
        assert [(f["partition"], f["detail"]) for f in failures] == flagged
        assert all(f["check"] == "neighborhoods" and f["n"] == 4 for f in failures)
        assert [f["replay"] for f in failures] == [
            f"partgraph neighborhood {partition}" for partition, _ in flagged
        ]
        for replay in {f["replay"] for f in failures}:
            assert main([*replay.split()[1:], "--format", "json"]) == 0
            assert '"verified": false' in capsys.readouterr().out

    def test_clique_number_mismatch_detail(self, monkeypatch):
        formula = partgraph.oracle.local_clique_number
        monkeypatch.setattr(partgraph.oracle, "local_clique_number", lambda T: formula(T) + 1)
        failures = [f for o in observe(4) for f in verify_cliques(o, local_type(o.partition))]
        expected = []
        for partition, searched in [("4", 2), ("3,1", 3), ("2,2", 3), ("2,1,1", 3), ("1,1,1,1", 2)]:
            expected += [
                (partition, f"clique number mismatch: search={searched}, formula={searched + 1}"),
                (partition, f"dimension mismatch: {searched - 1} vs clique number {searched + 1}"),
            ]
        assert [(f["partition"], f["detail"]) for f in failures] == expected
        assert [f["replay"] for f in failures] == [
            f"partgraph cliques {partition}" for partition, _ in expected
        ]

    def test_target_not_adjacent_to_its_partition(self, monkeypatch):
        # Send the move 1->2 of 2,2 back to 2,2 itself: its pairs still agree
        # with corner sharing, so only the target check can see it.
        apply = partgraph.transfers.apply_transfer
        broken = make_partition([2, 2])

        def back_home(p, move):
            return p if (p, move) == (broken, (1, 2)) else apply(p, move)

        monkeypatch.setattr(partgraph.transfers, "apply_transfer", back_home)
        failures = [f for o in observe(4) for f in verify_neighborhoods(o)]
        assert [(f["partition"], f["detail"], f["replay"]) for f in failures] == [
            ("2,2", "move 1->2: target 2,2 is not adjacent", "partgraph neighborhood 2,2"),
        ]

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
        calls = self.count_calls(monkeypatch, modules, ("are_adjacent", "neighbors"))
        observed = observe_up_to(8)
        # 66 partitions of weight <= 8, and 363 = sum of C(degree, 2) over them.
        assert calls == {"are_adjacent": 363, "neighbors": 66}
        calls.clear()
        assert type_failures(observed) == []
        assert calls == {}

    def test_run_all_observes_each_partition_once(self, monkeypatch):
        modules = (partgraph.oracle, partgraph.graphs, partgraph.transfers)
        checks = ("verify_degrees", "verify_neighborhoods", "verify_cliques",
                  "verify_type_determinacy")
        names = ("are_adjacent", "neighbors", "apply_transfer", "induced_neighborhood",
                 "observe", "local_type", *checks)
        calls = self.count_calls(monkeypatch, modules, names)
        assert run_all(8).passed
        # One neighbors call and one induced neighborhood per partition; 363
        # neighbor-pair tests plus one test per move's target, 218 = the sum
        # of the degrees; apply_transfer once per move; each check and one
        # local type read once per partition; one observe per weight.
        assert calls == {
            "neighbors": 66, "induced_neighborhood": 66,
            "are_adjacent": 363 + 218, "apply_transfer": 218, "observe": 8,
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


class TestReportPlumbing:
    def test_failures_flip_the_verdict(self):
        bad = CheckResult("degrees", 1, [
            {"check": "degrees", "n": 3, "partition": "2,1", "detail": "fabricated"},
        ])
        good = CheckResult("cliques", 1, [])
        report = VerificationReport((1, 3), [good, bad])
        assert not bad.passed
        assert good.passed
        assert not report.passed
        assert report.to_json()["pass"] is False
