"""Acceptance suite.

One test per exit criterion, each printing a single PASS/FAIL line.  Run
with `pytest tests/test_acceptance.py -v -s` to see the lines as they go.
"""

import json
import time

from partgraph import (
    Partition,
    build_partition_graph,
    conjugate,
    degree_formula,
    enumerate_partitions,
    local_type,
    observe,
    verify_cliques,
    verify_degrees,
    verify_neighborhoods,
    verify_type_determinacy,
)
from partgraph.cli import main

from oracles import partition_count, parts_from_blocks


def report(number, label, problems):
    verdict = "PASS" if not problems else "FAIL"
    print(f"criterion {number} ({label}): {verdict}")
    assert not problems, f"criterion {number} ({label}): {problems}"


def local_invariants(capsys, partition_text):
    assert main(["local", partition_text, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_criterion_1_golden_local_invariants(capsys):
    problems = []

    def expect(partition_text, **wanted):
        payload = local_invariants(capsys, partition_text)
        for key, value in wanted.items():
            if payload[key] != value:
                problems.append(f"{partition_text}: {key}={payload[key]}, wanted {value}")

    for n in (2, 3, 7, 11):
        expect(str(n), degree=1, local_clique_number=2, local_dimension=1)
        expect(",".join(["1"] * n), degree=1, local_clique_number=2, local_dimension=1)
    for r, m in ((2, 2), (2, 5), (4, 3), (6, 2)):
        expect(",".join([str(r)] * m), degree=2, local_clique_number=3, local_dimension=2)
    expect(
        "4,4,2,2",
        degree=6,
        removable_side_degrees=[3, 3],
        addable_side_degrees=[2, 2, 2],
        local_clique_number=4,
        local_dimension=3,
    )
    for t in range(2, 7):
        stair = ",".join(str(k) for k in range(t, 0, -1))
        expect(stair, degree=t * (t - 1), local_clique_number=t, local_dimension=t - 1)

    report(1, "golden local invariants", problems)


def test_criterion_2_degree_agreement_to_weight_fourteen():
    start = time.perf_counter()
    problems = []
    for n in range(1, 15):
        problems.extend(
            f for o in observe(n)
            for f in verify_degrees(o.partition, local_type(o.partition),
                                    o.neighborhood.targets, o.graph_degree)
        )
    elapsed = time.perf_counter() - start
    if elapsed >= 30:
        problems.append(f"took {elapsed:.1f}s, budget 30s")
    report(2, "degree agreement for all weights up to 14", problems)


def test_criterion_3_neighborhood_adjacency_to_weight_twelve():
    start = time.perf_counter()
    problems = []
    for n in range(1, 13):
        problems.extend(f for o in observe(n) for f in verify_neighborhoods(o))
    elapsed = time.perf_counter() - start
    if elapsed >= 60:
        problems.append(f"took {elapsed:.1f}s, budget 60s")
    report(3, "neighborhood adjacency matches corner sharing up to weight 12", problems)


def test_criterion_4_clique_structure_to_weight_twelve():
    start = time.perf_counter()
    problems = []
    for n in range(1, 13):
        problems.extend(
            f for o in observe(n) for f in verify_cliques(o, local_type(o.partition))
        )
    elapsed = time.perf_counter() - start
    if elapsed >= 60:
        problems.append(f"took {elapsed:.1f}s, budget 60s")
    report(4, "clique classification and clique number up to weight 12", problems)


def test_criterion_5_type_determinacy_to_weight_twelve():
    predictions = {}
    problems = []
    for n in range(1, 13):
        problems.extend(
            f for o in observe(n)
            for f in verify_type_determinacy(o, local_type(o.partition), predictions)
        )
    report(5, "equal local types give equal local data up to weight 12", problems)


def test_criterion_6_structural_sanity():
    problems = []
    for n in range(1, 21):
        for p in enumerate_partitions(n):
            if conjugate(Partition(parts_from_blocks(conjugate(p)))) != p.blocks:
                problems.append(f"conjugation not an involution on {p}")
    for n in range(1, 13):
        g = build_partition_graph(n)
        degrees = [g.degree(v) for v in range(g.vertex_count)]
        if sum(degrees) != 2 * g.edge_count:
            problems.append(f"handshake fails at weight {n}")
        for p, degree in zip(g.labels, degrees):
            if degree != degree_formula(local_type(p)):
                problems.append(f"graph degree of {p} is {degree}, formula disagrees")
    for n in range(1, 31):
        found = len(enumerate_partitions(n))
        wanted = partition_count(n)
        if found != wanted:
            problems.append(f"enumerated {found} partitions of {n}, recurrence says {wanted}")
    report(6, "involution, handshake, enumeration counts", problems)
