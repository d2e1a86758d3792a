"""Tests of the benchmark harness itself.

    python3 -m pytest bench/test_bench.py -q

Smoke sizes of each workload run through run.py, which runs every pass in a
fresh interpreter, so the two traced runs compared for determinism share no
state.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

GRAPH_LAYERS = [layer for layer in tracer.LAYERS if layer.startswith("graphs.")]

# Layers each workload is meant to exercise, and layers it must bypass.
EXERCISED = {
    "verify-full": tracer.LAYERS,
    "verify-degrees": [
        "partitions.Partition", "partitions.enumerate_partitions", "transfers.neighbors",
        "transfers.apply_transfer", "local_model.local_type", "local_model.closed_forms",
        "oracle.verify_degrees", "cli.main",
    ],
    "local-large-parts": [
        "partitions.conjugate", "partitions.Partition", "transfers.are_adjacent",
        "transfers.neighbors", "transfers.apply_transfer", "local_model.local_type",
        "local_model.admissibility_graph", "local_model.closed_forms",
        "graphs.induced_neighborhood", "graphs.verify_line_graph_theorem",
        "graphs.cliques_through", "graphs.line_graph", "graphs.classify_clique", "cli.main",
    ],
}
BYPASSED = {
    "verify-full": [],
    "verify-degrees": ["partitions.conjugate", "transfers.are_adjacent", *GRAPH_LAYERS],
    "local-large-parts": ["partitions.enumerate_partitions", "graphs.build_partition_graph"],
}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def smoke_result(workload: str, trace: int, seed: int = 5) -> dict:
    done = bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                 "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stdout
    return result


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_cover_the_layers_and_repeat_exactly(workload):
    first, second = smoke_result(workload, 1), smoke_result(workload, 1)
    assert [(n, m["unit"]) for n, m in first["metrics"].items()] == run.per_layer_names()

    def counts(result):
        return {name: m["value"] for name, m in result["metrics"].items()
                if m["unit"] in ("count", "ratio", "bytes")}

    if workload.startswith("verify"):
        # The verify report prints its own timings, so its length varies.
        for result in (first, second):
            del result["metrics"]["cli.main.bytes_out"]

    assert counts(first) == counts(second)
    calls = counts(first)
    for layer in EXERCISED[workload]:
        assert calls[f"{layer}.calls"] > 0, layer
    for layer in BYPASSED[workload]:
        assert calls[f"{layer}.calls"] == 0, layer


def test_untraced_result_has_every_end_to_end_metric():
    result = smoke_result("local-large-parts", 0)
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["attempted"] == 3 * 20


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "verify-full", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_tracer_rebinds_every_import_site_and_restores_them():
    sys.path.insert(0, str(run.SRC))
    import partgraph.cli
    import partgraph.graphs
    import partgraph.oracle
    import partgraph.transfers

    modules = [m for name, m in sys.modules.items() if name.startswith("partgraph")]
    before = [dict(vars(m)) for m in modules]
    post_init = partgraph.partitions.Partition.__post_init__
    original = partgraph.transfers.are_adjacent

    t = tracer.Tracer()
    t.install()
    try:
        for module in (partgraph.transfers, partgraph.graphs, partgraph.oracle):
            assert module.are_adjacent is not original
        with redirect_stdout(io.StringIO()):
            partgraph.cli.main(["cliques", "3,2,1", "--format", "json"])
        metrics = t.metrics()
    finally:
        t.remove()

    # cliques reaches are_adjacent only through the name bound in graphs.
    assert metrics["transfers.are_adjacent.calls"][0] > 0
    assert metrics["cli.main.calls"][0] == 1
    assert metrics["partitions.Partition.calls"][0] > 0
    assert partgraph.partitions.Partition.__post_init__ is post_init
    for module, names in zip(modules, before):
        assert all(vars(module)[name] is value for name, value in names.items()), module


def test_expectations_are_computed_independently():
    counts = workloads.partition_counts(28)
    assert counts[:8] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert sum(counts[1:17]) == 914 and counts[28] == 3718
    # 2,1: the only moves are 1->3 (to 1,1,1) and 2->1 (to 3), not adjacent.
    p = workloads.Pattern((2, 1), (1, 1))
    assert (p.alpha, p.beta, p.degree, p.moves) == ([1, 1], [1, 1], 2, [[1, 3], [2, 1]])
    assert (p.clique_number, p.adjacent_pairs) == (2, 0)
    # 4,4,2,2: no singleton blocks, no unit gaps, so all 2 x 3 moves.
    q = workloads.Pattern((4, 2), (2, 2))
    assert (q.text, q.degree, q.clique_number, q.adjacent_pairs) == ("4,4,2,2", 6, 4, 9)


def test_local_patterns_follow_the_seed():
    workload = workloads.build("local-large-parts", smoke=True)
    first = [q[0].argv for q in workload.queries(3)]
    again = [q[0].argv for q in workload.queries(3)]
    other = [q[0].argv for q in workload.queries(4)]
    assert first == again and len(first) == 20
    assert first != other


def test_scaled_latencies_take_out_host_speed():
    # The same work on a host running at full, half and a third of its speed.
    passes = [
        {"latencies": [0.2 * slow, 0.6 * slow], "refs": [0.01 * slow] * 2,
         "ref_runs": [0.01 * slow, 0.012 * slow]}
        for slow in (1, 2, 3)
    ]
    assert run.scaled_latencies(passes) == pytest.approx([0.2, 0.6])
    assert run.scaled_latencies(passes[1:]) == pytest.approx([0.4, 1.2])
