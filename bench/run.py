"""partgraph benchmark: one workload, end-to-end or traced per-layer metrics.

    python3 bench/run.py --workload verify-full --seed 1 --seconds 30 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file).  The workload runs as a series of passes over the same queries,
each pass in a fresh child interpreter (see worker.py) that makes its CLI
calls in-process through partgraph.cli.main; a cache the program keeps
between calls therefore never carries over from one pass to the next, as it
would not between two real invocations.  Between passes, fresh interpreters
time the import of partgraph.cli, so the set-up samples span the whole run as
the passes do.  Passes run while another fits in --seconds.  Every output is
checked against expectations computed in workloads.py; a failure makes the
result incorrect.

Times are taken at the host's best speed.  On a shared host the CPU speed
switches between states that last seconds to minutes, by up to 2x; a run's
median follows whichever state the run mostly saw.  So each worker also
times a fixed reference kernel between its queries (see worker.py).  A
query's latency divided by the reference time around it is nearly free of
the host's state; the median of that ratio over the run's passes, times the
fastest reference kernel run of the run, is the query's latency at the best
speed the host showed during the run.  That is the query's "scaled latency",
and the time metrics below are built from it.  A faster program lowers the
ratio; the kernel is harness code, so no change to the program moves it.

Metric definitions
  setup_s           fastest import of partgraph.cli among the run's fresh
                    interpreters.  The minimum, not the median: on a shared
                    host the import time switches between speed states that
                    last seconds, the median of a run follows whichever
                    state the run mostly saw, and the minimum does not
  wall_s            time of one pass (one verify call, or 200 patterns): the
                    sum of the scaled latencies of its queries
  partitions_per_s  partitions swept or queried per pass / wall_s
  query_p50_ms      nearest-rank median of the queries' scaled latencies; a
                    query is one verify call (so on the verify workloads
                    p50 = p95 = wall_s), or one pattern's three CLI calls
  query_p95_ms      nearest-rank 95th percentile of the same latencies
  peak_rss_mb       largest peak resident set of a child that ran one pass
                    (the reference kernel runs in it too and adds well under
                    1 MB, the same for every version of the program)
  fail_ratio        failed CLI calls / attempted CLI calls (printed, and in
                    --out; the result line carries it as failed/attempted)

With --trace 1 the result holds the per-layer metrics of tracer.py instead,
plus oracle.timings_ms.<check> (the verify report's own timings, median over
untraced passes) and trace.{wall_s,untraced_wall_s,overhead_s}: medians of
traced and untraced passes of the same inputs, run alternately.  The last
line of standard output is the result as one JSON object; earlier lines are a
table and the run record.  --out also writes everything, with the run record,
to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

TIME_LIMIT_S = 170  # the whole run, set-up included
SETUP_PER_PASS = 3  # fresh-interpreter import timings taken before each pass
SETUP_SNIPPET = (
    "import time; start = time.perf_counter(); import partgraph.cli; "
    "print(time.perf_counter() - start); print(partgraph.cli.__file__)"
)
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("partitions_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
]
CHECKS = ("degrees", "neighborhoods", "cliques", "type_determinacy")
TRACE_EXTRA = [(f"oracle.timings_ms.{check}", "ms") for check in CHECKS] + [
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
]


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    return [(name, unit) for name, (_, unit) in tracer.Tracer().metrics().items()] + TRACE_EXTRA


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def time_setup(count: int, deadline: float) -> list[float]:
    """Import times of partgraph.cli in `count` fresh interpreters."""
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
        lines = done.stdout.split()
        if done.returncode != 0 or len(lines) != 2:
            raise BenchError(f"importing partgraph.cli failed:\n{done.stderr}")
        if SRC not in Path(lines[1]).resolve().parents:
            raise BenchError(f"partgraph.cli came from {lines[1]}, not from {SRC}")
        samples.append(float(lines[0]))
    return samples


def run_worker(args: argparse.Namespace, trace: int, deadline: float) -> dict:
    """Run one pass of the workload in a fresh interpreter; return its raw record."""
    budget = deadline - time.monotonic() - 5
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--trace", str(trace),
        "--budget", f"{budget:.1f}",
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(command, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(done.stderr)
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(f"the workload process exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_passes(args: argparse.Namespace, deadline: float) -> tuple[list[float], list[dict], list[dict]]:
    """Run passes while another fits in --seconds (at least one).

    Untraced: set-up samples, then a pass, again and again.  Traced: passes
    alternately untraced and traced, so that drift in machine speed hits both
    sides of the overhead alike.  Returns the set-up samples, the untraced
    pass records and the traced ones.
    """
    time_setup(1, deadline)  # the first import may compile src/ to bytecode
    setup: list[float] = []
    untraced: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    while True:
        if args.trace:
            untraced.append(run_worker(args, 0, deadline))
            traced.append(run_worker(args, 1, deadline))
        else:
            setup += time_setup(SETUP_PER_PASS, deadline)
            untraced.append(run_worker(args, 0, deadline))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(untraced) > args.seconds:
            return setup, untraced, traced


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def scaled_latencies(passes: list[dict]) -> list[float]:
    """Each query's latency at the run's best host speed (see the module doc)."""
    fastest = min(run for p in passes for run in p["ref_runs"])
    ratios = zip(*([latency / ref for latency, ref in zip(p["latencies"], p["refs"])]
                   for p in passes))
    return [median(per_pass) * fastest for per_pass in ratios]


def end_to_end(setup: list[float], passes: list[dict]) -> dict[str, float]:
    scaled = scaled_latencies(passes)
    wall = sum(scaled)
    return {
        "setup_s": min(setup),
        "wall_s": wall,
        "partitions_per_s": passes[0]["partitions"] / wall,
        "query_p50_ms": quantile(scaled, 0.50) * 1000,
        "query_p95_ms": quantile(scaled, 0.95) * 1000,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    """Counts from the first traced pass; times as medians over the passes."""
    units = dict(per_layer_names())
    values = {
        name: median(p["layers"][name] for p in traced) if units[name] == "s" else value
        for name, value in traced[0]["layers"].items()
    }
    for check in CHECKS:
        timings = [p["timings_ms"][check] for p in untraced if check in p["timings_ms"]]
        values[f"oracle.timings_ms.{check}"] = median(timings) if timings else 0.0
    traced_wall = median(p["wall"] for p in traced)
    untraced_wall = median(p["wall"] for p in untraced)
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    return values


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(args: argparse.Namespace) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="picks local-large-parts patterns; the verify workloads ignore it")
    parser.add_argument("--seconds", type=int, required=True,
                        help="passes run while another fits in this time (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes, for the harness's own tests")
    parser.add_argument("--out", metavar="PATH", help="also write the full result here")
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (SRC / "partgraph" / "cli.py").is_file():
        print(f"error: no partgraph sources under {SRC}", file=sys.stderr)
        return 2
    try:
        setup, untraced, traced = run_passes(args, deadline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record = run_record(args)
    if args.trace:
        units = dict(per_layer_names())
        values = per_layer(untraced, traced)
    else:
        units = dict(END_TO_END)
        values = end_to_end(setup, untraced)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [problem for p in passes for problem in p["problems"]][:20]
    fail_ratio = failed / attempted

    print(f"{args.workload}  seed {args.seed}  {len(untraced)} untraced and "
          f"{len(traced)} traced passes, each in a fresh interpreter")
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'fail_ratio':<44} {fail_ratio:>14.6g} ratio "
          f"({failed} of {attempted} CLI calls)")
    for problem in problems:
        print(f"  FAILED {problem}")
    print("record: " + json.dumps(record))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if args.out:
        full = dict(result, record=record, fail_ratio=fail_ratio, problems=problems,
                    setup_samples_s=setup, pass_walls_s=[p["wall"] for p in untraced],
                    pass_latencies_s=[p["latencies"] for p in untraced],
                    pass_refs_s=[p["refs"] for p in untraced],
                    ref_runs_s=[p["ref_runs"] for p in untraced],
                    traced_pass_walls_s=[p["wall"] for p in traced])
        Path(args.out).write_text(json.dumps(full, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
