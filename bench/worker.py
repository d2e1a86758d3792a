"""Run one pass of a workload in this process and print its raw measurements as JSON.

Started by run.py, once per pass, with the checkout's src/ first on
PYTHONPATH.  Each pass runs in a fresh interpreter, so no cache the program
keeps between calls can carry over from one pass to the next, and this
process's peak RSS is that of the pass alone.  A query's latency is the time
spent inside partgraph.cli.main for its calls; checking the output is not
timed.  With --trace 1 the tracer is installed around the pass.

Between queries the pass times a fixed reference kernel (pure Python, no
partgraph), which measures how fast the shared host runs at that moment.
Each query's latency is paired with the reference time of the stretch of
queries it ran in: the mean of the reference samples taken just before and
just after that stretch.  run.py uses the pairs to take out the host's speed
changes.
"""

from __future__ import annotations

import argparse
import io
import json
import signal
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import workloads
from tracer import Tracer

OP_CAP_S = 60.0  # a CLI call running longer fails
REF_EVERY_S = 0.5  # a reference sample after each stretch of at least this much query time
REF_REPEAT = 3  # a reference sample is the median of this many kernel runs
REF_WEIGHT = 20  # the kernel works on the partitions of 1..REF_WEIGHT


def _reference_kernel() -> int:
    """Fixed work of the kind partgraph does: list the partitions of each
    weight up to REF_WEIGHT and conjugate each.  It keeps almost nothing, so
    it adds next to nothing to the pass's peak RSS."""
    checksum = 0
    for weight in range(1, REF_WEIGHT + 1):
        stack: list[tuple[tuple[int, ...], int]] = [((), weight)]
        while stack:
            parts, left = stack.pop()
            if left == 0:
                conjugate = tuple(sum(1 for part in parts if part > i) for i in range(parts[0]))
                checksum += len(conjugate)
                continue
            largest = min(left, parts[-1]) if parts else left
            stack.extend((parts + (part,), left - part) for part in range(1, largest + 1))
    return checksum


class OverCap(Exception):
    """Raised inside a CLI call that runs past its time cap."""


def _on_alarm(signum, frame):
    raise OverCap()


class Runner:
    def __init__(self, hard_deadline: float):
        import partgraph.cli

        src = Path(__file__).resolve().parent.parent / "src"
        if src not in Path(partgraph.cli.__file__).resolve().parents:
            raise ImportError(f"partgraph was imported from {partgraph.cli.__file__}, not {src}")
        self.cli = partgraph.cli
        self.hard_deadline = hard_deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tracer: Tracer | None = None
        self.timings_ms: dict[str, float] = {}
        self.ref_runs: list[float] = []  # every kernel run's time
        signal.signal(signal.SIGALRM, _on_alarm)

    def call(self, call: workloads.Call) -> tuple[float, str | None]:
        """Run one CLI call; return its latency and what was wrong with it, or None.

        Only the call into the program is timed, not the check of its output.
        """
        cap = min(OP_CAP_S, self.hard_deadline - time.monotonic())
        if cap <= 0:
            return 0.0, "not started: the run's time budget is spent"
        out = io.StringIO()
        signal.setitimer(signal.ITIMER_REAL, cap)
        start = time.perf_counter()
        failure = None
        try:
            with redirect_stdout(out):
                code = self.cli.main(list(call.argv))
        except OverCap:
            failure = f"over the {cap:.0f} s cap"
        except SystemExit as exc:
            failure = f"exited via SystemExit({exc.code!r})"
        except Exception as exc:  # any crash is a failed operation, not a crashed run
            failure = f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        if failure is not None:
            return elapsed, failure
        text = out.getvalue()
        if self.tracer is not None:
            self.tracer.add("cli.main", "bytes_out", len(text.encode()))
        problem = call.expect(code, text)
        if problem is None and call.argv[0] == "verify":
            self.timings_ms = json.loads(text)["timings_ms"]
        return elapsed, problem

    def reference_time(self) -> float:
        """Take a reference sample: run the kernel REF_REPEAT times, keep each
        run's time and return the median."""
        times = []
        for _ in range(REF_REPEAT):
            start = time.perf_counter()
            _reference_kernel()
            times.append(time.perf_counter() - start)
        self.ref_runs += times
        return sorted(times)[REF_REPEAT // 2]

    def run_pass(self, queries: list[workloads.Query]) -> tuple[list[float], list[float]]:
        """Run every query; return each query's latency (the sum of its calls')
        and the reference time of the stretch it ran in.

        A failed query's latency is at least the cap, so it never reads fast.
        """
        latencies: list[float] = []
        refs: list[float] = []
        before = self.reference_time()
        stretch = 0.0
        for index, query in enumerate(queries):
            latency = 0.0
            ok = True
            for call in query:
                self.attempted += 1
                elapsed, problem = self.call(call)
                latency += elapsed
                if problem is not None:
                    ok = False
                    self.failed += 1
                    if len(self.problems) < 20:
                        self.problems.append(f"{' '.join(call.argv)}: {problem}")
            latencies.append(latency if ok else max(latency, OP_CAP_S))
            stretch += latency
            if stretch >= REF_EVERY_S or index == len(queries) - 1:
                after = self.reference_time()
                refs += [(before + after) / 2] * (len(latencies) - len(refs))
                before, stretch = after, 0.0
        return latencies, refs


def peak_rss_mb() -> float:
    """This process's peak RSS.  VmHWM, because on Linux ru_maxrss keeps the
    high-water mark of the parent that forked this process."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--budget", type=float, required=True,
                        help="seconds after which no further CLI call starts")
    args = parser.parse_args()

    runner = Runner(time.monotonic() + args.budget)
    workload = workloads.build(args.workload, args.smoke)
    queries = workload.queries(args.seed)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        runner.tracer = tracer
    try:
        latencies, refs = runner.run_pass(queries)
    finally:
        if tracer is not None:
            runner.tracer = None
            tracer.remove()

    result = {
        "wall": sum(latencies),
        "latencies": latencies,
        "refs": refs,
        "ref_runs": runner.ref_runs,
        "partitions": workload.partitions_per_pass,
        "timings_ms": runner.timings_ms,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        result["layers"] = {name: value for name, (value, _) in tracer.metrics().items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
