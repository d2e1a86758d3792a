"""Benchmark workloads: the CLI calls each one makes and what their output must be.

Nothing here imports partgraph.  Expected values come from the harness's own
arithmetic: partition counts from Euler's pentagonal recurrence, and the local
invariants of a generated block pattern from its (size, multiplicity) blocks.
The program only ever sees the argv strings built here.

Workloads (closed loop, one process, one thread):

verify-full        `verify --nmax 14`.  The product's main path; time spreads
                   over enumeration, the O(V^2) graph build, neighborhood pair
                   tests, clique search and the type-determinacy sweep.
verify-degrees     `verify --nmax 24 --degrees-only`.  Enumeration, move
                   generation and local types only; it never reaches
                   conjugate, are_adjacent or graphs, so it is the bypass
                   workload for adjacency and graph-build changes.
local-large-parts  `local`, `neighborhood` and `cliques --format json` on 200
                   seeded block patterns whose parts are large (gaps
                   drawn from {1, 2, 150}), so cost grows with part size while
                   the local type stays small.  Never enumerates, never builds
                   a graph.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

VERIFY_CHECKS = ("degrees", "neighborhoods", "cliques", "type_determinacy")
CLIQUE_KINDS = {"star", "top", "both"}

# expect(exit_code, stdout) returns a description of what is wrong, or None.
Expectation = Callable[[int, str], "str | None"]


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the check its output must pass."""

    argv: tuple[str, ...]
    expect: Expectation


# A query is the calls whose summed latency is one latency sample.
Query = tuple[Call, ...]


def partition_counts(n_max: int) -> list[int]:
    """p(0..n_max) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        total, k = 0, 1
        while True:
            first = k * (3 * k - 1) // 2
            if first > n:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[n - first]
            second = k * (3 * k + 1) // 2
            if second <= n:
                total += sign * p[n - second]
            k += 1
        p[n] = total
    return p


def _parse(code: int, text: str) -> tuple[dict | None, str | None]:
    if code != 0:
        return None, f"exit code {code}"
    try:
        return json.loads(text), None
    except ValueError as exc:
        return None, f"output is not JSON: {exc}"


def _mismatch(field: str, got, want) -> str | None:
    return None if got == want else f"{field} is {got!r}, expected {want!r}"


def _first_problem(*problems: str | None) -> str | None:
    return next((problem for problem in problems if problem), None)


class VerifyWorkload:
    """One `verify` call per pass; the sweep is exhaustive, so the seed is unused."""

    def __init__(self, n_max: int, degrees_only: bool):
        self.n_max = n_max
        self.degrees_only = degrees_only
        self.partitions_per_pass = sum(partition_counts(n_max)[1:])
        argv = ["verify", "--nmax", str(n_max)]
        if degrees_only:
            argv.append("--degrees-only")
        self._query: Query = (Call(tuple(argv), self._expect),)

    def queries(self, seed: int) -> list[Query]:
        return [self._query]

    def _expect(self, code: int, text: str) -> str | None:
        report, problem = _parse(code, text)
        if problem:
            return problem
        names = ("degrees",) if self.degrees_only else VERIFY_CHECKS
        checks = report.get("checks", [])
        return _first_problem(
            _mismatch("pass", report.get("pass"), True),
            _mismatch("n_range", report.get("n_range"), [1, self.n_max]),
            _mismatch("check names", [c.get("name") for c in checks], list(names)),
            _mismatch("examined", [c.get("examined") for c in checks],
                      [self.partitions_per_pass] * len(names)),
            _mismatch("failures", [c.get("failures") for c in checks], [[]] * len(names)),
        )


@dataclass(frozen=True)
class Pattern:
    """A partition given by its blocks: strictly decreasing sizes with multiplicities."""

    sizes: tuple[int, ...]
    mults: tuple[int, ...]

    @property
    def t(self) -> int:
        return len(self.sizes)

    @cached_property
    def parts(self) -> tuple[int, ...]:
        return tuple(size for size, mult in zip(self.sizes, self.mults) for _ in range(mult))

    @cached_property
    def text(self) -> str:
        return ",".join(map(str, self.parts))

    @property
    def alpha(self) -> list[int]:
        return [int(mult == 1) for mult in self.mults]

    @property
    def beta(self) -> list[int]:
        below = self.sizes[1:] + (0,)
        return [int(size - low == 1) for size, low in zip(self.sizes, below)]

    @cached_property
    def moves(self) -> list[list[int]]:
        """Admissible moves i->j: all of 1..t x 1..t+1 but the diagonal of a
        singleton block and the successor across a unit gap."""
        alpha, beta = self.alpha, self.beta
        return [
            [i, j]
            for i in range(1, self.t + 1)
            for j in range(1, self.t + 2)
            if not (j == i and alpha[i - 1]) and not (j == i + 1 and beta[i - 1])
        ]

    @property
    def degree(self) -> int:
        return self.t * (self.t + 1) - sum(self.alpha) - sum(self.beta)

    @cached_property
    def side_degrees(self) -> tuple[list[int], list[int]]:
        left = [sum(1 for i, _ in self.moves if i == k) for k in range(1, self.t + 1)]
        right = [sum(1 for _, j in self.moves if j == k) for k in range(1, self.t + 2)]
        return left, right

    @property
    def clique_number(self) -> int:
        """The partition plus every move out of its busiest corner."""
        left, right = self.side_degrees
        return 1 + max(left + right)

    @property
    def adjacent_pairs(self) -> int:
        """Pairs of moves sharing a removable or an addable corner."""
        left, right = self.side_degrees
        return sum(d * (d - 1) // 2 for d in left + right)

    @property
    def weight(self) -> int:
        return sum(self.parts)


def _expect_local(pattern: Pattern) -> Expectation:
    def expect(code: int, text: str) -> str | None:
        out, problem = _parse(code, text)
        if problem:
            return problem
        left, right = pattern.side_degrees
        return _first_problem(
            _mismatch("partition", out.get("partition"), list(pattern.parts)),
            _mismatch("weight", out.get("weight"), pattern.weight),
            _mismatch("type", out.get("type"),
                      {"t": pattern.t, "alpha": pattern.alpha, "beta": pattern.beta}),
            _mismatch("degree", out.get("degree"), pattern.degree),
            _mismatch("admissible moves", out.get("admissibility_graph", {}).get("edges"),
                      pattern.moves),
            _mismatch("removable_side_degrees", out.get("removable_side_degrees"), left),
            _mismatch("addable_side_degrees", out.get("addable_side_degrees"), right),
            _mismatch("local_clique_number", out.get("local_clique_number"),
                      pattern.clique_number),
            _mismatch("local_dimension", out.get("local_dimension"), pattern.clique_number - 1),
        )
    return expect


def _expect_neighborhood(pattern: Pattern) -> Expectation:
    def expect(code: int, text: str) -> str | None:
        out, problem = _parse(code, text)
        if problem:
            return problem
        d = pattern.degree
        moves = [[b["move"]["i"], b["move"]["j"]] for b in out.get("bijection", [])]
        return _first_problem(
            _mismatch("verified", out.get("verified"), True),
            _mismatch("violations", out.get("violations"), []),
            _mismatch("bijection moves", moves, pattern.moves),
            _mismatch("pairs_checked", out.get("pairs_checked"), d * (d - 1) // 2),
            _mismatch("adjacent_pairs", out.get("adjacent_pairs"), pattern.adjacent_pairs),
            _mismatch("neighborhood edges", len(out.get("neighborhood", {}).get("edges", [])),
                      pattern.adjacent_pairs),
        )
    return expect


def _expect_cliques(pattern: Pattern) -> Expectation:
    def expect(code: int, text: str) -> str | None:
        out, problem = _parse(code, text)
        if problem:
            return problem
        cliques = out.get("cliques", [])
        searched = 1 + max((len(c.get("members", [])) for c in cliques), default=0)
        return _first_problem(
            _mismatch("clique_count", out.get("clique_count"), len(cliques)),
            _mismatch("clique kinds", [c.get("kind") in CLIQUE_KINDS for c in cliques],
                      [True] * len(cliques)),
            _mismatch("1 + largest searched clique", searched, pattern.clique_number),
            _mismatch("local_clique_number", out.get("local_clique_number"),
                      pattern.clique_number),
        )
    return expect


def pattern_query(pattern: Pattern) -> Query:
    return tuple(
        Call((command, pattern.text, "--format", "json"), make(pattern))
        for command, make in (
            ("local", _expect_local),
            ("neighborhood", _expect_neighborhood),
            ("cliques", _expect_cliques),
        )
    )


class LocalWorkload:
    """Seeded block patterns with large parts, three CLI calls per pattern.

    The population is every pattern with t in 1..4 blocks, multiplicities in
    {1, 2, 3} and gaps in {1, 2, big}; t is uniform and the rest independent
    and uniform.  The seed draws `count` patterns by stratified sampling: the
    population is sorted by a cost estimate and one pattern is drawn from each
    of `count` equal-probability strata.  The seed picks the patterns, while
    the cost profile of the draw stays close to the population's, so seeds
    compare without the 30% swings that independent draws give.  Every pass
    of a run repeats the same draw.
    """

    MAX_BLOCKS = 4

    def __init__(self, count: int, big_gap: int):
        self.count = count
        self.partitions_per_pass = count
        population = []
        for t in range(1, self.MAX_BLOCKS + 1):
            mass = 9 ** (self.MAX_BLOCKS - t)  # each t carries equal total mass
            for mults in itertools.product((1, 2, 3), repeat=t):
                for gaps in itertools.product((1, 2, big_gap), repeat=t):
                    sizes = tuple(sum(gaps[k:]) for k in range(t))
                    population.append((self._cost(sizes, mults, gaps), sizes, mults, mass))
        population.sort()
        self._population = [(sizes, mults) for _, sizes, mults, _ in population]
        self._cumulative = list(itertools.accumulate(mass for *_, mass in population))

    @staticmethod
    def _cost(sizes: tuple[int, ...], mults: tuple[int, ...], gaps: tuple[int, ...]) -> int:
        # Pairs of neighbors tested, each through conjugates of weight-sized work.
        t = len(sizes)
        d = t * (t + 1) - mults.count(1) - gaps.count(1)
        weight = sum(size * mult for size, mult in zip(sizes, mults))
        return (d * (d - 1) // 2 + 1) * (weight + sizes[0])

    def draw(self, rng: random.Random) -> list[Pattern]:
        total = self._cumulative[-1]
        drawn = []
        for stratum in range(self.count):
            mark = (stratum + rng.random()) * total / self.count
            index = min(bisect.bisect_right(self._cumulative, mark), len(self._population) - 1)
            drawn.append(Pattern(*self._population[index]))
        rng.shuffle(drawn)
        return drawn

    def queries(self, seed: int) -> list[Query]:
        return [pattern_query(pattern) for pattern in self.draw(random.Random(seed))]


WORKLOADS = ("verify-full", "verify-degrees", "local-large-parts")


def build(name: str, smoke: bool = False):
    """The named workload at full size, or at the small size the harness's tests use."""
    if name == "verify-full":
        return VerifyWorkload(8 if smoke else 14, degrees_only=False)
    if name == "verify-degrees":
        return VerifyWorkload(12 if smoke else 24, degrees_only=True)
    if name == "local-large-parts":
        return LocalWorkload(20, 30) if smoke else LocalWorkload(200, 150)
    raise KeyError(name)
