"""Independent brute-force reference implementations used by the tests.

Everything here recomputes results from first principles: cell sets of the
diagram, raw multiset surgery, subset enumeration, a classical counting
recurrence.  None of it calls the code paths under test, so agreement is
evidence rather than tautology.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations, groupby


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """Number of partitions of n via the alternating pentagonal recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = 1 if k % 2 == 1 else -1
        total += sign * (partition_count(n - g1) + partition_count(n - g2))
        k += 1
    return total


def run_length_blocks(parts: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Block form ((size, multiplicity), ...) by grouping runs of equal parts."""
    return tuple((size, sum(1 for _ in run)) for size, run in groupby(parts))


def parts_from_blocks(blocks: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """Parts of a block form, each size written out as often as its multiplicity."""
    return tuple(size for size, mult in blocks for _ in range(mult))


def cells(parts: tuple[int, ...]) -> frozenset[tuple[int, int]]:
    """The diagram of a partition as a set of (row, column) cells."""
    return frozenset((r, c) for r, length in enumerate(parts) for c in range(length))


def conjugate_parts_by_cells(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Conjugate computed by literally transposing the cell set."""
    transposed = Counter(c for _, c in cells(parts))
    return tuple(transposed[r] for r in sorted(transposed))


def adjacent_by_cells(parts_p: tuple[int, ...], parts_q: tuple[int, ...]) -> bool:
    """Adjacency decided on raw diagrams: q is p with one cell relocated."""
    a, b = cells(parts_p), cells(parts_q)
    return len(a - b) == 1 and len(b - a) == 1


def definition_admissible(parts: tuple[int, ...], i: int, j: int) -> bool:
    """Decide admissibility of move (i, j) straight from the definition.

    Shrink one part of the i-th distinct size, then try to grow a remaining
    part of the j-th distinct size (or append a part of size one).  The move
    is admissible when this is performable and the result differs from the
    input.
    """
    sizes = sorted(set(parts), reverse=True)
    bag = list(parts)
    bag.remove(sizes[i - 1])
    if j <= len(sizes):
        if sizes[j - 1] not in bag:
            return False
        bag.remove(sizes[j - 1])
        bag.append(sizes[j - 1] + 1)
    else:
        bag.append(1)
    if sizes[i - 1] > 1:
        bag.append(sizes[i - 1] - 1)
    return tuple(sorted(bag, reverse=True)) != tuple(parts)


def raw_transfer_parts(parts: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    """Result of move (i, j) by direct multiset surgery; assumes admissibility."""
    sizes = sorted(set(parts), reverse=True)
    bag = list(parts)
    bag.remove(sizes[i - 1])
    if j <= len(sizes):
        bag.remove(sizes[j - 1])
        bag.append(sizes[j - 1] + 1)
    else:
        bag.append(1)
    if sizes[i - 1] > 1:
        bag.append(sizes[i - 1] - 1)
    return tuple(sorted(bag, reverse=True))


def naive_maximal_cliques(n_vertices: int, edges: frozenset[tuple[int, int]]) -> set[frozenset[int]]:
    """All maximal nonempty cliques by checking every vertex subset."""
    adjacent = set(edges) | {(b, a) for a, b in edges}
    cliques = [
        frozenset(sub)
        for size in range(1, n_vertices + 1)
        for sub in combinations(range(n_vertices), size)
        if all((a, b) in adjacent for a, b in combinations(sub, 2))
    ]
    return {c for c in cliques if not any(c < d for d in cliques)}
