"""Integer partitions in normalized descending form.

A partition is stored as a weakly decreasing tuple of positive parts.  Most
local computations work on the block form: the run-length encoding of the
parts into (size, multiplicity) pairs with strictly decreasing sizes.  Every
partition carries its block form and its weight from construction on:
`Partition(...)` builds both in the one pass over the parts that validates
them, and the trusted constructor `Partition._from_blocks` is given the
blocks and sums their weight.

`conjugate` works on the block form: a partition with t blocks has a
conjugate with t blocks, built in O(t) Python steps without a per-cell loop.
It returns its result through `Partition._from_blocks`, which skips
validation and leaves out the parts; the parts of such an instance are
expanded the first time something reads them, so a conjugate whose columns
number in the millions costs O(t) until then.  Each partition keeps its
conjugate once computed.  The trusted constructor is only for partitions
derived from an already valid one; `Partition(...)`, `make_partition` and
`parse_partition` validate every part, so input is still checked at the edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Partition:
    """A partition of a positive integer.

    Construct directly only with a tuple of already-normalized parts; use
    :func:`make_partition` to sort arbitrary input.  Instances are immutable
    and hashable, so they can serve as graph vertices and dict keys.
    Besides `parts`, each instance holds `blocks`, the block form, and
    `weight`, the integer being partitioned.
    """

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = self.parts
        if type(parts) is not tuple:
            raise ValueError(f"parts must be a tuple, got {type(parts).__name__}")
        if not parts:
            raise ValueError("a partition needs at least one part")
        blocks: list[tuple[int, int]] = []
        size, mult, weight, rising = parts[0], 0, 0, False
        for part in parts:
            if type(part) is not int or part <= 0:
                raise ValueError(f"every part must be a positive integer, got {part!r}")
            if part != size:
                rising = rising or part > size
                blocks.append((size, mult))
                weight += size * mult
                size, mult = part, 0
            mult += 1
        # Raised only once every part has passed, so a bad part is reported first.
        if rising:
            raise ValueError(f"parts must be weakly decreasing, got {parts}")
        blocks.append((size, mult))
        self.__dict__["blocks"] = tuple(blocks)
        self.__dict__["weight"] = weight + size * mult

    @classmethod
    def _from_blocks(cls, blocks: tuple[tuple[int, int], ...]) -> Partition:
        """Trusted constructor from a valid block form; skips `__post_init__`.

        Only for partitions derived from an already valid one.  It stores the
        blocks and their weight, as `__post_init__` does; `parts` is left out
        until something reads it (see `_PartsFromBlocks`).
        """
        self = object.__new__(cls)
        self.__dict__["blocks"] = blocks
        self.__dict__["weight"] = sum(size * mult for size, mult in blocks)
        return self

    @property
    def support_size(self) -> int:
        """Number of distinct part sizes."""
        return len(self.blocks)

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(size for size, _ in self.blocks)

    def multiplicities(self) -> tuple[int, ...]:
        return tuple(mult for _, mult in self.blocks)

    def __str__(self) -> str:
        return ",".join(str(part) for part in self.parts)


class _PartsFromBlocks:
    """`Partition.parts` for an instance made by `Partition._from_blocks`.

    A non-data descriptor, so a `parts` value in the instance dict shadows it:
    a validated instance never reaches it.  A trusted one expands its blocks
    on the first read and keeps the result in its dict.  A `__getattr__`
    fallback would take every attribute of every `Partition` off the
    interpreter's specialised lookup; this takes off only `parts`.
    """

    def __get__(
        self, instance: Partition | None, owner: type | None = None
    ) -> tuple[int, ...] | _PartsFromBlocks:
        if instance is None:
            return self
        blocks = instance.__dict__.get("blocks")
        if blocks is None:
            raise AttributeError("parts")
        parts = tuple(chain.from_iterable((size,) * mult for size, mult in blocks))
        instance.__dict__["parts"] = parts
        return parts


# Set after the decorator, so that the dataclass does not take it for a default.
Partition.parts = _PartsFromBlocks()  # type: ignore[assignment]


def make_partition(parts: Iterable[int]) -> Partition:
    """Build a normalized partition from parts given in any order."""
    return Partition(tuple(sorted(parts, reverse=True)))


def parse_partition(text: str) -> Partition:
    """Parse comma-separated parts, e.g. "4,2,4,2", into a normalized partition."""
    try:
        values = [int(field) for field in text.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse partition from {text!r}") from None
    return make_partition(values)


def conjugate(p: Partition) -> Partition:
    """Transpose of the diagram: the k-th conjugate part counts parts >= k.

    With blocks (s_1^m_1, ..., s_t^m_t), M_i = m_1 + ... + m_i and s_{t+1} = 0,
    the conjugate has blocks M_i^(s_i - s_{i+1}) for i = t down to 1.  The
    result carries only those blocks (see `Partition._from_blocks`) and is
    kept in p's instance dict, so each partition's conjugate is built once.
    """
    cached = p.__dict__.get("_conjugate")
    if cached is not None:
        return cached
    blocks = p.blocks
    out: list[tuple[int, int]] = []
    rows = 0
    for k, (size, mult) in enumerate(blocks, 1):
        rows += mult
        out.append((rows, size - (blocks[k][0] if k < len(blocks) else 0)))
    out.reverse()
    p.__dict__["_conjugate"] = result = Partition._from_blocks(tuple(out))
    return result


def gaps(p: Partition) -> tuple[int, ...]:
    """Differences of consecutive distinct sizes, the last size taken down to zero.

    All gaps are >= 1 and the size of block i is the suffix sum of the gaps
    from i on.
    """
    sizes = p.block_sizes() + (0,)
    return tuple(sizes[k] - sizes[k + 1] for k in range(len(sizes) - 1))


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n in reverse-lexicographic order, (n) first, all-ones last."""
    if n <= 0:
        raise ValueError(f"weight must be a positive integer, got {n}")
    return [Partition(parts) for parts in _descending_parts(n, n)]


def _descending_parts(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
    if remaining == 0:
        yield ()
        return
    for first in range(min(remaining, cap), 0, -1):
        for rest in _descending_parts(remaining - first, first):
            yield (first, *rest)
