"""Integer partitions in normalized descending form.

A partition is stored as a weakly decreasing tuple of positive parts.  Most
local computations work on the block form: the run-length encoding of the
parts into (size, multiplicity) pairs with strictly decreasing sizes.
Every partition holds `parts` and `weight` from construction on, and writes
its block form and its conjugate once each, on first use.  There are two
ways in.  `Partition(...)` validates the parts;
`make_partition`, `parse_partition` and `enumerate_partitions` go through it,
so input is checked at the edge.  A move's result (`transfers.apply_transfer`)
comes from `_edited`: the move edits two rows of a validated partition, and
the edit itself rejects a move that makes no new partition, so the parts of
a move it keeps are not validated again.

`conjugate` works on the block form and returns one: a partition with t
blocks has a conjugate with t blocks, built in O(t) Python steps without a
per-cell loop, so a conjugate whose columns number in the millions costs
O(t).

`Partition` is a plain class with written-out `__eq__`, `__hash__` and
`__repr__`, and a `__setattr__` and `__delattr__` that refuse every change, so
importing the package does not load `dataclasses` (and the `inspect`, `ast`
and `dis` it pulls in) nor run its code generator.  Every shell call would pay
for those: about 20 ms of start-up on a 2-vCPU VM with Python 3.11.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class Partition:
    """A partition of a positive integer.

    Construct directly only with a tuple of already-normalized parts; use
    :func:`make_partition` to sort arbitrary input.  Instances are immutable
    and hashable, so they can serve as graph vertices and dict keys.
    Equality and the hash are those of `parts`.

    Every instance holds `parts` and `weight`, the integer being partitioned,
    as plain instance attributes from construction on.  `blocks`, the block
    form, is built by `__getattr__` on the first read and stored beside them.

    `__init__` is the way in for input: it stores the parts and calls
    `__post_init__`, which validates them and stores the weight.  The
    validating step has that name, and `__init__` looks it up on the
    instance, because callers wrap it under that name: the
    `partitions.Partition` probe in `bench/tracer.py` and the tests count
    validated constructions through it.  The other way in, `_edited`, is for
    a move's result and skips the validation.
    """

    parts: tuple[int, ...]

    def __init__(self, parts: tuple[int, ...]) -> None:
        self.__dict__["parts"] = parts
        self.__post_init__()

    def __post_init__(self) -> None:
        parts = self.parts
        if type(parts) is not tuple:
            raise ValueError(f"parts must be a tuple, got {type(parts).__name__}")
        if not parts:
            raise ValueError("a partition needs at least one part")
        for part in parts:
            if type(part) is not int or part <= 0:
                raise ValueError(f"every part must be a positive integer, got {part!r}")
        # Checked only once every part has passed, so a bad part is reported first.
        if parts != tuple(sorted(parts, reverse=True)):
            raise ValueError(f"parts must be weakly decreasing, got {parts}")
        self.__dict__["weight"] = sum(parts)

    def __getattr__(self, name: str) -> tuple[tuple[int, int], ...]:
        # Called only for a name missing from the instance dict, so the first
        # read of `blocks` builds them and stores them there, with no lock:
        # every thread that races to store them stores an equal value.
        if name != "blocks":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        parts = self.parts
        blocks: list[tuple[int, int]] = []
        size, mult = parts[0], 0
        for part in parts:
            if part != size:
                blocks.append((size, mult))
                size, mult = part, 0
            mult += 1
        blocks.append((size, mult))
        self.__dict__["blocks"] = result = tuple(blocks)
        return result

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(parts={self.parts!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    @property
    def support_size(self) -> int:
        """Number of distinct part sizes."""
        return len(self.blocks)

    def __str__(self) -> str:
        return ",".join(str(part) for part in self.parts)

    def to_json(self) -> list[int]:
        """The JSON form of a partition: its parts, largest first."""
        return list(self.parts)


def _edited(parts: tuple[int, ...], weight: int) -> Partition:
    """A partition from parts the caller has checked, with their weight.

    Only `transfers.apply_transfer` calls it, on a validated partition with
    two rows edited and the edit checked.  The result holds what
    `Partition(...)` stores, the parts and the weight, and like every
    partition builds its block form on first read.
    """
    p = object.__new__(Partition)
    fields = p.__dict__
    fields["parts"] = parts
    fields["weight"] = weight
    return p


def make_partition(parts: Iterable[int]) -> Partition:
    """Build a normalized partition from parts given in any order."""
    return Partition(tuple(sorted(parts, reverse=True)))


def parse_digits(text: str) -> int:
    """Read an integer written in ASCII digits, with surrounding whitespace allowed.

    Unlike `int`, this rejects signs, underscores ("1_0") and non-ASCII digits
    ("\u0663"), so no input is silently read as some other number.
    """
    digits = text.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"expected ASCII digits, got {text!r}")
    return int(digits)


def parse_partition(text: str) -> Partition:
    """Parse comma-separated parts, e.g. "4,2,4,2", into a normalized partition."""
    try:
        values = [parse_digits(field) for field in text.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse partition from {text!r}") from None
    return make_partition(values)


def conjugate(p: Partition) -> tuple[tuple[int, int], ...]:
    """Block form of the transposed diagram, whose k-th part counts parts >= k.

    With blocks (s_1^m_1, ..., s_t^m_t), M_i = m_1 + ... + m_i and s_{t+1} = 0,
    the conjugate has blocks M_i^(s_i - s_{i+1}) for i = t down to 1, so the
    result is ((M_t, s_t), (M_{t-1}, s_{t-1} - s_t), ..., (M_1, s_1 - s_2)).
    It is kept in p's instance dict, so each partition's conjugate is built
    once.
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
    p.__dict__["_conjugate"] = result = tuple(out)
    return result


def gaps(p: Partition) -> tuple[int, ...]:
    """Differences of consecutive distinct sizes, the last size taken down to zero.

    All gaps are >= 1 and the size of block i is the suffix sum of the gaps
    from i on.
    """
    sizes = [size for size, _ in p.blocks] + [0]
    return tuple(sizes[k] - sizes[k + 1] for k in range(len(sizes) - 1))


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n in reverse-lexicographic order, (n) first, all-ones last."""
    if type(n) is not int or n <= 0:
        raise ValueError(f"weight must be a positive integer, got {n!r}")
    return [Partition(parts) for parts in _descending_parts(n, n)]


def _descending_parts(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
    if remaining == 0:
        yield ()
        return
    for first in range(min(remaining, cap), 0, -1):
        for rest in _descending_parts(remaining - first, first):
            yield (first, *rest)
