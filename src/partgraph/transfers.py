"""Single-cell transfers between diagram corners and the adjacency they generate.

A move "i->j" takes the corner cell of block i and re-attaches it at the j-th
addable corner.  Exactly two kinds of moves fail to produce a new partition:
moving the corner of a multiplicity-one block onto its own column (j == i),
and moving across a gap of one (j == i + 1), which only swaps two sizes.
Every other move is admissible, and distinct admissible moves from the same
partition land on distinct partitions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .partitions import Partition, conjugate, gaps


@dataclass(frozen=True, order=True)
class TransferMove:
    """A transfer "i->j" with 1-based indices.

    i ranges over the blocks of the partition (each block has one removable
    corner); j ranges over 1..t+1, where j <= t grows a part of the j-th
    distinct size and j == t+1 opens a new part of size one.
    """

    i: int
    j: int

    def __str__(self) -> str:
        return f"{self.i}->{self.j}"

    def to_json(self) -> dict[str, int]:
        return {"i": self.i, "j": self.j}


def parse_move(text: str) -> TransferMove:
    """Parse a move from its "i->j" form."""
    left, sep, right = text.partition("->")
    try:
        if not sep:
            raise ValueError
        return TransferMove(int(left), int(right))
    except ValueError:
        raise ValueError(f"cannot parse move from {text!r}, expected 'i->j'") from None


class InadmissibleTransferError(ValueError):
    """A rejected transfer; `reason` names the obstruction that fired."""

    def __init__(self, move: TransferMove, reason: str, message: str):
        super().__init__(message)
        self.move = move
        self.reason = reason


def removable_corner_columns(p: Partition) -> tuple[int, ...]:
    """Column of each removable corner: the distinct part sizes."""
    return p.block_sizes()


def addable_corner_columns(p: Partition) -> tuple[int, ...]:
    """Column of each addable corner: one past every distinct size, then column one."""
    return tuple(size + 1 for size in p.block_sizes()) + (1,)


def _check_range(p: Partition, move: TransferMove) -> None:
    t = p.support_size
    if not 1 <= move.i <= t:
        raise ValueError(f"removable index {move.i} out of range 1..{t} for {p}")
    if not 1 <= move.j <= t + 1:
        raise ValueError(f"addable index {move.j} out of range 1..{t + 1} for {p}")


def _obstruction(p: Partition, move: TransferMove) -> str | None:
    if move.j == move.i and p.multiplicities()[move.i - 1] == 1:
        return "singleton_block"
    if move.j == move.i + 1 and gaps(p)[move.i - 1] == 1:
        return "unit_gap"
    return None


def _require_admissible(p: Partition, move: TransferMove) -> None:
    _check_range(p, move)
    reason = _obstruction(p, move)
    if reason == "singleton_block":
        raise InadmissibleTransferError(
            move, reason,
            f"move {move} on {p}: block {move.i} has multiplicity one, so the "
            f"transfer puts the cell back where it came from",
        )
    if reason == "unit_gap":
        raise InadmissibleTransferError(
            move, reason,
            f"move {move} on {p}: the gap after block {move.i} is one, so the "
            f"transfer only swaps two part sizes",
        )


def is_admissible(p: Partition, move: TransferMove) -> bool:
    """Whether the move changes the partition; false on the two obstructions."""
    _check_range(p, move)
    return _obstruction(p, move) is None


def apply_transfer(p: Partition, move: TransferMove) -> Partition:
    """Carry out an admissible move and return the resulting partition.

    One part of the i-th distinct size shrinks by a cell (disappearing if the
    size was one) and either a part of the j-th distinct size grows by a cell
    or, for j == t+1, a new part of size one appears.
    """
    _require_admissible(p, move)
    sizes = p.block_sizes()
    counts = Counter(p.parts)
    source = sizes[move.i - 1]
    counts[source] -= 1
    if source > 1:
        counts[source - 1] += 1
    if move.j <= len(sizes):
        target = sizes[move.j - 1]
        counts[target] -= 1
        counts[target + 1] += 1
    else:
        counts[1] += 1
    return Partition(tuple(sorted(counts.elements(), reverse=True)))


def neighbors(p: Partition) -> dict[TransferMove, Partition]:
    """All admissible moves from p, each mapped to the partition it produces.

    The mapping is injective, so its size is the degree of p in the transfer
    graph.  Keys are emitted in sorted move order.
    """
    t = p.support_size
    out: dict[TransferMove, Partition] = {}
    for i in range(1, t + 1):
        for j in range(1, t + 2):
            move = TransferMove(i, j)
            if _obstruction(p, move) is None:
                out[move] = apply_transfer(p, move)
    return out


def conjugate_delta(p: Partition, move: TransferMove) -> tuple[int, int]:
    """The pair of columns (losing, gaining) that the move changes in the conjugate."""
    _require_admissible(p, move)
    sizes = p.block_sizes()
    losing = sizes[move.i - 1]
    gaining = (sizes[move.j - 1] if move.j <= len(sizes) else 0) + 1
    return (losing, gaining)


def are_adjacent(p: Partition, q: Partition) -> bool:
    """Adjacency in the transfer graph, tested in conjugate coordinates.

    Two distinct partitions of the same weight are adjacent exactly when the
    difference of their conjugates is one cell out of one column and into
    another: a single +1 and a single -1, zero elsewhere.  The two conjugates
    are compared run by run, as step functions over the columns given by
    their blocks, so the test costs O(t_p + t_q) steps.  The widths of the
    runs where the difference is +1 and -1 are added up, and the test fails
    as soon as a run differs by more than one or either total passes one.
    """
    if p.weight != q.weight:
        raise ValueError(
            f"partitions of different weights: {p} has {p.weight}, {q} has {q.weight}"
        )
    if p == q:
        return False
    end = max(p.parts[0], q.parts[0])
    # A zero run past the last column of each conjugate, wide enough to reach `end`.
    runs_p = conjugate(p).blocks + ((0, end),)
    runs_q = conjugate(q).blocks + ((0, end),)
    (vp, wp), (vq, wq) = runs_p[0], runs_q[0]
    i = j = col = gained = lost = 0
    while col < end:
        width = min(wp, wq)
        d = vq - vp
        if d == 1:
            gained += width
            if gained > 1:
                return False
        elif d == -1:
            lost += width
            if lost > 1:
                return False
        elif d:
            return False
        col += width
        wp -= width
        wq -= width
        if not wp:
            i += 1
            vp, wp = runs_p[i]
        if not wq:
            j += 1
            vq, wq = runs_q[j]
    return gained == 1 and lost == 1
