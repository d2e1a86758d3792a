"""Single-cell transfers between diagram corners and the adjacency they generate.

A move "i->j" takes the corner cell of block i and re-attaches it at the j-th
addable corner, so it edits two rows of the parts.  Only two kinds of moves
make no new partition: j == i on a block of multiplicity one (the cell goes
back) and j == i + 1 across a gap of one (two sizes swap).  Every other move
is admissible, and distinct admissible moves from one partition land on
distinct partitions.
"""

from __future__ import annotations

from typing import NamedTuple

from .partitions import Partition, conjugate


class TransferMove(NamedTuple):
    """A transfer "i->j" with 1-based indices.

    i ranges over the blocks of the partition (each block has one removable
    corner); j ranges over 1..t+1, where j <= t grows a part of the j-th
    distinct size and j == t+1 opens a new part of size one.

    A move is its (i, j) pair: it equals, hashes and orders like that tuple,
    and it is also the edge i-j of the admissibility graph.  This module
    alone knows its text form "i->j" and its JSON form {"i": i, "j": j}.
    """

    i: int
    j: int

    def __str__(self) -> str:
        return f"{self.i}->{self.j}"

    def to_json(self) -> dict[str, int]:
        return {"i": self.i, "j": self.j}


class InadmissibleTransferError(ValueError):
    """A rejected transfer; `reason` names the obstruction that fired."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


def _obstruction(p: Partition, move: TransferMove) -> str | None:
    blocks = p.blocks
    size, mult = blocks[move.i - 1]
    if move.j == move.i and mult == 1:
        return "singleton_block"
    if move.j == move.i + 1 and size - (blocks[move.i][0] if move.i < len(blocks) else 0) == 1:
        return "unit_gap"
    return None


_OBSTRUCTIONS = {
    "singleton_block":
        "block {} has multiplicity one, so the transfer puts the cell back where it came from",
    "unit_gap": "the gap after block {} is one, so the transfer only swaps two part sizes",
}


def _require_admissible(p: Partition, move: TransferMove) -> None:
    t = p.support_size
    # bool and float compare equal to ints, but a bool would index as 0 or 1
    # and a float would not index at all.
    if type(move.i) is not int or not 1 <= move.i <= t:
        raise ValueError(f"removable index {move.i} out of range 1..{t} for {p}")
    if type(move.j) is not int or not 1 <= move.j <= t + 1:
        raise ValueError(f"addable index {move.j} out of range 1..{t + 1} for {p}")
    reason = _obstruction(p, move)
    if reason:
        why = _OBSTRUCTIONS[reason].format(move.i)
        raise InadmissibleTransferError(reason, f"move {move} on {p}: {why}")


def apply_transfer(p: Partition, move: TransferMove) -> Partition:
    """Carry out an admissible move and return the resulting partition.

    With M_i = m_1 + ... + m_i, row M_i - 1 (last of block i) loses a cell,
    dropped at zero, and row M_(j-1) (first of block j) gains one, or j == t+1
    appends a 1.  As gaps are >= 1, rows stay weakly decreasing except on the
    two obstructions; `Partition` still validates.
    """
    _require_admissible(p, move)
    parts = list(p.parts)
    first = last = 0
    for k, (_, mult) in enumerate(p.blocks, 1):
        if k < move.j:
            first += mult
        if k <= move.i:
            last += mult
    last -= 1
    parts[last] -= 1
    if first < len(parts):
        parts[first] += 1
    else:
        parts.append(1)
    if not parts[last]:
        del parts[last]
    return Partition(tuple(parts))


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


def are_adjacent(p: Partition, q: Partition) -> bool:
    """Adjacency in the transfer graph, tested in conjugate coordinates.

    Two partitions of the same weight are adjacent exactly when their
    diagrams differ in two cells, one cell moved: the L1 distance of their
    conjugates is 2.  Equal partitions are at distance 0, so no partition is
    adjacent to itself.  The two conjugates are compared run by run, as step
    functions over the columns given by their blocks, so the test costs
    O(t_p + t_q) steps.  Each run adds its width times the difference of the
    two columns to the distance, and the test fails as soon as that passes 2.
    `conjugate` returns block forms, so no conjugate is ever expanded into
    parts, and each partition's conjugate is built once and reused.
    """
    if p.weight != q.weight:
        raise ValueError(
            f"partitions of different weights: {p} has {p.weight}, {q} has {q.weight}"
        )
    end = max(p.blocks[0][0], q.blocks[0][0])
    # A zero run past the last column of each conjugate, wide enough to reach `end`.
    runs_p = conjugate(p) + ((0, end),)
    runs_q = conjugate(q) + ((0, end),)
    (vp, wp), (vq, wq) = runs_p[0], runs_q[0]
    i = j = col = moved = 0
    while col < end:
        width = min(wp, wq)
        moved += abs(vq - vp) * width
        if moved > 2:
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
    return moved == 2
