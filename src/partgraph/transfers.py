"""Single-cell transfers between diagram corners and the adjacency they generate.

A move "i->j" takes the corner cell of block i and re-attaches it at the j-th
addable corner, so it edits two rows of the parts.  Only two kinds of moves
make no new partition: j == i on a block of multiplicity one (the cell goes
back) and j == i + 1 across a gap of one (two sizes swap).  Every other move
is admissible, and distinct admissible moves from one partition land on
distinct partitions.  `neighbors` skips the two kinds once per block
(`_excluded`).  `apply_transfer` rejects them from what its own two-row edit
makes, not from that rule, so each move `neighbors` keeps is checked once
more against the definition.
"""

from __future__ import annotations

from typing import NamedTuple

from .partitions import Partition, _edited, conjugate


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

    def __reduce__(self) -> tuple[type, tuple[str, str], dict]:
        # BaseException's own reduce passes only `args`, the message alone.
        return type(self), (self.reason, str(self)), vars(self)


def _excluded(blocks: tuple[tuple[int, int], ...], i: int) -> set[int]:
    """The addable corners a move from block i cannot reach.

    There are at most two: j == i on a block of multiplicity one, and
    j == i + 1 across a gap of one.  These are the moves whose edit makes
    no new partition, which `apply_transfer` rejects.
    """
    size, mult = blocks[i - 1]
    excluded = set()
    if mult == 1:
        excluded.add(i)
    if size - (blocks[i][0] if i < len(blocks) else 0) == 1:
        excluded.add(i + 1)
    return excluded


_OBSTRUCTIONS = {
    "singleton_block":
        "block {} has multiplicity one, so the transfer puts the cell back where it came from",
    "unit_gap": "the gap after block {} is one, so the transfer only swaps two part sizes",
}


def apply_transfer(p: Partition, move: TransferMove) -> Partition:
    """Carry out an admissible move and return the resulting partition.

    With M_i = m_1 + ... + m_i, row M_i - 1 (last of block i) loses a cell
    and row M_(j-1) (first of block j) gains one.  The edit runs on the parts
    with one zero row past the end, so j == t+1 grows that row to a 1.  The
    edit alone decides whether the move makes a new partition:
    - first == last puts the cell back, the `singleton_block` obstruction;
    - a rise in either pair of rows that meets an edited row is the
      `unit_gap` obstruction.  Gaps are >= 1, so only j == i + 1 across a
      gap of one rises, and there the two pairs are the same pair.
    Either raises `InadmissibleTransferError`.  Otherwise the trailing zero
    rows are dropped and the result is not validated again: p was, a moved
    cell keeps every part a positive int, and the two pairs are in order.
    Like every partition, the result builds its block form on first read.
    Only a `TransferMove` is taken: a plain (i, j) pair equals one but has
    no text form to report.
    """
    if type(move) is not TransferMove:
        raise ValueError(f"move must be a TransferMove, got {move!r}")
    i, j = move
    blocks = p.blocks
    t = len(blocks)
    # bool and float compare equal to ints, but a bool would index as 0 or 1
    # and a float would not index at all.
    if type(i) is not int or not 1 <= i <= t:
        raise ValueError(f"removable index {i} out of range 1..{t} for {p}")
    if type(j) is not int or not 1 <= j <= t + 1:
        raise ValueError(f"addable index {j} out of range 1..{t + 1} for {p}")
    parts = [*p.parts, 0]
    # Sizes are distinct per block, so a block's first row is the first row
    # holding its size.
    size, mult = blocks[i - 1]
    last = parts.index(size) + mult - 1
    first = parts.index(blocks[j - 1][0] if j <= t else 0)
    parts[last] -= 1
    parts[first] += 1
    # There is no row -1, and the zero row closes the last pair.
    if first == last:
        reason = "singleton_block"
    elif (first and parts[first - 1] < parts[first]) or parts[last] < parts[last + 1]:
        reason = "unit_gap"
    else:
        while not parts[-1]:
            parts.pop()
        return _edited(tuple(parts), p.weight)
    why = _OBSTRUCTIONS[reason].format(i)
    raise InadmissibleTransferError(reason, f"move {move} on {p}: {why}")


def neighbors(p: Partition) -> dict[TransferMove, Partition]:
    """All admissible moves from p, each mapped to the partition it produces.

    The mapping is injective, so its size is the degree of p in the transfer
    graph.  Keys are emitted in sorted move order.  The at most two corners
    each block excludes are read once per block (`_excluded`), and every
    other move goes to the public `apply_transfer`, whose own edit rejects a
    move that makes no new partition.  So each move kept here is checked
    once more, against the definition rather than this rule.
    """
    blocks = p.blocks
    t = len(blocks)
    out: dict[TransferMove, Partition] = {}
    for i in range(1, t + 1):
        excluded = _excluded(blocks, i)
        for j in range(1, t + 2):
            if j not in excluded:
                move = TransferMove(i, j)
                out[move] = apply_transfer(p, move)
    return out


def are_adjacent(p: Partition, q: Partition) -> bool:
    """Adjacency in the transfer graph, tested in conjugate coordinates.

    Adjacent partitions differ by one moved cell: their conjugates are at L1
    distance 2, equal ones at 0.  The walk steps from run end to run end
    (column counts) of the two memoised conjugates, adds |v_p - v_q| times
    the columns up to the nearer end, and fails once the sum passes 2.  A side
    past its last run has height 0 up to p.weight + 1, past every column.
    """
    if p.weight != q.weight:
        raise ValueError(
            f"partitions of different weights: {p} has {p.weight}, {q} has {q.weight}"
        )
    runs_p, runs_q = conjugate(p), conjugate(q)
    tp, tq, stop = len(runs_p), len(runs_q), p.weight + 1
    (vp, end_p), (vq, end_q) = runs_p[0], runs_q[0]
    i = j = col = moved = 0
    while True:
        end = end_p if end_p < end_q else end_q
        if vp != vq:
            moved += (vp - vq if vp > vq else vq - vp) * (end - col)
            if moved > 2:
                return False
        if end == stop:
            return moved == 2
        col = end
        if end_p == end:
            i += 1
            if i < tp:
                vp, width = runs_p[i]
                end_p += width
            else:
                vp, end_p = 0, stop
        if end_q == end:
            j += 1
            if j < tq:
                vq, width = runs_q[j]
                end_q += width
            else:
                vq, end_q = 0, stop
