"""Local invariants determined by a partition's block pattern alone.

Which moves out of a partition are admissible depends only on its support
size t, on which blocks have multiplicity one, and on which gaps equal one.
That data is the local type.  It determines a bipartite graph on removable
corners (left, 1..t) and addable corners (right, 1..t+1) whose edges are the
admissible moves themselves, as `TransferMove`s, and closed forms for the
degree, the per-corner degrees, and the largest clique through the partition.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .partitions import Partition, gaps
from .transfers import TransferMove


class _LocalTypeFields(NamedTuple):
    t: int
    alpha: tuple[int, ...]
    beta: tuple[int, ...]


class LocalType(_LocalTypeFields):
    """Support size with singleton-block and unit-gap indicator vectors.

    alpha[k] is 1 when block k+1 has multiplicity one; beta[k] is 1 when the
    gap after block k+1 equals one.  Both vectors have length t.  A named
    tuple, so it compares, hashes and prints as its fields; `__new__`
    validates them.  `_make` goes through `__new__` too, and so do
    `_replace` and `copy.replace`, which build their result with `_make`.
    """

    __slots__ = ()

    def __new__(cls, t: int, alpha: tuple[int, ...], beta: tuple[int, ...]) -> LocalType:
        # bool and float compare equal to ints but print otherwise in JSON.
        if type(t) is not int or t < 1:
            raise ValueError(f"support size must be a positive int, got {t!r}")
        # A list would compare unequal to the same tuple and could not be hashed.
        if type(alpha) is not tuple or type(beta) is not tuple:
            raise ValueError(f"indicator vectors must be tuples, got {alpha!r} and {beta!r}")
        if len(alpha) != t or len(beta) != t:
            raise ValueError(
                f"indicator vectors must have length {t}, "
                f"got {len(alpha)} and {len(beta)}"
            )
        bits = alpha + beta
        if any(type(bit) is not int or bit not in (0, 1) for bit in bits):
            raise ValueError(f"indicator entries must be the ints 0 or 1, got {bits}")
        return super().__new__(cls, t, alpha, beta)

    @classmethod
    def _make(cls, iterable: Iterable) -> LocalType:
        return cls(*iterable)

    @property
    def singleton_count(self) -> int:
        return sum(self.alpha)

    @property
    def unit_gap_count(self) -> int:
        return sum(self.beta)

    def to_json(self) -> dict:
        return {"t": self.t, "alpha": list(self.alpha), "beta": list(self.beta)}


def local_type(p: Partition) -> LocalType:
    """Read the local type off the block form."""
    alpha = tuple(1 if mult == 1 else 0 for _, mult in p.blocks)
    beta = tuple(1 if gap == 1 else 0 for gap in gaps(p))
    return LocalType(p.support_size, alpha, beta)


def admissibility_graph(T: LocalType) -> tuple[TransferMove, ...]:
    """The edges of B(T), in sorted order: the full t x (t+1) grid of moves
    minus one diagonal move per singleton block and one successor move per
    unit gap.  They are the admissible moves out of any partition of type T."""
    return tuple(
        TransferMove(i, j)
        for i in range(1, T.t + 1)
        for j in range(1, T.t + 2)
        if not (j == i and T.alpha[i - 1] or j == i + 1 and T.beta[i - 1])
    )


def degree_formula(T: LocalType) -> int:
    """Closed form for the number of admissible moves: t(t+1) - S - U."""
    return T.t * (T.t + 1) - T.singleton_count - T.unit_gap_count


def side_degrees(T: LocalType) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Closed forms for the per-vertex degrees of the admissibility graph.

    Left vertex i loses its diagonal edge when block i is a singleton and its
    successor edge when gap i is one.  Right vertex j loses edges from the
    matching block and from the preceding gap; the boundary bits (the gap
    before block one, the block after block t) count as zero.
    """
    t = T.t
    left = tuple(t + 1 - T.alpha[k] - T.beta[k] for k in range(t))
    alpha_ext = T.alpha + (0,)
    beta_ext = (0,) + T.beta
    right = tuple(t - alpha_ext[k] - beta_ext[k] for k in range(t + 1))
    return left, right


def local_clique_number(T: LocalType) -> int:
    """Size of the largest clique through a partition of this type.

    One more than the largest corner degree: the biggest clique consists of
    the partition itself plus all moves out of one corner.  For the type with
    no moves at all this degenerates to one, the vertex alone.
    """
    left, right = side_degrees(T)
    return 1 + max(max(left), max(right))


def local_dimension(T: LocalType) -> int:
    """Dimension of the largest simplex through the partition."""
    return local_clique_number(T) - 1
