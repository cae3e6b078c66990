"""Exact linear algebra over the two-element field on bit-packed vectors.

Vectors and matrix rows are stored as Python integers used as bitsets
(bit i = coordinate i), so row addition is a single XOR regardless of
length.  Ranks decide the duality check and the injectivity of induced
maps; the cup-length search runs its own elimination, on the same
words.
"""

from __future__ import annotations

from collections.abc import Iterable


class XorBasis:
    """Incremental row-echelon basis of a GF(2) span.

    ``insert`` reduces a vector against the stored pivots and keeps it
    when independent.  Internal state only ever grows; callers observe a
    pure span (same vectors in, same span out, in any insertion order).
    """

    __slots__ = ("_pivots",)

    def __init__(self, vectors: Iterable[int] = ()) -> None:
        self._pivots: dict[int, int] = {}
        for v in vectors:
            self.insert(v)

    def reduce(self, v: int) -> int:
        pivots = self._pivots
        while v:
            h = v.bit_length() - 1
            p = pivots.get(h)
            if p is None:
                return v
            v ^= p
        return 0

    def insert(self, v: int) -> bool:
        v = self.reduce(v)
        if v == 0:
            return False
        self._pivots[v.bit_length() - 1] = v
        return True

    def __len__(self) -> int:
        return len(self._pivots)


def rank(rows: Iterable[int]) -> int:
    """GF(2) rank of the rows, each a bitmask; at most the number of rows."""
    return len(XorBasis(rows))
