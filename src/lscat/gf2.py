"""Exact linear algebra over the two-element field on bit-packed vectors.

Vectors and matrix rows are stored as Python integers used as bitsets
(bit i = coordinate i), so row addition is a single XOR regardless of
length.  Everything here is immutable and pure; rank/span queries are
the inner loop of the cup-length search, so the elimination works on
whole words only.
"""

from __future__ import annotations

from typing import Iterable

from ._record import Record


def _pack(coords: Iterable[int]) -> tuple[int, int]:
    bits = 0
    length = 0
    for c in coords:
        if c not in (0, 1):
            raise ValueError(f"GF(2) coordinate must be 0 or 1, got {c!r}")
        if c:
            bits |= 1 << length
        length += 1
    return length, bits


class BitMatrix(Record):
    """Row-major GF(2) matrix; each row is a bitset over ``cols`` columns."""

    rows: int
    cols: int
    row_bits: tuple[int, ...]

    def __init__(self, rows: int, cols: int, row_bits: tuple[int, ...]) -> None:
        self.__dict__.update(rows=rows, cols=cols, row_bits=row_bits)
        if len(self.row_bits) != self.rows:
            raise ValueError("row count mismatch")
        for r in self.row_bits:
            if r < 0 or (self.cols < r.bit_length()):
                raise ValueError("row bits outside declared width")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]], cols: int | None = None) -> "BitMatrix":
        packed = []
        width = cols
        for row in rows:
            length, bits = _pack(row)
            if width is None:
                width = length
            elif length != width:
                raise ValueError("ragged rows")
            packed.append(bits)
        if width is None:
            raise ValueError("cannot infer column count from an empty matrix; pass cols")
        return cls(len(packed), width, tuple(packed))


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

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def __len__(self) -> int:
        return len(self._pivots)

    def vectors(self) -> list[int]:
        return [self._pivots[h] for h in sorted(self._pivots)]


def rank(m: BitMatrix) -> int:
    """GF(2) rank by elimination; 0 <= rank <= min(rows, cols)."""
    basis = XorBasis(m.row_bits)
    return len(basis)


def is_injective(m: BitMatrix) -> bool:
    """True iff the linear map represented by ``m`` (source dim = cols) is injective."""
    return rank(m) == m.cols
