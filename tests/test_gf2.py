"""GF(2) core: rank, span membership, injectivity.

Rows are bitmasks: bit j is column j.
"""

from __future__ import annotations

import random

from lscat.gf2 import XorBasis, rank

from oracles import brute_in_span, brute_rank


def pack(rows: list[list[int]]) -> tuple[int, ...]:
    return tuple(sum(bit << j for j, bit in enumerate(row)) for row in rows)


def identity(n: int) -> tuple[int, ...]:
    return tuple(1 << i for i in range(n))


def zeros(rows: int) -> tuple[int, ...]:
    return (0,) * rows


def transpose(rows: tuple[int, ...], cols: int) -> tuple[int, ...]:
    return tuple(sum(((r >> j) & 1) << i for i, r in enumerate(rows)) for j in range(cols))


def test_rank_identity():
    assert rank(identity(3)) == 3


def test_rank_zero_matrix():
    assert rank(zeros(2)) == 0


def test_rank_equal_rows():
    assert rank(pack([[1, 1], [1, 1]])) == 1


def test_rank_bounds():
    m = pack([[1, 0, 1], [0, 1, 1]])
    assert 0 <= rank(m) <= min(len(m), 3)


# v is in the span iff XorBasis.reduce(v) == 0, on bitmasks (bit i = coordinate i)


def test_in_span_zero_vector():
    assert XorBasis([0b01, 0b10]).reduce(0) == 0


def test_in_span_miss():
    assert XorBasis([0b10]).reduce(0b01) != 0


def test_in_span_sum_of_rows():
    assert XorBasis([0b01, 0b10]).reduce(0b11) == 0


# a map is injective iff the images of the source basis (one bitmask
# each, over the target basis) have full rank


def test_is_injective_identity():
    images = identity(4)
    assert rank(images) == len(images)


def test_is_injective_zero_map():
    images = (0,)  # 1-dimensional source sent to 0 in a 3-dimensional target
    assert rank(images) != len(images)


def test_is_injective_3x2():
    # oracle: brute-force rank of [[1,0],[0,1],[1,1]] is 2 = cols; its
    # columns are the images 0b101 and 0b110
    images = transpose(pack([[1, 0], [0, 1], [1, 1]]), 2)
    assert images == (0b101, 0b110)
    assert rank(images) == len(images) == brute_rank([[1, 0], [0, 1], [1, 1]])


def _random_matrix(rng: random.Random, rows: int, cols: int) -> list[list[int]]:
    return [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]


def test_rank_matches_bruteforce():
    rng = random.Random(11)
    for _ in range(60):
        rows = rng.randint(0, 5)
        cols = rng.randint(1, 5)
        data = _random_matrix(rng, rows, cols)
        assert rank(pack(data)) == brute_rank(data) if rows else rank(pack(data)) == 0


def test_rank_equals_transpose_rank():
    rng = random.Random(23)
    for _ in range(80):
        cols = rng.randint(1, 7)
        m = pack(_random_matrix(rng, rng.randint(1, 7), cols))
        assert rank(m) == rank(transpose(m, cols))


def test_rank_invariant_under_row_ops():
    rng = random.Random(37)
    for _ in range(60):
        rows = rng.randint(2, 6)
        cols = rng.randint(1, 6)
        data = _random_matrix(rng, rows, cols)
        r = rank(pack(data))
        # random sequence of swaps and additions
        work = [row[:] for row in data]
        for _ in range(6):
            i, j = rng.randrange(rows), rng.randrange(rows)
            if i == j:
                continue
            if rng.random() < 0.5:
                work[i], work[j] = work[j], work[i]
            else:
                work[i] = [a ^ b for a, b in zip(work[i], work[j])]
        assert rank(pack(work)) == r


def test_in_span_iff_rank_unchanged():
    rng = random.Random(41)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        data = _random_matrix(rng, rows, cols)
        v = [rng.randint(0, 1) for _ in range(cols)]
        basis = pack(data)
        appended = pack(data + [v])
        expected = rank(basis) == rank(appended)
        assert (XorBasis(basis).reduce(appended[-1]) == 0) == expected
        assert brute_in_span(v, data) == expected


def test_xorbasis_span_is_order_independent():
    rng = random.Random(53)
    vecs = [rng.getrandbits(10) for _ in range(8)]
    b1 = XorBasis(vecs)
    b2 = XorBasis(reversed(vecs))
    probe = [rng.getrandbits(10) for _ in range(30)]
    assert [b1.reduce(v) == 0 for v in probe] == [b2.reduce(v) == 0 for v in probe]
    assert len(b1) == len(b2)
