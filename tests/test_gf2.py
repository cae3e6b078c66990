"""GF(2) core: rank, span membership, injectivity."""

from __future__ import annotations

import random

import pytest

from lscat.gf2 import BitMatrix, XorBasis, is_injective, rank

from oracles import brute_in_span, brute_rank


def identity(n: int) -> BitMatrix:
    return BitMatrix(n, n, tuple(1 << i for i in range(n)))


def zeros(rows: int, cols: int) -> BitMatrix:
    return BitMatrix(rows, cols, (0,) * rows)


def transpose(m: BitMatrix) -> BitMatrix:
    return BitMatrix(
        m.cols,
        m.rows,
        tuple(
            sum(((r >> j) & 1) << i for i, r in enumerate(m.row_bits)) for j in range(m.cols)
        ),
    )


def test_rank_identity():
    assert rank(identity(3)) == 3


def test_rank_zero_matrix():
    assert rank(zeros(2, 2)) == 0


def test_rank_equal_rows():
    assert rank(BitMatrix.from_rows([[1, 1], [1, 1]])) == 1


def test_rank_bounds():
    m = BitMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
    assert 0 <= rank(m) <= min(m.rows, m.cols)


# span membership is XorBasis.contains on bitmasks (bit i = coordinate i)


def test_in_span_zero_vector():
    assert XorBasis([0b01, 0b10]).contains(0)


def test_in_span_miss():
    assert not XorBasis([0b10]).contains(0b01)


def test_in_span_sum_of_rows():
    assert XorBasis([0b01, 0b10]).contains(0b11)


def test_in_span_length_mismatch():
    # a vector wider than the matrix it should lie in is rejected
    with pytest.raises(ValueError):
        BitMatrix.from_rows([[1, 0], [1, 0, 0]])
    with pytest.raises(ValueError):
        BitMatrix(1, 2, (0b100,))


def test_is_injective_identity():
    assert is_injective(identity(4))


def test_is_injective_zero_map():
    assert not is_injective(zeros(3, 1))


def test_is_injective_3x2():
    # oracle: brute-force rank of [[1,0],[0,1],[1,1]] is 2 = cols
    assert is_injective(BitMatrix.from_rows([[1, 0], [0, 1], [1, 1]]))


def _random_matrix(rng: random.Random, rows: int, cols: int) -> list[list[int]]:
    return [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]


def test_rank_matches_bruteforce():
    rng = random.Random(11)
    for _ in range(60):
        rows = rng.randint(0, 5)
        cols = rng.randint(1, 5)
        data = _random_matrix(rng, rows, cols)
        m = BitMatrix.from_rows(data, cols=cols)
        assert rank(m) == brute_rank(data) if rows else rank(m) == 0


def test_rank_equals_transpose_rank():
    rng = random.Random(23)
    for _ in range(80):
        m = BitMatrix.from_rows(
            _random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        )
        assert rank(m) == rank(transpose(m))


def test_rank_invariant_under_row_ops():
    rng = random.Random(37)
    for _ in range(60):
        rows = rng.randint(2, 6)
        cols = rng.randint(1, 6)
        data = _random_matrix(rng, rows, cols)
        r = rank(BitMatrix.from_rows(data, cols=cols))
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
        assert rank(BitMatrix.from_rows(work, cols=cols)) == r


def test_in_span_iff_rank_unchanged():
    rng = random.Random(41)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        data = _random_matrix(rng, rows, cols)
        v = [rng.randint(0, 1) for _ in range(cols)]
        basis = BitMatrix.from_rows(data, cols=cols)
        appended = BitMatrix.from_rows(data + [v], cols=cols)
        expected = rank(basis) == rank(appended)
        assert XorBasis(basis.row_bits).contains(appended.row_bits[-1]) == expected
        assert brute_in_span(v, data) == expected


def test_xorbasis_span_is_order_independent():
    rng = random.Random(53)
    vecs = [rng.getrandbits(10) for _ in range(8)]
    b1 = XorBasis(vecs)
    b2 = XorBasis(reversed(vecs))
    probe = [rng.getrandbits(10) for _ in range(30)]
    assert [b1.contains(v) for v in probe] == [b2.contains(v) for v in probe]
    assert len(b1) == len(b2)
