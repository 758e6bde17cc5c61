"""The one F_p elimination kernel: ranks of a stack of matrices in one sweep,
checked against a plain Gaussian elimination written out here."""

from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfrob.linalg import is_prime, rank_mod_p, ranks_mod_p

# The largest p whose products (p-1)^2 still fit in int64.
P_MAX = next(
    p for p in range(isqrt(2**63 - 1) + 1, 0, -1)
    if (p - 1) ** 2 <= 2**63 - 1 and is_prime(p)
)
PRIMES = (2, 3, 5, 32749, P_MAX)


def plain_rank(rows, p):
    """Rank over F_p by row reduction on Python integers."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * inv % p
            rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@st.composite
def stacks(draw):
    """(p, stack) with B in 0..4 and n, m in 0..6, empty sides included.

    Entries are small, any int64, or multiples of p, so that sparse and
    rank-deficient stacks are common.
    """
    p = draw(st.sampled_from(PRIMES))
    shape = tuple(draw(st.integers(0, top)) for top in (4, 6, 6))
    entry = st.one_of(
        st.integers(-2, 2),
        st.integers(-(2**63), 2**63 - 1),
        st.integers(-3, 3).map(lambda k: k * p),
    )
    size = int(np.prod(shape))
    flat = draw(st.lists(entry, min_size=size, max_size=size))
    return p, np.array(flat, dtype=np.int64).reshape(shape)


@settings(max_examples=200, deadline=None)
@given(stacks())
def test_ranks_equal_plain_elimination(drawn):
    p, stack = drawn
    expected = [plain_rank(mat.tolist(), p) for mat in stack]
    assert [rank_mod_p(mat, p) for mat in stack] == expected
    ranks = ranks_mod_p(stack, p)
    assert ranks.shape == (len(stack),) and ranks.tolist() == expected


@settings(max_examples=100, deadline=None)
@given(stacks(), st.data())
def test_zero_padding_leaves_each_rank_unchanged(drawn, data):
    p, stack = drawn
    count, nrows, ncols = stack.shape
    height = nrows + data.draw(st.integers(0, 3))
    width = ncols + data.draw(st.integers(0, 3))
    rows = sorted(data.draw(st.permutations(range(height)))[:nrows])
    cols = sorted(data.draw(st.permutations(range(width)))[:ncols])
    padded = np.zeros((count, height, width), dtype=np.int64)
    padded[:, np.array(rows, dtype=int)[:, None], np.array(cols, dtype=int)] = stack
    assert ranks_mod_p(padded, p).tolist() == [rank_mod_p(m, p) for m in stack]


def test_an_int64_stack_is_eliminated_in_place():
    # no copy is made: the elimination zeroes every row it finishes with
    stack = np.array([[[4, 2], [2, 1]], [[1, 0], [0, 3]]], dtype=np.int64)
    assert ranks_mod_p(stack, 5).tolist() == [1, 2]
    assert not stack.any()
    mat = [[4, 2], [2, 1]]
    assert rank_mod_p(np.array(mat), 5) == 1 and rank_mod_p(mat, 5) == 1
    assert mat == [[4, 2], [2, 1]]


def test_a_non_contiguous_int64_view_is_copied_not_changed():
    base = np.array([[[4, 7], [2, 6]], [[1, 5], [0, 3]]], dtype=np.int64)
    view = base.transpose(0, 2, 1)
    assert not view.flags.c_contiguous
    assert ranks_mod_p(view, 5).tolist() == [1, 2]
    assert base.tolist() == [[[4, 7], [2, 6]], [[1, 5], [0, 3]]]


def test_a_read_only_int64_stack_is_copied_not_refused():
    stack = np.array([[[4, 7], [2, 6]], [[1, 5], [0, 3]]], dtype=np.int64)
    stack.flags.writeable = False
    assert ranks_mod_p(stack, 5).tolist() == [1, 2]
    assert stack.tolist() == [[[4, 7], [2, 6]], [[1, 5], [0, 3]]]


@pytest.mark.parametrize("p", [1, 4, 9, 91, P_MAX + 1, 2**61 - 1, 2**64])
def test_refusals_match_rank_mod_p(p):
    # composite and oversized p are refused before any work, on every call
    with pytest.raises(ValueError) as single:
        rank_mod_p([[2, 1], [1, 3]], p)
    for stack in (np.ones((2, 2, 2), dtype=np.int64), np.zeros((0, 3, 3))):
        with pytest.raises(ValueError) as batch:
            ranks_mod_p(stack, p)
        assert str(batch.value) == str(single.value)


def test_a_stack_must_be_three_dimensional():
    with pytest.raises(ValueError, match="stack"):
        ranks_mod_p(np.ones((2, 2), dtype=np.int64), 3)
