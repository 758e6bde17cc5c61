"""The one F_p elimination kernel: ranks of a stack of matrices in one sweep,
checked against a plain Gaussian elimination written out here."""

import tracemalloc
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfrob.linalg import (
    _REDUCE_SLAB,
    _reduce_mod_p,
    _residue_dtype,
    is_prime,
    rank_mod_p,
    ranks_mod_p,
)

# The largest p whose products (p-1)^2 still fit in int64.
P_MAX = next(
    p for p in range(isqrt(2**63 - 1) + 1, 0, -1)
    if (p - 1) ** 2 <= 2**63 - 1 and is_prime(p)
)
# The primes on each side of every residue dtype boundary: the last p whose
# (p-1)^2 fits int8, int16 and int32, and the next prime.
BOUNDARIES = ((11, 13, np.int8), (181, 191, np.int16), (46337, 46349, np.int32))
PRIMES = (2, 3, 5, 11, 13, 181, 191, 32749, 46337, 46349, P_MAX)


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

    Entries are small, any int64, multiples of p, or -1 mod p, so that
    sparse and rank-deficient stacks are common and the elimination forms
    products of (p-1)^2 and -(p-1)^2, the extremes of its residue dtype.
    """
    p = draw(st.sampled_from(PRIMES))
    shape = tuple(draw(st.integers(0, top)) for top in (4, 6, 6))
    entry = st.one_of(
        st.integers(-2, 2),
        st.integers(-(2**63), 2**63 - 1),
        st.integers(-3, 3).map(lambda k: k * p),
        st.sampled_from((p - 1, 2 * p - 1, -1)),
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


@pytest.mark.parametrize("below, above, dtype", BOUNDARIES)
def test_the_residue_dtype_is_the_narrowest_that_holds_the_products(below, above, dtype):
    assert is_prime(below) and is_prime(above)
    assert not any(is_prime(p) for p in range(below + 1, above))
    assert _residue_dtype(below) == dtype
    assert (below - 1) ** 2 <= np.iinfo(dtype).max < (above - 1) ** 2
    assert np.iinfo(_residue_dtype(above)).bits == 2 * np.iinfo(dtype).bits
    assert _residue_dtype(P_MAX) == np.int64


@pytest.mark.parametrize("p", PRIMES)
def test_products_at_the_extremes_of_the_dtype(p):
    # the first sweep forms (p-1)^2 and -(p-1)^2; a wrapped value would make
    # the third row independent of the reduced second and give rank 3
    mat = [[p - 1, p - 1, 0], [p - 1, 0, 1], [0, 1, 1]]
    assert plain_rank(mat, p) == 2
    assert rank_mod_p(mat, p) == 2
    stack = np.array([mat], dtype=_residue_dtype(p))
    assert ranks_mod_p(stack, p).tolist() == [2] and not stack.any()


def test_a_residue_dtype_stack_is_eliminated_in_place():
    # no copy is made: the elimination zeroes every row it finishes with
    stack = np.array([[[4, 2], [2, 1]], [[1, 0], [0, 3]]], dtype=np.int8)
    assert _residue_dtype(5) == np.int8
    assert ranks_mod_p(stack, 5).tolist() == [1, 2]
    assert not stack.any()
    mat = [[4, 2], [2, 1]]
    assert rank_mod_p(np.array(mat), 5) == 1 and rank_mod_p(mat, 5) == 1
    assert mat == [[4, 2], [2, 1]]
    same = np.array(mat, dtype=np.int8)
    assert rank_mod_p(same, 5) == 1 and same.tolist() == mat


def test_an_int64_stack_is_copied_not_changed():
    # int64 is the residue dtype only above p = 46337
    stack = np.array([[[4, 7], [2, 6]], [[1, 5], [0, -3]]], dtype=np.int64)
    assert ranks_mod_p(stack, 5).tolist() == [1, 2]
    assert stack.tolist() == [[[4, 7], [2, 6]], [[1, 5], [0, -3]]]
    assert ranks_mod_p(stack, 46349).tolist() == [2, 2]
    assert not stack.any()


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


def _dtype_values(dtype):
    """Every value of an 8- or 16-bit dtype; for wider ones, the 64 values at
    each end of its range and 2,000 drawn between them."""
    info = np.iinfo(dtype)
    if info.bits <= 16:
        return np.arange(info.min, info.max + 1, dtype=dtype)
    rng = np.random.default_rng(info.bits)
    drawn = rng.integers(info.min, info.max, size=2000, dtype=dtype, endpoint=True)
    ends = np.arange(64, dtype=dtype)
    return np.concatenate((info.min + ends, info.max - ends, drawn))


@pytest.mark.parametrize(
    "dtype, p",
    [(np.int8, p) for p in (2, 3, 5, 7, 11)]
    + [(np.int16, 13), (np.int16, 181), (np.int32, 191), (np.int32, 46337)]
    + [(np.int64, 46349), (np.int64, P_MAX)],
)
def test_floor_division_reduction_is_python_mod(dtype, p):
    # each p's residue dtype: near its ends (x // p) * p wraps around, and
    # the residue must come out right all the same
    assert _residue_dtype(p) == dtype
    values = _dtype_values(dtype)
    want = [x % p for x in values.tolist()]
    inplace = values.copy()
    assert _reduce_mod_p(inplace, p, out=inplace) is inplace
    assert inplace.tolist() == want
    assert _reduce_mod_p(values, p, out=np.empty_like(values)).tolist() == want
    # through the kernel, each value a 1 x 1 matrix, of rank 1 unless p | it:
    # the entry pass in place on a stack of the residue dtype, and the copy
    # path on a read-only one, which is left as it was
    ranks = [int(x != 0) for x in want]
    stack = values.reshape(-1, 1, 1).copy()
    assert ranks_mod_p(stack, p).tolist() == ranks and not stack.any()
    stack = values.reshape(-1, 1, 1).copy()
    stack.flags.writeable = False
    assert ranks_mod_p(stack, p).tolist() == ranks
    assert np.array_equal(stack.ravel(), values)


def test_a_large_array_is_reduced_in_slabs():
    # a slab boundary falls inside the array, and the last slab is short
    values = np.random.default_rng(7).integers(
        -(2**62), 2**62, size=3 * _REDUCE_SLAB + 5, dtype=np.int64
    )
    want = [x % 46349 for x in values.tolist()]
    inplace = values.copy()
    assert _reduce_mod_p(inplace, 46349, out=inplace).tolist() == want
    assert _reduce_mod_p(values, 46349, out=np.empty_like(values)).tolist() == want


def test_the_in_place_entry_pass_makes_no_second_stack():
    # an int64 stack at p = 46349 of 64 slabs, all of it multiples of p, so
    # the sweep finds no pivot: the peak is the entry pass's alone
    stack = np.full((4, 512, 512), 3 * 46349, dtype=np.int64)
    tracemalloc.start()
    try:
        assert ranks_mod_p(stack, 46349).tolist() == [0] * 4
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not stack.any() and peak < stack.nbytes // 8
