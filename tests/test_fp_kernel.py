"""The one F_p elimination kernel: ranks of matrices stacked as rows with
row offsets, in one sweep, checked against a plain Gaussian elimination
written out here."""

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
def ragged(draw, primes=PRIMES):
    """(p, matrices, rows, offsets): B in 0..4 matrices of one width m in
    0..6, each n in 0..6 rows high, empty ones included, stacked as the
    int64 rows and offsets that ranks_mod_p takes.

    Entries are small, any int64, multiples of p, or -1 mod p, so that
    sparse and rank-deficient matrices are common and the elimination forms
    products of (p-1)^2 and -(p-1)^2, the extremes of its residue dtype.
    """
    p = draw(st.sampled_from(primes))
    width = draw(st.integers(0, 6))
    heights = draw(st.lists(st.integers(0, 6), max_size=4))
    entry = st.one_of(
        st.integers(-2, 2),
        st.integers(-(2**63), 2**63 - 1),
        st.integers(-3, 3).map(lambda k: k * p),
        st.sampled_from((p - 1, 2 * p - 1, -1)),
    )
    flat = draw(st.lists(entry, min_size=sum(heights) * width, max_size=sum(heights) * width))
    rows = np.array(flat, dtype=np.int64).reshape(sum(heights), width)
    offsets = np.cumsum([0] + heights)
    matrices = [rows[lo:hi] for lo, hi in zip(offsets, offsets[1:])]
    return p, matrices, rows, offsets


@settings(max_examples=200, deadline=None)
@given(ragged())
def test_ranks_equal_plain_elimination(drawn):
    p, matrices, rows, offsets = drawn
    expected = [plain_rank(mat.tolist(), p) for mat in matrices]
    assert [rank_mod_p(mat, p) for mat in matrices] == expected
    ranks = ranks_mod_p(rows, offsets, p)
    assert ranks.shape == (len(matrices),) and ranks.tolist() == expected


@settings(max_examples=100, deadline=None)
@given(ragged(), st.data())
def test_zero_padding_leaves_each_rank_unchanged(drawn, data):
    # zero rows anywhere in a matrix, and zero columns anywhere in all of them
    p, matrices, _, _ = drawn
    ncols = matrices[0].shape[1] if matrices else 0
    width = ncols + data.draw(st.integers(0, 3))
    cols = sorted(data.draw(st.permutations(range(width)))[:ncols])
    padded = []
    for mat in matrices:
        height = len(mat) + data.draw(st.integers(0, 3))
        at = sorted(data.draw(st.permutations(range(height)))[: len(mat)])
        block = np.zeros((height, width), dtype=np.int64)
        block[np.array(at, dtype=int)[:, None], np.array(cols, dtype=int)] = mat
        padded.append(block)
    rows = np.concatenate(padded) if padded else np.zeros((0, width), dtype=np.int64)
    offsets = np.cumsum([0] + [len(block) for block in padded])
    assert ranks_mod_p(rows, offsets, p).tolist() == [rank_mod_p(m, p) for m in matrices]


@settings(max_examples=150, deadline=None)
@given(ragged(primes=(11, 13, 181, 191, 46337, 46349)))
def test_the_ragged_kernel_is_rank_mod_p_on_each_matrix(drawn):
    # p on each side of every residue dtype boundary; the rows are given in
    # p's residue dtype, as the callers build them, and come back all zero
    p, matrices, rows, offsets = drawn
    expected = [rank_mod_p(mat, p) for mat in matrices]
    reduced = np.array([[x % p for x in row] for row in rows.tolist()], dtype=np.int64)
    assert ranks_mod_p(rows.copy(), offsets, p).tolist() == expected
    inplace = reduced.reshape(rows.shape).astype(_residue_dtype(p))
    assert ranks_mod_p(inplace, offsets, p).tolist() == expected
    assert not inplace.any()
    # a read-only copy is reduced into a fresh array and left as it was
    frozen = reduced.reshape(rows.shape).astype(_residue_dtype(p))
    frozen.flags.writeable = False
    assert ranks_mod_p(frozen, offsets, p).tolist() == expected
    assert np.array_equal(frozen, reduced.reshape(rows.shape))


@settings(max_examples=100, deadline=None)
@given(ragged(), st.data())
def test_bad_offsets_are_refused(drawn, data):
    p, _, rows, offsets = drawn
    offsets = offsets.tolist()
    bad = data.draw(st.sampled_from(("fall", "end", "start", "empty")))
    if bad == "fall":
        # a dip of one after some offset
        k = data.draw(st.integers(0, len(offsets) - 1))
        offsets = offsets[: k + 1] + [offsets[k] - 1] + offsets[k + 1 :]
    elif bad == "end":
        offsets[-1] += data.draw(st.sampled_from((-1, 1, 7)))
    elif bad == "start":
        offsets = [data.draw(st.sampled_from((-1, 1)))] + offsets
    else:
        offsets = []
    with pytest.raises(ValueError, match="offsets"):
        ranks_mod_p(rows, offsets, p)


@pytest.mark.parametrize(
    "offsets",
    [[0, 2, 1, 3], [0, 2], [0, 3, 4], [1, 3], [], 3, [[0, 3]], [0.0, 3.0], [False, True],
     np.array([0, 2, 1, 3], dtype=np.uint64), np.array([0, 2**64 - 1, 3], dtype=np.uint64)],
)
def test_offsets_must_rise_from_zero_to_the_row_count(offsets):
    rows = np.ones((3, 2), dtype=np.int64)
    with pytest.raises(ValueError, match="offsets"):
        ranks_mod_p(rows, offsets, 3)
    assert rows.tolist() == [[1, 1]] * 3
    assert ranks_mod_p(rows, [0, 1, 1, 3], 3).tolist() == [1, 0, 1]


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
    rows = np.array(mat, dtype=_residue_dtype(p))
    assert ranks_mod_p(rows, [0, 3], p).tolist() == [2] and not rows.any()


def test_a_residue_dtype_stack_is_eliminated_in_place():
    # no copy is made: the elimination zeroes every row it finishes with
    rows = np.array([[4, 2], [2, 1], [1, 0], [0, 3]], dtype=np.int8)
    assert _residue_dtype(5) == np.int8
    assert ranks_mod_p(rows, [0, 2, 4], 5).tolist() == [1, 2]
    assert not rows.any()
    mat = [[4, 2], [2, 1]]
    assert rank_mod_p(np.array(mat), 5) == 1 and rank_mod_p(mat, 5) == 1
    assert mat == [[4, 2], [2, 1]]
    same = np.array(mat, dtype=np.int8)
    assert rank_mod_p(same, 5) == 1 and same.tolist() == mat


def test_an_int64_stack_is_copied_not_changed():
    # int64 is the residue dtype only above p = 46337
    rows = np.array([[4, 7], [2, 6], [1, 5], [0, -3]], dtype=np.int64)
    assert ranks_mod_p(rows, [0, 2, 4], 5).tolist() == [1, 2]
    assert rows.tolist() == [[4, 7], [2, 6], [1, 5], [0, -3]]
    assert ranks_mod_p(rows, [0, 2, 4], 46349).tolist() == [2, 2]
    assert not rows.any()


def test_a_non_contiguous_int64_view_is_copied_not_changed():
    base = np.array([[4, 2, 1, 0], [7, 6, 5, 3]], dtype=np.int64)
    view = base.T
    assert not view.flags.c_contiguous
    assert ranks_mod_p(view, [0, 2, 4], 5).tolist() == [1, 2]
    assert base.tolist() == [[4, 2, 1, 0], [7, 6, 5, 3]]


def test_a_read_only_int64_stack_is_copied_not_refused():
    rows = np.array([[4, 7], [2, 6], [1, 5], [0, 3]], dtype=np.int64)
    rows.flags.writeable = False
    assert ranks_mod_p(rows, [0, 2, 4], 5).tolist() == [1, 2]
    assert rows.tolist() == [[4, 7], [2, 6], [1, 5], [0, 3]]


@pytest.mark.parametrize("p", [1, 4, 9, 91, P_MAX + 1, 2**61 - 1, 2**64])
def test_refusals_match_rank_mod_p(p):
    # composite and oversized p are refused before any work, on every call
    with pytest.raises(ValueError) as single:
        rank_mod_p([[2, 1], [1, 3]], p)
    for rows, offsets in ((np.ones((4, 2), dtype=np.int64), [0, 2, 4]), (np.zeros((0, 3)), [0])):
        with pytest.raises(ValueError) as batch:
            ranks_mod_p(rows, offsets, p)
        assert str(batch.value) == str(single.value)


def test_rows_must_be_two_dimensional():
    # a 3-D stack, one row, and a scalar are each refused
    for shape in ((2, 2, 2), (4,), ()):
        with pytest.raises(ValueError, match="2-D"):
            ranks_mod_p(np.ones(shape, dtype=np.int64), [0, 2], 3)


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
    offsets = np.arange(len(values) + 1)
    rows = values.reshape(-1, 1).copy()
    assert ranks_mod_p(rows, offsets, p).tolist() == ranks and not rows.any()
    rows = values.reshape(-1, 1).copy()
    rows.flags.writeable = False
    assert ranks_mod_p(rows, offsets, p).tolist() == ranks
    assert np.array_equal(rows.ravel(), values)


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
    # int64 rows at p = 46349 of 64 slabs, all of them multiples of p, so
    # the sweep finds no pivot: the peak is the entry pass's alone
    rows = np.full((2048, 512), 3 * 46349, dtype=np.int64)
    tracemalloc.start()
    try:
        assert ranks_mod_p(rows, [0, 512, 1024, 1536, 2048], 46349).tolist() == [0] * 4
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not rows.any() and peak < rows.nbytes // 8


@pytest.mark.parametrize(
    "entries", [[[3.7]], [[3.0, 1.0]], [[True, False]], np.array([[1]], dtype=object)]
)
def test_entries_of_a_non_integer_dtype_are_refused(entries):
    # a float would be truncated (3.7 read as 3, rank 0 mod 3), a bool read as 0 or 1
    with pytest.raises(ValueError, match="integer dtype"):
        rank_mod_p(entries, 3)
    with pytest.raises(ValueError, match="integer dtype"):
        ranks_mod_p(np.asarray(entries), [0, 1], 3)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64])
@pytest.mark.parametrize("p", [3, 13, 191, 46349])
def test_unsigned_entries_are_reduced_exactly(dtype, p):
    # the top of each unsigned dtype, never wrapped to a negative value:
    # 2^64 - 1 is 0 mod 3, where the int64 -1 it would wrap to is 2
    top = int(np.iinfo(dtype).max)
    values = np.array([x for x in (top, top - 1, top - p, p, 0, 1) if 0 <= x <= top], dtype=dtype)
    want = [int(x % p != 0) for x in values.tolist()]
    assert [rank_mod_p(np.array([[x]], dtype=dtype), p) for x in values] == want
    rows = values.reshape(-1, 1)
    assert ranks_mod_p(rows, np.arange(len(values) + 1), p).tolist() == want
    assert rows.ravel().tolist() == values.tolist()
