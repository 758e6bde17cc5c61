"""Exact linear algebra helpers: integer determinants, adjugates and inverses,
ranks over prime fields, and the grouping of equal integer rows.

Everything here is exact; no floating point is ever used.  The library's hot
paths are integer-only: the character box comes from cached adjugates, and
every rank over F_p from the one elimination kernel :func:`ranks_mod_p`,
which sweeps many matrices of one width at once, stacked as 2-D rows with
row offsets, so no matrix is padded to the height of another: the boundary
maps of one support, the width-sorted weight blocks of one Cech map, or the
three jet blocks.  It eliminates in the residue dtype of p, the narrowest
signed integer dtype that holds (p-1)^2 (:func:`_residue_dtype`: int8 for
p <= 11, int16 for p <= 181, int32 for p <= 46337, int64 above); its
callers build their rows in that dtype, and such rows are eliminated in
place, any other integer input on a copy.  It reduces mod p by floor division,
x - (x // p) * p, not by ``np.remainder``: with numpy 2.4 the whole
reduction is over 30x faster on int8 arrays, and it is exact even where
(x // p) * p wraps around the dtype, because the true residue lies in
[0, p), which the dtype holds.  :func:`rank_mod_p` (one matrix)
and the ``Fraction`` kernels :func:`solve_rational` and
:func:`rank_rational` have no library caller: the tests compare the
integer kernels against them, and the benchmark's tracer looks all three
up by name.  Equal rows of a 2-D integer array are grouped by one helper,
:func:`group_rows`: the residue and character line counts, the Ext pair
table and the Cech block labels all call it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache

import numpy as np

# Bound on every int64 intermediate the integer kernels form, with a factor
# of two to spare below 2^63.
_INT64_GUARD = 2**62


def det_int(rows) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    a = [list(map(int, r)) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def adjugate_int(rows):
    """Determinant and adjugate of a square integer matrix, as (det, adj).

    ``adj`` is a list of integer rows with M . adj = adj . M = det . I; entry
    (i, j) is the cofactor (-1)^(i+j) det(M without row j and column i).  A
    singular M has det 0 and a well-defined adjugate all the same.
    """
    a = [list(map(int, r)) for r in rows]
    n = len(a)
    adj = [
        [
            (-1) ** (i + j)
            * det_int([r[:i] + r[i + 1 :] for k, r in enumerate(a) if k != j])
            for j in range(n)
        ]
        for i in range(n)
    ]
    return det_int(a), adj


def solve_rational(rows, rhs):
    """Solve M x = rhs exactly over Q by Cramer's rule.

    Returns a list of Fractions, or None when M is singular.
    """
    d = det_int(rows)
    if d == 0:
        return None
    n = len(rows)
    sol = []
    for j in range(n):
        cols = [[rows[i][k] if k != j else rhs[i] for k in range(n)] for i in range(n)]
        sol.append(Fraction(det_int(cols), d))
    return sol


def inverse_unimodular(rows):
    """Exact integer inverse of an integer matrix with determinant +-1.

    The inverse is adj / det, which is det . adj when det = +-1.
    """
    d, adj = adjugate_int(rows)
    if d not in (1, -1):
        raise ValueError(f"matrix is not unimodular (det {d})")
    return [[d * x for x in row] for row in adj]


def rank_rational(rows) -> int:
    """Rank of an integer matrix over Q (exact Gaussian elimination)."""
    mat = [list(map(Fraction, r)) for r in rows]
    if not mat or not mat[0]:
        return 0
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(nrows):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


@lru_cache(maxsize=None, typed=True)
def check_prime_field(p: int) -> None:
    """Raise ValueError unless p is a prime small enough for rank_mod_p.

    p is read by ``fan._integer``, so a bool, a float or anything else that
    is not an integer is refused; the cache is typed, so 3.0 or True never
    finds the verdict of 3 or 1.  The elimination forms products of
    residues, up to (p-1)^2, in the residue dtype of p, at widest int64; a p
    for which int64 overflows, or that is not prime (Z/p is then no field),
    is refused before any work is done.  A p that passes is remembered, so
    each prime is proved once; a refusal raises, is not cached, and recurs
    on every call.
    """
    from .fan import _integer  # fan imports this module

    p = _integer(p, "p")
    if (p - 1) ** 2 > 2**63 - 1:
        raise ValueError(f"p = {p} is too large for int64 elimination")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")


@cache
def _residue_dtype(p: int):
    """The narrowest signed numpy dtype that holds (p-1)^2.

    That is int8 for p <= 11, int16 for p <= 181, int32 for p <= 46337 and
    int64 above.  Every value :func:`ranks_mod_p` forms lies in
    [-(p-1)^2, (p-1)^2], so an elimination in this dtype is exact.
    """
    for dtype in (np.int8, np.int16, np.int32):
        if (p - 1) ** 2 <= np.iinfo(dtype).max:
            return dtype
    return np.int64


# Entries that :func:`_reduce_mod_p` reduces at once, so that its temporary
# (x // p) * p is at most 128 KB of int64 however large the array.
_REDUCE_SLAB = 2**14


def _reduce_mod_p(a: np.ndarray, p: int, out: np.ndarray) -> np.ndarray:
    """Write a mod p, in [0, p), into ``out`` (which may be ``a``) and return it.

    It is a - (a // p) p.  The floor division is exact, and where (a // p) p
    falls below the dtype's range the product and the difference wrap
    around, which changes neither modulo 2^bits; the difference is the true
    residue modulo 2^bits, and as that lies in [0, p), inside the dtype, it
    is the true residue.  On 100,000 int8 entries this takes 29 us, and
    ``np.remainder`` 1,050 us (numpy 2.4.6, 2-core Xeon).  An array of more
    than _REDUCE_SLAB entries is reduced in slabs of that many, so an
    in-place pass over all of the kernel's rows makes no second copy of
    them; ``out`` must then be C-contiguous.
    """
    if a.size <= _REDUCE_SLAB:
        multiple = a // p
        multiple *= p
        return np.subtract(a, multiple, out=out)
    src, dst = a.reshape(-1), np.reshape(out, -1, copy=False)
    for start in range(0, a.size, _REDUCE_SLAB):
        stop = start + _REDUCE_SLAB
        _reduce_mod_p(src[start:stop], p, out=dst[start:stop])
    return out


def _integer_array(x, what: str) -> np.ndarray:
    """x as an array, which must have a signed or unsigned integer dtype.

    A float, bool or object array raises ValueError: its entries would be
    truncated, or read as 0 and 1, by the cast to the residue dtype.
    """
    a = np.asarray(x)
    if a.dtype.kind not in "iu":
        raise ValueError(f"{what} must have an integer dtype, not {a.dtype}")
    return a


def ranks_mod_p(rows, offsets, p: int) -> np.ndarray:
    """Ranks over F_p of the matrices stacked in ``rows``, one int64 each.

    ``rows`` is a 2-D (R, m) integer array and ``offsets`` a nondecreasing
    sequence of integers from 0 to R: matrix k is rows offsets[k] to
    offsets[k + 1], so the matrices share their width m but each has its
    own height, and no matrix is padded to another's.  This is the
    library's one F_p elimination kernel.  It sweeps the columns once for
    all the matrices.  On each column one ``nonzero`` lists, in row order,
    the rows with a nonzero entry there; their owners, read from one
    ``np.repeat`` of the offsets made once per call, are sorted, and one
    ``searchsorted`` of them finds each matrix's first such row, its pivot.
    Those rows, and only those, are gathered whole with ``take``, updated
    at once and fraction-free, row <- pivot * row - entry * pivot row, with
    the pivot a unit mod p, and written back whole, each row as one item of
    a void view (4x faster than ``rows[hits] = hit`` on 98 rows of 52 int8
    entries); no inverse is formed and no row is swapped.  The update
    clears the column and turns the pivot row itself to zero, which retires
    it; a matrix's rank is the number of its pivots.  Rows with a zero in
    the column are never touched, which keeps the kernel fast on sparse
    blocks.

    The elimination runs in the residue dtype of p, the narrowest signed
    dtype that holds (p-1)^2: int8 for p <= 11, int16 for p <= 181, int32
    for p <= 46337, int64 above.  Every product is at most (p-1)^2, so no
    value leaves it; :func:`check_prime_field` keeps (p-1)^2 in int64.
    The entries, and each update, are reduced mod p by floor division,
    x - (x // p) p (:func:`_reduce_mod_p`), which numpy does many times
    faster than ``np.remainder``.  It is exact in the dtype's wrap-around
    arithmetic: an entry near the end of the dtype may make (x // p) p
    wrap, but the difference is the residue modulo 2^bits, and the residue
    lies in [0, p), which the dtype holds.

    A C-contiguous, writeable ``rows`` of the residue dtype is reduced mod p
    and eliminated in place, and comes back all zero; it is never copied,
    and as the entries are reduced in slabs, no temporary its size is made.
    Any other integer input, a read-only or non-contiguous view included,
    is reduced mod p into a fresh array of the residue dtype and left
    unchanged; unsigned entries are reduced in uint64, so none wraps to a
    negative value first.  Zero columns, such as the padding of matrices of
    different widths, leave every rank unchanged.  Entries or offsets of a
    dtype that is not an integer dtype (float, bool, object), a ``rows``
    that is not 2-D, offsets that fall or do not run from 0 to R, and a p
    refused by :func:`check_prime_field` raise ValueError.
    """
    check_prime_field(p)
    dtype = _residue_dtype(p)
    a = _integer_array(rows, "entries")
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D (R, m) array of rows, got shape {a.shape}")
    # in int64, where a fall shows as a negative height, even from unsigned offsets
    bounds = _integer_array(offsets, "offsets").astype(np.int64)
    ok = bounds.ndim == 1 and len(bounds) and bounds[0] == 0 and bounds[-1] == len(a)
    heights = np.diff(bounds) if ok else None
    if not ok or (heights < 0).any():
        raise ValueError(f"offsets must rise from 0 to {len(a)}, got {bounds.tolist()}")
    if a.dtype == dtype and a.flags.c_contiguous and a.flags.writeable:
        _reduce_mod_p(a, p, out=a)
    elif a.dtype.kind == "u":
        a = (a.astype(np.uint64) % np.uint64(p)).astype(dtype)
    else:
        a = np.array(a, dtype=np.int64, order="C")
        a = _reduce_mod_p(a, p, out=a).astype(dtype)
    rank = np.zeros(len(heights), dtype=np.int64)
    if not a.size:
        return rank
    owner = np.repeat(np.arange(len(heights)), heights)  # the matrix of each row
    # each row as one item, so that a write-back copies whole rows at once
    whole = a.view(np.dtype((np.void, a.shape[1] * a.itemsize))).reshape(-1)
    for col in range(a.shape[1]):
        hits = a[:, col].nonzero()[0]
        if not hits.size:
            continue
        mats = owner[hits]
        rank[mats] += 1  # one pivot per matrix met; repeated indices add once
        hit = a.take(hits, axis=0)
        # a matrix's pivot is its first hit: the first place of its id in mats
        pivot = hit.take(mats.searchsorted(mats), axis=0)
        update = pivot * hit[:, col, None]  # entry * pivot row
        hit *= pivot[:, col, None]
        hit -= update
        # hit mod p as in _reduce_mod_p, with the update's buffer for (hit // p) p
        np.floor_divide(hit, p, out=update)
        update *= p
        hit -= update
        whole[hits] = hit.view(whole.dtype).reshape(-1)
    return rank


def rank_mod_p(mat, p: int) -> int:
    """Rank of one integer matrix over F_p: :func:`ranks_mod_p` on one matrix.

    The matrix is copied, never changed.  A p refused by
    :func:`check_prime_field`, or entries that are not of an integer dtype,
    raise ValueError.
    """
    a = np.array(mat, ndmin=2, order="C")
    return int(ranks_mod_p(a, [0, len(a)], p)[0])


def group_rows(keys: np.ndarray, labels: bool = True):
    """(order, starts, label) of the rows of a 2-D integer array.

    Rows compare from their last column, as in ``np.lexsort``.  ``order`` is
    the stable sort, ``starts`` where each run of equal rows begins in it,
    and ``label[i]`` the run of row i (None unless ``labels``).
    """
    order = np.lexsort(keys.T)
    ranked = keys[order]
    fresh = np.empty(len(order), dtype=bool)
    (ranked[1:] != ranked[:-1]).any(axis=1, out=fresh[1:])
    fresh[:1] = True
    label = np.empty(len(order), dtype=np.int64) if labels else None
    if labels:
        label[order] = fresh.cumsum() - 1
    return order, fresh.nonzero()[0], label


# The first twelve primes: the least composite that is a strong pseudoprime to
# all of them is 318665857834031151167461 > 2^64 (Sorenson and Webster,
# Math. Comp. 86, 2017), so the test below is exact on the 64-bit range.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for 0 <= n < 2^64.

    A larger n raises ValueError rather than get an unproved answer.
    """
    if n >= 2**64:
        raise ValueError(f"{n} is beyond the exact primality range (< 2^64)")
    if n < 2:
        return False
    for b in _MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
