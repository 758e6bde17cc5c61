"""Exact linear algebra helpers: integer determinants, adjugates and inverses,
ranks over prime fields, and the grouping of equal integer rows.

Everything here is exact; no floating point is ever used.  The library's hot
paths are integer-only: the character box comes from cached adjugates, and
every rank over F_p from the one elimination kernel :func:`ranks_mod_p`,
which sweeps a whole stack of matrices at once: the boundary maps of one
support, the width-sorted weight blocks of one Cech map, or the three jet
blocks.  :func:`rank_mod_p` (a stack of one) and the ``Fraction`` kernels
:func:`solve_rational` and :func:`rank_rational` have no library caller: the
tests compare the integer kernels against them, and the benchmark's tracer
looks all three up by name.  Equal integer rows are grouped by one helper,
:func:`group_rows`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

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


@cache
def check_prime_field(p: int) -> None:
    """Raise ValueError unless p is a prime small enough for rank_mod_p.

    The elimination forms products of residues, up to (p-1)^2, in int64; a p
    for which that overflows, or that is not prime (Z/p is then no field), is
    refused before any work is done.  A p that passes is remembered, so each
    prime is proved once; a refusal raises, is not cached, and recurs on
    every call.
    """
    if (p - 1) ** 2 > 2**63 - 1:
        raise ValueError(f"p = {p} is too large for int64 elimination")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")


def ranks_mod_p(stack, p: int) -> np.ndarray:
    """Ranks over F_p of a stack of B integer n x m matrices, as B int64s.

    This is the library's one F_p elimination kernel.  It sweeps the columns
    once for the whole stack.  On each column one ``nonzero`` lists, in row
    order, the rows of every matrix with a nonzero entry there; each
    matrix's first such row is its pivot.  Those rows, and only those, are
    updated at once and fraction-free: row <- pivot * row - entry * pivot
    row, with the pivot a unit mod p, so no inverse is formed and no row is
    swapped.  The update clears the column and turns the pivot row itself to
    zero, which retires it; a matrix's rank is the number of its pivots.
    Rows with a zero in the column are never touched, which keeps the kernel
    fast on sparse blocks.  Every product is at most (p-1)^2, which
    :func:`check_prime_field` keeps in int64.

    A C-contiguous, writeable (B, n, m) int64 array is reduced mod p and
    eliminated in place, and comes back all zero; it is never copied.  Any
    other input, a read-only or non-contiguous int64 view included, is
    copied to a fresh array first and left unchanged.  Zero rows and
    columns, such as the padding of a stack of matrices of different shapes,
    leave every rank unchanged.  A p refused by :func:`check_prime_field`
    raises ValueError.
    """
    check_prime_field(p)
    a = np.asarray(stack)
    if not (a.dtype == np.int64 and a.flags.c_contiguous and a.flags.writeable):
        a = np.array(a, dtype=np.int64)
    if a.ndim != 3:
        raise ValueError(f"expected a (B, n, m) stack, got shape {a.shape}")
    count, nrows, ncols = a.shape
    if not a.size:
        return np.zeros(count, dtype=np.int64)
    np.remainder(a, p, out=a)
    rows = a.reshape(count * nrows, ncols)  # row k * nrows + i of the stack
    leads = [np.zeros(0, dtype=np.int64)]
    for col in range(ncols):
        hits = rows[:, col].nonzero()[0]
        if not hits.size:
            continue
        mats = hits // nrows
        lead = np.empty(hits.size, dtype=bool)
        lead[0] = True
        np.not_equal(mats[1:], mats[:-1], out=lead[1:])
        leads.append(mats[lead])
        pivot = rows[hits[lead][np.cumsum(lead) - 1], col:]
        hit = rows[hits, col:]
        entry = hit[:, :1].copy()
        hit *= pivot[:, :1]
        hit -= entry * pivot
        np.remainder(hit, p, out=hit)
        rows[hits, col:] = hit
    return np.bincount(np.concatenate(leads), minlength=count)


def rank_mod_p(mat, p: int) -> int:
    """Rank of one integer matrix over F_p: :func:`ranks_mod_p` on a stack of one.

    The matrix is copied, never changed.  A p refused by
    :func:`check_prime_field` raises ValueError.
    """
    a = np.array(mat, dtype=np.int64, ndmin=2)
    return int(ranks_mod_p(a[None], p)[0])


def group_rows(keys, labels: bool = True):
    """(order, starts, label) of the rows of a 2-D array or of 1-D columns.

    Rows compare from their last column, as in ``np.lexsort``.  ``order`` is
    the stable sort, ``starts`` where each run of equal rows begins in it,
    and ``label[i]`` the run of row i (None unless ``labels``).
    """
    if isinstance(keys, np.ndarray) and keys.ndim == 2:
        order = np.lexsort(keys.T)
        ranked = keys[order]
        fresh = np.empty(len(order), dtype=bool)
        (ranked[1:] != ranked[:-1]).any(axis=1, out=fresh[1:])
    else:
        order = np.lexsort(keys)
        fresh = np.zeros(len(order), dtype=bool)
        for column in keys:
            ranked = column[order]
            fresh[1:] |= ranked[1:] != ranked[:-1]
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
