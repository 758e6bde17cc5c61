"""Exact linear algebra helpers: integer determinants, adjugates and inverses,
and ranks over prime fields.

Everything here is exact; no floating point is ever used.  The library's hot
paths are integer-only: the character box comes from cached adjugates and the
support Betti numbers from :func:`rank_mod_p`.  The two ``Fraction`` kernels,
:func:`solve_rational` and :func:`rank_rational`, are kept as reference
implementations over Q: the tests compare the integer kernels against them,
and the benchmark's tracer still looks both up by name.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


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


def check_prime_field(p: int) -> None:
    """Raise ValueError unless p is a prime small enough for rank_mod_p.

    The elimination forms products of residues, up to (p-1)^2, in int64; a p
    for which that overflows, or that is not prime (Z/p is then no field), is
    refused before any work is done.
    """
    if (p - 1) ** 2 > 2**63 - 1:
        raise ValueError(f"p = {p} is too large for int64 elimination")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")


def rank_mod_p(mat, p: int) -> int:
    """Rank of an integer matrix over F_p (exact elimination, vectorised).

    A p refused by :func:`check_prime_field` raises ValueError.
    """
    check_prime_field(p)
    a = np.array(mat, dtype=np.int64)
    if a.size == 0:
        return 0
    a %= p
    nrows, ncols = a.shape
    r = 0
    for col in range(ncols):
        nz = np.nonzero(a[r:, col])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, col]), p - 2, p)
        a[r] = (a[r] * inv) % p
        rows = np.nonzero(a[r + 1 :, col])[0] + r + 1
        if rows.size:
            a[rows] = (a[rows] - np.outer(a[rows, col], a[r])) % p
        r += 1
        if r == nrows:
            break
    return r


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
