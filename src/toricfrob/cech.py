"""Exact F_p cohomology of line bundles on products of projective spaces,
and of a line bundle restricted to a hypersurface, with the incidence
threefold in P2 x P2 as the one client.

Cohomology of a multidegree line bundle is concentrated in a single degree:
each factor contributes its monomial basis either in degree 0 (all exponents
nonnegative) or in top degree (all exponents <= -1, the local cohomology
model).  A bundle's basis is the grid of its factors' bases, and a basis
row is named by its grid position, one row index per factor, never by its
exponents.  On the hypersurface X = {f = 0}, h^i(O_X(d)) is read from the
restriction sequence 0 -> O(d - deg f) -> O(d) -> O_X(d) -> 0: its one map,
multiplication by f, acts on the bases by polynomial multiplication
followed by truncation to the target basis, the induced map on the
standard-cover Cech model.  The map is torus-equivariant, so it is block
diagonal over torus weights, and its rank is the sum of the F_p ranks of its
weight blocks; it is never assembled as one dense matrix.  Only the source
basis is walked, through small per-factor exponent tables
(:func:`_factor_parts`).  A product is found in the target basis one factor
at a time: for each factor table, the terms of f and the target factor, one
small read-only table (:func:`_factor_index`) gives, term by term, each
shifted row's position in the target factor's basis (:func:`_factor_rank`),
and the factors combine in the target's mixed radix.  No product row is
formed, and the target basis is only counted.

When every factor is one P^n and f is fixed by S_(n+1) permuting the
coordinates of all factors at once (as S_3 fixes the pairing form on
P2 x P2), that group maps the bases, the Cech cover and the weight blocks to
themselves, so blocks of one orbit have one rank.  The symmetry is proved on
the terms of f before it is used; only one block per orbit
is then eliminated, and its rank counts once per block of the orbit.  The
weights of a source grid are sums of per-factor products, so the orbits are
read off the grid, walked in slabs, and only the source rows of canonical
weight, about one in (n + 1)!, are kept.

A product keeps the torus weight of the monomial it came from, so the
weight blocks are labelled on the source rows alone, and each target row
falls in exactly one block: no product is grouped entry by entry.  The
weights and the symmetry are derived once per distinct form, not once per
twist.  The blocks are sorted by width and cut into a few stacks of bounded
size, built in the residue dtype of p and eliminated in place by
:func:`linalg.ranks_mod_p`.  A stack holds only the target rows that meet
an entry, block after block, with the blocks' row offsets, so no block is
padded to another's height; its columns are right-aligned to the stack's
width, the width of its widest block.  The bound
MAX_CECH_BASIS applies to the source rows a map keeps.  A bundle too
large for any map to keep fewer, counted from binomials, is refused with
Overflow before any monomial is enumerated; any other map is refused as
soon as the rows it keeps pass the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps
from itertools import chain
from math import comb, factorial, gcd, prod

import numpy as np

from .cohomology import CohomologyVector, Overflow
from .fan import InvariantViolation, _integer
from .frobenius import FrobeniusOrder
from .linalg import (
    _INT64_GUARD,
    _residue_dtype,
    adjugate_int,
    check_prime_field,
    det_int,
    group_rows,
    ranks_mod_p,
)

# Most source rows one map keeps in one degree: the rows of canonical weight,
# about one in 6 of the term on P2 x P2.  The incidence twist (50, -52) has
# 1,690,650 monomials in its degree-2 terms and keeps 293,114 of them;
# (99999, 0) would have about 5 * 10^9.
MAX_CECH_BASIS = 1_000_000

# Cells of one weight-block stack, its rows times its width, each one entry
# of the residue dtype of p (one byte at p <= 11, eight only above
# p = 46337).  Blocks sorted by width are cut into stacks of at most this
# many cells; a block larger than the bound is a stack of its own.  The
# bound is counted in cells, not bytes, so the stacks are cut the same way
# at every p.  At benchmark sizes the kernel's cost is one sweep per column
# of a stack, so few, wide stacks are fast: (12, -13), whose 52 blocks (one
# per S3-orbit of the 276) are at most 51 x 52, is one stack of 1,162 rows
# and 52 sweeps.  The bound keeps the column padding of the large twists in
# check: as one stack per map, (30, -32) at p = 3 peaks at 62 MB, not
# 50 MB, and runs 1.7x slower (0.23 s against 0.13 s on a 2-core x86-64
# host); under the bound it is 9 stacks, none above 1.05 * 10^6 cells.
# Bounds of 2^18 and 2^19 ran (40, -42) 2.0x and 1.4x slower than 2^20,
# and 2^21 and 2^22 no faster.
_STACK_CELLS = 2**20

# Grid points of one source bundle whose weights are formed at once, so
# that a large grid is never held whole: 1.5 MB of int64 for the six
# weights of P2 x P2.  The 6,084 points of (12, -13) are one slab.
_GRID_SLAB = 2**15


@dataclass(frozen=True)
class MultiProjSpace:
    """A product of projective spaces P^(n_1) x ... x P^(n_k)."""

    factor_dims: tuple

    def __post_init__(self):
        if not self.factor_dims or any(n < 1 for n in self.factor_dims):
            raise ValueError("factor dimensions must be positive")

    @property
    def dim(self) -> int:
        return sum(self.factor_dims)


def _factor_degree(n: int, d: int):
    """(cohomological degree, exponent total) of O(d) on P^n, or None if acyclic.

    The basis is the C(total + n, n) vectors e >= 0 of sum ``total``, as the
    exponents e in degree 0 and as -1 - e in degree n.
    """
    if d >= 0:
        return 0, d
    if d <= -(n + 1):
        return n, -d - (n + 1)
    return None


def _factor_degrees(space: MultiProjSpace, multidegree):
    """[(degree, total)] of each factor of O(multidegree), or None if acyclic."""
    multidegree = tuple(_integer(d, "multidegree") for d in multidegree)
    if len(multidegree) != len(space.factor_dims):
        raise ValueError("multidegree length does not match the factors")
    out = [_factor_degree(n, d) for n, d in zip(space.factor_dims, multidegree)]
    return None if None in out else out


# Cells of the largest factor table kept for the life of the process
# (512 KB of int64): every P^2 table up to total 207.
_KEPT_PARTS_CELLS = 2**16


def _kept_if_small(build):
    """``build(n, degree, total, ...)``, kept for the process, up to 64
    results, when the factor table of exponent total ``total`` on P^n has at
    most _KEPT_PARTS_CELLS cells; what is derived from a larger table, the
    size of a whole basis, is built afresh on each call."""
    kept = lru_cache(maxsize=64)(build)

    @wraps(build)
    def gated(n, degree, total, *rest):
        small = comb(total + n, n) * (n + 1) <= _KEPT_PARTS_CELLS
        return (kept if small else build)(n, degree, total, *rest)

    return gated


@_kept_if_small
def _factor_parts(n: int, degree: int, total: int) -> np.ndarray:
    """The read-only basis of one factor: exponent rows on P^n, in basis order.

    The rows are the parts e >= 0 of sum ``total`` (stars and bars),
    C(total + n, n) of them in lex order of e, as e in degree 0 and as
    -1 - e in degree n.
    """
    # one coordinate at a time: each prefix e_0 .. e_(i-1), with remainder r,
    # is followed by e_i = 0, 1, ..., r, and the prefix e_0 .. e_i heads the
    # C(r - e_i + n - i - 1, n - i - 1) rows that share it; e_n is the rest
    binom = _binomials(total, n)
    parts = np.empty((binom[total, n], n + 1), dtype=np.int64)
    left = np.array([total], dtype=np.int64)
    for i in range(n):
        counts = left + 1
        part = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        left = np.repeat(left, counts) - part
        parts[:, i] = np.repeat(part, binom[left, n - i - 1])
    parts[:, n] = left
    if degree:
        np.subtract(-1, parts, out=parts)
    parts.flags.writeable = False
    return parts


def _basis_size(space: MultiProjSpace, multidegree):
    """(degree, basis size) of O(multidegree) from binomials, or None if acyclic.

    Counts the grid of the factors' bases, the product of their
    C(total + n, n), without enumerating it.
    """
    info = _factor_degrees(space, multidegree)
    if info is None:
        return None
    size = prod(comb(total + n, n) for n, (_, total) in zip(space.factor_dims, info))
    return sum(degree for degree, _ in info), size


def line_bundle_cohomology_fp(space: MultiProjSpace, multidegree) -> CohomologyVector:
    """h^i(O(d_1, ..., d_k)); concentrated in one degree, independent of p."""
    dims = [0] * (space.dim + 1)
    info = _basis_size(space, multidegree)
    if info is not None:
        dims[info[0]] = info[1]
    return CohomologyVector(tuple(dims))


def incidence_form(n: int = 3) -> dict:
    """The pairing form sum_i x_i y_i on P(V) x P(V*), with dim V = n, as
    monomial (one exponent tuple per factor) -> coefficient."""
    terms = {}
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        terms[(e, e)] = 1
    return terms


def _weights(form: dict, width: int):
    """Integer rows K with K . t = 0 for every term exponent t of ``form``.

    T is a maximal independent set of the terms, picked greedily by a nonzero
    Gram determinant; with G = T T^t, K = det(G) I - T^t adj(G) T is det(G)
    times the projection away from their span, each row divided by its gcd.
    With no terms, K = I.
    """
    basis = np.zeros((0, width), dtype=object)
    for mono in form:
        grown = np.vstack((basis, [list(chain.from_iterable(mono))]))
        if det_int(grown @ grown.T):
            basis = grown
    det, adj = adjugate_int(basis @ basis.T)
    adj = np.array(adj, dtype=object).reshape(len(basis), len(basis))
    weights = det * np.identity(width, dtype=object) - basis.T @ adj @ basis
    return [[x // (gcd(*row) or 1) for x in row] for row in weights.tolist()]


@lru_cache(maxsize=64)
def _binomials(total: int, n: int) -> np.ndarray:
    """The read-only table binom[y, k] = C(y + k, k), for y <= total and k <= n.

    Built by C(y + k, k) = sum_(x <= y) C(x + k - 1, k - 1), once per
    (total, n); a map's products read one table per target factor.
    """
    binom = np.ones((total + 1, n + 1), dtype=np.int64)
    for k in range(1, n + 1):
        binom[:, k] = np.cumsum(binom[:, k - 1])
    binom.flags.writeable = False
    return binom


def _factor_rank(n: int, degree: int, total: int, rows) -> np.ndarray:
    """Position of each exponent row on P^n in the factor basis of
    (``degree``, ``total``), the rows of :func:`_factor_parts`; -1 outside it.

    The parts e (the exponents, or -1 - exponents in top degree) are ranked
    in the lex order of the stars-and-bars enumeration, which is the lex
    order of e: with R_i = t - e_0 - ... - e_(i-1), the compositions below e
    number sum_i C(R_i + n - i, n - i) - C(R_(i+1) + n - i, n - i).  The
    row is in the basis when no R_i is negative and R_n = e_n.  Each
    coordinate column is read once, and every step works on 1-D arrays;
    R is clipped to [0, t], so every binomial read, from :func:`_binomials`,
    is at most C(t + n, n), the factor's basis size.
    """
    binom = _binomials(total, n).T  # binom[k] is the column C(y + k, k)
    index = np.zeros(len(rows), dtype=np.int64)
    valid = np.ones(len(rows), dtype=bool)
    left = total  # R_i
    for i in range(n + 1):
        part = -1 - rows[:, i] if degree else rows[:, i]
        if i == n:
            valid &= part == left
            break
        rest = left - part
        valid &= (part >= 0) & (rest >= 0)
        np.clip(rest, 0, total, out=rest)
        index += binom[n - i].take(left)
        index -= binom[n - i].take(rest)
        left = rest
    return np.where(valid, index, -1)


def _largest_group(factor_dims) -> int:
    """The g of the largest coordinate permutation group S_g that
    :func:`_symmetry` can find: n + 1 when every factor is one P^n, else 1."""
    return factor_dims[0] + 1 if len(set(factor_dims)) == 1 else 1


def _symmetry(factor_dims, form: dict) -> int:
    """The g of the coordinate permutation group S_g that fixes ``form``.

    S_g permutes the coordinates of every factor at once, so it needs every
    factor to be one P^n, and then g = n + 1.  It is taken only when the
    transposition (0 1) and the cycle (0 1 ... n), which generate S_(n+1),
    both fix ``form`` term for term; otherwise g = 1, the trivial group.
    """
    g = _largest_group(factor_dims)
    if g == 1:
        return 1
    for perm in ((1, 0, *range(2, g)), (*range(1, g), 0)):
        image = {tuple(tuple(f[i] for i in perm) for f in mono): c for mono, c in form.items()}
        if image != form:
            return 1
    return g


def _orbits(weights, g: int):
    """Which weight rows are canonical under S_g, and the orbit size of each.

    A row holds g coordinates per factor, and S_g permutes the coordinates of
    every factor at once, so it permutes the g tuples (w_f,i over factors f)
    indexed by the coordinate i.  A row is canonical when these tuples are in
    non-decreasing lex order; each orbit holds exactly one canonical row.
    Equal tuples of a canonical row stand in runs, and its orbit has
    g! / prod(L!) rows, L running over the run lengths.  Returns the boolean
    mask of the canonical rows and the orbit sizes of those rows alone.

    Tuples are compared column by column, from the last factor to the
    first, so every temporary is one boolean per row; a column is read
    contiguously when ``weights`` is the transpose of a C-ordered array.
    """
    w = weights.reshape(len(weights), weights.shape[1] // g, g)
    canonical, ties = np.ones(len(w), dtype=bool), []
    for i in range(g - 1):
        left, right = w[:, -1, i], w[:, -1, i + 1]
        below, tie = left < right, left == right
        for f in reversed(range(w.shape[1] - 1)):
            left, right = w[:, f, i], w[:, f, i + 1]
            same = left == right
            below &= same
            below |= left < right
            tie &= same
        canonical &= tie | below
        ties.append(tie)
    # the runs of equal tuples, counted on the canonical rows alone
    run = np.ones(np.count_nonzero(canonical), dtype=np.int64)
    stabiliser = np.ones(len(run), dtype=np.int64)
    for tie in ties:
        run += 1
        run[~tie[canonical]] = 1
        stabiliser *= run
    return canonical, factorial(g) // stabiliser


@lru_cache(maxsize=64)
def _invariants(factor_dims, terms):
    """(K, spread, g) of the form whose terms are the given frozenset of
    (monomial, coefficient) pairs, so equal forms share one key however they
    were built.

    K is :func:`_weights` as a tuple of rows, spread the largest sum |K_ij|
    of a row, and g :func:`_symmetry`; each is computed once per distinct
    form and space, not once per twist and degree, and shared read-only.
    """
    form = dict(terms)
    weights = tuple(map(tuple, _weights(form, sum(n + 1 for n in factor_dims))))
    spread = max(sum(map(abs, row)) for row in weights)
    return weights, spread, _symmetry(factor_dims, form)


def _canonical_rows(tables, weights, g: int):
    """(pos, weight, orbit) of the source rows of canonical weight under S_g.

    The source basis is the grid of its factor ``tables``, the first factor
    slowest, and a row is named by its place in that grid: ``pos`` holds
    its row in each factor table, so no exponent row is built.  As K . m is
    the sum over the factors f of K_f . m_f, a grid point's weight is the
    sum of its factors' rows of the per-factor products.  The grid is
    walked in slabs of rows of the first factor's table, about _GRID_SLAB
    points each: a slab's weights are its rows' products broadcast against
    the grid of the later factors' products, :func:`_orbits` marks the
    canonical ones, and only those rows and weights are kept, so the peak
    follows the kept rows, not the grid.  ``orbit`` is each row's orbit
    size; under the trivial group every row is kept.  Once more than
    MAX_CECH_BASIS rows are kept, Overflow is raised.
    """
    K = np.array(weights, dtype=np.int64)
    # the weights stand in columns, one per grid point, so that each
    # weight coordinate is read contiguously
    steps, start = [], 0
    for parts in tables:
        steps.append(K[:, start : start + parts.shape[1]] @ parts.T)
        start += parts.shape[1]
    rest = np.zeros((len(K), 1), dtype=np.int64)  # the later factors' grid
    for step in steps[1:]:
        rest = (rest[:, :, None] + step[:, None]).reshape(len(K), -1)
    shape = [len(parts) for parts in tables]
    slab = max(1, _GRID_SLAB // rest.shape[1])
    pos, weight, orbit, kept = [], [], [], 0
    for top in range(0, shape[0], slab):
        grid = (steps[0][:, top : top + slab, None] + rest[:, None]).reshape(len(K), -1)
        if g == 1:
            at, size = np.arange(grid.shape[1]), np.ones(grid.shape[1], dtype=np.int64)
        else:
            keep, size = _orbits(grid.T, g)
            at = np.flatnonzero(keep)
            grid = grid[:, at]
        kept += len(at)
        if kept > MAX_CECH_BASIS:
            raise Overflow(
                f"more than {MAX_CECH_BASIS} basis monomials of canonical weight to build"
            )
        pos.append(np.column_stack(np.unravel_index(at + top * rest.shape[1], shape)))
        weight.append(grid)
        orbit.append(size)
    weight = weight[0] if len(weight) == 1 else np.concatenate(weight, axis=1)
    pos, orbit = (x[0] if len(x) == 1 else np.concatenate(x) for x in (pos, orbit))
    return pos, weight.T, orbit


@_kept_if_small
def _factor_index(n: int, degree: int, total: int, shifts: tuple, dst: tuple) -> np.ndarray:
    """Where each row of the factor table (``degree``, ``total``) on P^n,
    moved by each of ``shifts``, lies in the factor basis ``dst`` =
    (degree, total): one row per shift, -1 outside, read-only.

    It is :func:`_factor_rank` run once on the shifted :func:`_factor_parts`,
    computed once per (table, shifts, target) and kept as the table is.
    """
    parts = _factor_parts(n, degree, total)
    rows = (parts + np.array(shifts, dtype=np.int64)[:, None]).reshape(-1, n + 1)
    index = _factor_rank(n, *dst, rows).reshape(len(shifts), len(parts))
    index.flags.writeable = False
    return index


def _product_index(factor_dims, src, dst, shifts, pos):
    """Position in the target basis of each product m + t, for each t in
    ``shifts`` (one row each) and each source row m at grid positions
    ``pos`` (one column per factor table); -1 where the product is outside
    the target basis.

    ``src`` and ``dst`` are the :func:`_factor_degrees` of the source and
    target bundles.  The product is m_f + t_f on each factor f, so its
    place in the target's factor basis is read from the
    :func:`_factor_index` table of the source factor; the factors combine in
    the target's mixed radix, the first factor slowest, and a product that
    falls outside the target on any factor gets -1.
    """
    index = np.zeros((len(shifts), len(pos)), dtype=np.int64)
    low = np.zeros_like(index)
    start = 0
    for f, n in enumerate(factor_dims):
        moved = tuple(t[start : start + n + 1] for t in shifts)
        part = _factor_index(n, *src[f], moved, dst[f]).take(pos[:, f], axis=1)
        index *= comb(dst[f][1] + n, n)
        index += part
        np.minimum(low, part, out=low)
        start += n + 1
    index[low < 0] = -1
    return index


def _map_rank_mod_p(space, src_md, dst_md, form, degree, p) -> int:
    """Rank over F_p of multiplication by ``form``, O(src_md) -> O(dst_md),
    on degree-`degree` cohomology.

    Each term t of the form sends the source monomial m to m + t; products
    outside the target basis are discarded, and the others are found in it
    by :func:`_product_index`, one factor at a time, so neither the target
    basis nor a product row is ever built.  The terms are distinct, so no
    two contributions share a matrix entry, and dropping the terms that
    vanish mod p drops every zero entry.  As K . (m + t) = K . m for K =
    :func:`_weights`, the map is block diagonal over the weights K . m of
    its columns, and a product keeps its source row's weight.  So the
    blocks are labelled once, on the source rows that meet an entry, and
    each target row lies in exactly one block: a row's place in its block
    is the rank of its (block, target row) pair.

    When S_g = :func:`_symmetry` is not trivial, a permutation s in it maps
    the bases, and the term set of the form, to themselves, and K s = s K
    because s keeps the span of the terms.  So s maps the weight-w block
    entry for entry onto the weight-s(w) block, in the degree-0 and the
    local-cohomology model alike, and the blocks of one orbit have one rank.
    Only the source rows of canonical weight (:func:`_orbits`) are kept, as
    grid positions (:func:`_canonical_rows`), and each block's rank counts
    orbit-size times.  With the trivial group every row is kept and every
    block, once.  K, its spread and g come from :func:`_invariants`, once
    per distinct form.  More than MAX_CECH_BASIS rows kept raise Overflow.

    The blocks are sorted by width and cut greedily into stacks of at most
    _STACK_CELLS cells, a stack's rows times the width of its last, widest
    block.  Each stack is built in the residue dtype of p, eliminated in
    place by one :func:`ranks_mod_p` call and freed in turn.  Its rows are
    the target rows of its blocks, numbered block by block by one
    ``np.unique`` of the (block, target row) pairs, so every row holds an
    entry and the blocks' row offsets are read off the counts; a block's
    columns are right-aligned to the stack's width.  Overflow is raised
    before any exponent, product or weight could reach _INT64_GUARD; the
    exponents' reach is read from the factor degrees.
    """
    sizes = [_basis_size(space, md) for md in (src_md, dst_md)]
    terms = [(tuple(chain.from_iterable(m)), c % p) for m, c in form.items() if c % p]
    if not terms or any(size is None or size[0] != degree for size in sizes):
        return 0
    src, dst = (_factor_degrees(space, md) for md in (src_md, dst_md))
    count = sizes[1][1]  # the target rows
    weights, spread, g = _invariants(tuple(space.factor_dims), frozenset(form.items()))
    # a factor table's exponents reach total in degree 0, -1 - total in top degree
    reach = max(total + (d > 0) for d, total in src)
    reach += max(abs(x) for t, _ in terms for x in t)
    if max(spread, 1) * reach >= _INT64_GUARD:
        raise Overflow(f"Cech weights need {spread} * {reach}, past int64")
    tables = [_factor_parts(n, *deg) for n, deg in zip(space.factor_dims, src)]
    pos, weight, orbit = _canonical_rows(tables, weights, g)
    shifts = tuple(t for t, _ in terms)
    index = _product_index(space.factor_dims, src, dst, shifts, pos).reshape(-1)  # term by term
    hit = index >= 0
    rows = index[hit]
    cols = np.tile(np.arange(len(pos)), len(terms))[hit]
    values = np.repeat(np.array([c for _, c in terms], dtype=_residue_dtype(p)), len(pos))[hit]
    if not len(rows):
        return 0
    # blocks labelled on the source rows that meet an entry, and sorted by
    # width; place is each row id's block by its place in that order
    used = np.zeros(len(pos), dtype=bool)
    used[cols] = True
    ids = np.flatnonzero(used)
    order, starts, label = group_rows(weight[ids])
    ncols = np.bincount(label, minlength=len(starts))
    size = orbit[ids[order[starts]]]
    by_width = np.argsort(ncols, kind="stable")
    place = np.argsort(by_width)[label]
    # j: a column's place in its block, counted from the block's last column
    j = np.empty(len(ids), dtype=np.int64)
    j[order] = np.arange(len(ids))
    j = (starts + ncols - 1)[label] - j
    cols = np.cumsum(used)[cols] - 1  # each entry's source row, as its place in ids
    j, place = j[cols], place[cols]
    # i: an entry's row among all the blocks' rows, numbered block by block
    # in the order of the widths, the rank of its (place, target row) pair
    pairs, i = np.unique(place * count + rows, return_inverse=True)
    tops = np.zeros(len(starts) + 1, dtype=np.int64)  # each block's first row
    np.cumsum(np.bincount(pairs // count, minlength=len(starts)), out=tops[1:])
    # cut greedily into stacks of at most _STACK_CELLS cells: a stack's rows
    # times its width, the width of its last block
    widths = ncols[by_width].tolist()
    cuts, top = [0], tops.tolist()
    for k, w in enumerate(widths):
        if k > cuts[-1] and (top[k + 1] - top[cuts[-1]]) * w > _STACK_CELLS:
            cuts.append(k)
    cuts.append(len(widths))
    rank = 0
    for start, stop in zip(cuts, cuts[1:]):
        lo, hi, width = top[start], top[stop], widths[stop - 1]
        at = np.flatnonzero((i >= lo) & (i < hi))
        stack = np.zeros((hi - lo, width), dtype=_residue_dtype(p))
        stack[i[at] - lo, width - 1 - j[at]] = values[at]
        ranks = ranks_mod_p(stack, tops[start : stop + 1] - lo, p)
        rank += int(ranks @ size[by_width[start:stop]])
        del stack
    return rank


def _restriction_cohomology(space, src, dst, form, p) -> CohomologyVector:
    """h^i of O_X(dst) on the hypersurface X = {form = 0}, for i = 0 .. dim X.

    ``form`` has degree dst - src and maps monomial (one exponent tuple per
    factor) to coefficient.  The answer is read from the restriction
    sequence 0 -> O(src) -> O(dst) -> O_X(dst) -> 0, whose first map is
    multiplication by the form.  Each bundle has cohomology in one degree, so
    H^t(O_X(dst)) is the cokernel of the map on H^t plus the kernel of the
    map on H^(t+1), and only a source and a target in one degree need a
    rank, :func:`_map_rank_mod_p`.  A p that is not an integer, not prime
    (Z/p is then no field and ranks mean nothing), or too large for the
    int64 elimination, raises ValueError before any work is done, as does
    a multidegree entry that is not an integer.  The map keeps at least one
    in g! rows of its source (an orbit of S_g has at most g! rows), so a
    bundle of more than g! * MAX_CECH_BASIS monomials in one degree, with g
    from :func:`_largest_group`, is refused with Overflow before any
    monomial is enumerated; below that, the map raises Overflow once it
    keeps more than MAX_CECH_BASIS source rows.  No target basis is
    enumerated.  A class outside degrees 0 .. dim X, which exactness of the
    sequence forbids when the form is nonzero mod p, raises
    InvariantViolation.
    """
    check_prime_field(p)
    sizes = [_basis_size(space, md) for md in (src, dst)]
    # the map keeps at least one in g! rows of its source, g <= _largest_group
    most = factorial(_largest_group(space.factor_dims)) * MAX_CECH_BASIS
    for s, size in enumerate(sizes):
        if size is not None and size[1] > most:
            raise Overflow(
                f"term {s} has {size[1]} basis monomials in degree {size[0]}, "
                f"more than {most}"
            )
    rank = 0
    if None not in sizes and sizes[0][0] == sizes[1][0]:
        rank = _map_rank_mod_p(space, src, dst, form, sizes[0][0], p)
    dims = {}
    # the kernel on the source's H^s lands in H^(s - 1), the cokernel in H^s
    for shift, size in zip((-1, 0), sizes):
        if size is not None:
            dims[size[0] + shift] = dims.get(size[0] + shift, 0) + size[1] - rank
    stray = {pos: dim for pos, dim in dims.items() if dim and not 0 <= pos < space.dim}
    if stray:
        # exactness of the restriction sequence forbids anything here
        raise InvariantViolation(
            f"restriction cohomology found classes outside degrees 0..{space.dim - 1}: {stray}"
        )
    return CohomologyVector(tuple(dims.get(i, 0) for i in range(space.dim)))


def incidence_cohomology(a: int, b: int, p: int) -> CohomologyVector:
    """h^i of O(a, b) on the incidence threefold {sum x_i y_i = 0} in P2 x P2.

    Reads the restriction sequence of O(a-1, b-1) -> O(a, b), multiplication
    by the pairing form; the canonical class of the threefold is O(-2, -2),
    which the test suite exercises through Serre duality.  An a, b or p
    that is not an integer raises ValueError.
    """
    a, b = (_integer(x, "incidence multidegree") for x in (a, b))
    return _restriction_cohomology(MultiProjSpace((2, 2)), (a - 1, b - 1), (a, b),
                                   incidence_form(3), p)


def concentration_check(a: int, b: int, p: int, m: int) -> bool:
    """The q = p^m pullback of O(a, b) on the incidence threefold has at most
    one nonzero cohomology group.  A p that is not prime, or an m < 0,
    raises ValueError before any work is done."""
    q = FrobeniusOrder(p, m).q
    dims = incidence_cohomology(q * a, q * b, p)
    return sum(1 for d in dims.dims if d) <= 1
