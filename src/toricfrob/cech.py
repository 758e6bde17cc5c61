"""Exact F_p cohomology of line bundles on products of projective spaces,
and of a line bundle on the incidence threefold X = {sum x_i y_i = 0} in
P2 x P2.

Cohomology of a multidegree line bundle is concentrated in a single degree:
each factor contributes its monomial basis either in degree 0 (all exponents
nonnegative) or in top degree (all exponents <= -1, the local cohomology
model).  A bundle's basis is the grid of its factors' bases, and a basis
row is named by its grid position, one row index per factor, never by its
exponents.  On X, h^i(O_X(a, b)) is read from the restriction sequence
0 -> O(a - 1, b - 1) -> O(a, b) -> O_X(a, b) -> 0: its one map,
multiplication by the pairing form, acts on the bases by polynomial
multiplication followed by truncation to the target basis, the induced map
on the standard-cover Cech model.  Only the source basis is walked, through
one small exponent table per P2 factor (:func:`_factor_parts`).  The term
x_i y_i moves a monomial by the unit vector e_i on both factors, so a
product is found in the target basis one factor at a time: for each factor
table and target factor, one small read-only table (:func:`_factor_index`)
gives, term by term, each moved row's lex position in the target factor's
basis, in closed form (:func:`_factor_rank`), and the two factors combine
in the target's mixed radix.  No product row is formed, and the target
basis is only counted.

The map is torus-equivariant.  A term x_i y_i raises alpha_i and beta_i of
a monomial x^alpha y^beta together, so a product keeps its source's weight
alpha - beta, a vector of three integers, and the map is block diagonal over
these weights; its rank is the sum of the F_p ranks of its weight blocks,
and it is never assembled as one dense matrix.  S_3, permuting the
coordinates of both factors at once, maps the bases, the Cech cover and the
three terms to themselves, so it fixes sum x_i y_i and maps the weight-w
block entry for entry onto the weight-s(w) block: blocks of one orbit have
one rank.  Only the source rows of canonical weight, w_0 <= w_1 <= w_2,
about one in 6, are kept, and each block's rank counts once per weight of
its orbit.  The grid is walked in slabs, so only the kept rows are held.

The weight blocks are labelled on the source rows alone, and each target row
falls in exactly one block: no product is grouped entry by entry.  The
blocks are sorted by width and cut into a few stacks of bounded size, built
in the residue dtype of p and eliminated in place by
:func:`linalg.ranks_mod_p`.  A stack holds only the target rows that meet
an entry, block after block, with the blocks' row offsets, so no block is
padded to another's height; its columns are right-aligned to the stack's
width, the width of its widest block.  The bound MAX_CECH_BASIS applies to
the source rows a map keeps.  A bundle too large for any map to keep fewer,
counted from binomials, is refused with Overflow before any monomial is
enumerated; any other map is refused as soon as the rows it keeps pass the
bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps
from math import comb, prod

import numpy as np

from .cohomology import CohomologyVector, Overflow
from .fan import InvariantViolation, _integer, _integers
from .frobenius import FrobeniusOrder
from .linalg import _residue_dtype, check_prime_field, group_rows, ranks_mod_p

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
# that a large grid is never held whole: 0.75 MB of int64 for the three
# weights alpha - beta.  The 6,084 points of (12, -13) are one slab.
_GRID_SLAB = 2**15


@dataclass(frozen=True)
class MultiProjSpace:
    """A product of projective spaces P^(n_1) x ... x P^(n_k)."""

    factor_dims: tuple

    def __post_init__(self):
        dims = _integers(self.factor_dims, "factor dimension")
        if not dims or any(n < 1 for n in dims):
            raise ValueError("factor dimensions must be positive")
        object.__setattr__(self, "factor_dims", dims)

    @property
    def dim(self) -> int:
        return sum(self.factor_dims)


# The ambient space of the incidence threefold.
_P2xP2 = MultiProjSpace((2, 2))


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
    multidegree = _integers(multidegree, "multidegree")
    if len(multidegree) != len(space.factor_dims):
        raise ValueError("multidegree length does not match the factors")
    out = [_factor_degree(n, d) for n, d in zip(space.factor_dims, multidegree)]
    return None if None in out else out


# Cells of the largest factor table kept for the life of the process
# (512 KB of int64): every P2 table up to total 207.
_KEPT_PARTS_CELLS = 2**16


def _kept_if_small(build):
    """``build(degree, total, ...)``, kept for the process, up to 64 results,
    when the P2 factor table of exponent total ``total`` has at most
    _KEPT_PARTS_CELLS cells; what is derived from a larger table, the size of
    a whole basis, is built afresh on each call."""
    kept = lru_cache(maxsize=64)(build)

    @wraps(build)
    def gated(degree, total, *rest):
        small = comb(total + 2, 2) * 3 <= _KEPT_PARTS_CELLS
        return (kept if small else build)(degree, total, *rest)

    return gated


@_kept_if_small
def _factor_parts(degree: int, total: int) -> np.ndarray:
    """The read-only basis of one P2 factor: exponent rows, in basis order.

    The rows are the parts e = (e_0, e_1, e_2) >= 0 of sum ``total``,
    C(total + 2, 2) of them in lex order of e, as e in degree 0 and as
    -1 - e in degree 2.
    """
    # e_0 = k heads the total + 1 - k rows e_1 = 0, 1, ..., total - k
    counts = np.arange(total + 1, 0, -1)
    first = np.repeat(np.arange(total + 1), counts)
    second = np.arange(len(first)) - np.repeat(np.cumsum(counts) - counts, counts)
    parts = np.column_stack((first, second, total - first - second))
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


def _factor_rank(degree: int, total: int, rows) -> np.ndarray:
    """Position of each P2 exponent row in the factor basis of (``degree``,
    ``total``), the rows of :func:`_factor_parts`; -1 outside it.

    The part e (the exponents, or -1 - exponents in degree 2) is in the
    basis when every e_i >= 0 and e_0 + e_1 + e_2 = t.  Its lex position is
    e_0 (2t + 3 - e_0) / 2 + e_1: before it come the t + 1 - k parts of
    first entry k, for each k < e_0, and then the e_1 parts of first entry
    e_0 and a smaller second.
    """
    parts = -1 - rows if degree else rows
    first, second, third = parts.T
    valid = (first >= 0) & (second >= 0) & (third >= 0)
    valid &= first + second + third == total
    return np.where(valid, first * (2 * total + 3 - first) // 2 + second, -1)


def _orbits(weights):
    """Which weights alpha - beta are canonical under S_3, and the orbit size
    of each canonical one.

    S_3 permutes the three coordinates of a weight w, so a weight is
    canonical when w_0 <= w_1 <= w_2, and each orbit holds exactly one
    canonical weight.  Its orbit has 6, 3 or 1 weights as it has 3, 2 or 1
    distinct coordinates.  ``weights`` holds one weight per column; returns
    the boolean mask of the canonical columns and the orbit sizes of those
    columns alone.
    """
    low, mid, high = weights
    canonical = (low <= mid) & (mid <= high)
    ties = (low[canonical] == mid[canonical]).astype(np.int64)
    ties += mid[canonical] == high[canonical]
    return canonical, np.array([6, 3, 1], dtype=np.int64)[ties]


def _canonical_rows(tables):
    """(pos, weight, orbit) of the source rows of canonical weight under S_3.

    The source basis is the grid of its two factor ``tables``, the first
    factor slowest, and a row is named by its place in that grid: ``pos``
    holds its row in each factor table, so no exponent row is built.  The
    weight of a grid point (alpha, beta) is alpha - beta, the first table's
    row less the second's.  The grid is walked in slabs of rows of the first
    table, about _GRID_SLAB points each: a slab's weights are its rows
    broadcast against the second table, :func:`_orbits` marks the canonical
    ones, and only those rows and weights are kept, so the peak follows the
    kept rows, not the grid.  ``orbit`` is each row's orbit size.  Once more
    than MAX_CECH_BASIS rows are kept, Overflow is raised.
    """
    # the weights stand in columns, one per grid point, so that each
    # weight coordinate is read contiguously
    first, second = tables[0].T, tables[1].T
    shape = [len(parts) for parts in tables]
    slab = max(1, _GRID_SLAB // shape[1])
    pos, weight, orbit, kept = [], [], [], 0
    for top in range(0, shape[0], slab):
        grid = (first[:, top : top + slab, None] - second[:, None]).reshape(3, -1)
        keep, size = _orbits(grid)
        at = np.flatnonzero(keep)
        kept += len(at)
        if kept > MAX_CECH_BASIS:
            raise Overflow(
                f"more than {MAX_CECH_BASIS} basis monomials of canonical weight to build"
            )
        pos.append(np.column_stack(np.unravel_index(at + top * shape[1], shape)))
        weight.append(grid[:, at])
        orbit.append(size)
    weight = weight[0] if len(weight) == 1 else np.concatenate(weight, axis=1)
    pos, orbit = (x[0] if len(x) == 1 else np.concatenate(x) for x in (pos, orbit))
    return pos, weight.T, orbit


@_kept_if_small
def _factor_index(degree: int, total: int, dst: tuple) -> np.ndarray:
    """Where each row of the P2 factor table (``degree``, ``total``), moved
    by each unit vector e_i, lies in the factor basis ``dst`` = (degree,
    total): row i for e_i, -1 outside, read-only.

    It is :func:`_factor_rank` run once on the shifted :func:`_factor_parts`,
    computed once per (table, target) and kept as the table is.
    """
    parts = _factor_parts(degree, total)
    rows = (parts + np.eye(3, dtype=np.int64)[:, None]).reshape(-1, 3)
    index = _factor_rank(*dst, rows).reshape(3, len(parts))
    index.flags.writeable = False
    return index


def _product_index(src, dst, pos):
    """Position in the target basis of each product x_i y_i m, for each term
    i (one row each) and each source row m at grid positions ``pos`` (one
    column per factor table); -1 where the product is outside the target
    basis.

    ``src`` and ``dst`` are the :func:`_factor_degrees` of the source and
    target bundles.  The term x_i y_i moves m by e_i on both factors, so
    its place in each target factor basis is row i of the
    :func:`_factor_index` table of the source factor; the two combine in
    the target's mixed radix, the first factor slowest, and a product that
    falls outside the target on either factor gets -1.
    """
    first, second = (
        _factor_index(*src[f], dst[f]).take(pos[:, f], axis=1) for f in (0, 1)
    )
    index = first * comb(dst[1][1] + 2, 2) + second
    index[(first < 0) | (second < 0)] = -1
    return index


def _map_rank_mod_p(src_md, dst_md, degree, p) -> int:
    """Rank over F_p of multiplication by the pairing form, O(src_md) ->
    O(dst_md) on P2 x P2, on degree-`degree` cohomology.

    Each term t = x_i y_i sends the source monomial m to m + t; products
    outside the target basis are discarded, and the others are found in it
    by :func:`_product_index`, one factor at a time, so neither the target
    basis nor a product row is ever built.  The terms are distinct, so no
    two contributions share a matrix entry, and every entry is 1.  A product
    keeps its source row's weight alpha - beta, so the map is block diagonal
    over the weights of its columns: the blocks are labelled once, on the
    source rows that meet an entry, and each target row lies in exactly one
    block; a row's place in its block is the rank of its (block, target
    row) pair.  Only the source rows of canonical weight are kept, as grid
    positions (:func:`_canonical_rows`), and each block's rank counts
    orbit-size times, in the degree-0 and the local-cohomology model
    alike.  More than MAX_CECH_BASIS rows kept raise Overflow.

    The blocks are sorted by width and cut greedily into stacks of at most
    _STACK_CELLS cells, a stack's rows times the width of its last, widest
    block.  Each stack is built in the residue dtype of p, eliminated in
    place by one :func:`ranks_mod_p` call and freed in turn.  Its rows are
    the target rows of its blocks, numbered block by block by one
    ``np.unique`` of the (block, target row) pairs, so every row holds an
    entry and the blocks' row offsets are read off the counts; a block's
    columns are right-aligned to the stack's width.
    """
    sizes = [_basis_size(_P2xP2, md) for md in (src_md, dst_md)]
    if any(size is None or size[0] != degree for size in sizes):
        return 0
    src, dst = (_factor_degrees(_P2xP2, md) for md in (src_md, dst_md))
    count = sizes[1][1]  # the target rows
    # no int64 guard: incidence_cohomology refuses a bundle of more than
    # 6 * MAX_CECH_BASIS monomials first, so every factor total, exponent and
    # weight is below 7,000, and every (block, target row) key below 10^13
    tables = [_factor_parts(*deg) for deg in src]
    pos, weight, orbit = _canonical_rows(tables)
    index = _product_index(src, dst, pos).reshape(-1)
    hit = index >= 0  # term by term
    rows = index[hit]
    cols = np.tile(np.arange(len(pos)), 3)[hit]
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
        stack[i[at] - lo, width - 1 - j[at]] = 1
        ranks = ranks_mod_p(stack, tops[start : stop + 1] - lo, p)
        rank += int(ranks @ size[by_width[start:stop]])
        del stack
    return rank


def incidence_cohomology(a: int, b: int, p: int) -> CohomologyVector:
    """h^i of O(a, b) on the incidence threefold X = {sum x_i y_i = 0} in
    P2 x P2, for i = 0 .. 3.

    The answer is read from the restriction sequence 0 -> O(a-1, b-1) ->
    O(a, b) -> O_X(a, b) -> 0, whose first map is multiplication by the
    pairing form; the canonical class of X is O(-2, -2), which the test
    suite exercises through Serre duality.  Each bundle has cohomology in
    one degree, so H^t(O_X(a, b)) is the cokernel of the map on H^t plus
    the kernel of the map on H^(t+1), and only a source and a target in one
    degree need a rank, :func:`_map_rank_mod_p`.  An a, b or p that is not
    an integer raises ValueError, as does a p that is not prime (Z/p is
    then no field and ranks mean nothing) or too large for the int64
    elimination, before any work is done.  The map keeps at least one in 6
    rows of its source (an orbit of S_3 has at most 6 weights), so a bundle
    of more than 6 * MAX_CECH_BASIS monomials in one degree is refused with
    Overflow before any monomial is enumerated; below that, the map raises
    Overflow once it keeps more than MAX_CECH_BASIS source rows.  No target
    basis is enumerated.  A class outside degrees 0 .. 3, which exactness of
    the sequence forbids, raises InvariantViolation.
    """
    a, b = (_integer(x, "incidence multidegree") for x in (a, b))
    check_prime_field(p)
    src, dst = (a - 1, b - 1), (a, b)
    sizes = [_basis_size(_P2xP2, md) for md in (src, dst)]
    most = 6 * MAX_CECH_BASIS
    for s, size in enumerate(sizes):
        if size is not None and size[1] > most:
            raise Overflow(
                f"term {s} has {size[1]} basis monomials in degree {size[0]}, "
                f"more than {most}"
            )
    rank = 0
    if None not in sizes and sizes[0][0] == sizes[1][0]:
        rank = _map_rank_mod_p(src, dst, sizes[0][0], p)
    dims = {}
    # the kernel on the source's H^s lands in H^(s - 1), the cokernel in H^s
    for shift, size in zip((-1, 0), sizes):
        if size is not None:
            dims[size[0] + shift] = dims.get(size[0] + shift, 0) + size[1] - rank
    stray = {pos: dim for pos, dim in dims.items() if dim and not 0 <= pos <= 3}
    if stray:
        # exactness of the restriction sequence forbids anything here
        raise InvariantViolation(
            f"restriction cohomology found classes outside degrees 0..3: {stray}"
        )
    return CohomologyVector(tuple(dims.get(i, 0) for i in range(4)))


def concentration_check(a: int, b: int, p: int, m: int) -> bool:
    """The q = p^m pullback of O(a, b) on the incidence threefold has at most
    one nonzero cohomology group.  A p that is not prime, or an m < 0,
    raises ValueError before any work is done."""
    q = FrobeniusOrder(p, m).q
    dims = incidence_cohomology(q * a, q * b, p)
    return sum(1 for d in dims.dims if d) <= 1
