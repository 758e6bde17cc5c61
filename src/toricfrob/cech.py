"""Exact F_p cohomology of line bundles and line-bundle complexes on products
of projective spaces, with the incidence threefold in P2 x P2 as the main
client.

Cohomology of a multidegree line bundle is concentrated in a single degree:
each factor contributes its monomial basis either in degree 0 (all exponents
nonnegative) or in top degree (all exponents <= -1, the local cohomology
model).  A basis is an int64 array, one row of exponents per monomial.  Maps
between such bundles act on these bases by polynomial multiplication followed
by truncation to the target basis; that is the induced map on the
standard-cover Cech model.  Every map is torus-equivariant, so it is block
diagonal over torus weights, and its rank is the sum of the F_p ranks of its
weight blocks; no map is ever assembled as one dense matrix.  A product is
found in the target basis by its stars-and-bars position, so only the
source basis is enumerated.

When every factor is one P^n and every entry of a map is fixed by S_(n+1)
permuting the coordinates of all factors at once (as S_3 fixes the pairing
form on P2 x P2), that group maps the bases, the Cech cover and the weight
blocks to themselves, so blocks of one orbit have one rank.  The symmetry is
proved on the terms of each map before it is used; only one block per orbit
is then eliminated, and its rank counts once per block of the orbit.

The blocks are sorted by width and cut into a few stacks of bounded size,
each eliminated by :func:`linalg.ranks_mod_p`; a block's columns are
right-aligned in its stack, so the elimination does no arithmetic on the
padding.  Before any monomial is enumerated, the size of every first-page
term is counted from binomials, and a complex with a term of more than
MAX_CECH_BASIS monomials is refused with Overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from math import comb, factorial, gcd, prod

import numpy as np

from .cohomology import CohomologyVector, Overflow
from .fan import InvariantViolation
from .frobenius import FrobeniusOrder
from .linalg import (
    _INT64_GUARD, adjugate_int, check_prime_field, det_int, group_rows, ranks_mod_p
)

# Largest cohomology basis of one term, in one degree, that the engine will
# enumerate.  The incidence twist (40, -42) has 706,020 monomials in each of
# its two terms; (99999, 0) would have about 5 * 10^9.
MAX_CECH_BASIS = 1_000_000

# Cells (8 bytes each) of one weight-block stack.  Blocks sorted by width are
# cut into stacks of at most this many cells; a block larger than the bound
# is a stack of its own.  At benchmark sizes the kernel's cost is one sweep
# per column of a stack, so few, wide stacks are fast: (12, -13), whose 52
# blocks (one per S3-orbit of the 276) are at most 51 x 52, is one stack of
# 52 sweeps.  The bound keeps the padding of the large twists in check: as
# one stack per map, (30, -32) peaked at 308 MB, not 67 MB, and ran 4.6x
# slower; under the bound it is 10 stacks, none above 1.05 * 10^6 cells.
_STACK_CELLS = 2**20


class UnsupportedComplex(ValueError):
    """Hypercohomology would need spectral differentials beyond the first."""


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
    multidegree = tuple(multidegree)
    if len(multidegree) != len(space.factor_dims):
        raise ValueError("multidegree length does not match the factors")
    out = [_factor_degree(n, d) for n, d in zip(space.factor_dims, multidegree)]
    return None if None in out else out


def line_bundle_basis(space: MultiProjSpace, multidegree):
    """(degree, exponent rows) for O(multidegree), or None if acyclic.

    The rows form an int64 array of shape (count, sum(n_i + 1)); each row
    concatenates the factors' exponents of one basis monomial.
    """
    info = _factor_degrees(space, multidegree)
    if info is None:
        return None
    factors = []
    for n, (degree, total) in zip(space.factor_dims, info):
        # stars and bars: the parts are the gaps between n bars in total + n slots
        bars = np.array(list(combinations(range(total + n), n)), dtype=np.int64)
        parts = np.diff(bars, axis=1, prepend=-1, append=total + n) - 1
        factors.append(parts if degree == 0 else -1 - parts)
    picks = np.indices([len(f) for f in factors]).reshape(len(factors), -1)
    rows = np.concatenate([f[pick] for f, pick in zip(factors, picks)], axis=1)
    return sum(degree for degree, _ in info), rows


def _basis_size(space: MultiProjSpace, multidegree):
    """(degree, basis size) of O(multidegree) from binomials, or None if acyclic.

    Counts what :func:`line_bundle_basis` enumerates, without enumerating it.
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


class Poly:
    """A multihomogeneous polynomial: monomial (tuple per factor) -> coefficient."""

    def __init__(self, terms: dict):
        self.terms = {m: c for m, c in terms.items() if c}

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                key = tuple(
                    tuple(a + b for a, b in zip(f1, f2)) for f1, f2 in zip(m1, m2)
                )
                out[key] = out.get(key, 0) + c1 * c2
        return Poly(out)

    def is_zero(self) -> bool:
        return not self.terms


def incidence_form(n: int = 3) -> Poly:
    """The pairing form sum_i x_i y_i on P(V) x P(V*), with dim V = n."""
    terms = {}
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        terms[(e, e)] = 1
    return Poly(terms)


@dataclass(frozen=True)
class LaurentComplex:
    """A bounded complex of direct sums of multidegree line bundles.

    ``terms[s]`` lists the multidegrees of the s-th term and ``maps[s]`` is the
    matrix of Poly entries from terms[s] to terms[s+1], indexed
    maps[s][row][col] with rows over target summands.  ``shift`` is the
    cohomological position of terms[0].  A map of the wrong shape, or a
    monomial without one exponent tuple of length n_i + 1 per factor P^(n_i),
    raises ValueError.
    """

    space: MultiProjSpace
    terms: tuple
    maps: tuple
    shift: int = 0

    def __post_init__(self):
        if len(self.maps) != max(len(self.terms) - 1, 0):
            raise ValueError("need exactly one map per consecutive pair of terms")
        widths = tuple(n + 1 for n in self.space.factor_dims)
        for s, matrix in enumerate(self.maps):
            rows, cols = len(self.terms[s + 1]), len(self.terms[s])
            if len(matrix) != rows or any(len(row) != cols for row in matrix):
                raise ValueError(f"map {s} is not a {rows} x {cols} matrix")
            for poly in chain.from_iterable(matrix):
                for mono in poly.terms:
                    if tuple(len(f) for f in mono) != widths:
                        raise ValueError(
                            f"monomial {mono} of map {s} needs one exponent "
                            f"tuple per factor, of lengths {widths}"
                        )

    def check_composition(self) -> bool:
        """Symbolic d()d = 0, entrywise on the polynomial matrices."""
        for s in range(len(self.maps) - 1):
            first, second = self.maps[s], self.maps[s + 1]
            for row in range(len(self.terms[s + 2])):
                for col in range(len(self.terms[s])):
                    acc: dict = {}
                    for mid in range(len(self.terms[s + 1])):
                        composite = second[row][mid] * first[mid][col]
                        for mono, coeff in composite.terms.items():
                            acc[mono] = acc.get(mono, 0) + coeff
                    if any(acc.values()):
                        return False
        return True


def _term_basis(space, term, degree):
    """Degree-`degree` basis of a sum of bundles: int64 rows [summand j | exponents]."""
    width = 1 + sum(n + 1 for n in space.factor_dims)
    blocks = [np.zeros((0, width), dtype=np.int64)]
    for j, md in enumerate(term):
        info = line_bundle_basis(space, md)
        if info is not None and info[0] == degree:
            blocks.append(np.insert(info[1], 0, j, axis=1))
    return np.concatenate(blocks)


def _weights(poly_matrix, width: int):
    """Integer rows K with K . t = 0 for every term exponent t of the map.

    T is a maximal independent set of the terms, picked greedily by a nonzero
    Gram determinant; with G = T T^t, K = det(G) I - T^t adj(G) T is det(G)
    times the projection away from their span, each row divided by its gcd.
    With no terms, K = I.
    """
    basis = np.zeros((0, width), dtype=object)
    for row in poly_matrix:
        for poly in row:
            for mono in poly.terms:
                grown = np.vstack((basis, [list(chain.from_iterable(mono))]))
                if det_int(grown @ grown.T):
                    basis = grown
    det, adj = adjugate_int(basis @ basis.T)
    adj = np.array(adj, dtype=object).reshape(len(basis), len(basis))
    weights = det * np.identity(width, dtype=object) - basis.T @ adj @ basis
    return [[x // (gcd(*row) or 1) for x in row] for row in weights.tolist()]


def _local_index(block, ids):
    """Each entry's index among the distinct ids of its block, and their counts.

    ``block`` holds labels 0..K-1, each met at least once.  The distinct
    (block, id) pairs are ranked with the block first; an entry's local index
    is its pair's rank minus the rank of its block's first pair.
    """
    order, starts, pair = group_rows((ids, block))
    first = np.flatnonzero(np.diff(block[order[starts]], prepend=-1))
    return pair - first[block], np.diff(first, append=len(starts))


def _basis_index(space, multidegree, rows):
    """Position of each exponent row in ``line_bundle_basis(space, multidegree)``.

    A row outside that basis gets -1.  Per factor P^n of exponent total t,
    the parts e (the exponents, or -1 - exponents in top degree) are ranked
    in the lex order of the stars-and-bars enumeration, which is the lex
    order of e: with R_i = t - e_0 - ... - e_(i-1), the compositions below e
    number sum_i C(R_i + n - i, n - i) - C(R_(i+1) + n - i, n - i).  Every
    binomial read is at most C(t + n, n), the factor's basis size.  The
    factors combine in the basis's mixed radix, the first factor slowest.
    """
    index = np.zeros(len(rows), dtype=np.int64)
    valid = np.ones(len(rows), dtype=bool)
    start = 0
    for n, (degree, total) in zip(space.factor_dims, _factor_degrees(space, multidegree)):
        parts = rows[:, start : start + n + 1]
        start += n + 1
        if degree:
            parts = -1 - parts
        in_range = np.all((parts >= 0) & (parts <= total), axis=1)
        parts = np.where(in_range[:, None], parts, 0)
        valid &= in_range & (parts.sum(axis=1) == total)
        parts[~valid] = 0
        # binom[y, k] = C(y + k, k), by C(y + k, k) = sum_(x <= y) C(x + k - 1, k - 1)
        binom = np.ones((total + 1, n + 1), dtype=np.int64)
        for k in range(1, n + 1):
            binom[:, k] = np.cumsum(binom[:, k - 1])
        left = total - np.cumsum(parts, axis=1) + parts  # R_0 .. R_n
        k = n - np.arange(n)
        below = binom[left[:, :n], k] - binom[left[:, 1:], k]
        index = index * binom[total, n] + below.sum(axis=1)
    return np.where(valid, index, -1)


def _symmetry(space, poly_matrix) -> int:
    """The g of the coordinate permutation group S_g that fixes the map.

    S_g permutes the coordinates of every factor at once, so it needs every
    factor to be one P^n, and then g = n + 1.  It is taken only when the
    transposition (0 1) and the cycle (0 1 ... n), which generate S_(n+1),
    both fix every entry of ``poly_matrix`` term for term; otherwise g = 1,
    the trivial group.
    """
    if len(set(space.factor_dims)) != 1:
        return 1
    g = space.factor_dims[0] + 1
    for perm in ((1, 0, *range(2, g)), (*range(1, g), 0)):
        for poly in chain.from_iterable(poly_matrix):
            image = {
                tuple(tuple(f[i] for i in perm) for f in mono): c
                for mono, c in poly.terms.items()
            }
            if image != poly.terms:
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
    """
    w = weights.reshape(len(weights), -1, g)
    at = np.arange(len(w))
    canonical = np.ones(len(w), dtype=bool)
    run = stabiliser = np.ones(len(w), dtype=np.int64)
    for i in range(g - 1):
        left, right = w[:, :, i], w[:, :, i + 1]
        differ = left != right
        first = differ.argmax(axis=1)
        ties = ~differ.any(axis=1)
        canonical &= ties | (left[at, first] < right[at, first])
        run = np.where(ties, run + 1, 1)
        stabiliser = stabiliser * run
    return canonical, factorial(g) // stabiliser[canonical]


def _map_rank_mod_p(space, src_term, dst_term, poly_matrix, degree, p) -> int:
    """Rank over F_p of the induced map on degree-`degree` cohomology.

    Each term t of entry (dst_j, src_j) sends the source row [src_j | m] to
    [dst_j | m + t]; products outside the target basis are discarded, and
    the others are found in it by :func:`_basis_index`, so the target basis
    is counted but never enumerated.  The terms of an entry are distinct, so
    no two contributions share a matrix entry, and dropping the terms that
    vanish mod p drops every zero entry.  As K . (m + t) = K . m for
    K = :func:`_weights`, the map is block diagonal over the weights K . m of
    its columns.

    When S_g = :func:`_symmetry` is not trivial, a permutation s in it maps
    the bases, and the term set of every entry, to themselves, and K s = s K
    because s keeps the span of the terms.  So s maps the weight-w block
    entry for entry onto the weight-s(w) block, in the degree-0 and the
    local-cohomology model alike, and the blocks of one orbit have one rank.
    Only the source rows of canonical weight (:func:`_orbits`) are kept,
    before any product is formed, and each block's rank counts orbit-size
    times.  With the trivial group every block is kept, once.

    The blocks are sorted by (width, height) and cut greedily into stacks of
    at most _STACK_CELLS cells, each built, eliminated by one
    :func:`ranks_mod_p` call and freed in turn.  A block keeps its rows at
    the top of its stack and its columns at the right, so the kernel's
    update at a column spans exactly the block's own remaining columns, and
    the zero padding costs no arithmetic.  Overflow is raised before any
    exponent, product or weight could reach _INT64_GUARD.
    """
    src = _term_basis(space, src_term, degree)
    offsets, count = [], 0
    for md in dst_term:
        info = _basis_size(space, md)
        offsets.append(count if info is not None and info[0] == degree else None)
        count += info[1] if offsets[-1] is not None else 0
    terms = [
        (dst_j, src_j, np.array(list(chain.from_iterable(mono)), dtype=np.int64), c % p)
        for dst_j, row in enumerate(poly_matrix)
        for src_j, poly in enumerate(row)
        for mono, c in poly.terms.items()
        if c % p
    ]
    if not len(src) or not count or not terms:
        return 0
    weights = _weights(poly_matrix, src.shape[1] - 1)
    spread = max(sum(map(abs, row)) for row in weights)
    reach = int(np.abs(src[:, 1:]).max())
    reach += max(int(np.abs(t).max()) for _, _, t, _ in terms)
    if max(spread, 1) * reach >= _INT64_GUARD:
        raise Overflow(f"Cech weights need {spread} * {reach}, past int64")
    weight = src[:, 1:] @ np.array(weights, dtype=np.int64).T
    orbit = np.ones(len(src), dtype=np.int64)
    g = _symmetry(space, poly_matrix)
    if g > 1:
        keep, orbit = _orbits(weight, g)
        src, weight = src[keep], weight[keep]
    found = [(np.zeros(0, dtype=np.int64),) * 3]
    for dst_j, src_j, t, c in terms:
        if offsets[dst_j] is not None:
            at = np.flatnonzero(src[:, 0] == src_j)
            index = _basis_index(space, dst_term[dst_j], src[at, 1:] + t)
            hit = index >= 0
            found.append((offsets[dst_j] + index[hit], at[hit], np.full(hit.sum(), c)))
    rows, cols, values = map(np.concatenate, zip(*found))
    if not len(rows):
        return 0
    block = group_rows(weight[cols])[2]
    i, nrows = _local_index(block, rows)
    j, ncols = _local_index(block, cols)
    size = np.empty(len(nrows), dtype=np.int64)
    size[block] = orbit[cols]
    # blocks sorted by (width, height), cut greedily into stacks of at most
    # _STACK_CELLS cells; a stack is as wide as its last block
    order = np.lexsort((nrows, ncols))
    heights, widths = nrows[order].tolist(), ncols[order].tolist()
    cuts, tall = [0], 0
    for k, (h, w) in enumerate(zip(heights, widths)):
        tall = max(tall, h)
        if k > cuts[-1] and (k + 1 - cuts[-1]) * tall * w > _STACK_CELLS:
            cuts.append(k)
            tall = h
    cuts.append(len(order))
    place = np.argsort(order)[block]  # each entry's block, by its place in order
    rank = 0
    for start, stop in zip(cuts, cuts[1:]):
        at = np.flatnonzero((place >= start) & (place < stop))
        width = widths[stop - 1]
        stack = np.zeros((stop - start, max(heights[start:stop]), width), dtype=np.int64)
        stack[place[at] - start, i[at], j[at] + width - ncols[block[at]]] = values[at]
        rank += int(ranks_mod_p(stack, p) @ size[order[start:stop]])
        del stack
    return rank


def hypercohomology_fp(cx: LaurentComplex, p: int) -> dict:
    """Hypercohomology dimensions over F_p, as a map degree -> dimension.

    Requires every term to have single-degree cohomology and the first page to
    degenerate after its first differential; anything else raises
    UnsupportedComplex rather than being approximated.  The rank of each
    first-page differential is :func:`_map_rank_mod_p`: the sum of the F_p
    ranks of its torus-weight blocks.  A p that is not prime (Z/p is
    then no field and ranks mean nothing), or too large for the int64
    elimination, raises ValueError before any work is done.  A term
    whose basis in one degree has more than MAX_CECH_BASIS monomials raises
    Overflow before any monomial is enumerated.
    """
    check_prime_field(p)
    space = cx.space
    if not cx.check_composition():
        raise UnsupportedComplex("composition of consecutive maps is nonzero")
    nterms = len(cx.terms)
    e1: dict = {}
    for s, term in enumerate(cx.terms):
        for md in term:
            info = _basis_size(space, md)
            if info is not None:
                e1[(s, info[0])] = e1.get((s, info[0]), 0) + info[1]
    for (s, t), dim in e1.items():
        if dim > MAX_CECH_BASIS:
            raise Overflow(
                f"term {s} has {dim} basis monomials in degree {t}, "
                f"more than {MAX_CECH_BASIS}"
            )
    for (s, t), dim in e1.items():
        if dim:
            for r in range(2, nterms):
                if e1.get((s + r, t - r + 1), 0):
                    raise UnsupportedComplex(
                        "a higher spectral differential could be nonzero"
                    )
    ranks: dict = {}
    for s in range(nterms - 1):
        degrees = {t for (s_, t) in e1 if s_ in (s, s + 1)}
        for t in degrees:
            ranks[s, t] = _map_rank_mod_p(space, *cx.terms[s : s + 2], cx.maps[s], t, p)
    result: dict = {}
    for (s, t), dim in e1.items():
        e2 = dim - ranks.get((s, t), 0) - ranks.get((s - 1, t), 0)
        if e2:
            pos = s + t + cx.shift
            result[pos] = result.get(pos, 0) + e2
    return result


def incidence_cohomology(a: int, b: int, p: int) -> CohomologyVector:
    """h^i of O(a, b) on the incidence threefold {sum x_i y_i = 0} in P2 x P2.

    Uses the two-term restriction complex O(a-1, b-1) -> O(a, b) with the
    pairing form as the map; the canonical class of the threefold is
    O(-2, -2), which the test suite exercises through Serre duality.
    """
    space = MultiProjSpace((2, 2))
    cx = LaurentComplex(
        space=space,
        terms=(((a - 1, b - 1),), ((a, b),)),
        maps=((((incidence_form(3)),),),),
        shift=-1,
    )
    hyper = hypercohomology_fp(cx, p)
    stray = {pos: dim for pos, dim in hyper.items() if not 0 <= pos <= 3}
    if stray:
        # exactness of the restriction sequence forbids anything here
        raise InvariantViolation(
            f"incidence cohomology found classes outside degrees 0..3: {stray}"
        )
    return CohomologyVector(tuple(hyper.get(i, 0) for i in range(4)))


def concentration_check(a: int, b: int, p: int, m: int) -> bool:
    """The q = p^m pullback of O(a, b) on the incidence threefold has at most
    one nonzero cohomology group.  A p that is not prime, or an m < 0,
    raises ValueError before any work is done."""
    q = FrobeniusOrder(p, m).q
    dims = incidence_cohomology(q * a, q * b, p)
    return sum(1 for d in dims.dims if d) <= 1
