"""Exact F_p cohomology of line bundles and line-bundle complexes on products
of projective spaces, with the incidence threefold in P2 x P2 as the main
client.

Cohomology of a multidegree line bundle is concentrated in a single degree:
each factor contributes its monomial basis either in degree 0 (all exponents
nonnegative) or in top degree (all exponents <= -1, the local cohomology
model).  Maps between such bundles act on Laurent monomial bases by
polynomial multiplication followed by truncation to the target basis; that is
the induced map on the standard-cover Cech model.  Each map is collected
sparsely, entry by entry; after reduction mod p its rows and columns split
into the connected components of the nonzero pattern, and its rank is the
sum of the ranks of those blocks.  Every block rank is an exact Gaussian
elimination over F_p, never probabilistic, and no map is ever assembled as
one dense matrix.  Before any monomial is enumerated, the size of every
first-page term is counted from binomials, and a complex with a term of more
than MAX_CECH_BASIS monomials is refused with Overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from math import comb

import numpy as np

from .cohomology import CohomologyVector, Overflow
from .fan import InvariantViolation
from .linalg import check_prime_field, rank_mod_p

# Largest cohomology basis of one term, in one degree, that the engine will
# enumerate.  The incidence twist (40, -42) has 706,020 monomials in each of
# its two terms; (99999, 0) would have about 5 * 10^9.
MAX_CECH_BASIS = 1_000_000


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


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _factor_basis(n: int, d: int):
    """(cohomological degree, exponent basis) of O(d) on P^n, or None.

    Degree-0 monomials have all exponents >= 0; top-degree classes are
    Laurent monomials with all exponents <= -1.
    """
    if d >= 0:
        return 0, list(_compositions(d, n + 1))
    if d <= -(n + 1):
        return n, [
            tuple(-1 - x for x in c) for c in _compositions(-d - (n + 1), n + 1)
        ]
    return None


def line_bundle_basis(space: MultiProjSpace, multidegree):
    """(degree, list of monomial tuples) for O(multidegree), or None if acyclic."""
    multidegree = tuple(multidegree)
    if len(multidegree) != len(space.factor_dims):
        raise ValueError("multidegree length does not match the factors")
    degree = 0
    factors = []
    for n, d in zip(space.factor_dims, multidegree):
        fb = _factor_basis(n, d)
        if fb is None:
            return None
        degree += fb[0]
        factors.append(fb[1])
    return degree, [tuple(mono) for mono in iproduct(*factors)]


def _basis_size(space: MultiProjSpace, multidegree):
    """(degree, basis size) of O(multidegree) from binomials, or None if acyclic.

    Counts what :func:`line_bundle_basis` enumerates, without enumerating it:
    O(d) on P^n has C(d + n, n) monomials in degree 0 when d >= 0 and
    C(-d - 1, n) in degree n when d <= -(n + 1).
    """
    multidegree = tuple(multidegree)
    if len(multidegree) != len(space.factor_dims):
        raise ValueError("multidegree length does not match the factors")
    degree, size = 0, 1
    for n, d in zip(space.factor_dims, multidegree):
        if d >= 0:
            size *= comb(d + n, n)
        elif d <= -(n + 1):
            degree += n
            size *= comb(-d - 1, n)
        else:
            return None
    return degree, size


def line_bundle_cohomology_fp(space: MultiProjSpace, multidegree) -> CohomologyVector:
    """h^i(O(d_1, ..., d_k)); concentrated in one degree, independent of p."""
    dims = [0] * (space.dim + 1)
    info = line_bundle_basis(space, multidegree)
    if info is not None:
        degree, basis = info
        dims[degree] = len(basis)
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

    def apply(self, monomial):
        """Multiply a basis monomial; yields (product monomial, coefficient)."""
        for m, c in self.terms.items():
            yield tuple(
                tuple(a + b for a, b in zip(f1, f2))
                for f1, f2 in zip(monomial, m)
            ), c


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
    cohomological position of terms[0].
    """

    space: MultiProjSpace
    terms: tuple
    maps: tuple
    shift: int = 0

    def __post_init__(self):
        if len(self.maps) != max(len(self.terms) - 1, 0):
            raise ValueError("need exactly one map per consecutive pair of terms")

    def check_composition(self) -> bool:
        """Symbolic d()d = 0, entrywise on the polynomial matrices."""
        for s in range(len(self.maps) - 1):
            first, second = self.maps[s], self.maps[s + 1]
            for row in range(len(self.terms[s + 2])):
                for col in range(len(self.terms[s])):
                    acc: dict = {}
                    for mid in range(len(self.terms[s + 1])):
                        prod = second[row][mid] * first[mid][col]
                        for mono, coeff in prod.terms.items():
                            acc[mono] = acc.get(mono, 0) + coeff
                    if any(acc.values()):
                        return False
        return True


def _term_basis(space, term, degree):
    """Indexed degree-`degree` cohomology basis of a formal sum of bundles."""
    out = []
    for j, md in enumerate(term):
        info = line_bundle_basis(space, md)
        if info is not None and info[0] == degree:
            out.extend((j, mono) for mono in info[1])
    return out


def _map_entries(space, src_term, dst_term, poly_matrix, degree) -> dict:
    """Induced map on degree-`degree` cohomology, as {(row, col): coefficient}.

    Contributions to one entry are summed over Z; product monomials outside
    the target basis support are discarded.
    """
    src = _term_basis(space, src_term, degree)
    dst = _term_basis(space, dst_term, degree)
    dst_index = {key: i for i, key in enumerate(dst)}
    entries: dict = {}
    for col, (src_j, mono) in enumerate(src):
        for dst_j in range(len(dst_term)):
            for prod, coeff in poly_matrix[dst_j][src_j].apply(mono):
                row = dst_index.get((dst_j, prod))
                if row is not None:
                    entries[row, col] = entries.get((row, col), 0) + coeff
    return entries


def _components(cells) -> list:
    """Connected components of the bipartite graph whose edges are `cells`.

    Each component is a pair (rows, cols) of index lists; rows and columns
    that no cell touches belong to no component.
    """
    parent: dict = {}

    def find(node):
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for row, col in cells:
        ends = ("row", row), ("col", col)
        for node in ends:
            parent.setdefault(node, node)
        a, b = map(find, ends)
        if a != b:
            parent[a] = b
    groups: dict = {}
    for kind, index in parent:
        rows, cols = groups.setdefault(find((kind, index)), ([], []))
        (rows if kind == "row" else cols).append(index)
    return list(groups.values())


def _block_rank_mod_p(entries: dict, p: int) -> int:
    """Rank over F_p of the integer matrix given as {(row, col): coefficient}.

    Entries that vanish mod p are dropped.  After permuting its rows and
    columns, the matrix is block diagonal with one block per connected
    component of the nonzero pattern, so its rank is the sum of the blocks'
    ranks, each an exact :func:`rank_mod_p` elimination of a small dense
    block.  The caller has passed p through :func:`check_prime_field`.
    """
    cells = {rc: c % p for rc, c in entries.items() if c % p}
    comps = _components(cells)
    blocks = [np.zeros((len(rows), len(cols)), dtype=np.int64) for rows, cols in comps]
    row_at = {r: (k, i) for k, (rows, _) in enumerate(comps) for i, r in enumerate(rows)}
    col_at = {c: j for _, cols in comps for j, c in enumerate(cols)}
    for (row, col), value in cells.items():
        k, i = row_at[row]
        blocks[k][i, col_at[col]] = value
    return sum(rank_mod_p(block, p) for block in blocks)


def hypercohomology_fp(cx: LaurentComplex, p: int) -> dict:
    """Hypercohomology dimensions over F_p, as a map degree -> dimension.

    Requires every term to have single-degree cohomology and the first page to
    degenerate after its first differential; anything else raises
    UnsupportedComplex rather than being approximated.  The rank of each
    first-page differential is :func:`_block_rank_mod_p` of its sparse
    entries: the sum of exact F_p eliminations of the connected blocks of
    its nonzero pattern.  A p that is not
    prime (Z/p is then no field and ranks mean nothing), or too large for
    the int64 elimination, raises ValueError before any work is done.  A term
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
            entries = _map_entries(space, cx.terms[s], cx.terms[s + 1], cx.maps[s], t)
            ranks[(s, t)] = _block_rank_mod_p(entries, p)
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
    one nonzero cohomology group."""
    q = p**m
    dims = incidence_cohomology(q * a, q * b, p)
    return sum(1 for d in dims.dims if d) <= 1
