"""Structural verifications for projective bundles, blow-ups and jets.

These checks confront two independently computed class multisets: a direct
residue decomposition on a total space against the prediction assembled from
base data through the projective-bundle or blow-up structure.  All of them
are exact multiset identities with no tolerance.  P^1- and P^2-bundles share
one check, :func:`pbundle_check`; its pushforwards of class multisets on the
base come from :func:`frobenius._pushforward_classes`, as the iterated
Frobenius check's do: every multiset compared is certified.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from .cohomology import Overflow, cohomology_of_class
from .fan import (
    Blowup,
    DivisorClass,
    Fan,
    InvariantViolation,
    class_of,
    projectivization_fan,
)
from .frobenius import (
    FrobeniusOrder,
    OracleMismatch,
    _pushforward_classes,
    det_class,
    frobenius_decompose,
)
from .linalg import check_prime_field, is_prime, ranks_mod_p
from .varieties import named_variety


# Cells of the jet stack (32 MB of int64): q <= 27 fits, q = 81 needs 2.3 GB.
MAX_JET_CELLS = 4_000_000


class MultisetDifferenceNegative(InvariantViolation):
    """A cokernel multiset difference went negative; the bookkeeping broke."""


@dataclass(frozen=True)
class SplitBundle:
    """A direct sum of line bundles O(E_0) + ... + O(E_r) on a toric base."""

    base: Fan
    degrees: tuple

    def __post_init__(self):
        if not self.degrees:
            raise ValueError("a split bundle needs at least one summand")
        if any(len(d) != len(self.base.rays) for d in self.degrees):
            raise ValueError("summand degrees must align with the base rays")

    def classes(self):
        return [class_of(self.base, d) for d in self.degrees]

    def det_class(self) -> DivisorClass:
        total = self.base.zero_class()
        for c in self.classes():
            total = total + c
        return total


@dataclass(frozen=True)
class JetCheckReport:
    q: int
    p1: int
    p2: int
    dimH0: int
    jet_conditions: int
    surjective_rank: int | None
    passed: bool


@dataclass(frozen=True)
class BlowupReport:
    corank: int
    det_discrepancy: DivisorClass
    rank_ok: bool
    multiple: int


def divided_power_split(bundle: SplitBundle, m: int) -> Counter:
    """Class multiset of the m-th divided power of a split bundle.

    For a direct sum of line bundles the divided and symmetric powers have the
    same class decomposition: one summand O(sum_i a_i E_i) per exponent vector
    with |a| = m.  The multiset has size C(m + r, r) for r + 1 summands.
    """
    if m < 0:
        raise ValueError("divided powers need m >= 0")
    return _divided_multiset(bundle, m)


def _divided_multiset(bundle: SplitBundle, m: int) -> Counter:
    out: Counter = Counter()
    if m < 0:
        return out
    classes = bundle.classes()
    for pick in combinations_with_replacement(range(len(classes)), m):
        total = bundle.base.zero_class()
        for i in pick:
            total = total + classes[i]
        out[total] += 1
    return out


def pbundle_check(base_fan: Fan, degrees, order: FrobeniusOrder) -> bool:
    """Exact multiset test of F_* O on the P^1- or P^2-bundle P(E) over a base.

    E = O(E_0) + ... + O(E_(r-1)) is split of rank r = 2 or 3, normalised so
    that E_0 = 0.  The pushforward of O on P(E) is filtered with graded pieces
    pulled back from the base (Thomsen, J. Algebra 226, 2000): F_* O, then at
    rank 3 the cokernel E_1 of F_*O (x) E* -> F_*(S^q E*) twisted by -xi, and
    F_*(D^(q-r) E (x) det E) (x) det E* twisted by -(r-1) xi.  Their classes
    must equal the direct residue decomposition on the total space.  E_1 is a
    multiset difference, which must stay non-negative.
    """
    rank = len(degrees)
    if rank not in (2, 3):
        raise ValueError("the projective-bundle check needs a rank 2 or 3 bundle")
    q = order.q
    norm = tuple(tuple(x - y for x, y in zip(d, degrees[0])) for d in degrees)
    bundle = SplitBundle(base=base_fan, degrees=norm)
    pb = projectivization_fan(base_fan, norm)
    xi = pb.o_pi_class(1)
    det = bundle.det_class()

    direct = _pushforward_classes(pb.fan, {pb.fan.zero_class(): 1}, order)
    base_dec = _pushforward_classes(base_fan, {base_fan.zero_class(): 1}, order)
    predicted: Counter = Counter()
    for cls, mult in base_dec.items():
        predicted[pb.pullback_class(cls)] += mult
    # the top piece: summands of D^(q-r)E (x) det E, pushed forward on the base
    twists = {tw + det: m for tw, m in _divided_multiset(bundle, q - rank).items()}
    for cls, mult in _pushforward_classes(base_fan, twists, order).items():
        predicted[pb.pullback_class(cls - det) - (rank - 1) * xi] += mult
    if rank == 3:
        # E_1 = coker(F_*O (x) E* -> F_* S^q E*), as a class multiset difference
        dual = SplitBundle(base=base_fan, degrees=tuple(tuple(-x for x in d) for d in norm))
        e1 = _pushforward_classes(base_fan, _divided_multiset(dual, q), order)
        for cls, mult in base_dec.items():
            for ci in bundle.classes():
                e1[cls - ci] -= mult
        if any(v < 0 for v in e1.values()):
            raise MultisetDifferenceNegative(
                "cokernel class multiset has a negative multiplicity"
            )
        for cls, mult in e1.items():
            if mult:
                predicted[pb.pullback_class(cls) - xi] += mult
    return predicted == direct


def s2d2_identity_check(base_fan: Fan, a, order: FrobeniusOrder) -> bool:
    """Class bookkeeping for the Frobenius-pullback symmetric power sequence.

    For E = O + O(a) the identity F^*E* (x) S^q E* = S^(2q) E* + det(E*)^q
    must hold as class multisets on the base.  The Frobenius pullback
    multiplies the classes of E* by q; both symmetric powers come from the
    divided-power multisets that the bundle checks rely on.
    """
    q = order.q
    dual = SplitBundle(
        base=base_fan,
        degrees=(base_fan.zero_divisor(), tuple(-x for x in a)),
    )
    sym_q = _divided_multiset(dual, q)
    lhs: Counter = Counter()
    for frob in dual.classes():
        for cls, mult in sym_q.items():
            lhs[q * frob + cls] += mult
    rhs = _divided_multiset(dual, 2 * q)
    rhs[q * dual.det_class()] += 1
    return lhs == rhs


def blowup_corank(p: int) -> int:
    """Multiplicity of the exceptional twist in the blow-up comparison."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    return p * (p - 1) // 2


def corank_oracle(p: int) -> int:
    """Independent count: monomials x^a y^b with 0 <= a < b < p."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    return sum(1 for a_ in range(p) for b_ in range(p) if a_ < b_)


def _blown_up_plane() -> Blowup:
    """The registered X1: P2 subdivided at its first cone, the new ray last.

    The record adds pull-back and exceptional class to the registry's fans.
    """
    plane = named_variety("P2")
    return Blowup(
        fan=named_variety("X1"), base=plane, cone=plane.max_cones[0], new_ray_index=3
    )


def blowup_bookkeeping_check(p: int) -> BlowupReport:
    """Rank and determinant bookkeeping for the blow-up of the plane.

    Both decompositions must have total multiplicity p^2, and the determinant
    of the blow-up decomposition must differ from the pulled-back plane
    determinant by an integer multiple of the exceptional class.
    """
    order = FrobeniusOrder(p, 1)
    bl = _blown_up_plane()
    plane = bl.base
    dec_plane = frobenius_decompose(plane, plane.zero_divisor(), order)
    dec_bl = frobenius_decompose(bl.fan, bl.fan.zero_divisor(), order)
    rank_ok = dec_plane.rank == p**2 and dec_bl.rank == p**2

    pulled = bl.pullback_class(det_class(dec_plane))
    disc = det_class(dec_bl) - pulled
    exc = bl.exceptional_class()
    multiple = None
    for dv, ev in zip(disc.coords, exc.coords):
        if ev != 0:
            multiple = dv // ev
            break
    if multiple is None or multiple * exc != disc:
        raise InvariantViolation(
            "determinant discrepancy is not a multiple of the exceptional class"
        )
    return BlowupReport(
        corank=blowup_corank(p),
        det_discrepancy=disc,
        rank_ok=rank_ok,
        multiple=multiple,
    )


def _taylor_table(c: int, d: int, jet_order: int, p: int) -> np.ndarray:
    """T[i, s] = C(i, s) c^(i - s) mod p, the (x - c)^s coefficient of x^i."""
    table = np.zeros((max(d + 1, 0), max(jet_order + 1, 0)), dtype=np.int64)
    for i, s in np.ndindex(table.shape):
        if s <= i:
            table[i, s] = comb(i, s) * pow(c, i - s, p) % p
    return table


def _jet_stack(degrees, jet_order: int, p: int, point) -> np.ndarray:
    """Evaluation of plane sections on jets, one zero-padded block per degree.

    Block k has a row per monomial x^i y^j of degree <= degrees[k]
    (dehomogenised at the last coordinate) and a column per jet monomial
    (x-a)^s (y-b)^t of order <= jet_order at the point (a, b); the entry is
    the Taylor coefficient C(i, s) a^(i-s) C(j, t) b^(j-t) mod p.  It is read
    from one table per coordinate, built once at the largest degree; a
    smaller degree reads fewer of its rows.  Rows past a block's own count
    are zero.  A p that is not prime raises ValueError.
    """
    check_prime_field(p)
    a = point[0] * pow(point[2], p - 2, p) % p
    b = point[1] * pow(point[2], p - 2, p) % p
    cols = np.array(
        [(s, t) for s in range(jet_order + 1) for t in range(jet_order + 1 - s)],
        dtype=np.int64,
    ).reshape(-1, 2)
    top = max(degrees)
    ta = _taylor_table(a, top, jet_order, p)[:, cols[:, 0]]
    tb = _taylor_table(b, top, jet_order, p)[:, cols[:, 1]]
    rows = [
        np.array([(i, j) for i in range(d + 1) for j in range(d + 1 - i)], dtype=np.int64)
        .reshape(-1, 2)
        for d in degrees
    ]
    stack = np.zeros((len(degrees), max(map(len, rows)), len(cols)), dtype=np.int64)
    for k, r in enumerate(rows):
        stack[k, : len(r)] = ta[r[:, 0]] * tb[r[:, 1]] % p
    return stack


def delpezzo_jet_check(
    p: int, n: int, compute_rank: bool = False, point=(1, 1, 1)
) -> JetCheckReport:
    """Multiplicities, section counts and jet conditions on the plane.

    The pulled-back pushforward twisted by omega^(1-q) splits as
    O(3q-3) + O(2q-3)^p1 + O(q-3)^p2; the multiplicities must match their
    closed forms, the two section-count routes (binomial formula versus the
    cohomology engine) must agree, and ``passed`` records whether the section
    count covers the number of jet conditions.  Optionally the exact rank of
    the jet evaluation matrix over F_p at the chosen point is computed; points
    with a zero coordinate are rejected, and a stack of more than
    MAX_JET_CELLS cells raises Overflow before it is allocated.

    The matrix is block diagonal: each summand O(d) contributes a block of
    C(d+2,2) section rows and C(q,2) columns, the jets of order <= q-2.  In
    the translated monomials (x-a)^s (y-b)^t the block is injective for
    d <= q-2 and surjective for d >= q-2, so the maximal rank
    sum(mult * min(C(d+2,2), C(q,2))) is attained in every characteristic.
    It is smaller than min(dimH0, jet_conditions) once q >= 3, because the
    O(q-3) blocks have fewer rows than columns.
    """
    order = FrobeniusOrder(p, n)
    q = order.q
    plane = named_variety("P2")
    dec = frobenius_decompose(plane, plane.zero_divisor(), order)
    by_degree = {cls.coords[0]: mult for cls, mult in dec.entries.items()}
    p1 = by_degree.get(-1, 0)
    p2 = by_degree.get(-2, 0)
    if by_degree.get(0, 0) != 1 or set(by_degree) - {0, -1, -2}:
        raise OracleMismatch("unexpected classes in the plane decomposition")
    if p1 != (q - 1) * (q + 4) // 2 or p2 != (q - 1) * (q - 2) // 2:
        raise OracleMismatch("summand multiplicities disagree with closed forms")

    dim_h0 = comb(3 * q - 1, 2) + p1 * comb(2 * q - 1, 2) + p2 * comb(q - 1, 2)
    twists = [(3 * q - 3, 1), (2 * q - 3, p1), (q - 3, p2)]
    dim_h0_coh = sum(
        mult * cohomology_of_class(plane, DivisorClass((d,))).dims[0]
        for d, mult in twists
        if mult
    )
    if dim_h0 != dim_h0_coh:
        raise OracleMismatch("binomial and cohomological section counts disagree")

    jet_conditions = q * (q - 1) // 2 * (1 + p1 + p2)
    rank = None
    if compute_rank:
        if any(c % p == 0 for c in point):
            raise ValueError("jet evaluation point must have nonzero coordinates")
        # block diagonal: the distinct blocks are eliminated once, as one stack
        present = [(d, mult) for d, mult in twists if mult]
        cells = len(present) * comb(max(d for d, _ in present) + 2, 2) * comb(q, 2)
        if cells > MAX_JET_CELLS:
            raise Overflow(f"jet rank at q = {q} needs {cells} > {MAX_JET_CELLS} cells")
        stack = _jet_stack([d for d, _ in present], q - 2, p, point)
        rank = int(ranks_mod_p(stack, p) @ [mult for _, mult in present])
    return JetCheckReport(
        q=q,
        p1=p1,
        p2=p2,
        dimH0=dim_h0,
        jet_conditions=jet_conditions,
        surjective_rank=rank,
        passed=dim_h0 >= jet_conditions,
    )
