"""Structural verifications for projective bundles, blow-ups and jets.

These checks confront two independently computed class multisets: a direct
residue decomposition on a total space against the prediction assembled from
base data through the projective-bundle or blow-up structure.  All of them
are exact multiset identities with no tolerance.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from .cohomology import cohomology_of_class
from .fan import (
    DivisorClass,
    Fan,
    InvariantViolation,
    blowup_fan,
    class_of,
    projectivization_fan,
)
from .frobenius import (
    FrobeniusOrder,
    OracleMismatch,
    det_class,
    frobenius_decompose,
)
from .linalg import check_prime_field, is_prime, rank_mod_p
from .varieties import named_variety


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


def _decompose_classes(fan: Fan, divisor, order) -> Counter:
    dec = frobenius_decompose(fan, divisor, order, certify=False)
    return Counter(dec.entries)


def _pushforward_sum(fan: Fan, twists: Counter, shift, order) -> Counter:
    """Classes of the sum of F_* O(tw + shift) over the twists, with multiplicity."""
    out: Counter = Counter()
    for tw, tw_mult in twists.items():
        dec = _decompose_classes(fan, fan.divisor_of_class(tw + shift), order)
        for cls, mult in dec.items():
            out[cls] += tw_mult * mult
    return out


def p1bundle_check(base_fan: Fan, a, order: FrobeniusOrder) -> bool:
    """Exact multiset test of the splitting of F^n_* O on P(O + O(a)).

    The pushforward is predicted as pullbacks of the base decomposition plus
    pullbacks of the pushforwards of the divided-power twists, twisted down by
    the determinant and by the relative O(-1); this must equal the direct
    residue decomposition on the total space.
    """
    a = tuple(a)
    q = order.q
    bundle = SplitBundle(base=base_fan, degrees=(base_fan.zero_divisor(), a))
    pb = projectivization_fan(base_fan, bundle.degrees)
    total = pb.fan
    xi = pb.o_pi_class(1)
    cls_a = class_of(base_fan, a)

    direct = _decompose_classes(total, total.zero_divisor(), order)

    predicted: Counter = Counter()
    for cls, mult in _decompose_classes(base_fan, base_fan.zero_divisor(), order).items():
        predicted[pb.pullback_class(cls)] += mult
    # summands of D^(q-2)E (x) det E, pushed forward on the base
    twists = _divided_multiset(bundle, q - 2)
    for cls, mult in _pushforward_sum(base_fan, twists, cls_a, order).items():
        predicted[pb.pullback_class(cls - cls_a) - xi] += mult
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


def p2bundle_filtration_check(base_fan: Fan, degrees, order: FrobeniusOrder) -> bool:
    """Exact multiset test of the two-step filtration on a P^2-bundle.

    For a split rank-3 bundle E the pushforward of O on P(E) has graded pieces
    (pullback of F_*O), (pullback of E_1)(-1), and (pullback of F_* of the
    divided-power twist, det-twisted)(-2), where E_1 is the cokernel of
    F_*O (x) E* -> F_*(S^q E*).  The cokernel classes are obtained as a
    multiset difference, which must stay non-negative.
    """
    degrees = [tuple(d) for d in degrees]
    if len(degrees) != 3:
        raise ValueError("the filtration check needs a rank 3 bundle")
    q = order.q
    d0 = degrees[0]
    norm = [tuple(x - y for x, y in zip(d, d0)) for d in degrees]
    bundle = SplitBundle(base=base_fan, degrees=tuple(norm))
    pb = projectivization_fan(base_fan, norm)
    total = pb.fan
    xi = pb.o_pi_class(1)
    det = bundle.det_class()
    classes = bundle.classes()

    direct = _decompose_classes(total, total.zero_divisor(), order)
    base_dec = _decompose_classes(base_fan, base_fan.zero_divisor(), order)

    predicted: Counter = Counter()
    for cls, mult in base_dec.items():
        predicted[pb.pullback_class(cls)] += mult

    # E_1 = coker(F_*O (x) E* -> F_* S^q E*), as a class multiset difference
    dual = SplitBundle(base=base_fan, degrees=tuple(tuple(-x for x in d) for d in norm))
    e1 = _pushforward_sum(base_fan, _divided_multiset(dual, q), base_fan.zero_class(), order)
    for cls, mult in base_dec.items():
        for ci in classes:
            e1[cls - ci] -= mult
    if any(v < 0 for v in e1.values()):
        raise MultisetDifferenceNegative(
            "cokernel class multiset has a negative multiplicity"
        )
    for cls, mult in e1.items():
        if mult:
            predicted[pb.pullback_class(cls) - xi] += mult

    twists = _divided_multiset(bundle, q - 3)
    for cls, mult in _pushforward_sum(base_fan, twists, det, order).items():
        predicted[pb.pullback_class(cls - det) - 2 * xi] += mult
    return predicted == direct


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


@cache
def _blown_up_plane():
    """The registered plane blown up at a torus-fixed point, built once.

    Its fan has the rays and cones of the registered X1, but the Blowup record
    also carries the pull-back and the exceptional class.  Sharing it keeps
    the fan's cohomology caches warm across calls, as the registry does.
    """
    plane = named_variety("P2")
    return blowup_fan(plane, plane.max_cones[0], name="Bl_pt P2")


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


def _lucas_binom(n: int, k: int, p: int) -> int:
    """C(n, k) mod p by Lucas' theorem."""
    if k < 0 or k > n:
        return 0
    result = 1
    while n or k:
        ni, ki = n % p, k % p
        if ki > ni:
            return 0
        result = result * (comb(ni, ki) % p) % p
        n //= p
        k //= p
    return result


def _jet_block(d: int, jet_order: int, p: int, point) -> np.ndarray:
    """Evaluation of degree-d plane sections on jets of the given order.

    Rows index monomials of degree d (dehomogenised at the last coordinate),
    columns index jet monomials of order <= jet_order at the point; entries
    are the translated-coordinate Taylor coefficients mod p (binomials reduced
    via Lucas).  A p that is not prime raises ValueError.
    """
    check_prime_field(p)
    a = point[0] * pow(point[2], p - 2, p) % p
    b = point[1] * pow(point[2], p - 2, p) % p
    cols = [(s, t) for s in range(jet_order + 1) for t in range(jet_order + 1 - s)]
    col_index = {c: k for k, c in enumerate(cols)}
    rows = []
    for i in range(d + 1):
        for j in range(d + 1 - i):
            row = [0] * len(cols)
            for s in range(min(i, jet_order) + 1):
                for t in range(min(j, jet_order - s) + 1):
                    coeff = (
                        _lucas_binom(i, s, p)
                        * _lucas_binom(j, t, p)
                        * pow(a, i - s, p)
                        * pow(b, j - t, p)
                    ) % p
                    row[col_index[(s, t)]] = coeff
            rows.append(row)
    return np.array(rows, dtype=np.int64)


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
    with a zero coordinate are rejected.

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
        # block diagonal: each distinct block is eliminated once
        rank = sum(
            mult * rank_mod_p(_jet_block(d, q - 2, p, point), p)
            for d, mult in twists
            if mult
        )
    return JetCheckReport(
        q=q,
        p1=p1,
        p2=p2,
        dimH0=dim_h0,
        jet_conditions=jet_conditions,
        surjective_rank=rank,
        passed=dim_h0 >= jet_conditions,
    )
