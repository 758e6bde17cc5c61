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
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from .cohomology import Overflow, cohomology_of_class
from .fan import (
    Blowup,
    DivisorClass,
    Fan,
    InvariantViolation,
    ProjBundle,
    _integer,
    _integers,
    class_of,
    normalised_degrees,
    per_fan,
    projectivization_fan,
)
from .frobenius import (
    FrobeniusOrder,
    OracleMismatch,
    _pushforward_classes,
    det_class,
    frobenius_decompose,
)
from .linalg import (
    _reduce_mod_p,
    _residue_dtype,
    check_prime_field,
    is_prime,
    ranks_mod_p,
)
from .varieties import BUNDLE_SPECS, named_variety


# Cells of the jet rows, sum(C(d + 2, 2)) * C(q, 2) over the degrees d
# present, one entry of the residue dtype of p each (4 MB at p <= 11, 32 MB
# above p = 46337): every q <= 32 fits (q = 32 needs 3.4 * 10^6), q = 37
# needs 6.2 * 10^6 and q = 81 1.5 * 10^8.
MAX_JET_CELLS = 4_000_000


class MultisetDifferenceNegative(InvariantViolation):
    """A cokernel multiset difference went negative; the bookkeeping broke."""


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


def _divided_multiset(classes, m: int) -> Counter:
    """Class multiset of the m-th divided power of the direct sum of the
    line bundles of ``classes``, empty for m < 0.

    For a direct sum of line bundles the divided and symmetric powers have the
    same class decomposition: one summand O(sum_i a_i E_i) per exponent vector
    with |a| = m.  The multiset has size C(m + r, r) for r + 1 summands.
    """
    out: Counter = Counter()
    if m < 0:
        return out
    zero = DivisorClass((0,) * len(classes[0].coords))
    for pick in combinations_with_replacement(classes, m):
        out[sum(pick, zero)] += 1
    return out


@per_fan
def _bundle(base_fan: Fan, norm) -> ProjBundle:
    """P(E) over ``base_fan`` with the normalised degrees ``norm``, found or
    built once and kept by the base fan.

    A bundle the registry holds is matched by its base fan and degrees and
    recorded on its registered fan, so a check on a catalog bundle builds no
    fan and reads the decompositions that fan already holds.  Any other
    bundle's fan is built by :func:`projectivization_fan`, so that a repeat
    check reads the decompositions it already holds.
    """
    for key, build in BUNDLE_SPECS.items():
        base, degrees = build()
        if base == base_fan and normalised_degrees(base, degrees) == norm:
            return ProjBundle(named_variety(key), base, norm)
    return projectivization_fan(base_fan, norm)


def pbundle_check(base_fan: Fan, degrees, order: FrobeniusOrder) -> bool:
    """Exact multiset test of F_* O on the P^1- or P^2-bundle P(E) over a base.

    E = O(E_0) + ... + O(E_(r-1)) is split of rank r = 2 or 3, normalised so
    that E_0 = 0.  The pushforward of O on P(E) is filtered with graded pieces
    pulled back from the base (Thomsen, J. Algebra 226, 2000): F_* O, then at
    rank 3 the cokernel E_1 of F_*O (x) E* -> F_*(S^q E*) twisted by -xi, and
    F_*(D^(q-r) E (x) det E) (x) det E* twisted by -(r-1) xi.  Their classes
    must equal the direct residue decomposition on the total space, taken on
    the registered fan when the registry holds this bundle.  E_1 is a
    multiset difference, which must stay non-negative.
    """
    norm = normalised_degrees(base_fan, degrees)
    rank = len(norm)
    if rank not in (2, 3):
        raise ValueError("the projective-bundle check needs a rank 2 or 3 bundle")
    q = order.q
    classes = [class_of(base_fan, d) for d in norm]
    pb = _bundle(base_fan, norm)
    xi = pb.o_pi_class(1)
    det = sum(classes, base_fan.zero_class())

    direct = _pushforward_classes(pb.fan, {pb.fan.zero_class(): 1}, order)
    base_dec = _pushforward_classes(base_fan, {base_fan.zero_class(): 1}, order)
    predicted: Counter = Counter()
    for cls, mult in base_dec.items():
        predicted[pb.pullback_class(cls)] += mult
    # the top piece: summands of D^(q-r)E (x) det E, pushed forward on the base
    twists = {tw + det: m for tw, m in _divided_multiset(classes, q - rank).items()}
    for cls, mult in _pushforward_classes(base_fan, twists, order).items():
        predicted[pb.pullback_class(cls - det) - (rank - 1) * xi] += mult
    if rank == 3:
        # E_1 = coker(F_*O (x) E* -> F_* S^q E*), as a class multiset difference
        dual = [-c for c in classes]
        e1 = _pushforward_classes(base_fan, _divided_multiset(dual, q), order)
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
    return predicted == direct


def s2d2_identity_check(base_fan: Fan, a, order: FrobeniusOrder) -> bool:
    """Class bookkeeping for the Frobenius-pullback symmetric power sequence.

    For E = O + O(a) the identity F^*E* (x) S^q E* = S^(2q) E* + det(E*)^q
    must hold as class multisets on the base.  The Frobenius pullback
    multiplies the classes of E* by q; both symmetric powers come from the
    divided-power multisets that the bundle checks rely on.
    """
    q = order.q
    norm = normalised_degrees(base_fan, (base_fan.zero_divisor(), a))
    dual = [-class_of(base_fan, d) for d in norm]
    sym_q = _divided_multiset(dual, q)
    lhs: Counter = Counter()
    for frob in dual:
        for cls, mult in sym_q.items():
            lhs[q * frob + cls] += mult
    rhs = _divided_multiset(dual, 2 * q)
    rhs[q * sum(dual, base_fan.zero_class())] += 1
    return lhs == rhs


def corank_oracle(p: int) -> int:
    """Independent count: monomials x^a y^b with 0 <= a < b < p, C(p, 2) of them.

    p is read by ``fan._integer``, so a bool or a float raises ValueError, as
    does a p that is not prime.
    """
    p = _integer(p, "p")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    return comb(p, 2)


def _blown_up_plane() -> Blowup:
    """The registered X1: P2 subdivided at its first cone, the new ray last.

    The record adds pull-back and exceptional class to the registry's fans.
    """
    plane = named_variety("P2")
    return Blowup(fan=named_variety("X1"), base=plane, cone=plane.max_cones[0])


def blowup_bookkeeping_check(p: int) -> BlowupReport:
    """Counted comparison of F_* O on the blown-up plane with the plane's.

    Against the pulled-back multiset of F_* O_P2, every summand that leaves
    F_* O_X1 must come back moved by exactly the exceptional class E.  Their
    number is the corank, which must equal :func:`corank_oracle`, and the
    determinants must then differ by exactly corank * E.
    """
    order = FrobeniusOrder(p, 1)
    bl = _blown_up_plane()
    plane = bl.base
    dec_plane = frobenius_decompose(plane, plane.zero_divisor(), order)
    dec_bl = frobenius_decompose(bl.fan, bl.fan.zero_divisor(), order)

    exc = bl.exceptional_class()
    pulled = Counter({bl.pullback_class(c): m for c, m in dec_plane.entries.items()})
    blown = Counter(dec_bl.entries)
    left, came = pulled - blown, blown - pulled
    corank = sum(left.values())
    disc = det_class(dec_bl) - bl.pullback_class(det_class(dec_plane))
    moved = Counter({cls + exc: mult for cls, mult in left.items()})
    if moved != came or corank != corank_oracle(p) or disc != corank * exc:
        raise InvariantViolation(
            f"blow-up comparison at p = {p}: {dict(left)} left the pulled-back "
            f"multiset and {dict(came)} came back, with E = {exc}; corank "
            f"{corank} against corank_oracle {corank_oracle(p)}; determinant "
            f"discrepancy {disc}"
        )
    return BlowupReport(corank=corank, det_discrepancy=disc)


def _taylor_table(c: int, d: int, jet_order: int, p: int) -> np.ndarray:
    """T[i, s] = C(i, s) c^(i - s) mod p, the (x - c)^s coefficient of x^i.

    Column by column: C(i, s) = sum_(x < i) C(x, s - 1), so column s of the
    binomials mod p is the running sum of column s - 1, one row down, and
    T[i, s] is that times c^(i - s), read from a table of powers of c mod p.
    The residue c is in [0, p), so every running sum stays below (d + 1) p
    and every product below p^2.
    """
    table = np.zeros((max(d + 1, 0), max(jet_order + 1, 0)), dtype=np.int64)
    if not table.size:
        return table
    power = [1]
    for _ in range(d):
        power.append(power[-1] * c % p)
    binom = np.ones(len(table), dtype=np.int64)  # C(i, s) mod p for all i
    table[:, 0] = power
    for s in range(1, min(table.shape[1], len(table))):
        binom[s:] = np.cumsum(binom[s - 1 : -1]) % p
        table[s:, s] = binom[s:] * power[: len(table) - s] % p
    return table


@lru_cache(maxsize=64)
def _plane_monomials(d: int) -> np.ndarray:
    """The read-only rows (i, j), i + j <= d, of the plane monomials x^i y^j
    of degree at most d, i slowest; none for d < 0."""
    rows = np.array([(i, j) for i in range(d + 1) for j in range(d + 1 - i)], dtype=np.int64)
    rows = rows.reshape(-1, 2)
    rows.flags.writeable = False
    return rows


def _jet_stack(degrees, jet_order: int, p: int, point):
    """Evaluation of plane sections on jets, one block per degree, as the
    (rows, offsets) that :func:`ranks_mod_p` takes.

    Block k, rows offsets[k] to offsets[k + 1], has a row per monomial
    x^i y^j of degree <= degrees[k] (dehomogenised at the last coordinate)
    and a column per jet monomial (x-a)^s (y-b)^t of order <= jet_order at
    the point (a, b); the entry is the Taylor coefficient C(i, s) a^(i-s)
    C(j, t) b^(j-t) mod p.  It is read from one table per distinct
    coordinate, built once at the largest degree; a smaller degree reads
    fewer of its rows.  Both the rows and the columns are
    :func:`_plane_monomials`, and the blocks are formed by one ``multiply``
    over their concatenated rows, with no padding.  The tables, their
    products and the rows have the residue dtype of p, which holds
    (p - 1)^2, and :func:`ranks_mod_p` eliminates the rows in place.  A p
    that is not prime raises ValueError.
    """
    check_prime_field(p)
    a = point[0] * pow(point[2], p - 2, p) % p
    b = point[1] * pow(point[2], p - 2, p) % p
    dtype, cols = _residue_dtype(p), _plane_monomials(jet_order)
    tables = {c: _taylor_table(c, max(degrees), jet_order, p).astype(dtype) for c in {a, b}}
    ta, tb = tables[a][:, cols[:, 0]], tables[b][:, cols[:, 1]]
    monomials = np.concatenate([_plane_monomials(d) for d in degrees])
    rows = ta[monomials[:, 0]]
    np.multiply(rows, tb[monomials[:, 1]], out=rows)  # at most (p - 1)^2
    _reduce_mod_p(rows, p, out=rows)
    offsets = np.cumsum([0] + [comb(d + 2, 2) for d in degrees])
    return rows, offsets


def delpezzo_jet_check(
    p: int, n: int, compute_rank: bool = False, point=(1, 1, 1)
) -> JetCheckReport:
    """Multiplicities, section counts and jet conditions on the plane.

    The pulled-back pushforward twisted by omega^(1-q) splits as
    O(3q-3) + O(2q-3)^p1 + O(q-3)^p2; the multiplicities must match their
    closed forms, the two section-count routes (binomial formula versus the
    cohomology engine) must agree, and ``passed`` records whether the section
    count covers the number of jet conditions.  Optionally the exact rank of
    the jet evaluation matrix over F_p at the chosen point is computed.  The
    point must be three integers, none 0 mod p; any other point, a bool or a
    float coordinate included, raises ValueError, and jet rows of more than
    MAX_JET_CELLS cells raise Overflow before they are allocated.

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
        point = _integers(point, "jet evaluation point")
        if len(point) != 3 or any(c % p == 0 for c in point):
            raise ValueError(
                f"jet evaluation point {point} needs three coordinates, none 0 mod {p}"
            )
        # block diagonal: the distinct blocks are eliminated once, by one call
        present = [(d, mult) for d, mult in twists if mult]
        cells = sum(comb(d + 2, 2) for d, _ in present) * comb(q, 2)
        if cells > MAX_JET_CELLS:
            raise Overflow(f"jet rank at q = {q} needs {cells} > {MAX_JET_CELLS} cells")
        rows, offsets = _jet_stack([d for d, _ in present], q - 2, p, point)
        rank = int(ranks_mod_p(rows, offsets, p) @ [mult for _, mult in present])
    return JetCheckReport(
        q=q,
        p1=p1,
        p2=p2,
        dimH0=dim_h0,
        jet_conditions=jet_conditions,
        surjective_rank=rank,
        passed=dim_h0 >= jet_conditions,
    )
