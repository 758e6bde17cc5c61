"""Splitting of Frobenius pushforwards of line bundles into line bundles.

On a smooth complete toric variety the pushforward of O(D) along the q-power
Frobenius (q = p^n) splits as a direct sum of line bundles indexed by the
residues of characters mod q.  The explicit residue formula used here is
never trusted on its own: every public decomposition is certified against the
projection formula, which determines the class multiset through the exact
cohomology of twists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cohomology import Overflow, cohomology, cohomology_of_class
from .fan import Divisor, DivisorClass, Fan, InvariantViolation, class_of
from .linalg import _INT64_GUARD, is_prime

# Residues per block of the vectorised decomposition; bounds its memory.
RESIDUE_CHUNK = 1 << 16


class OracleMismatch(InvariantViolation):
    """A decomposition failed its projection-formula certification.

    ``failure`` is the first broken identity as (twist E, degree i, lhs, rhs)
    when a certification found it, else None.
    """

    def __init__(self, message: str, failure=None):
        super().__init__(message)
        self.failure = failure


@dataclass(frozen=True)
class FrobeniusOrder:
    """The q = p^n power Frobenius.  n = 0 is allowed and means the identity."""

    p: int
    n: int = 1

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.n < 0:
            raise ValueError("n must be >= 0")

    @property
    def q(self) -> int:
        return self.p**self.n


@dataclass
class Decomposition:
    """Multiset of line bundle classes of a split Frobenius pushforward.

    ``entries`` maps each class to its multiplicity; ``witnesses`` keeps one
    residue u and the divisor it produced, per class.
    """

    fan: Fan
    divisor: Divisor
    order: FrobeniusOrder
    entries: dict
    witnesses: dict = field(repr=False)
    certified: bool = False

    @property
    def rank(self) -> int:
        return sum(self.entries.values())

    def sorted_entries(self):
        return sorted(self.entries.items(), key=lambda kv: kv[0], reverse=True)


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def _check_residue_range(fan: Fan, divisor, q: int) -> None:
    """Raise Overflow unless the residue arithmetic is exact in int64."""
    numer = max(abs(a) for a in divisor) + (q - 1) * max(
        sum(abs(x) for x in ray) for ray in fan.rays
    )
    weight = max(sum(abs(c) for c in col) for col in zip(*fan.class_matrix))
    if max(numer, (numer // q + 1) * weight, q**fan.dim) >= _INT64_GUARD:
        raise Overflow("residue decomposition exceeds the exact int64 range")


def _raw_decompose(fan: Fan, divisor, order: FrobeniusOrder):
    """Classes of O(floor((D + <u, v_rho>) / q)) over the residues u in [0, q)^d.

    The residues are the base-q digits of a flat index, first coordinate
    most significant (``itertools.product`` order), taken in blocks of
    RESIDUE_CHUNK.  ``entries`` lists each class once, in order of first
    occurrence, with its multiplicity; ``witnesses`` gives that first residue
    u and its coefficients.
    """
    q, d = order.q, fan.dim
    _check_residue_range(fan, divisor, q)
    rays_t = np.array(fan.rays, dtype=np.int64).T
    cmat = np.array(fan.class_matrix, dtype=np.int64)
    shift = np.array(divisor, dtype=np.int64)
    place = q ** np.arange(d - 1, -1, -1, dtype=np.int64)
    total = q**d
    found: dict = {}  # class coordinates -> [first flat index, multiplicity]
    for start in range(0, total, RESIDUE_CHUNK):
        flat = np.arange(start, min(start + RESIDUE_CHUNK, total), dtype=np.int64)
        u = flat[:, None] // place % q
        cls = ((shift + u @ rays_t) // q) @ cmat
        # runs of equal rows in lexicographic order; a run's first occurrence
        # is its smallest index
        by_row = np.lexsort(cls.T)
        ranked = cls[by_row]
        fresh = np.ones(len(ranked), dtype=bool)
        fresh[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
        starts = np.flatnonzero(fresh)
        first = np.minimum.reduceat(by_row, starts)
        counts = np.diff(starts, append=len(ranked))
        keys = ranked[starts]
        for key, pos, count in zip(keys.tolist(), first.tolist(), counts.tolist()):
            hit = found.setdefault(tuple(key), [start + pos, 0])
            hit[1] += count
    entries: dict = {}
    witnesses: dict = {}
    for key, (index, count) in sorted(found.items(), key=lambda kv: kv[1][0]):
        cls = DivisorClass(key)
        u = tuple(index // q ** (d - 1 - k) % q for k in range(d))
        coeffs = tuple((a + _dot(u, ray)) // q for a, ray in zip(divisor, fan.rays))
        entries[cls] = count
        witnesses[cls] = (u, coeffs)
    return entries, witnesses


def default_test_divisors(fan: Fan):
    """Test twists {0, +-H_j, K, -K} with H_j the Picard coordinate divisors."""
    out = [fan.zero_divisor()]
    for j in range(fan.pic_rank):
        e = [0] * fan.pic_rank
        e[j] = 1
        h = fan.divisor_of_class(DivisorClass(tuple(e)))
        out.append(h)
        out.append(tuple(-a for a in h))
    k = fan.canonical_divisor()
    out.append(k)
    out.append(tuple(-a for a in k))
    return out


def frobenius_decompose(
    fan: Fan, divisor, order: FrobeniusOrder, certify: bool = True
) -> Decomposition:
    """Split the q-power Frobenius pushforward of O(D) into line bundles.

    With ``certify`` the class multiset is checked against the projection
    formula over the default test twists; a failure raises OracleMismatch and
    indicates an implementation bug, never bad user input.
    """
    divisor = tuple(divisor)
    if len(divisor) != len(fan.rays):
        raise ValueError("divisor length does not match number of rays")
    entries, witnesses = _raw_decompose(fan, divisor, order)
    dec = Decomposition(
        fan=fan, divisor=divisor, order=order, entries=entries, witnesses=witnesses
    )
    if certify:
        if not verify_projection_formula(dec):
            failure = projection_formula_failure(dec)
            e, i, lhs, rhs = failure
            raise OracleMismatch(
                f"projection formula failed for F_{order.q}* O({divisor}) on "
                f"{fan.name or 'fan'}: twist E = {e}, degree {i}, "
                f"sum of h^{i}(D_u + E) = {lhs} but h^{i}(D + qE) = {rhs}",
                failure,
            )
        dec.certified = True
    return dec


def projection_formula_failure(dec: Decomposition):
    """First broken identity sum_u mult(u) h^i(D_u + E) == h^i(D + qE).

    Returns (E, i, lhs, rhs) for the first twist E of
    :func:`default_test_divisors` and degree i where the two sides differ,
    or None when the identity holds for all of them.
    It holds in every cohomological degree because pushing forward along a
    finite map preserves cohomology and twisting by O(E) passes through the
    pushforward as O(qE).
    """
    fan = dec.fan
    q = dec.order.q
    for e in default_test_divisors(fan):
        cls_e = class_of(fan, e)
        lhs = [0] * (fan.dim + 1)
        for cls, mult in dec.entries.items():
            h = cohomology_of_class(fan, cls + cls_e)
            for i, value in enumerate(h.dims):
                lhs[i] += mult * value
        twisted = tuple(a + q * b for a, b in zip(dec.divisor, e))
        rhs = cohomology(fan, twisted).dims
        for i, (left, right) in enumerate(zip(lhs, rhs)):
            if left != right:
                return tuple(e), i, left, right
    return None


def verify_projection_formula(dec: Decomposition) -> bool:
    """True when the projection formula holds for every test twist.

    The twists are {0, +-H_j, K, -K}; :func:`projection_formula_failure`
    names the first identity that breaks.
    """
    return projection_formula_failure(dec) is None


def det_class(dec: Decomposition) -> DivisorClass:
    """Class of the determinant: the multiplicity-weighted sum of summands."""
    total = dec.fan.zero_class()
    for cls, mult in dec.entries.items():
        total = total + mult * cls
    return total


def iterate_check(fan: Fan, divisor, p: int, n: int) -> bool:
    """n successive p-power decompositions agree with one p^n-power pass."""
    single = frobenius_decompose(fan, divisor, FrobeniusOrder(p, n), certify=False)
    step = FrobeniusOrder(p, 1)
    current = {class_of(fan, tuple(divisor)): 1}
    for _ in range(n):
        merged: dict = {}
        for cls, mult in current.items():
            dec = frobenius_decompose(
                fan, fan.divisor_of_class(cls), step, certify=False
            )
            for sub, m in dec.entries.items():
                merged[sub] = merged.get(sub, 0) + mult * m
        current = merged
    return current == single.entries
