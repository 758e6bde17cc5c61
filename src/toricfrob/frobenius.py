"""Splitting of Frobenius pushforwards of line bundles into line bundles.

On a smooth complete toric variety the pushforward of O(D) along the q-power
Frobenius (q = p^n) splits as a direct sum of line bundles indexed by the
residues of characters mod q.  The residues are counted line by line: along
the last axis a summand's class changes only at sum |v_rho[d]| exact
breakpoints, so q^(d-1) lines of a few intervals each stand in for the q^d
residues.  The explicit residue formula used here is never trusted on its
own: :func:`frobenius_decompose`, the one path to a decomposition, certifies
every result against the projection formula, which determines the class
multiset through the exact cohomology of twists.

A decomposition is computed and certified once per (fan, divisor, order):
the fan keeps it (``fan.per_fan``) and every later question, the structural
checks included, shares the same read-only :class:`Decomposition`.  Only
certified results are kept.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np

from .cohomology import (
    MAX_RESIDUE_WORK,
    Overflow,
    _line_counts,
    _line_rays,
    _line_starts,
    cohomology,
    cohomology_of_class,
)
from .fan import (
    Divisor,
    DivisorClass,
    Fan,
    InvariantViolation,
    _integer,
    _read_divisor,
    class_of,
    per_fan,
)
from .linalg import _INT64_GUARD, is_prime


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
    """The q = p^n power Frobenius.  n = 0 is allowed and means the identity.

    p and n are read by ``fan._integer`` and stored as ints, so a numpy
    integer is taken at its value, and a bool or a float (even 2.0) raises
    ValueError rather than give classes of float degree.
    """

    p: int
    n: int = 1

    def __post_init__(self):
        object.__setattr__(self, "p", _integer(self.p, "p"))
        object.__setattr__(self, "n", _integer(self.n, "n"))
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.n < 0:
            raise ValueError("n must be >= 0")

    @property
    def q(self) -> int:
        return self.p**self.n


@dataclass(frozen=True)
class Decomposition:
    """Multiset of line bundle classes of a split Frobenius pushforward.

    ``entries`` maps each class to its multiplicity, the classes in descending
    order.  It is a read-only copy of the mapping given, sorted once here: a
    certified decomposition is shared by every caller that asks for it, and
    each reader (the push report, the Ext tables) takes the summands in this
    order.
    """

    fan: Fan
    divisor: Divisor
    order: FrobeniusOrder
    entries: MappingProxyType
    certified: bool = False

    def __post_init__(self):
        ordered = sorted(
            self.entries.items(), key=lambda kv: kv[0].coords, reverse=True
        )
        object.__setattr__(self, "entries", MappingProxyType(dict(ordered)))

    @property
    def rank(self) -> int:
        return sum(self.entries.values())


def _check_residue_range(fan: Fan, divisor, q: int) -> None:
    """Raise Overflow unless the residue arithmetic is exact in int64.

    With R the largest ray row sum and W the largest column weight of the
    class matrix (both read once per fan), every a + <u, v> stays within
    numer = max|a| + (q - 1) R, a breakpoint numerator X below R q, a
    class key within (numer // q + 1 + R) W, and a flat position or count
    within q^d.  Every interval is held in memory at once, so the q^(d-1)
    residue lines of 1 + sum |v_rho[d]| intervals each must also stay within
    MAX_RESIDUE_WORK.
    """
    ray_bound, weight = fan._int_bounds
    numer = max(abs(a) for a in divisor) + (q - 1) * ray_bound
    reach = max(numer, ray_bound * q, (numer // q + 1 + ray_bound) * weight)
    if reach >= _INT64_GUARD or q**fan.dim >= _INT64_GUARD:
        raise Overflow("residue decomposition exceeds the exact int64 range")
    slope_sum = sum(abs(ray[-1]) for ray in fan.rays)
    if q ** (fan.dim - 1) * (1 + slope_sum) > MAX_RESIDUE_WORK:
        raise Overflow(
            f"residue decomposition at q = {q} needs more than "
            f"{MAX_RESIDUE_WORK} residue intervals"
        )


def _raw_decompose(fan: Fan, divisor, order: FrobeniusOrder):
    """Classes of O(floor((D + <u, v_rho>) / q)) over the residues u in [0, q)^d.

    The residues are counted line by line along the last axis, so the flat
    position of u is its index in ``itertools.product`` order.  On the line
    through u' = (u_1, ..., u_(d-1)), with y = a_rho + <u', v'_rho> and
    c = v_rho[d], the floor of (y + c t) / q moves by sign(c) at |c| exact
    breakpoints t in [1, q]: for k = 0 .. |c| - 1 at floor(X / |c|) + 1, with
    X = k q + (q - 1 - y mod q) for c > 0 and X = k q + (y mod q) for c < 0.
    Each move adds +-(class of D_rho) to the line's class, and
    :func:`_line_counts` sums the intervals, for q^(d-1) * sum |v_rho[d]|
    work in place of q^d.  Returns the distinct classes met, each with its
    multiplicity; :class:`Decomposition` puts them in order.
    """
    q, d = order.q, fan.dim
    _check_residue_range(fan, divisor, q)
    perm, rays, slopes = _line_rays(fan, d - 1)
    cmat = np.array(fan.class_matrix, dtype=np.int64)[perm]
    shift = np.array(divisor, dtype=np.int64)
    axes = [(k, np.arange(q, dtype=np.int64)) for k in range(d - 1)]
    floor, rem = np.divmod(_line_starts(shift[perm], rays, axes), q)
    # the k-th breakpoint (k = 0 .. |c| - 1) of each moving ray, as X above
    ray, k = np.array(
        [(j, k) for j, c in enumerate(slopes.tolist()) for k in range(abs(c))],
        dtype=np.int64,
    ).reshape(-1, 2).T
    c, rem = slopes[ray], rem[:, ray]
    cuts = np.minimum((np.where(c > 0, q - 1 - rem, rem) + k * q) // np.abs(c) + 1, q)
    steps = np.sign(c)[:, None] * cmat[ray]
    keys, counts = _line_counts(floor @ cmat, cuts, steps, q)
    return {
        DivisorClass(tuple(key)): count
        for key, count in zip(keys.tolist(), counts.tolist())
    }


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


def frobenius_decompose(fan: Fan, divisor, order: FrobeniusOrder) -> Decomposition:
    """Split the q-power Frobenius pushforward of O(D) into line bundles.

    The class multiset is checked against the projection formula over the
    default test twists; a failure raises OracleMismatch and indicates an
    implementation bug, never bad user input.  Each decomposition is
    computed and certified once per (fan, divisor, order) by
    :func:`_certified` and then shared read-only; a failed certificate keeps
    nothing.
    """
    return _certified(fan, (_read_divisor(fan, divisor), order))


@per_fan
def _certified(fan: Fan, key) -> Decomposition:
    """The certified decomposition of F_* O(D) for key = (D, order)."""
    divisor, order = key
    dec = Decomposition(fan, divisor, order, _raw_decompose(fan, divisor, order))
    if not verify_projection_formula(dec):
        failure = projection_formula_failure(dec)
        e, i, lhs, rhs = failure
        raise OracleMismatch(
            f"projection formula failed for F_{order.q}* O({divisor}) on "
            f"{fan.name or 'fan'}: twist E = {e}, degree {i}, "
            f"sum of h^{i}(D_u + E) = {lhs} but h^{i}(D + qE) = {rhs}",
            failure,
        )
    return replace(dec, certified=True)


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


def _pushforward_classes(fan: Fan, classes, order: FrobeniusOrder) -> Counter:
    """Certified classes of F_*(sum of O(c)^m) over a class multiset {c: m}.

    The splitting of F_* O(D) depends only on the class of D, so each class is
    decomposed from whichever divisor ``divisor_of_class`` picks for it.
    """
    out: Counter = Counter()
    for cls, mult in classes.items():
        dec = frobenius_decompose(fan, fan.divisor_of_class(cls), order)
        for sub, m in dec.entries.items():
            out[sub] += mult * m
    return out


def iterate_check(fan: Fan, divisor, p: int, n: int) -> bool:
    """n successive p-power decompositions agree with one p^n-power pass.

    Each step pushes the class multiset of the previous one forward along the
    p-power Frobenius with :func:`_pushforward_classes`.
    """
    single = frobenius_decompose(fan, divisor, FrobeniusOrder(p, n))
    current = Counter({class_of(fan, divisor): 1})
    for _ in range(n):
        current = _pushforward_classes(fan, current, FrobeniusOrder(p, 1))
    return current == Counter(single.entries)
