"""Ext tables between Frobenius pushforwards and tilting verdicts.

Both arguments of Ext split into line bundles, so every Ext group is a sum of
line bundle cohomology groups of class differences.  An independent route via
the adjoint of the pushforward (pull back, twist by omega^(1-q)) must agree
dimensionwise; :func:`adjunction_crosscheck` verifies that identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .cohomology import CohomologyVector, Overflow, cohomology_of_class
from .fan import DivisorClass, Fan, _read_divisor
from .frobenius import Decomposition, FrobeniusOrder, frobenius_decompose
from .linalg import _INT64_GUARD, group_rows


class UnknownCollection(ValueError):
    """No built-in exceptional collection is known and none was supplied."""


@dataclass(frozen=True)
class ExtReport:
    """Per-degree Ext dimensions plus the cohomology of each summand pair.

    ``per_pair`` maps (cu, cv) to the cohomology of cv - cu.  From
    :func:`ext_table` its values are the shared, frozen
    :class:`CohomologyVector` answers the per-fan memo keeps, one object per
    distinct difference; no per-pair copy is made.
    """

    dims: tuple
    per_pair: dict
    vanishing_above_zero: bool


@dataclass(frozen=True)
class TiltingVerdict:
    """Verdict on F^n_* O, with the self-Ext dims it rests on.

    ``certified`` is the flag of the one decomposition the verdict was read
    from.
    """

    strong_exceptional: bool
    contains_collection: bool
    quiver: tuple
    dims: tuple
    certified: bool


def _stacked(dec: Decomposition):
    """Multiplicities and class rows of the summands, in the order of ``entries``."""
    return (
        np.array(list(dec.entries.values()), dtype=np.int64),
        np.array([c.coords for c in dec.entries], dtype=np.int64),
    )


def _pair_table(fan: Fan, dec_l: Decomposition, dec_m: Decomposition):
    """Ext dims of two split pushforwards, and which answer each pair reads.

    The summand classes of each side, in the descending order that
    :class:`Decomposition` keeps, are stacked as int64 rows (once, when
    ``dec_m is dec_l``) and all differences cv - cu formed at once.  One
    :func:`group_rows` call groups equal differences (np.unique over rows
    costs ~4x more at these sizes); each distinct difference gets one
    :func:`cohomology_of_class` lookup and the weight sum of mu * mv over the
    pairs that meet it.

    Returns (dims, distinct, index): dims[i] = sum over pairs of
    mu * mv * h^i(cv - cu); ``distinct`` the list of the frozen
    :class:`CohomologyVector` answers the per-fan memo keeps, one per
    distinct difference; and ``index[a, b]`` the position in ``distinct`` of
    right[b] - left[a], an (n, m) int array, left and right the classes of
    dec_l and dec_m in their ``entries`` order.  No per-pair table of
    cohomology is built.
    The class keys of a decomposition lie inside the residue range guard, so
    their differences are exact; Overflow is raised when a dims sum, at most
    rank_l * rank_m * max h, could leave the exact int64 range.
    """
    mult_l, rows_l = _stacked(dec_l)
    mult_m, rows_m = (mult_l, rows_l) if dec_m is dec_l else _stacked(dec_m)
    diffs = (rows_m[None, :, :] - rows_l[:, None, :]).reshape(-1, fan.pic_rank)
    by_row, starts, inverse = group_rows(diffs)
    distinct = [cohomology_of_class(fan, DivisorClass(tuple(row)))
                for row in diffs[by_row[starts]].tolist()]
    coh = np.array([h.dims for h in distinct], dtype=np.int64)
    if dec_l.rank * dec_m.rank * int(coh.max()) >= _INT64_GUARD:
        raise Overflow("Ext dimensions exceed the exact int64 range")
    weights = np.zeros(len(distinct), dtype=np.int64)
    np.add.at(weights, inverse, np.outer(mult_l, mult_m).ravel())
    index = inverse.reshape(len(mult_l), len(mult_m))
    return tuple((weights @ coh).tolist()), distinct, index


def ext_table(fan: Fan, order: FrobeniusOrder, L=None, M=None) -> ExtReport:
    """Dimensions of Ext^i(F^n_* O(L), F^n_* O(M)) for all i.

    Defaults compute the self-Ext of the pushforward of the structure sheaf.
    """
    l_div = fan.zero_divisor() if L is None else _read_divisor(fan, L)
    m_div = fan.zero_divisor() if M is None else _read_divisor(fan, M)
    dec_l = frobenius_decompose(fan, l_div, order)
    dec_m = dec_l if m_div == l_div else frobenius_decompose(fan, m_div, order)
    dims, distinct, index = _pair_table(fan, dec_l, dec_m)
    per_pair = dict(zip(product(dec_l.entries, dec_m.entries),
                        map(distinct.__getitem__, index.ravel().tolist())))
    return ExtReport(
        dims=dims, per_pair=per_pair, vanishing_above_zero=not any(dims[1:])
    )


def adjunction_crosscheck(fan: Fan, order: FrobeniusOrder) -> bool:
    """Two routes to Ext^i(F_*O, F_*O) must agree in every degree.

    Route one sums cohomology over pairs of summand classes.  Route two uses
    the right adjoint of the pushforward: the same dimensions arise as the
    cohomology of the pulled-back summands twisted by omega^(1-q).
    """
    q = order.q
    dec = frobenius_decompose(fan, fan.zero_divisor(), order)
    lhs = _pair_table(fan, dec, dec)[0]
    k = fan.canonical_class()
    rhs = [0] * (fan.dim + 1)
    for cls, mult in dec.entries.items():
        h = cohomology_of_class(fan, q * cls + (1 - q) * k)
        for i, value in enumerate(h.dims):
            rhs[i] += mult * value
    return lhs == tuple(rhs)


def tilting_verdict(fan: Fan, order: FrobeniusOrder) -> TiltingVerdict:
    """Strong exceptionality plus containment of a full exceptional collection.

    Containment of every class of a known full exceptional collection of line
    bundles among the summands is the generator surrogate: it is sufficient
    for the pushforward to generate the derived category.  The collection is
    the one attached to the fan by its constructor.
    """
    coll = fan.collection
    if coll is None:
        raise UnknownCollection(
            f"no built-in collection for {fan.name or 'this fan'}"
        )
    dec = frobenius_decompose(fan, fan.zero_divisor(), order)
    dims, distinct, index = _pair_table(fan, dec, dec)
    h0 = np.array([h.dims[0] for h in distinct], dtype=np.int64)
    quiver = tuple(map(tuple, h0.take(index).tolist()))
    return TiltingVerdict(
        strong_exceptional=not any(dims[1:]),
        contains_collection=all(c in dec.entries for c in coll),
        quiver=quiver,
        dims=dims,
        certified=dec.certified,
    )


def kunneth_ext(r1: ExtReport, r2: ExtReport) -> ExtReport:
    """Ext table of a product variety from the factors' tables (convolution)."""
    d1 = len(r1.dims) - 1
    d2 = len(r2.dims) - 1
    dims = [0] * (d1 + d2 + 1)
    for i, a in enumerate(r1.dims):
        for j, b in enumerate(r2.dims):
            dims[i + j] += a * b
    per_pair = {}
    for (u1, v1), h1 in r1.per_pair.items():
        for (u2, v2), h2 in r2.per_pair.items():
            conv = [0] * (d1 + d2 + 1)
            for i, a in enumerate(h1.dims):
                for j, b in enumerate(h2.dims):
                    conv[i + j] += a * b
            key = (
                DivisorClass(u1.coords + u2.coords),
                DivisorClass(v1.coords + v2.coords),
            )
            per_pair[key] = CohomologyVector(tuple(conv))
    return ExtReport(
        dims=tuple(dims), per_pair=per_pair, vanishing_above_zero=not any(dims[1:])
    )
