"""Ext tables between Frobenius pushforwards and tilting verdicts.

Both arguments of Ext split into line bundles, so every Ext group is a sum of
line bundle cohomology groups of class differences.  An independent route via
the adjoint of the pushforward (pull back, twist by omega^(1-q)) must agree
dimensionwise; :func:`adjunction_crosscheck` verifies that identity.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .cohomology import CohomologyVector, cohomology_of_class
from .fan import DivisorClass, Fan, is_ample
from .frobenius import Decomposition, FrobeniusOrder, frobenius_decompose


class UnknownCollection(ValueError):
    """No built-in exceptional collection is known and none was supplied."""


@dataclass(frozen=True)
class ExtReport:
    """Per-degree Ext dimensions plus the per-pair cohomology table."""

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
    collection_used: tuple
    quiver: tuple
    dims: tuple
    certified: bool


def _pair_dims(fan: Fan, dec_l: Decomposition, dec_m: Decomposition):
    dims = [0] * (fan.dim + 1)
    per_pair = {}
    for cu, mu in dec_l.entries.items():
        for cv, mv in dec_m.entries.items():
            h = cohomology_of_class(fan, cv - cu)
            per_pair[(cu, cv)] = h
            for i, value in enumerate(h.dims):
                dims[i] += mu * mv * value
    return tuple(dims), per_pair


def ext_table(fan: Fan, order: FrobeniusOrder, L=None, M=None) -> ExtReport:
    """Dimensions of Ext^i(F^n_* O(L), F^n_* O(M)) for all i.

    Defaults compute the self-Ext of the pushforward of the structure sheaf.
    """
    l_div = tuple(L) if L is not None else fan.zero_divisor()
    m_div = tuple(M) if M is not None else fan.zero_divisor()
    dec_l = frobenius_decompose(fan, l_div, order)
    dec_m = dec_l if m_div == l_div else frobenius_decompose(fan, m_div, order)
    dims, per_pair = _pair_dims(fan, dec_l, dec_m)
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
    lhs, _ = _pair_dims(fan, dec, dec)
    k = fan.canonical_class()
    rhs = [0] * (fan.dim + 1)
    for cls, mult in dec.entries.items():
        h = cohomology_of_class(fan, q * cls + (1 - q) * k)
        for i, value in enumerate(h.dims):
            rhs[i] += mult * value
    return lhs == tuple(rhs)


def tilting_verdict(
    fan: Fan, order: FrobeniusOrder, collection=None
) -> TiltingVerdict:
    """Strong exceptionality plus containment of a full exceptional collection.

    Containment of every class of a known full exceptional collection of line
    bundles among the summands is the generator surrogate: it is sufficient
    for the pushforward to generate the derived category.  The collection must
    be supplied or attached to the fan by its constructor.
    """
    coll = tuple(collection) if collection is not None else fan.collection
    if coll is None:
        raise UnknownCollection(
            f"no built-in collection for {fan.name or 'this fan'}"
        )
    dec = frobenius_decompose(fan, fan.zero_divisor(), order)
    dims, per_pair = _pair_dims(fan, dec, dec)
    classes = sorted(dec.entries, reverse=True)
    quiver = tuple(
        tuple(per_pair[(cu, cv)].dims[0] for cv in classes) for cu in classes
    )
    return TiltingVerdict(
        strong_exceptional=not any(dims[1:]),
        contains_collection=all(c in dec.entries for c in coll),
        collection_used=coll,
        quiver=quiver,
        dims=dims,
        certified=dec.certified,
    )


def fano_sufficient_check(fan: Fan, order: FrobeniusOrder) -> bool:
    """True iff every summand class twisted by omega^(-1) is ample.

    Ampleness of all twists forces the vanishing of all higher self-Ext of
    the pushforward; the check warns when run on a non-Fano fan.
    """
    anti_k = tuple(-a for a in fan.canonical_divisor())
    if not is_ample(fan, anti_k):
        warnings.warn(
            f"fan {fan.name or ''} is not Fano; the sufficient criterion is "
            "intended for Fano varieties",
            stacklevel=2,
        )
    k = fan.canonical_class()
    dec = frobenius_decompose(fan, fan.zero_divisor(), order)
    return all(
        is_ample(fan, fan.divisor_of_class(cls - k)) for cls in dec.entries
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
