"""The one pair-sum kernel of the Ext layer against a double loop over pairs."""

from itertools import product

import pytest

from toricfrob import (
    DivisorClass,
    FrobeniusOrder,
    Overflow,
    adjunction_crosscheck,
    catalog_entries,
    cohomology_of_class,
    ext_table,
    frobenius_decompose,
    projective_line,
    tilting_verdict,
)
from toricfrob.ext import _pair_table
from toricfrob.frobenius import Decomposition

ORDERS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 9: (3, 2), 16: (2, 4)}


def _loop_pairs(fan, dec_l, dec_m):
    """Reference: one cohomology lookup per pair of summand classes."""
    dims = [0] * (fan.dim + 1)
    per_pair = {}
    for cu, mu in dec_l.entries.items():
        for cv, mv in dec_m.entries.items():
            h = cohomology_of_class(fan, cv - cu)
            per_pair[(cu, cv)] = h
            for i, value in enumerate(h.dims):
                dims[i] += mu * mv * value
    return tuple(dims), per_pair


@pytest.mark.parametrize("q", sorted(ORDERS))
@pytest.mark.parametrize("entry", catalog_entries(), ids=lambda entry: entry.key)
def test_kernel_matches_the_double_loop(entry, q):
    fan = entry.build()
    order = FrobeniusOrder(*ORDERS[q])
    dec = frobenius_decompose(fan, fan.zero_divisor(), order)
    dims, per_pair = _loop_pairs(fan, dec, dec)
    classes = sorted(dec.entries, reverse=True)
    quiver = tuple(
        tuple(per_pair[(cu, cv)].dims[0] for cv in classes) for cu in classes
    )
    report = ext_table(fan, order)
    assert report.dims == dims
    assert report.per_pair == per_pair
    verdict = tilting_verdict(fan, order)
    assert verdict.dims == dims
    assert verdict.quiver == quiver
    assert adjunction_crosscheck(fan, order)


@pytest.mark.parametrize("entry", catalog_entries()[:4], ids=lambda entry: entry.key)
def test_kernel_matches_the_double_loop_between_two_pushforwards(entry):
    fan = entry.build()
    order = FrobeniusOrder(3)
    canonical = fan.canonical_divisor()
    dec_l = frobenius_decompose(fan, fan.zero_divisor(), order)
    dec_m = frobenius_decompose(fan, canonical, order)
    dims, per_pair = _loop_pairs(fan, dec_l, dec_m)
    report = ext_table(fan, order, M=canonical)
    assert report.dims == dims
    assert report.per_pair == per_pair


@pytest.mark.parametrize("entry", catalog_entries()[:4], ids=lambda entry: entry.key)
def test_pairs_share_the_kept_answer_of_their_difference(entry):
    fan = entry.build()
    order = FrobeniusOrder(3)
    canonical = fan.canonical_divisor()
    dec_l = frobenius_decompose(fan, fan.zero_divisor(), order)
    dec_m = frobenius_decompose(fan, canonical, order)
    for report, left, right in (
        (ext_table(fan, order), dec_l, dec_l),
        (ext_table(fan, order, M=canonical), dec_l, dec_m),
    ):
        assert list(report.per_pair) == list(product(left.entries, right.entries))
        for (cu, cv), h in report.per_pair.items():
            assert h is cohomology_of_class(fan, cv - cu)
    # the quiver reads h^0 of the same answers, rows and columns in the
    # order of the summands
    classes = list(dec_l.entries)
    per_pair = ext_table(fan, order).per_pair
    quiver = tilting_verdict(fan, order).quiver
    assert len(quiver) == len(classes)
    for a, cu in enumerate(classes):
        assert len(quiver[a]) == len(classes)
        for b, cv in enumerate(classes):
            assert quiver[a][b] == per_pair[(cu, cv)].dims[0]


def test_sums_past_the_int64_range_raise_overflow():
    p1 = projective_line()
    dec = Decomposition(
        fan=p1, divisor=(0, 0), order=FrobeniusOrder(2),
        entries={DivisorClass((0,)): 2**31, DivisorClass((-1,)): 2**31},
    )
    with pytest.raises(Overflow):
        _pair_table(p1, dec, dec)
    small = Decomposition(
        fan=p1, divisor=(0, 0), order=FrobeniusOrder(2),
        entries={DivisorClass((0,)): 2**20, DivisorClass((-1,)): 2**20},
    )
    assert _pair_table(p1, small, small)[0] == _loop_pairs(p1, small, small)[0]
