"""The vectorised residue decomposition against the residue loop it replaced."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfrob import FrobeniusOrder, Overflow, catalog_entries, class_of, named_variety
from toricfrob.frobenius import _raw_decompose


def _loop_decompose(fan, divisor, q):
    """Reference: one class_of per residue u, in itertools.product order."""
    entries, witnesses = {}, {}
    for u in product(range(q), repeat=fan.dim):
        coeffs = tuple(
            (a + sum(x * y for x, y in zip(u, ray))) // q
            for a, ray in zip(divisor, fan.rays)
        )
        cls = class_of(fan, coeffs)
        entries[cls] = entries.get(cls, 0) + 1
        witnesses.setdefault(cls, (u, coeffs))
    return entries, witnesses


def _assert_matches_loop(fan, divisor, p, n):
    entries, witnesses = _raw_decompose(fan, divisor, FrobeniusOrder(p, n))
    ref_entries, ref_witnesses = _loop_decompose(fan, divisor, p**n)
    assert list(entries.items()) == list(ref_entries.items())
    assert witnesses == ref_witnesses


@pytest.mark.parametrize("p, n", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 4)])
def test_catalog_matches_loop(p, n):
    for entry in catalog_entries():
        fan = entry.build()
        shifted = tuple(i % 3 - 1 for i in range(len(fan.rays)))
        for divisor in (fan.zero_divisor(), fan.canonical_divisor(), shifted):
            _assert_matches_loop(fan, divisor, p, n)


_ORDERS = st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (7, 1)])


@settings(max_examples=25, deadline=None)
@given(st.tuples(*[st.integers(-20, 20)] * 4), _ORDERS)
def test_f1_matches_loop(div, pn):
    _assert_matches_loop(named_variety("F1"), div, *pn)


@settings(max_examples=25, deadline=None)
@given(st.tuples(*[st.integers(-20, 20)] * 5), _ORDERS)
def test_p2xp1_matches_loop(div, pn):
    _assert_matches_loop(named_variety("P2xP1"), div, *pn)


def test_chunks_merge_in_first_occurrence_order(monkeypatch):
    # blocks of 7 residues split every class across several chunks
    monkeypatch.setattr("toricfrob.frobenius.RESIDUE_CHUNK", 7)
    fan = named_variety("P(O+O(1,-1))/P1xP1")
    _assert_matches_loop(fan, fan.canonical_divisor(), 5, 1)


def test_large_coefficient_raises_overflow(P2):
    with pytest.raises(Overflow):
        _raw_decompose(P2, (2**62 - 3, 0, 0), FrobeniusOrder(2))
    # just inside the guard the int64 answer is still exact
    entries, _ = _raw_decompose(P2, (2**61, 0, 0), FrobeniusOrder(2))
    ref, _ = _loop_decompose(P2, (2**61, 0, 0), 2)
    assert entries == ref
