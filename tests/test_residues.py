"""The line-counted residue decomposition against the residue loop it replaced."""

import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfrob import (
    FrobeniusOrder,
    Overflow,
    build_fan,
    catalog_entries,
    class_of,
    frobenius_decompose,
    named_variety,
    projective_line,
)
from toricfrob import frobenius as frobenius_mod
from toricfrob.frobenius import _raw_decompose


def _loop_decompose(fan, divisor, q):
    """Reference: one class_of per residue u."""
    entries = {}
    for u in product(range(q), repeat=fan.dim):
        coeffs = tuple(
            (a + sum(x * y for x, y in zip(u, ray))) // q
            for a, ray in zip(divisor, fan.rays)
        )
        cls = class_of(fan, coeffs)
        entries[cls] = entries.get(cls, 0) + 1
    return entries


def _assert_matches_loop(fan, divisor, p, n):
    entries = _raw_decompose(fan, divisor, FrobeniusOrder(p, n))
    assert entries == _loop_decompose(fan, divisor, p**n)


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


@pytest.mark.parametrize("entry", catalog_entries(), ids=lambda entry: entry.key)
def test_catalog_certifies_at_q27(entry):
    # past the loop's reach: the projection formula is the independent check
    fan = entry.build()
    for divisor in (fan.zero_divisor(), fan.canonical_divisor()):
        dec = frobenius_decompose(fan, divisor, FrobeniusOrder(3, 3))
        assert dec.rank == 27**fan.dim


# P1xP1 in the lattice basis (2, 1), (3, 2): last-axis components +-1 and +-2,
# so rays cross several breakpoints on each line of residues
SKEW = build_fan(
    [(2, 1), (-2, -1), (3, 2), (-3, -2)],
    [(0, 2), (0, 3), (1, 2), (1, 3)],
    name="skew P1xP1",
)


@settings(max_examples=25, deadline=None)
@given(st.tuples(*[st.integers(-20, 20)] * 4), _ORDERS)
def test_skew_p1xp1_matches_loop(div, pn):
    _assert_matches_loop(SKEW, div, *pn)


def test_large_coefficient_raises_overflow(P2):
    with pytest.raises(Overflow):
        _raw_decompose(P2, (2**62 - 3, 0, 0), FrobeniusOrder(2))
    # just inside the guard the int64 answer is still exact
    entries = _raw_decompose(P2, (2**61, 0, 0), FrobeniusOrder(2))
    assert entries == _loop_decompose(P2, (2**61, 0, 0), 2)


MERSENNE = 2**61 - 1


def test_p1_at_a_mersenne_prime_counts_lines_not_residues():
    # 2^61 residues in one line: O + O(-1)^(q-1) without enumerating them
    p1 = projective_line()
    entries = _raw_decompose(p1, (0, 0), FrobeniusOrder(MERSENNE))
    zero, minus = class_of(p1, (0, 0)), class_of(p1, (0, -1))
    assert entries == {zero: 1, minus: MERSENNE - 1}


def test_p1_just_past_the_residue_guard_raises_overflow():
    # max|a| + (q - 1) * 1 is 2^62 - 1 here, the last value inside the guard
    p1 = projective_line()
    order = FrobeniusOrder(MERSENNE)
    entries = _raw_decompose(p1, (2**61 + 1, 0), order)
    # a = q + 2: the coefficients are (1, 0) at u = 0, (1, -1) for
    # 0 < u < q - 2 and (2, -1) from there on, so class 1 occurs 3 times
    assert entries == {
        class_of(p1, (1, 0)): 3,
        class_of(p1, (1, -1)): MERSENNE - 3,
    }
    with pytest.raises(Overflow):
        _raw_decompose(p1, (2**61 + 2, 0), order)


def test_p1xp1_at_a_large_prime_is_refused_before_allocating():
    # 2^31 - 1 lines of 3 intervals each: ~640 GB if it were allocated
    fan = named_variety("P1xP1")
    order = FrobeniusOrder(2**31 - 1)
    tracemalloc.start()
    try:
        with pytest.raises(Overflow, match="residue intervals"):
            _raw_decompose(fan, fan.zero_divisor(), order)
        with pytest.raises(Overflow, match="residue intervals"):
            frobenius_decompose(fan, fan.zero_divisor(), order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_residue_work_bound_is_inclusive(monkeypatch):
    # P1xP1 has sum |v_rho[2]| = 2: q lines of 3 intervals each
    monkeypatch.setattr(frobenius_mod, "MAX_RESIDUE_WORK", 21)
    fan = named_variety("P1xP1")
    entries = _raw_decompose(fan, fan.zero_divisor(), FrobeniusOrder(7))
    assert sum(entries.values()) == 49
    with pytest.raises(Overflow):
        _raw_decompose(fan, fan.zero_divisor(), FrobeniusOrder(11))
