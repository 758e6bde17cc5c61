from collections import Counter
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfrob import (
    Decomposition,
    DivisorClass,
    FrobeniusOrder,
    OracleMismatch,
    class_of,
    cohomology,
    default_test_divisors,
    det_class,
    frobenius_decompose,
    iterate_check,
    named_variety,
    product_fan,
    projection_formula_failure,
    verify_projection_formula,
)
from toricfrob import frobenius as frobenius_mod


def entries(fan, div, p, n=1):
    return frobenius_decompose(fan, div, FrobeniusOrder(p, n)).entries


def test_order_validation():
    with pytest.raises(ValueError):
        FrobeniusOrder(4)
    with pytest.raises(ValueError):
        FrobeniusOrder(3, -1)
    assert FrobeniusOrder(3, 0).q == 1
    assert FrobeniusOrder(2, 3).q == 8


@pytest.mark.parametrize("p, n", [(3, 2.0), (2.0, 1), (3.0, 2), (True, 1), (3, True), (3, False)])
def test_order_refuses_floats_and_bools(p, n):
    # FrobeniusOrder(3, 2.0) once decomposed P2 into classes O(-1.0,)
    with pytest.raises(ValueError, match="not an integer"):
        FrobeniusOrder(p, n)


def test_order_reads_numpy_integers_as_ints(P2):
    order = FrobeniusOrder(np.int64(3), np.int64(2))
    assert type(order.p) is int and type(order.n) is int
    assert order == FrobeniusOrder(3, 2) and hash(order) == hash(FrobeniusOrder(3, 2))
    assert order.q == 9 and type(order.q) is int
    dec = frobenius_decompose(P2, (0, 0, 0), order)
    assert dec.rank == 81
    assert all(type(x) is int for cls in dec.entries for x in cls.coords)
    assert dec.entries == frobenius_decompose(P2, (0, 0, 0), FrobeniusOrder(3, 2)).entries


def test_p1_structure_sheaf_all_small_primes(P1):
    for p in (2, 3, 5, 7):
        dec = entries(P1, (0, 0), p)
        assert dec == {DivisorClass((0,)): 1, DivisorClass((-1,)): p - 1}


def test_identity_frobenius(P1):
    dec = frobenius_decompose(P1, (2, 1), FrobeniusOrder(5, 0))
    assert dec.entries == {DivisorClass((3,)): 1}


def test_p2_structure_sheaf():
    from toricfrob import projective_plane

    P2 = projective_plane()
    assert entries(P2, (0, 0, 0), 2) == {
        DivisorClass((0,)): 1,
        DivisorClass((-1,)): 3,
    }
    # all three twists needed for the standard collection are present at p = 3
    assert entries(P2, (0, 0, 0), 3) == {
        DivisorClass((0,)): 1,
        DivisorClass((-1,)): 7,
        DivisorClass((-2,)): 1,
    }


def test_iterated_vs_single_shot(P1, P2):
    assert iterate_check(P1, (0, 0), 2, 2)
    assert iterate_check(P2, (0, 0, 0), 2, 2)
    assert iterate_check(P2, (1, 0, -2), 3, 2)
    assert iterate_check(P1, (0, 0), 5, 1)
    assert entries(P1, (0, 0), 2, 2) == {
        DivisorClass((0,)): 1,
        DivisorClass((-1,)): 3,
    }


def test_det_class_examples(P1):
    assert det_class(frobenius_decompose(P1, (0, 0), FrobeniusOrder(2))).coords == (-1,)
    assert det_class(frobenius_decompose(P1, (0, 0), FrobeniusOrder(3))).coords == (-2,)
    dec = frobenius_decompose(P1, (4, 0), FrobeniusOrder(2, 0))
    assert det_class(dec) == class_of(P1, (4, 0))


@settings(max_examples=30, deadline=None)
@given(st.tuples(*[st.integers(-4, 4)] * 4), st.sampled_from([(2, 1), (3, 1), (2, 2)]))
def test_rank_is_q_to_dim(F1, div, pn):
    p, n = pn
    order = FrobeniusOrder(p, n)
    entries = frobenius_mod._raw_decompose(F1, div, order)
    assert sum(entries.values()) == order.q ** F1.dim


@settings(max_examples=20, deadline=None)
@given(st.tuples(*[st.integers(-3, 3)] * 4))
def test_representative_independence(F1, div):
    # a second residue system: the centred box [-q/2, q/2)^d
    order = FrobeniusOrder(3)
    q = order.q
    entries = frobenius_mod._raw_decompose(F1, div, order)
    alt = {}
    for u in iproduct(range(-(q // 2), q - q // 2), repeat=F1.dim):
        coeffs = tuple(
            (a + sum(x * y for x, y in zip(u, ray))) // q
            for a, ray in zip(div, F1.rays)
        )
        cls = class_of(F1, coeffs)
        alt[cls] = alt.get(cls, 0) + 1
    assert alt == entries


def test_kunneth_product_decomposition(P1, P2):
    prod = product_fan(P2, P1)
    order = FrobeniusOrder(2)
    d1 = frobenius_decompose(P2, (1, 0, 0), order)
    d2 = frobenius_decompose(P1, (0, -1), order)
    direct = frobenius_decompose(prod, (1, 0, 0) + (0, -1), order)
    combined = {}
    for c1, m1 in d1.entries.items():
        for c2, m2 in d2.entries.items():
            key = DivisorClass(c1.coords + c2.coords)
            combined[key] = combined.get(key, 0) + m1 * m2
    assert combined == direct.entries


def test_projection_formula_hand_sums(P1, P2):
    # twist by O(1) on the line at p = 2: 2 + 1 sections against 3
    lhs = (
        cohomology(P1, (1, 0)).dims[0] + cohomology(P1, (0, 0)).dims[0]
    )
    assert lhs == cohomology(P1, (2, 0)).dims[0] == 3
    # canonical twist on the plane at p = 2, top degree: 1 + 3 * 3 against 10
    assert cohomology(P2, (-3, 0, 0)).dims[2] == 1
    assert cohomology(P2, (-4, 0, 0)).dims[2] == 3
    assert cohomology(P2, (-6, 0, 0)).dims[2] == 10


def test_certification_runs_by_default(P2, cold_decompositions, monkeypatch):
    cold_decompositions(P2)
    real, calls = frobenius_mod.projection_formula_failure, []
    monkeypatch.setattr(
        frobenius_mod,
        "projection_formula_failure",
        lambda dec: calls.append(dec) or real(dec),
    )
    dec = frobenius_decompose(P2, (0, 0, 0), FrobeniusOrder(3))
    assert len(calls) == 1 and calls[0] is dec


def test_corrupted_decomposition_fails_oracle(P2):
    order = FrobeniusOrder(2)
    bad = Decomposition(
        fan=P2,
        divisor=(0, 0, 0),
        order=order,
        entries={DivisorClass((0,)): 1, DivisorClass((-1,)): 2, DivisorClass((-2,)): 1},
    )
    assert not verify_projection_formula(bad)


def test_oracle_mismatch_raised(monkeypatch, cold_decompositions, P2):
    def corrupt(fan, divisor, order):
        return {DivisorClass((0,)): 4}

    cold_decompositions(P2)
    monkeypatch.setattr(frobenius_mod, "_raw_decompose", corrupt)
    with pytest.raises(OracleMismatch):
        frobenius_decompose(P2, (0, 0, 0), FrobeniusOrder(2))


def test_oracle_mismatch_names_broken_identity(monkeypatch, cold_decompositions, P2):
    def corrupt(fan, divisor, order):
        return {DivisorClass((0,)): 4}

    cold_decompositions(P2)
    monkeypatch.setattr(frobenius_mod, "_raw_decompose", corrupt)
    with pytest.raises(OracleMismatch) as info:
        frobenius_decompose(P2, (0, 0, 0), FrobeniusOrder(2))
    # first twist E = 0, degree 0: 4 h^0(O) = 4 against h^0(O) = 1
    assert info.value.failure == ((0, 0, 0), 0, 4, 1)
    assert "twist E = (0, 0, 0), degree 0" in str(info.value)
    assert "= 4 but h^0(D + qE) = 1" in str(info.value)


# The true multiset of F_* O plus an integer kernel vector of the default
# twists' identities: each forgery has the true rank and passes every twist
# in {0, +-H_j, K, -K}.  On P(O+O(2))/P2 at q = 5 its self-Ext would read
# (24279, 0, 96, 0) against the true (24284, 0, 91, 0).
FORGERIES = {
    ("P1xP1xP1", 3): {(0, -1, -1): -1, (-1, 0, -1): 1},
    ("X3xP1", 3): {(0, -1, 0, -1, -1): -1, (0, -1, -1, 0, -1): 1},
    ("P(O+O(1,1))/P1xP1", 5): {(-1, -2, -1): -1, (-2, -1, -1): 1},
    ("P(O+O(2))/P2", 5): {(-1, -1): -1, (-2, -1): 3, (-3, -1): -3, (-4, -1): 1},
}


@pytest.mark.parametrize("key, q", list(FORGERIES), ids=str)
def test_forged_multiplicities_are_refused(monkeypatch, cold_decompositions, key, q):
    fan, order = named_variety(key), FrobeniusOrder(q)
    true = frobenius_decompose(fan, fan.zero_divisor(), order).entries
    forged = Counter(true)
    for coords, step in FORGERIES[key, q].items():
        forged[DivisorClass(coords)] += step
    assert min(forged.values()) >= 0 and forged.total() == sum(true.values())
    cold_decompositions(fan)
    monkeypatch.setattr(
        frobenius_mod, "_raw_decompose", lambda *args: {c: m for c, m in forged.items() if m}
    )
    with pytest.raises(OracleMismatch) as info:
        frobenius_decompose(fan, fan.zero_divisor(), order)
    # the first broken identity is at a negated summand class: every default
    # twist, checked first, holds
    twist = info.value.failure[0]
    assert twist not in default_test_divisors(fan)
    assert twist in {fan.divisor_of_class(-c) for c in forged}


def test_projection_failure_none_when_certified(P2):
    dec = frobenius_decompose(P2, (1, 0, -2), FrobeniusOrder(3))
    assert projection_formula_failure(dec) is None
    bad = Decomposition(
        fan=P2, divisor=dec.divisor, order=dec.order,
        entries={DivisorClass((0,)): 9},
    )
    assert projection_formula_failure(bad) is not None


def test_divisor_length_checked(P2):
    with pytest.raises(ValueError):
        frobenius_decompose(P2, (0, 0), FrobeniusOrder(2))
