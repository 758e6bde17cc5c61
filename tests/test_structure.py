from collections import Counter

import pytest

from toricfrob import (
    DivisorClass,
    FrobeniusOrder,
    MultisetDifferenceNegative,
    SplitBundle,
    blowup_bookkeeping_check,
    blowup_corank,
    corank_oracle,
    delpezzo_jet_check,
    divided_power_split,
    pbundle_check,
    s2d2_identity_check,
)
from toricfrob import structure as structure_mod
from toricfrob.structure import _jet_stack
from toricfrob.varieties import BUNDLE_SPECS

PRIMES_THROUGH_13 = (2, 3, 5, 7, 11, 13)


def test_divided_power_split_rank_two(P1):
    bundle = SplitBundle(base=P1, degrees=((0, 0), (1, 0)))
    got = divided_power_split(bundle, 2)
    assert got == Counter(
        {DivisorClass((0,)): 1, DivisorClass((1,)): 1, DivisorClass((2,)): 1}
    )
    assert divided_power_split(bundle, 0) == Counter({DivisorClass((0,)): 1})


def test_divided_power_split_mixed_degrees(Q11):
    bundle = SplitBundle(base=Q11, degrees=((0, 0, 0, 0), (1, 0, -1, 0)))
    got = divided_power_split(bundle, 3)
    assert got == Counter(
        {DivisorClass((k, -k)): 1 for k in range(4)}
    )


def test_divided_power_split_size(P1):
    bundle = SplitBundle(base=P1, degrees=((0, 0), (0, 0), (1, 0)))
    assert sum(divided_power_split(bundle, 4).values()) == 15  # C(4 + 2, 2)
    with pytest.raises(ValueError):
        divided_power_split(bundle, -1)


def test_split_bundle_validation(P1):
    with pytest.raises(ValueError):
        SplitBundle(base=P1, degrees=())
    with pytest.raises(ValueError):
        SplitBundle(base=P1, degrees=((0, 0, 0),))


def test_p1bundle_check_catalog_rank_two():
    for key in (
        "P(O+O(2))/P2",
        "P(O+O(1))/P2",
        "P(O+O(1,1))/P1xP1",
        "P(O+O(1,-1))/P1xP1",
        "P(O+O(l))/X1",
    ):
        base, degrees = BUNDLE_SPECS[key]()
        for p in (2, 3):
            assert pbundle_check(base, degrees, FrobeniusOrder(p)), (key, p)


def test_p1bundle_check_hirzebruch(P1):
    for p in (2, 3, 5):
        assert pbundle_check(P1, [(0, 0), (1, 0)], FrobeniusOrder(p))
    assert pbundle_check(P1, [(0, 0), (1, 0)], FrobeniusOrder(2, 2))


def test_p1bundle_check_trivial_and_identity(P1, P2):
    assert pbundle_check(P2, [(0, 0, 0)] * 2, FrobeniusOrder(3))
    assert pbundle_check(P1, [(0, 0), (1, 0)], FrobeniusOrder(2, 0))


def test_bundle_checks_higher_orders():
    # the full in-contract sweep: threefold decompositions up to q = 9
    orders = [FrobeniusOrder(5), FrobeniusOrder(2, 2), FrobeniusOrder(3, 2)]
    for key, build in BUNDLE_SPECS.items():
        base, degrees = build()
        for order in orders:
            assert pbundle_check(base, degrees, order), (key, order.q)


def test_s2d2_identity(P1, P2, Q11):
    cases = [
        (P2, (0, 0, 0)),
        (P2, (1, 0, 0)),
        (P2, (2, 0, 0)),
        (P1, (1, 0)),
        (Q11, (1, 0, -1, 0)),
    ]
    for base, a in cases:
        for order in (FrobeniusOrder(2), FrobeniusOrder(3), FrobeniusOrder(2, 2)):
            assert s2d2_identity_check(base, a, order), (base.name, a, order)


def test_p2bundle_filtration_catalog_entry():
    base, degrees = BUNDLE_SPECS["P(O+O+O(1))/P1"]()
    for p in (2, 3):
        assert pbundle_check(base, degrees, FrobeniusOrder(p))


def test_p2bundle_filtration_more_bundles(P1):
    assert pbundle_check(P1, [(0, 0)] * 3, FrobeniusOrder(2))
    assert pbundle_check(P1, [(0, 0), (0, 0), (1, 0)], FrobeniusOrder(3))
    assert pbundle_check(P1, [(0, 0), (0, 0), (1, 0)], FrobeniusOrder(3, 0))
    assert pbundle_check(P1, [(1, 0), (1, 0), (2, 0)], FrobeniusOrder(2))


def test_pbundle_rejects_ranks_other_than_two_and_three(P1):
    for degrees in ([(0, 0)], [(0, 0)] * 4):
        with pytest.raises(ValueError):
            pbundle_check(P1, degrees, FrobeniusOrder(2))


def test_cokernel_difference_guard(monkeypatch, P1):
    # corrupt the base decomposition so the cokernel multiset goes negative
    real = structure_mod._pushforward_classes

    def corrupted(fan, classes, order):
        out = real(fan, classes, order)
        if list(classes) == [fan.zero_class()]:
            out[DivisorClass((-9,))] += 50
        return out

    monkeypatch.setattr(structure_mod, "_pushforward_classes", corrupted)
    with pytest.raises(MultisetDifferenceNegative):
        pbundle_check(P1, [(0, 0), (0, 0), (1, 0)], FrobeniusOrder(2))


def test_corank_formula_and_oracle():
    for p in PRIMES_THROUGH_13:
        assert blowup_corank(p) == corank_oracle(p) == p * (p - 1) // 2
    with pytest.raises(ValueError):
        blowup_corank(6)


def test_blowup_bookkeeping():
    signs = set()
    for p in (2, 3, 5):
        report = blowup_bookkeeping_check(p)
        assert report.rank_ok
        assert abs(report.multiple) == p * (p - 1) // 2
        signs.add(report.multiple > 0)
    assert len(signs) == 1  # the orientation is stable across primes


def test_jet_report_examples():
    r = delpezzo_jet_check(2, 1)
    assert (r.q, r.p1, r.p2) == (2, 3, 0)
    assert r.dimH0 == 19 and r.jet_conditions == 4 and r.passed
    r = delpezzo_jet_check(3, 1)
    assert (r.p1, r.p2) == (7, 1)
    assert r.dimH0 == 99 and r.jet_conditions == 27 and r.passed
    r = delpezzo_jet_check(2, 0)
    assert r.dimH0 == 1 and r.jet_conditions == 0 and r.passed


def test_jet_multiplicity_and_dimension_sweep():
    for p in (2, 3, 5, 7):
        for n in (1, 2):
            r = delpezzo_jet_check(p, n)
            q = p**n
            assert r.p1 == (q - 1) * (q + 4) // 2
            assert r.p2 == (q - 1) * (q - 2) // 2
            assert r.passed


def test_jet_rank_block_structure():
    # the evaluation matrix is block diagonal; blocks of twist q-3 have fewer
    # sections than jet conditions once q >= 3, capping the total rank
    r = delpezzo_jet_check(2, 1, compute_rank=True)
    assert r.surjective_rank == min(r.dimH0, r.jet_conditions) == 4
    r = delpezzo_jet_check(3, 1, compute_rank=True)
    assert r.surjective_rank == 25  # = 3 * (1 + p1) + 1 < jet_conditions = 27
    r = delpezzo_jet_check(5, 1, compute_rank=True)
    assert r.surjective_rank == 226  # = 10 * (1 + 18) + 6 * 6 < 250


def test_jet_rank_rejects_degenerate_point():
    with pytest.raises(ValueError):
        delpezzo_jet_check(3, 1, compute_rank=True, point=(1, 0, 1))


def test_jet_block_shape():
    block = _jet_stack((3,), 1, 3, (1, 1, 1))[0]
    assert block.shape == (10, 3)


def _powers_of_binomial(c: int, top: int, p: int) -> list:
    """Coefficient lists of (X + c)^i mod p for i = 0 .. top, by multiplying out."""
    polys = [[1]]
    for _ in range(top):
        prev = polys[-1] + [0]
        polys.append([(prev[k - 1] + c * prev[k]) % p if k else c * prev[0] % p
                      for k in range(len(prev))])
    return polys


def _reference_jet_block(d, jet_order, p, a, b):
    """Rows of x^i y^j as polynomials in X = x - a, Y = y - b, multiplied out."""
    px, py = _powers_of_binomial(a, d, p), _powers_of_binomial(b, d, p)
    return [
        [
            px[i][s] * py[j][t] % p if s <= i and t <= j else 0
            for s in range(jet_order + 1)
            for t in range(jet_order + 1 - s)
        ]
        for i in range(d + 1)
        for j in range(d + 1 - i)
    ]


def test_jet_block_matches_multiplied_out_taylor_rows():
    # points (x : y : 1), so the affine point is (a, b) = (x, y) mod p
    points = ((1, 1), (2, 3), (6, 4), (10, 7))
    for p in PRIMES_THROUGH_13:
        for q in (p**n for n in range(4) if p**n <= 25):
            for d in (3 * q - 3, 2 * q - 3, q - 3):
                for x, y in points:
                    if x % p == 0 or y % p == 0:
                        continue
                    got = _jet_stack((d,), q - 2, p, (x, y, 1))[0]
                    want = _reference_jet_block(d, q - 2, p, x % p, y % p)
                    assert got.tolist() == want, (p, q, d, x, y)
