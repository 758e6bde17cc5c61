from collections import Counter
from math import comb

import numpy as np
import pytest

from toricfrob import (
    DivisorClass,
    FrobeniusOrder,
    InvariantViolation,
    MultisetDifferenceNegative,
    blowup_bookkeeping_check,
    class_of,
    corank_oracle,
    delpezzo_jet_check,
    pbundle_check,
    s2d2_identity_check,
)
from toricfrob import frobenius as frobenius_mod
from toricfrob import structure as structure_mod
from toricfrob.fan import normalised_degrees
from toricfrob.linalg import _residue_dtype
from toricfrob.structure import (
    _divided_multiset,
    _jet_stack,
    _plane_monomials,
    _taylor_table,
)
from toricfrob.varieties import BUNDLE_SPECS

PRIMES_THROUGH_13 = (2, 3, 5, 7, 11, 13)


def _summands(base, degrees):
    return [class_of(base, d) for d in degrees]


def test_divided_power_split_rank_two(P1):
    classes = _summands(P1, ((0, 0), (1, 0)))
    got = _divided_multiset(classes, 2)
    assert got == Counter(
        {DivisorClass((0,)): 1, DivisorClass((1,)): 1, DivisorClass((2,)): 1}
    )
    assert _divided_multiset(classes, 0) == Counter({DivisorClass((0,)): 1})


def test_divided_power_split_mixed_degrees(Q11):
    classes = _summands(Q11, ((0, 0, 0, 0), (1, 0, -1, 0)))
    got = _divided_multiset(classes, 3)
    assert got == Counter(
        {DivisorClass((k, -k)): 1 for k in range(4)}
    )


def test_divided_power_split_size(P1):
    classes = _summands(P1, ((0, 0), (0, 0), (1, 0)))
    assert sum(_divided_multiset(classes, 4).values()) == 15  # C(4 + 2, 2)
    # a negative power is empty: pbundle_check reads D^(q - 3) at q = 2
    assert _divided_multiset(classes, -1) == Counter()


def test_split_bundle_validation(P1):
    with pytest.raises(ValueError):
        pbundle_check(P1, (), FrobeniusOrder(2))
    with pytest.raises(ValueError):
        normalised_degrees(P1, ((0, 0), (0, 0, 0)))
    assert normalised_degrees(P1, ((1, 2), (3, 2))) == ((0, 0), (2, 0))


def test_bundle_degrees_are_read_once_and_exactly(P2):
    # an extra entry is not zipped away, and a float or a bool entry is not
    # taken at its value, on the registered path P(O + O(2)) over P2 too
    order = FrobeniusOrder(2)
    for bad in ((2, 0, 0, 9), (2.0, 0, 0), (True, 0, 0)):
        with pytest.raises(ValueError):
            pbundle_check(P2, [(0, 0, 0), bad], order)
    with pytest.raises(ValueError):
        s2d2_identity_check(P2, (1.5, 0, 0), order)


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
        counted = blowup_bookkeeping_check(p).corank
        assert counted == corank_oracle(p) == p * (p - 1) // 2
    with pytest.raises(ValueError):
        corank_oracle(6)


def test_corank_oracle_reads_p_as_an_integer():
    for bad in (3.0, True):
        with pytest.raises(ValueError):
            corank_oracle(bad)
    assert corank_oracle(np.int64(5)) == 10


def test_corank_oracle_is_closed_form_at_a_large_prime():
    p = 2**61 - 1
    assert corank_oracle(p) == comb(p, 2)


def test_blowup_check_rejects_a_summand_not_moved_by_e(
    monkeypatch, cold_decompositions
):
    # X1's residue count moves one summand by 2E in place of E; with the
    # certificate bypassed the corruption reaches the blow-up comparison
    bl = structure_mod._blown_up_plane()
    cold_decompositions(bl.fan, bl.base)
    exc = bl.exceptional_class()
    back = bl.pullback_class(DivisorClass((-1,)))
    real = frobenius_mod._raw_decompose

    def corrupted(fan, divisor, order):
        entries = real(fan, divisor, order)
        if fan is bl.fan:
            entries[back + exc] -= 1
            entries[back + 2 * exc] = entries.get(back + 2 * exc, 0) + 1
        return entries

    monkeypatch.setattr(frobenius_mod, "_raw_decompose", corrupted)
    monkeypatch.setattr(frobenius_mod, "verify_projection_formula", lambda dec: True)
    # O(0, -1) + 2E = O(-2, 1) came back
    with pytest.raises(InvariantViolation, match=r"O\(-2, 1\)"):
        blowup_bookkeeping_check(3)


def test_blowup_check_compares_the_counted_corank(monkeypatch):
    monkeypatch.setattr(structure_mod, "corank_oracle", lambda p: 0)
    with pytest.raises(InvariantViolation, match="corank 3 against corank_oracle 0"):
        blowup_bookkeeping_check(3)


def test_blowup_check_compares_the_determinant(monkeypatch):
    real = structure_mod.det_class
    monkeypatch.setattr(structure_mod, "det_class", lambda dec: 2 * real(dec))
    # corank and oracle agree; only the doubled discrepancy 6E is off
    broken = r"corank_oracle 3; determinant discrepancy O\(-6, 6\)"
    with pytest.raises(InvariantViolation, match=broken):
        blowup_bookkeeping_check(3)


def test_blowup_bookkeeping():
    exc = structure_mod._blown_up_plane().exceptional_class()
    for p in (2, 3, 5):
        report = blowup_bookkeeping_check(p)
        assert report.corank == p * (p - 1) // 2
        assert report.det_discrepancy == report.corank * exc


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


@pytest.mark.parametrize(
    "point", [(1, 1, 1, 1), (True, 1, 1), (1, 1), (1.5, 1, 1), (2.0, 1, 1), (1, 1, 5)]
)
def test_jet_rank_rejects_malformed_points(point):
    with pytest.raises(ValueError):
        delpezzo_jet_check(5, 1, compute_rank=True, point=point)


def test_jet_rank_reads_the_point_mod_p():
    # at p = 5, -1 is 4 and 6 is 1
    for point, same in (((-1, 1, 1), (4, 1, 1)), ((6, 1, 1), (1, 1, 1))):
        rank = delpezzo_jet_check(5, 1, compute_rank=True, point=point).surjective_rank
        assert rank == delpezzo_jet_check(5, 1, compute_rank=True, point=same).surjective_rank
        assert rank == 226


def test_jet_block_shape():
    block = _jet_stack((3,), 1, 3, (1, 1, 1))[0]
    assert block.shape == (10, 3)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_taylor_table_is_the_closed_form(p):
    # Pascal's rule row by row against C(i, s) c^(i - s) mod p, cell by cell
    for c in range(p):
        want = [
            [comb(i, s) * pow(c, i - s, p) % p if s <= i else 0 for s in range(31)]
            for i in range(31)
        ]
        for d in range(31):
            assert _taylor_table(c, d, 30, p).tolist() == want[: d + 1], (c, d)
            assert _taylor_table(c, d, 4, p).tolist() == [r[:5] for r in want[: d + 1]]
    assert _taylor_table(1, -1, 3, p).shape == (0, 4)
    assert _taylor_table(1, 4, -1, p).shape == (5, 0)


def test_plane_monomials_are_shared_and_read_only():
    for d in (-1, 0, 1, 4, 25):
        rows = _plane_monomials(d)
        assert rows.tolist() == [[i, j] for i in range(d + 1) for j in range(d + 1 - i)]
        assert rows.shape == (max(0, (d + 1) * (d + 2) // 2), 2)
        assert _plane_monomials(d) is rows and not rows.flags.writeable


def test_jet_stack_has_the_residue_dtype():
    for p in (2, 13, 191):
        assert _jet_stack((3, 1), 2, p, (1, 2, 1))[0].dtype == _residue_dtype(p)
    assert _residue_dtype(13) == np.int16


def test_jet_stack_is_its_blocks_one_after_another():
    # no block is padded: each has its own C(d + 2, 2) rows, at its offset
    rows, offsets = _jet_stack((5, 3, 0), 4, 7, (2, 3, 1))
    assert offsets.tolist() == [0, 21, 31, 32] and rows.shape == (32, 15)
    for d, lo, hi in zip((5, 3, 0), offsets, offsets[1:]):
        assert rows[lo:hi].tolist() == _jet_stack((d,), 4, 7, (2, 3, 1))[0].tolist()


@pytest.mark.parametrize("p, n, rank", [(29, 1, 330_862), (31, 1, 433_815), (2, 5, 493_489)])
def test_jet_ranks_up_to_q_32_are_the_closed_form(p, n, rank):
    # the jet rows fit MAX_JET_CELLS, a stack of blocks padded to the
    # tallest would not, and the rank is sum(mult * min(C(d + 2, 2), C(q, 2)))
    q = p**n
    p1, p2 = (q - 1) * (q + 4) // 2, (q - 1) * (q - 2) // 2
    degrees = (3 * q - 3, 2 * q - 3, q - 3)
    cells = sum(comb(d + 2, 2) for d in degrees) * comb(q, 2)
    assert cells <= structure_mod.MAX_JET_CELLS < 3 * comb(3 * q - 1, 2) * comb(q, 2)
    want = sum(
        mult * min(comb(d + 2, 2), comb(q, 2)) for d, mult in zip(degrees, (1, p1, p2))
    )
    assert delpezzo_jet_check(p, n, compute_rank=True).surjective_rank == want == rank


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
