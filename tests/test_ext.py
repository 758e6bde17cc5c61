import pytest

from toricfrob import (
    DivisorClass,
    FrobeniusOrder,
    UnknownCollection,
    adjunction_crosscheck,
    build_fan,
    del_pezzo,
    ext_table,
    kunneth_ext,
    named_variety,
    product,
    tilting_verdict,
)
from toricfrob.catalog import catalog_entries, catalog_run


def test_p1_ext_table(P1):
    report = ext_table(P1, FrobeniusOrder(2))
    assert report.dims == (4, 0)
    assert report.vanishing_above_zero
    pair = report.per_pair[(DivisorClass((-1,)), DivisorClass((0,)))]
    assert pair.dims == (2, 0)
    pair = report.per_pair[(DivisorClass((0,)), DivisorClass((-1,)))]
    assert pair.dims == (0, 0)


def test_identity_ext_is_structure_sheaf(P2):
    report = ext_table(P2, FrobeniusOrder(5, 0))
    assert report.dims == (1, 0, 0)


def test_adjunction_crosscheck_examples(P1, P2, F1):
    assert adjunction_crosscheck(P1, FrobeniusOrder(2))
    assert adjunction_crosscheck(P2, FrobeniusOrder(2))
    assert adjunction_crosscheck(P2, FrobeniusOrder(3))
    assert adjunction_crosscheck(F1, FrobeniusOrder(3))


def test_adjunction_crosscheck_higher_orders(F1):
    # a threefold sample at p = 5 and a surface at q = 25
    for key in ("P3", "P(O+O(2))/P2", "X3xP1"):
        assert adjunction_crosscheck(named_variety(key), FrobeniusOrder(5)), key
    assert adjunction_crosscheck(F1, FrobeniusOrder(5, 2))


def test_serre_symmetry_pairwise(F1):
    # dim Ext^i(F_*L, F_*M) = dim Ext^(d-i)(F_*M, F_*L (x) omega), with the
    # omega twist absorbed as L + qK under the pushforward
    order = FrobeniusOrder(2)
    k = F1.canonical_divisor()
    l_div, m_div = (1, 0, 0, 0), (0, 0, 1, 0)
    lhs = ext_table(F1, order, l_div, m_div).dims
    l_twist = tuple(a + order.q * b for a, b in zip(l_div, k))
    rhs = ext_table(F1, order, m_div, l_twist).dims
    assert lhs == tuple(reversed(rhs))


def test_tilting_verdict_projective_plane(P2):
    v3 = tilting_verdict(P2, FrobeniusOrder(3))
    assert v3.strong_exceptional and v3.contains_collection
    v2 = tilting_verdict(P2, FrobeniusOrder(2))
    assert v2.strong_exceptional and not v2.contains_collection
    # quiver rows follow the classes sorted downwards: O then O(-1)
    assert v2.quiver == ((1, 0), (3, 1))


def test_tilting_verdict_f1(F1):
    for p, expected in ((2, False), (3, True), (5, True)):
        v = tilting_verdict(F1, FrobeniusOrder(p))
        assert v.strong_exceptional
        assert v.contains_collection is expected


def test_unknown_collection():
    bare = build_fan([(1,), (-1,)], [(0,), (1,)])
    with pytest.raises(UnknownCollection):
        tilting_verdict(bare, FrobeniusOrder(2))


def test_kunneth_matches_direct_product(P1, P2):
    order = FrobeniusOrder(2)
    conv = kunneth_ext(ext_table(P2, order), ext_table(P1, order))
    direct = ext_table(product(P2, P1, name="P2xP1"), order)
    assert conv.dims == direct.dims
    assert conv.vanishing_above_zero == direct.vanishing_above_zero


def test_kunneth_p1xp1_value(P1, Q11):
    order = FrobeniusOrder(2)
    conv = kunneth_ext(ext_table(P1, order), ext_table(P1, order))
    assert conv.dims == (16, 0, 0)
    assert conv.dims == ext_table(Q11, order).dims


def test_kunneth_identity_case(P1, P2):
    order = FrobeniusOrder(3, 0)
    conv = kunneth_ext(ext_table(P1, order), ext_table(P2, order))
    assert conv.dims == (1, 0, 0, 0)


# ----- computed behaviour of the threefold catalog (machine-verified truth) --


def test_catalog_p2_all_vanish():
    res = catalog_run(2, 1)
    assert res["summary"] == {"vanishing": 12, "failing": 0, "errors": 0}


def test_catalog_p3_single_failure_in_degree_two():
    res = catalog_run(3, 1)
    assert res["summary"] == {"vanishing": 11, "failing": 1, "errors": 0}
    failing = [r for r in res["rows"] if not r["strong_exceptional"]]
    assert [r["key"] for r in failing] == ["P(O+O(2))/P2"]
    assert failing[0]["dims"][1:] == [0, 3, 0]


def test_p_o_o2_fails_again_at_p5():
    fan = named_variety("P(O+O(2))/P2")
    report = ext_table(fan, FrobeniusOrder(5))
    assert report.dims[2] == 91
    assert report.dims[1] == report.dims[3] == 0


def test_p_o_o2_fails_at_q4():
    fan = named_variety("P(O+O(2))/P2")
    report = ext_table(fan, FrobeniusOrder(2, 2))
    assert report.dims[2] == 21
    assert report.dims[1] == report.dims[3] == 0


def _ext2_quasi_polynomial(q):
    """Ext^2 of F_* O on P(O+O(2))/P2, one polynomial per parity of q."""
    if q % 2:
        value, rem = divmod((q * q - 1) ** 2 * (4 * q * q - 9), 576)
    else:
        value, rem = divmod(q * q * (q * q - 4) * (4 * q * q - 1), 576)
    assert rem == 0
    return value


def test_p_o_o2_ext2_is_a_quasi_polynomial_of_period_two():
    fan = named_variety("P(O+O(2))/P2")
    orders = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4), (5, 2))
    found = {}
    for p, n in orders:
        order = FrobeniusOrder(p, n)
        found[order.q] = tilting_verdict(fan, order).dims[2]
    assert found == {q: _ext2_quasi_polynomial(q) for q in found}
    assert list(found.values()) == [0, 3, 21, 91, 748, 1700, 3500, 114576, 1683916]


def test_mixed_degree_bundle_vanishes_despite_failed_sufficient_check():
    fan = named_variety("P(O+O(1,-1))/P1xP1")
    for p in (2, 3):
        assert ext_table(fan, FrobeniusOrder(p)).vanishing_above_zero


def test_del_pezzo_surfaces_vanish():
    for k in (1, 2, 3):
        fan = del_pezzo(k)
        for p in (2, 3, 5):
            assert ext_table(fan, FrobeniusOrder(p)).vanishing_above_zero


def test_catalog_entries_are_fano():
    from toricfrob import is_ample

    for entry in catalog_entries():
        fan = entry.build()
        anti_k = tuple(-a for a in fan.canonical_divisor())
        assert is_ample(fan, anti_k), entry.key


def test_catalog_collections_are_distinct():
    for entry in catalog_entries():
        fan = entry.build()
        assert fan.collection is not None, entry.key
        assert len(set(fan.collection)) == len(fan.collection), entry.key
