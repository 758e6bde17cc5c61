"""Each (fan, divisor, order) is decomposed and certified once per process,
and only certified decompositions are shared, read-only.  The fan's memo
keeps only what was answered: a refusal keeps nothing."""

import sys
from dataclasses import FrozenInstanceError

import pytest

from toricfrob import (
    CohomologyVector,
    DivisorClass,
    FrobeniusOrder,
    OracleMismatch,
    Overflow,
    adjunction_crosscheck,
    catalog_run,
    cohomology_of_class,
    ext_table,
    frobenius_decompose,
    iterate_check,
    named_variety,
    pbundle_check,
    projective_line,
    projective_plane,
    tilting_verdict,
)
from toricfrob import frobenius as frobenius_mod
from toricfrob.varieties import BUNDLE_SPECS

# The package's ``cohomology`` attribute is the function; the module is here.
cohomology_mod = sys.modules["toricfrob.cohomology"]


@pytest.fixture
def engine_calls(monkeypatch):
    """Count the residue decompositions and certificates that run."""
    calls = {"raw": 0, "certify": 0}
    real_raw = frobenius_mod._raw_decompose
    real_failure = frobenius_mod.projection_formula_failure

    def raw(*args):
        calls["raw"] += 1
        return real_raw(*args)

    def failure(*args):
        calls["certify"] += 1
        return real_failure(*args)

    monkeypatch.setattr(frobenius_mod, "_raw_decompose", raw)
    monkeypatch.setattr(frobenius_mod, "projection_formula_failure", failure)
    return calls


def test_repeat_catalog_run_neither_decomposes_nor_certifies(engine_calls):
    named_variety.cache_clear()
    first = catalog_run(2)
    assert engine_calls == {"raw": 12, "certify": 12}
    engine_calls.update(raw=0, certify=0)
    assert catalog_run(2) == first
    assert engine_calls == {"raw": 0, "certify": 0}


def test_four_questions_on_one_fan_share_one_certificate(engine_calls):
    fan = projective_plane()
    order = FrobeniusOrder(3)
    verdict = tilting_verdict(fan, order)
    assert ext_table(fan, order).dims == verdict.dims
    assert adjunction_crosscheck(fan, order)
    assert frobenius_decompose(fan, fan.zero_divisor(), order).certified
    assert engine_calls == {"raw": 1, "certify": 1}


def test_repeat_returns_the_shared_decomposition():
    fan = projective_plane()
    order = FrobeniusOrder(2)
    dec = frobenius_decompose(fan, fan.zero_divisor(), order)
    assert frobenius_decompose(fan, [0, 0, 0], order) is dec
    assert fan._memo[frobenius_mod._certified] == {((0, 0, 0), order): dec}


def test_failed_certificate_caches_nothing(monkeypatch):
    fan = projective_plane()
    order = FrobeniusOrder(2)

    def corrupt(fan, divisor, order):
        return {DivisorClass((0,)): 4}

    monkeypatch.setattr(frobenius_mod, "_raw_decompose", corrupt)
    with pytest.raises(OracleMismatch):
        frobenius_decompose(fan, fan.zero_divisor(), order)
    assert fan._memo[frobenius_mod._certified] == {}
    monkeypatch.undo()
    dec = frobenius_decompose(fan, fan.zero_divisor(), order)
    assert dec.certified
    assert dec.entries == {DivisorClass((0,)): 1, DivisorClass((-1,)): 3}


def test_a_class_refused_with_overflow_keeps_nothing(monkeypatch):
    fan, cls = projective_plane(), DivisorClass((10**7,))
    counted = []
    real = cohomology_mod._mask_counts

    def mask_counts(*args):
        counted.append(args)
        return real(*args)

    monkeypatch.setattr(cohomology_mod, "_mask_counts", mask_counts)
    for calls in (1, 2):
        with pytest.raises(Overflow):
            cohomology_of_class(fan, cls)
        assert len(counted) == calls  # refused again, not answered from the memo
        assert cls not in fan._memo[cohomology_of_class]


def test_orders_with_the_same_q_keep_their_own_order():
    fan = projective_plane()
    two, three = FrobeniusOrder(2, 0), FrobeniusOrder(3, 0)
    assert two.q == three.q == 1
    dec_two = frobenius_decompose(fan, (1, 0, 0), two)
    dec_three = frobenius_decompose(fan, (1, 0, 0), three)
    assert dec_two.order == two and dec_three.order == three
    assert dec_two.entries == dec_three.entries == {DivisorClass((1,)): 1}
    assert len(fan._memo[frobenius_mod._certified]) == 2


def test_shared_decomposition_is_read_only():
    fan = projective_plane()
    dec = frobenius_decompose(fan, fan.zero_divisor(), FrobeniusOrder(2))
    cls = DivisorClass((0,))
    with pytest.raises(TypeError):
        dec.entries[cls] = 5
    with pytest.raises(FrozenInstanceError):
        dec.certified = False
    assert dec.entries[cls] == 1 and dec.certified


def test_decomposition_copies_the_mappings_it_is_given():
    fan = projective_plane()
    entries = {DivisorClass((0,)): 1}
    dec = frobenius_mod.Decomposition(
        fan=fan, divisor=fan.zero_divisor(), order=FrobeniusOrder(2, 0),
        entries=entries,
    )
    entries[DivisorClass((0,))] = 7
    assert dec.entries == {DivisorClass((0,)): 1}


def test_decomposition_lists_its_classes_in_descending_order():
    fan = named_variety("P1xP1")
    ascending = {
        DivisorClass(coords): 1 for coords in ((-1, -1), (-1, 0), (0, -1), (0, 0))
    }
    dec = frobenius_mod.Decomposition(
        fan=fan, divisor=fan.zero_divisor(), order=FrobeniusOrder(2),
        entries=ascending,
    )
    assert list(dec.entries) == sorted(ascending, reverse=True)
    certified = frobenius_decompose(fan, fan.zero_divisor(), FrobeniusOrder(2))
    assert list(certified.entries) == list(dec.entries)


@pytest.fixture
def class_comparisons(monkeypatch):
    """Count the order comparisons between DivisorClass values."""
    count = [0]
    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        real = getattr(DivisorClass, name)

        def counted(self, other, real=real):
            count[0] += 1
            return real(self, other)

        monkeypatch.setattr(DivisorClass, name, counted)
    return count


def test_warm_questions_make_no_class_comparison(class_comparisons):
    fan, order = named_variety("P(O+O(2))/P2"), FrobeniusOrder(2, 4)
    catalog_run(2)
    tilting_verdict(fan, order)
    ext_table(fan, order)
    class_comparisons[0] = 0
    catalog_run(2)
    tilting_verdict(fan, order)
    ext_table(fan, order)
    assert class_comparisons[0] == 0


@pytest.fixture
def vectors_made(monkeypatch):
    """Count the CohomologyVector objects constructed."""
    count = [0]
    real = CohomologyVector.__init__

    def counted(self, *args, **kwargs):
        count[0] += 1
        real(self, *args, **kwargs)

    monkeypatch.setattr(CohomologyVector, "__init__", counted)
    return count


def test_warm_ext_questions_make_no_cohomology_vector(vectors_made):
    # each pair reads the answer the per-fan memo keeps for its difference;
    # none is copied into a new vector
    fan, order = named_variety("P(O+O(2))/P2"), FrobeniusOrder(2, 4)
    canonical = fan.canonical_divisor()
    for ask in (lambda: tilting_verdict(fan, order), lambda: ext_table(fan, order),
                lambda: ext_table(fan, order, M=canonical)):
        ask()
        vectors_made[0] = 0
        ask()
        assert vectors_made[0] == 0


@pytest.fixture
def one_summand_too_many(monkeypatch):
    """A residue count that gains one summand, failing every certificate."""
    real = frobenius_mod._raw_decompose

    def corrupted(*args):
        entries = real(*args)
        first = next(iter(entries))
        return {**entries, first: entries[first] + 1}

    monkeypatch.setattr(frobenius_mod, "_raw_decompose", corrupted)


def test_pbundle_check_compares_certified_multisets(one_summand_too_many):
    # the corruption must stop at the certificate, not reach the comparison
    with pytest.raises(OracleMismatch):
        pbundle_check(projective_line(), ((0, 0), (1, 0)), FrobeniusOrder(2))


def test_repeat_check_on_an_unregistered_bundle_decomposes_nothing(engine_calls):
    # P(O + O(1)) over P1 is not in the registry: its record is built once per
    # (base fan, normalised degrees) and kept by the base fan, so a repeat
    # check reads the decompositions the first one left on it
    base, order = projective_line(), FrobeniusOrder(2)
    assert pbundle_check(base, ((0, 0), (1, 0)), order)
    assert engine_calls["raw"]
    engine_calls.update(raw=0, certify=0)
    assert pbundle_check(base, [[5, 5], [6, 5]], order)  # the same, normalised
    assert engine_calls == {"raw": 0, "certify": 0}


def test_iterate_check_compares_certified_multisets(one_summand_too_many):
    plane = projective_plane()
    with pytest.raises(OracleMismatch):
        iterate_check(plane, plane.zero_divisor(), 2, 2)


def test_registered_bundle_checks_reuse_the_catalog_fans(monkeypatch):
    named_variety.cache_clear()
    catalog_run(2)
    totals = [named_variety(key) for key in BUNDLE_SPECS]
    seen = []
    real = frobenius_mod._raw_decompose

    def raw(fan, divisor, order):
        seen.append(fan)
        return real(fan, divisor, order)

    monkeypatch.setattr(frobenius_mod, "_raw_decompose", raw)
    for build in BUNDLE_SPECS.values():
        base, degrees = build()
        assert pbundle_check(base, degrees, FrobeniusOrder(2))
    assert seen and not [fan for fan in seen if fan in totals]
