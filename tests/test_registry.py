"""One validated fan per registered variety: every question asked of a
variety in the process reuses the same fan and its cohomology caches."""

import sys
from collections import Counter

import pytest

from toricfrob import (
    VARIETY_NAMES,
    FrobeniusOrder,
    blowup_bookkeeping_check,
    catalog_entries,
    catalog_run,
    delpezzo_jet_check,
    named_variety,
    pbundle_check,
    projective_line,
    projective_plane,
)
from toricfrob import fan as fan_mod
from toricfrob import structure as structure_mod
from toricfrob.structure import _blown_up_plane
from toricfrob.varieties import BUNDLE_SPECS

# The package's ``cohomology`` attribute is the function; the module is here.
cohomology_mod = sys.modules["toricfrob.cohomology"]


def test_each_name_builds_one_shared_fan():
    for name in VARIETY_NAMES:
        assert named_variety(name) is named_variety(name), name


def test_catalog_entries_build_the_registered_fan():
    for entry in catalog_entries():
        assert entry.build() is named_variety(entry.key), entry.key


def test_blowup_check_uses_the_registered_x1():
    blown = _blown_up_plane()
    assert blown.fan is named_variety("X1")
    assert blown.base is named_variety("P2")
    assert blown.fan.rays[-1] == (1, 1)


def test_unknown_name_is_refused_every_time():
    for _ in range(2):
        with pytest.raises(KeyError):
            named_variety("P4")


@pytest.fixture
def engine_calls(monkeypatch):
    """Count the support eliminations (one stack per support) and the
    character counts made."""
    calls = Counter()
    for name in ("ranks_mod_p", "_mask_counts"):
        real = getattr(cohomology_mod, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(cohomology_mod, name, counting)
    return calls


def test_repeat_catalog_run_is_answered_from_the_caches(engine_calls):
    named_variety.cache_clear()
    first = catalog_run(2)
    assert engine_calls["ranks_mod_p"] and engine_calls["_mask_counts"]
    engine_calls.clear()
    assert catalog_run(2) == first
    assert engine_calls == Counter()


def test_next_q_reuses_the_support_complexes(engine_calls):
    named_variety.cache_clear()
    cold = catalog_run(3)
    cold_ranks, cold_masks = engine_calls["ranks_mod_p"], engine_calls["_mask_counts"]
    named_variety.cache_clear()
    catalog_run(2)
    engine_calls.clear()
    assert catalog_run(3) == cold
    assert engine_calls["ranks_mod_p"] < cold_ranks
    assert engine_calls["_mask_counts"] < cold_masks


def test_jet_check_certifies_against_the_warm_plane(engine_calls):
    first = delpezzo_jet_check(5, 1)
    engine_calls.clear()
    assert delpezzo_jet_check(5, 1) == first
    assert engine_calls == Counter()


def test_repeat_blowup_check_reuses_the_blown_up_plane(engine_calls):
    first = blowup_bookkeeping_check(5)
    engine_calls.clear()
    assert blowup_bookkeeping_check(5) == first
    assert engine_calls == Counter()


def test_each_registered_bundle_record_matches_its_projectivization():
    for key, build in BUNDLE_SPECS.items():
        base, degrees = build()
        record = structure_mod._bundle(base, fan_mod.normalised_degrees(base, degrees))
        assert record.fan is named_variety(key) and record.base is base
        built = fan_mod.projectivization_fan(base, degrees)
        assert record.fan == built.fan and record.degrees == built.degrees
        assert record.o_pi_class(1) == built.o_pi_class(1)
        for cls in (base.zero_class(), *base.collection):
            assert record.pullback_class(cls) == built.pullback_class(cls)


@pytest.fixture
def fans_built(monkeypatch):
    """Record every fan built, and every projectivization the bundle check
    asks for."""
    built = []
    for module, name in ((fan_mod, "build_fan"), (structure_mod, "projectivization_fan")):
        def recording(*args, _name=name, _real=getattr(module, name), **kwargs):
            built.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)
    return built


def test_a_warm_registered_bundle_check_builds_no_fan(fans_built):
    order = FrobeniusOrder(2)
    specs = [build() for build in BUNDLE_SPECS.values()]
    for base, degrees in specs:
        assert pbundle_check(base, degrees, order)
    fans_built.clear()
    for base, degrees in specs:
        assert pbundle_check(base, degrees, order)
        # degrees shifted by a common divisor normalise to the same record
        shifted = [tuple(x + 1 for x in d) for d in degrees]
        assert pbundle_check(base, shifted, order)
    assert fans_built == []


def test_an_unregistered_bundle_is_built_and_checked_as_before(fans_built):
    # its fan is built once, for the first check, and kept by the base fan
    # for the next; fresh base fans keep nothing from earlier tests
    plane, line = projective_plane(), projective_line()
    for base, degrees in ((line, [(0, 0), (1, 0)]), (plane, [(0, 0, 0), (3, 0, 0)]),
                          (line, [(0, 0), (0, 0), (2, 0)])):
        fans_built.clear()
        for p in (2, 3):
            assert pbundle_check(base, degrees, FrobeniusOrder(p)), (degrees, p)
        assert fans_built.count("projectivization_fan") == 1
        assert "build_fan" in fans_built
