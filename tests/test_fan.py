import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfrob import (
    VARIETY_NAMES,
    BadWall,
    DivisorClass,
    FanError,
    FrobeniusOrder,
    NonPrimitiveRay,
    NotComplete,
    NotSmooth,
    blowup_fan,
    build_fan,
    catalog_entries,
    class_of,
    cohomology,
    ext_table,
    fan_from_json,
    frobenius_decompose,
    h0_points,
    is_ample,
    is_nef,
    named_variety,
    parse_divisor,
    product_fan,
    projective_bundle,
    projectivization_fan,
)
from toricfrob.cech import _basis_size
from toricfrob.fan import _containing_cones, normalised_degrees
from toricfrob.structure import delpezzo_jet_check, pbundle_check, s2d2_identity_check

from conftest import fans_isomorphic


def test_p1_builds():
    fan = build_fan([(1,), (-1,)], [(0,), (1,)])
    assert fan.dim == 1 and fan.pic_rank == 1


def test_p2_builds(P2):
    assert P2.dim == 2
    assert P2.pic_rank == 1
    assert len(P2.max_cones) == 3


def test_f1_builds(F1):
    assert F1.pic_rank == 2
    assert len(F1.rays) == 4


def test_non_primitive_ray_rejected():
    with pytest.raises(NonPrimitiveRay):
        build_fan([(2, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])


def test_not_smooth_rejected():
    with pytest.raises(NotSmooth):
        build_fan([(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (0, 2)])


def test_bad_wall_rejected():
    with pytest.raises(BadWall):
        build_fan([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)])


def test_duplicate_ray_rejected():
    with pytest.raises(FanError):
        build_fan([(1, 0), (1, 0), (-1, -1)], [(0, 1), (1, 2), (0, 2)])


def test_probe_point_location(P2):
    assert _containing_cones(P2, (5, -3)) == [1]
    # (-7, -7) is on a ray, which lies in the two cones on either side of it
    assert _containing_cones(P2, (-7, -7)) == [1, 2]


# 12 rays winding twice around the origin; consecutive rays span smooth cones,
# every wall lies in two cones, and the cones at each wall are on opposite
# sides of it, so only the covering degree (2) shows that this is no fan; if
# accepted, the engine reports h^1(O) = 8 on it.
_WOUND_RAYS = [
    (1, 0), (-2, 1), (-1, 0), (-2, -1), (-1, -1), (-1, -2),
    (0, -1), (1, 1), (0, 1), (-1, 1), (1, -2), (1, -1),
]
_WOUND_CONES = [(i, (i + 1) % 12) for i in range(12)]


def test_doubly_wound_fan_rejected():
    with pytest.raises(NotComplete):
        build_fan(_WOUND_RAYS, _WOUND_CONES)


def test_folded_wall_rejected():
    # three rays in one quadrant: each wall lies in two cones on one side
    with pytest.raises(BadWall, match="same side"):
        build_fan([(1, 0), (0, 1), (1, 1)], [(0, 1), (1, 2), (0, 2)])


def test_every_named_and_catalog_fan_builds():
    for name in VARIETY_NAMES:
        assert named_variety(name).dim >= 1
    for entry in catalog_entries():
        assert entry.build().dim == 3


def test_class_of_ray_divisor_on_p2(P2):
    assert class_of(P2, (1, 0, 0)) == DivisorClass((1,))
    assert class_of(P2, (0, 1, 0)) == DivisorClass((1,))


def test_class_of_principal_divisor_is_zero(P2):
    # div(chi^{(1,0)}) has coefficients <m, v_rho> = (1, 0, -1)
    assert class_of(P2, (1, 0, -1)) == DivisorClass((0,))


def test_canonical_class_inverse(F1):
    k = F1.canonical_class()
    assert (k + (-k)).is_zero()


def test_class_arithmetic():
    a = DivisorClass((1, -2))
    b = DivisorClass((0, 3))
    assert (a + b).coords == (1, 1)
    assert (a - b).coords == (1, -5)
    assert (3 * a).coords == (3, -6)


@settings(max_examples=60, deadline=None)
@given(st.integers(-8, 8), st.integers(-8, 8), st.tuples(*[st.integers(-5, 5)] * 4))
def test_class_of_mod_principal(F1, m1, m2, coeffs):
    div_chi = tuple(m1 * r[0] + m2 * r[1] for r in F1.rays)
    shifted = tuple(a + b for a, b in zip(coeffs, div_chi))
    assert class_of(F1, coeffs) == class_of(F1, shifted)


def test_ampleness_on_p2(P2):
    assert is_ample(P2, (1, 0, 0))
    assert is_nef(P2, (0, 0, 0))
    assert not is_ample(P2, (0, 0, 0))
    assert not is_nef(P2, (-1, 0, 0))


def test_f1_is_fano(F1):
    anti_k = tuple(-a for a in F1.canonical_divisor())
    assert is_ample(F1, anti_k)


def test_product_fan(P1):
    fan = product_fan(P1, P1)
    assert len(fan.rays) == 4 and len(fan.max_cones) == 4
    assert fan.pic_rank == 2


def test_product_class_concatenates(P1, Q11):
    cls = class_of(Q11, (2, 0, -1, 0))
    assert cls.coords == (2, -1)


def test_blowup_increases_pic_rank(P2):
    bl = blowup_fan(P2, P2.max_cones[0])
    assert bl.fan.pic_rank == P2.pic_rank + 1
    assert bl.exceptional_class().coords != (0, 0)


def test_blowup_requires_a_cone(P2):
    with pytest.raises(FanError):
        blowup_fan(P2, (0, 1, 2))


@pytest.mark.parametrize("index", [1.7, 2.0, True])
def test_blowup_refuses_a_non_integer_cone_index(P2, index):
    # int() would read these as 1, 2 and 1 and answer the blow-up of a cone
    with pytest.raises(FanError, match="not an integer"):
        blowup_fan(P2, (0, index))


def test_projectivization_pic_rank(P1):
    pb = projectivization_fan(P1, [(0, 0), (1, 0)])
    assert pb.fan.pic_rank == P1.pic_rank + 1


def test_projectivization_coordinates(P1):
    pb = projectivization_fan(P1, [(0, 0), (1, 0)])
    # pullbacks land in the base block, the relative O(1) in the last slot
    assert pb.pullback_class(DivisorClass((3,))).coords == (3, 0)
    assert pb.o_pi_class(2).coords == (0, 2)


def test_f1_two_constructions_isomorphic(P1, P2):
    pb = projectivization_fan(P1, [(0, 0), (1, 0)])
    bl = blowup_fan(P2, P2.max_cones[0])
    assert fans_isomorphic(pb.fan, bl.fan)
    assert not fans_isomorphic(pb.fan, product_fan(P1, P1))


def test_projectivization_of_nontrivial_splitting(Q11):
    # the threefold P(O + O(1,-1)) over P1 x P1
    pb = projectivization_fan(Q11, [(0, 0, 0, 0), (1, 0, -1, 0)])
    assert pb.fan.dim == 3
    assert len(pb.fan.rays) == 6
    anti_k = tuple(-a for a in pb.fan.canonical_divisor())
    assert is_ample(pb.fan, anti_k)


def test_fan_json_roundtrip(F1):
    text = json.dumps(
        {"name": "F1", "rays": [list(r) for r in F1.rays],
         "max_cones": [list(c) for c in F1.max_cones]}
    )
    fan = fan_from_json(text)
    assert fan == F1


def test_fan_json_errors():
    with pytest.raises(FanError):
        fan_from_json("not json")
    with pytest.raises(FanError):
        fan_from_json('{"rays": [[1], [-1]]}')


def test_parse_divisor(P2):
    assert parse_divisor(P2, "K") == (-1, -1, -1)
    assert parse_divisor(P2, "-K") == (1, 1, 1)
    assert parse_divisor(P2, "0") == (0, 0, 0)
    assert parse_divisor(P2, "2,0,-1") == (2, 0, -1)
    with pytest.raises(FanError):
        parse_divisor(P2, "1,2")
    with pytest.raises(FanError):
        parse_divisor(P2, "a,b,c")


@pytest.mark.parametrize("divisor", [(2.5, 0, 0), (1.5, 0, 0), (1.0, 0, 0), (True, 0, 0), (1, 0)])
def test_a_divisor_is_read_as_one_integer_per_ray(P2, divisor):
    # 2.5 was answered as a class of P2, 1.5 failed the projection-formula
    # certificate, True was answered as 1, 1.0 was kept in the per-fan memo
    # under a key equal to (1, 0, 0), and a pullback took (1, 0) for a
    # divisor of P2; each is now refused by the reader
    order = FrobeniusOrder(3, 1)
    for ask in (
        lambda: cohomology(P2, divisor),
        lambda: h0_points(P2, divisor),
        lambda: frobenius_decompose(P2, divisor, order),
        lambda: is_nef(P2, divisor),
        lambda: is_ample(P2, divisor),
        lambda: ext_table(P2, order, L=divisor),
        lambda: blowup_fan(P2, (0, 1)).pullback_divisor(divisor),
        lambda: projectivization_fan(P2, [(0, 0, 0), (1, 0, 0)]).pullback_divisor(divisor),
    ):
        with pytest.raises(FanError):
            ask()
    dec = frobenius_decompose(P2, (1, 0, 0), order)
    assert dec.divisor == (1, 0, 0) and all(type(a) is int for a in dec.divisor)
    assert class_of(P2, [np.int64(1), 0, 0]) == class_of(P2, (1, 0, 0))


@pytest.mark.parametrize(
    "ask",
    [
        lambda P2, order: _basis_size(3),
        lambda P2, order: delpezzo_jet_check(3, 1, compute_rank=True, point=5),
        lambda P2, order: pbundle_check(P2, [(0, 0, 0), 5], order),
        lambda P2, order: s2d2_identity_check(P2, 5, order),
        lambda P2, order: blowup_fan(P2, 5),
        lambda P2, order: cohomology(P2, 5),
    ],
    ids=["multidegree", "jet-point", "pbundle", "s2d2", "blowup", "cohomology"],
)
def test_a_scalar_where_integers_are_due_is_refused(P2, ask):
    # each raised TypeError: 'int' object is not iterable
    with pytest.raises(FanError, match="is not a sequence of integers"):
        ask(P2, FrobeniusOrder(3, 1))


@pytest.mark.parametrize(
    "ask",
    [
        lambda P2: pbundle_check(P2, 5, FrobeniusOrder(3, 1)),
        lambda P2: normalised_degrees(P2, 5),
        lambda P2: projectivization_fan(P2, 5),
        lambda P2: projective_bundle(P2, 5),
    ],
    ids=["pbundle", "normalised", "projectivization", "projective-bundle"],
)
def test_a_scalar_in_place_of_the_degrees_is_refused(P2, ask):
    # pbundle_check raised TypeError: object of type 'int' has no len(), the
    # other three TypeError: 'int' object is not iterable
    with pytest.raises(FanError, match="degrees 5 is not a sequence of divisors"):
        ask(P2)


@pytest.mark.parametrize(
    "rays, cones, what",
    [(5, [[0, 1]], "rays 5"), ([[1, 0], [0, 1], [-1, -1]], 5, "max_cones 5")],
    ids=["rays", "max-cones"],
)
def test_a_scalar_in_place_of_the_rays_or_cones_is_refused(rays, cones, what):
    with pytest.raises(FanError, match=f"{what} is not a sequence of"):
        build_fan(rays, cones)
