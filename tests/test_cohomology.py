import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfrob import (
    DimensionUnsupported,
    Overflow,
    cohomology,
    h0_points,
    is_nef,
    named_variety,
    product,
    projective_plane,
    projective_space,
)

from conftest import plane_blown_up_to


def test_p2_twist_two(P2):
    assert cohomology(P2, (2, 0, 0)).dims == (6, 0, 0)


def test_p2_canonical(P2):
    assert cohomology(P2, (-3, 0, 0)).dims == (0, 0, 1)


def test_p1xp1_acyclic_factor(Q11):
    # O(-1, 5): the first factor kills everything
    assert cohomology(Q11, (-1, 0, 5, 0)).dims == (0, 0, 0)


def test_h0_points_examples(P1, P2, F1):
    assert h0_points(P1, (3, 0)) == 4
    assert h0_points(P2, (0, 0, 0)) == 1
    # anticanonical polygon of the blown-up plane: 8 boundary points plus the
    # origin, in line with chi(-K) = K^2 + 1 = 9
    anti_k = tuple(-a for a in F1.canonical_divisor())
    assert h0_points(F1, anti_k) == 9
    assert cohomology(F1, anti_k).dims == (9, 0, 0)
    assert cohomology(F1, anti_k).euler() == 9


divisor2 = st.tuples(*[st.integers(-6, 6)] * 3)
divisor4 = st.tuples(*[st.integers(-6, 6)] * 4)


@settings(max_examples=50, deadline=None)
@given(divisor2)
def test_serre_duality_p2(P2, div):
    k = P2.canonical_divisor()
    dual = tuple(a - b for a, b in zip(k, div))
    assert cohomology(P2, div).dims == tuple(reversed(cohomology(P2, dual).dims))


@settings(max_examples=50, deadline=None)
@given(divisor4)
def test_serre_duality_f1(F1, div):
    k = F1.canonical_divisor()
    dual = tuple(a - b for a, b in zip(k, div))
    assert cohomology(F1, div).dims == tuple(reversed(cohomology(F1, dual).dims))


@settings(max_examples=40, deadline=None)
@given(divisor4)
def test_serre_duality_quadric(Q11, div):
    k = Q11.canonical_divisor()
    dual = tuple(a - b for a, b in zip(k, div))
    assert cohomology(Q11, div).dims == tuple(reversed(cohomology(Q11, dual).dims))


@settings(max_examples=25, deadline=None)
@given(st.tuples(*[st.integers(-4, 4)] * 4))
def test_serre_duality_p3(P3, div):
    k = P3.canonical_divisor()
    dual = tuple(a - b for a, b in zip(k, div))
    assert cohomology(P3, div).dims == tuple(reversed(cohomology(P3, dual).dims))


@settings(max_examples=50, deadline=None)
@given(divisor4)
def test_h0_agrees_with_point_count(F1, div):
    assert cohomology(F1, div).dims[0] == h0_points(F1, div)


@settings(max_examples=50, deadline=None)
@given(divisor4)
def test_nef_implies_no_higher_cohomology(F1, div):
    if is_nef(F1, div):
        assert cohomology(F1, div).dims[1:] == (0, 0)


_BUNDLE_THREEFOLD = named_variety("P(O+O(2))/P2")


@settings(max_examples=25, deadline=None)
@given(st.tuples(*[st.integers(-3, 3)] * 5))
def test_nef_implies_no_higher_cohomology_threefold(div):
    if is_nef(_BUNDLE_THREEFOLD, div):
        assert cohomology(_BUNDLE_THREEFOLD, div).dims[1:] == (0, 0, 0)


def test_dimension_four_supported():
    p2xp2 = product(projective_plane(), projective_plane(), name="P2xP2")
    assert cohomology(p2xp2, (-3, 0, 0, 0, 0, 0)).dims == (0, 0, 1, 0, 0)
    assert cohomology(p2xp2, (1, 0, 0, 2, 0, 0)).dims == (18, 0, 0, 0, 0)


def test_dimension_five_rejected():
    big = product(projective_plane(), projective_space(3))
    with pytest.raises(DimensionUnsupported):
        cohomology(big, big.zero_divisor())


def test_candidate_box_overflow(P3):
    with pytest.raises(Overflow):
        cohomology(P3, (300, 0, 0, 0))


def test_sixty_four_rays_match_riemann_roch():
    # chi(-K) = 1 + K^2 = 13 - n on a toric surface with n rays
    fan = plane_blown_up_to(64)
    h = cohomology(fan, (1,) * 64)
    assert h.dims[0] - h.dims[1] + h.dims[2] == 13 - 64


def test_more_than_sixty_four_rays_raise_overflow():
    fan = plane_blown_up_to(65)
    with pytest.raises(Overflow, match="65 rays"):
        cohomology(fan, (1,) * 65)
