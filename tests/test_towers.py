"""Property tests on random towers of star subdivisions over P2, P3 and
P1xP1: the projection formula, Serre duality and lattice-point h^0 hold on
every smooth complete fan the tower reaches."""

from hypothesis import given, settings
from hypothesis import strategies as st

from toricfrob import (
    Decomposition,
    FrobeniusOrder,
    blowup_fan,
    cohomology,
    h0_points,
    p1xp1,
    projection_formula_failure,
    projective_plane,
    projective_space,
)
from toricfrob.frobenius import _raw_decompose

BASES = {"P2": projective_plane(), "P3": projective_space(3), "P1xP1": p1xp1()}


@st.composite
def towers(draw):
    """A fan reached from a base by up to two star subdivisions.

    Each step subdivides a face of dimension >= 2 of a maximal cone.
    """
    fan = BASES[draw(st.sampled_from(sorted(BASES)))]
    for _ in range(draw(st.integers(0, 2))):
        cone = draw(st.sampled_from(fan.max_cones))
        face = draw(st.lists(st.sampled_from(cone), min_size=2, unique=True))
        fan = blowup_fan(fan, face).fan
    return fan


@st.composite
def tower_divisors(draw, low=-3, high=3):
    fan = draw(towers())
    divisor = tuple(
        draw(st.lists(st.integers(low, high), min_size=len(fan.rays),
                      max_size=len(fan.rays)))
    )
    return fan, divisor


@settings(max_examples=20, deadline=None)
@given(tower_divisors(low=-2, high=2), st.sampled_from((2, 3)))
def test_tower_projection_formula(drawn, q):
    fan, divisor = drawn
    order = FrobeniusOrder(q)
    dec = Decomposition(fan, divisor, order, _raw_decompose(fan, divisor, order))
    assert projection_formula_failure(dec) is None


@settings(max_examples=40, deadline=None)
@given(tower_divisors())
def test_tower_serre_duality(drawn):
    fan, divisor = drawn
    dual = tuple(k - a for k, a in zip(fan.canonical_divisor(), divisor))
    assert cohomology(fan, divisor).dims == tuple(reversed(cohomology(fan, dual).dims))


@settings(max_examples=40, deadline=None)
@given(tower_divisors())
def test_tower_h0_is_lattice_point_count(drawn):
    fan, divisor = drawn
    assert cohomology(fan, divisor).dims[0] == h0_points(fan, divisor)
