"""The sliced character count agrees with enumerating the whole box."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricfrob import (
    build_fan,
    cohomology,
    h0_points,
    hirzebruch_one,
    product,
    projective_line,
    projective_plane,
)
from toricfrob.catalog import catalog_entries
from toricfrob.cohomology import _char_grid, _mask_counts, _vertex_box

FANS = [entry.build() for entry in catalog_entries()] + [
    hirzebruch_one(),
    # P1xP1 in the lattice basis (2, 1), (3, 2): rays with components of 2
    # and 3 along a longest box axis, where floor and ceiling of x / c differ
    build_fan(
        [(2, 1), (-2, -1), (3, 2), (-3, -2)],
        [(0, 2), (0, 3), (1, 2), (1, 3)],
        name="skew P1xP1",
    ),
    product(projective_plane(), projective_plane(), name="P2xP2"),
    projective_line(),
]


def box_mask_counts(fan, coeffs):
    """Reference: the support mask of every character of the box, counted."""
    pts = _char_grid(fan, coeffs)
    rays_t = np.array(fan.rays, dtype=np.int64).T
    neg = pts @ rays_t < -np.array(coeffs, dtype=np.int64)
    bits = np.left_shift(np.int64(1), np.arange(len(fan.rays), dtype=np.int64))
    return np.unique(neg @ bits, return_counts=True)


def slice_axis(fan, coeffs):
    widths = [b - a for a, b in _vertex_box(fan, coeffs)]
    return widths.index(max(widths))


@st.composite
def divisors(draw):
    fan = draw(st.sampled_from(FANS))
    # spans that keep every box well inside MAX_BOX_POINTS
    span = 8 if fan.dim == 4 else 20
    coeffs = draw(st.tuples(*[st.integers(-span, span)] * len(fan.rays)))
    return fan, coeffs


def assert_slices_match_box(fan, coeffs):
    expected = box_mask_counts(fan, coeffs)
    masks, counts = _mask_counts(fan, coeffs)
    assert masks.tolist() == expected[0].tolist()
    assert counts.tolist() == expected[1].tolist()
    assert cohomology(fan, coeffs).dims[0] == h0_points(fan, coeffs)


@settings(max_examples=200, deadline=None)
@given(divisors())
@example((FANS[-1], (5, -2)))
@example((FANS[-1], (-7, 3)))
@example((FANS[-2], (-3, 0, 0, 1, 0, 0)))
def test_slices_match_box(drawn):
    assert_slices_match_box(*drawn)


@pytest.mark.parametrize(
    "fan", [fan for fan in FANS if fan.dim > 1 and fan.name != "skew P1xP1"],
    ids=lambda fan: fan.name,
)
def test_slices_match_box_with_a_flat_ray(fan):
    # a ray with component 0 along the slice axis keeps its condition along
    # each whole line, so its bit comes from the line's base mask alone
    coeffs = [0] * len(fan.rays)
    coeffs[[k for k, ray in enumerate(fan.rays) if ray[0]][0]] = 7
    coeffs[-1] -= 3
    axis = slice_axis(fan, coeffs)
    assert any(ray[axis] == 0 for ray in fan.rays)
    assert_slices_match_box(fan, tuple(coeffs))
