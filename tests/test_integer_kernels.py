"""The integer cohomology kernels against the Fraction kernels they replaced.

The character box is checked against the Cramer solve over Q, the support
Betti numbers against elimination over Q, and the adjugates against their
defining identity.
"""

from itertools import combinations
from math import ceil, floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfrob import (
    Overflow,
    build_fan,
    catalog_entries,
    cohomology,
    named_variety,
    product,
    projective_plane,
)
from toricfrob.cohomology import _BETTI_P, _INT64_GUARD, _support_contrib, _vertex_box
from toricfrob.linalg import (
    adjugate_int,
    det_int,
    inverse_unimodular,
    rank_mod_p,
    rank_rational,
    solve_rational,
)


def _fraction_vertex_box(fan, coeffs):
    """Reference: Cramer's rule over Q on every d-subset of rays."""
    d, n = fan.dim, len(fan.rays)
    lo = [None] * d
    hi = [None] * d
    for subset in combinations(range(n), d):
        sol = solve_rational([fan.rays[i] for i in subset], [-coeffs[i] for i in subset])
        if sol is None:
            continue
        for j, x in enumerate(sol):
            lo[j] = floor(x) if lo[j] is None else min(lo[j], floor(x))
            hi[j] = ceil(x) if hi[j] is None else max(hi[j], ceil(x))
    return [(lo[j] - 1, hi[j] + 1) for j in range(d)]


def _boundary_maps(fan, mask):
    """Face counts and boundary matrices of the augmented chain complex of the
    subcomplex induced on the rays in ``mask``."""
    support = [i for i in range(len(fan.rays)) if mask >> i & 1]
    faces = [[()]]
    for card in range(1, fan.dim + 1):
        faces.append([
            c for c in combinations(support, card)
            if any(set(c) <= cs for cs in fan.cone_sets)
        ])
    maps = {}
    for card in range(1, fan.dim + 1):
        if not faces[card] or not faces[card - 1]:
            continue
        lower = {f: i for i, f in enumerate(faces[card - 1])}
        mat = [[0] * len(faces[card]) for _ in faces[card - 1]]
        for col, f in enumerate(faces[card]):
            for pos in range(card):
                mat[lower[f[:pos] + f[pos + 1:]]][col] = -1 if pos % 2 else 1
        maps[card] = mat
    return [len(level) for level in faces], maps


def _betti_fans():
    fans = [entry.build() for entry in catalog_entries()]
    fans.append(product(projective_plane(), projective_plane()))
    fans.append(product(named_variety("X3"), named_variety("F1")))
    return fans


_BOX_FANS = [entry.build() for entry in catalog_entries()] + [
    product(projective_plane(), projective_plane())
]


def test_betti_ranks_over_fp_equal_ranks_over_q():
    # every induced subcomplex of every fan below: the torsion-freeness that
    # makes one odd prime exact, checked map by map
    maps_checked = 0
    for fan in _betti_fans():
        for mask in range(1 << len(fan.rays)):
            sizes, maps = _boundary_maps(fan, mask)
            ranks = [0] * (fan.dim + 2)
            for card, mat in maps.items():
                ranks[card] = rank_rational(mat)
                assert rank_mod_p(mat, _BETTI_P) == ranks[card], (fan.name, mask)
                maps_checked += 1
            # reduced cohomology of the induced subcomplex over Q
            reference = tuple(
                sizes[c] - ranks[c] - ranks[c + 1] for c in range(fan.dim + 1)
            )
            assert _support_contrib(fan, mask) == reference
    assert maps_checked > 5000


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_BOX_FANS), st.lists(st.integers(-40, 40), min_size=12, max_size=12))
def test_vertex_box_matches_cramer_over_q(fan, values):
    coeffs = tuple(values[: len(fan.rays)])
    assert _vertex_box(fan, coeffs) == _fraction_vertex_box(fan, coeffs)


def test_vertex_box_matches_cramer_on_canonical_multiples():
    for fan in _BOX_FANS:
        for k in (-7, -1, 0, 2, 9):
            coeffs = tuple(k * a for a in fan.canonical_divisor())
            assert _vertex_box(fan, coeffs) == _fraction_vertex_box(fan, coeffs)


def test_vertex_box_int64_guard():
    fan = projective_plane()
    bound = fan._vertex_adjugates[3]
    below = (_INT64_GUARD - 1) // bound
    for sign in (1, -1):
        # just below the guard the box is exact, and too big to enumerate
        assert _vertex_box(fan, (sign * below, 0, 0)) == _fraction_vertex_box(
            fan, (sign * below, 0, 0)
        )
        with pytest.raises(Overflow, match="candidate box has"):
            cohomology(fan, (sign * below, 0, 0))
        with pytest.raises(Overflow, match="exact int64 range"):
            _vertex_box(fan, (0, sign * (below + 1), 0))


def test_vertex_box_refuses_adjugates_beyond_int64():
    # the plane under the shear (x, y) -> (x + N y, y): still smooth and
    # complete, but its adjugates do not fit below 2^62
    n = 2**62
    fan = build_fan([(1, 0), (n, 1), (-1 - n, -1)], [(0, 1), (1, 2), (0, 2)])
    assert fan._vertex_adjugates[1] is None
    with pytest.raises(Overflow):
        cohomology(fan, (0, 0, 0))


_MATRICES = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@settings(max_examples=200, deadline=None)
@given(_MATRICES)
def test_adjugate_identity(rows):
    det, adj = adjugate_int(rows)
    n = len(rows)
    scaled = [[det * (i == j) for j in range(n)] for i in range(n)]
    assert det == det_int(rows)
    assert _matmul(rows, adj) == scaled
    assert _matmul(adj, rows) == scaled


def test_adjugate_small_and_singular_cases():
    assert adjugate_int([[7]]) == (7, [[1]])
    assert adjugate_int([[0]]) == (0, [[1]])
    det, adj = adjugate_int([[1, 2, 3], [2, 4, 6], [0, 1, 5]])
    assert det == 0
    assert _matmul([[1, 2, 3], [2, 4, 6], [0, 1, 5]], adj) == [[0] * 3] * 3
    assert any(any(row) for row in adj)


def test_inverse_unimodular():
    rows = [[2, 1, 0], [1, 1, 0], [3, 5, -1]]
    inv = inverse_unimodular(rows)
    assert _matmul(rows, inv) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for bad in ([[2, 0], [0, 1]], [[1, 2], [2, 4]], [[3]]):
        with pytest.raises(ValueError, match="not unimodular"):
            inverse_unimodular(bad)
