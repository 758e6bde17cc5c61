"""The F_p incidence ranks against closed forms from representation theory.

The incidence threefold X = {sum x_i y_i = 0} in P2 x P2 is SL3/B, and
O(a, b) on X is the line bundle of the weight lambda = a w_1 + b w_2.  In
characteristic 0, Borel-Weil-Bott gives its cohomology from x = a + 1 and
y = b + 1, the coordinates of lambda + rho: if x y (x + y) = 0 every h^i
vanishes; otherwise the reflections s_1 (x, y) -> (-x, x + y) and
s_2 (x, y) -> (x + y, -y) carry (x, y) into the dominant chamber x, y > 0 in
some number l of steps, and the one nonzero group is h^l = x y (x + y) / 2,
the Weyl dimension read at the image.  In characteristic p this still holds
when lambda + rho lies in the closed bottom p-alcove of its W-orbit,
max(|x|, |y|, |x + y|) <= p (the linkage principle), and for dominant
lambda by Kempf's vanishing theorem (Jantzen, Representations of Algebraic
Groups, II.4-5).  Elsewhere the F_p answer may depart from BWB; the first
departures are pinned below.
"""

import pytest

from toricfrob import incidence_cohomology


def _bott(a, b):
    """h^0 .. h^3 of O(a, b) on SL3/B in characteristic 0."""
    x, y = a + 1, b + 1
    if x * y * (x + y) == 0:
        return (0, 0, 0, 0)
    length = 0
    while x < 0 or y < 0:
        x, y = (-x, x + y) if x < 0 else (x + y, -y)
        length += 1
    dims = [0, 0, 0, 0]
    dims[length] = x * y * (x + y) // 2
    return tuple(dims)


def test_bott_is_weyl_dimension_and_serre_duality():
    # the oracle itself: Weyl's formula on dominant weights, and
    # h^i(O(a, b)) = h^(3 - i)(O(-2 - a, -2 - b)) with omega = O(-2, -2)
    assert _bott(0, 0) == (1, 0, 0, 0) and _bott(1, 0) == (3, 0, 0, 0)
    assert _bott(1, 1) == (8, 0, 0, 0) and _bott(-2, -2) == (0, 0, 0, 1)
    for a in range(-9, 8):
        for b in range(-9, 8):
            assert _bott(a, b) == _bott(-2 - a, -2 - b)[::-1], (a, b)


@pytest.mark.parametrize("p, count", [(2, 19), (3, 37), (5, 91), (7, 169)])
def test_bottom_alcove_twists_are_bott(p, count):
    twists = [
        (x - 1, y - 1)
        for x in range(-p, p + 1)
        for y in range(-p, p + 1)
        if abs(x + y) <= p
    ]
    assert len(twists) == count
    for a, b in twists:
        assert incidence_cohomology(a, b, p).dims == _bott(a, b), (a, b, p)


@pytest.mark.parametrize("p", [2, 3])
def test_dominant_twists_are_kempf(p):
    for a in range(16):
        for b in range(16):
            weyl = (a + 1) * (b + 1) * (a + b + 2) // 2
            assert incidence_cohomology(a, b, p).dims == (weyl, 0, 0, 0), (a, b)


@pytest.mark.parametrize("p, h", [(2, 1), (3, 3), (5, 10)])
def test_first_departure_from_bott(p, h):
    # lambda + rho = (-(p + 1), p + 1) is singular, so BWB gives zero, but in
    # characteristic p the map drops rank: h^1 = h^2 = h, and chi stays 0
    a, b = -(p + 2), p
    assert _bott(a, b) == (0, 0, 0, 0)
    assert incidence_cohomology(a, b, p).dims == (0, h, h, 0)
