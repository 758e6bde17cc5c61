import re
from functools import cache
from itertools import product as iproduct
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfrob import (
    cohomology,
    concentration_check,
    incidence_cohomology,
    product,
    projective_plane,
)
from toricfrob import cech as cech_mod
from toricfrob.cech import MAX_CECH_BASIS, _basis_size
from toricfrob.fan import InvariantViolation


@cache
def _p2xp2():
    return product(projective_plane(), projective_plane(), name="P2xP2")


def _ambient(a, b):
    """h^i of O(a, b) on P2 x P2 from the toric engine, an oracle that shares
    nothing with the F_p engine's binomial counts."""
    return cohomology(_p2xp2(), (a, 0, 0, b, 0, 0))


def test_line_bundle_single_factor():
    # O(d) on one P2 factor, the other factor O(0)
    assert _basis_size((-4, 0)) == (2, 3)
    assert _basis_size((2, 0)) == (0, 6)
    assert _basis_size((-1, 0)) is None


def test_line_bundle_product_factors():
    assert _basis_size((-3, 0)) == (2, 1)
    assert _basis_size((-1, 5)) is None
    assert _basis_size((-3, -3)) == (4, 1)


def test_line_bundle_counts_without_enumerating():
    # 5,000,050,000 monomials: counted from binomials, never listed
    assert _basis_size((99999, 0)) == (0, comb(100001, 2))


def test_space_validation():
    # a multidegree is one entry per P2 factor, two in all
    for bad in ((1,), (1, 0, 0)):
        with pytest.raises(ValueError, match="length"):
            _basis_size(bad)


def test_incidence_structure_sheaf():
    for p in (2, 3, 5):
        assert incidence_cohomology(0, 0, p).dims == (1, 0, 0, 0)


def test_incidence_pullback_example():
    # O(-3, 0) restricts with the ambient middle cohomology
    assert incidence_cohomology(-3, 0, 3).dims == (0, 0, 1, 0)


def test_incidence_canonical():
    for p in (2, 3):
        assert incidence_cohomology(-2, -2, p).dims == (0, 0, 0, 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(-6, 3), st.integers(-6, 3), st.sampled_from([2, 3]))
def test_incidence_serre_duality(a, b, p):
    lhs = incidence_cohomology(a, b, p).dims
    rhs = incidence_cohomology(-2 - a, -2 - b, p).dims
    assert lhs == tuple(reversed(rhs))


@settings(max_examples=60, deadline=None)
@given(st.integers(-5, 3), st.integers(-5, 3), st.sampled_from([2, 3]))
def test_incidence_euler_from_ambient(a, b, p):
    chi = incidence_cohomology(a, b, p).euler()
    assert chi == _ambient(a, b).euler() - _ambient(a - 1, b - 1).euler()


def test_concentration_checks():
    for a, b in ((-1, 0), (0, -1)):
        for p in (2, 3):
            for m in (1, 2):
                assert concentration_check(a, b, p, m)
    assert concentration_check(0, 0, 5, 1)


@pytest.mark.parametrize("p, m", [(3, -1), (2, -3), (4, 1), (1, 1)])
def test_concentration_check_refuses_bad_orders(p, m):
    with pytest.raises(ValueError):
        concentration_check(1, 1, p, m)


@pytest.mark.parametrize("a, b, bad", [(True, 0, True), (0, False, False), ("1", 0, "1"),
                                       (1.0, 0, 1.0), (0, None, None)])
def test_concentration_check_reads_the_twist_before_scaling_it(a, b, bad):
    # a bool is not the 0 or 1 it would scale to, and a bad entry is named
    # as passed, not as q times itself
    with pytest.raises(ValueError, match=re.escape(f"entry {bad!r} is not an integer")):
        concentration_check(a, b, 3, 1)


def test_concentration_at_p3_m2_over_a_twist_grid():
    # q = 9: the pullbacks of O(a, b) are O(9a, 9b); concentration holds on
    # the 3 x 3 grid and fails at (1, -2) and (-2, 1), where H^1 and H^2 meet
    split = {(1, -2): (0, 1, 596, 0), (-2, 1): (0, 1, 596, 0)}
    for a, b in [*iproduct((-1, 0, 1), repeat=2), *split]:
        dims = incidence_cohomology(9 * a, 9 * b, 3)
        assert concentration_check(a, b, 3, 2) == ((a, b) not in split), (a, b)
        if (a, b) in split:
            assert dims.dims == split[a, b]
        ambient = _ambient(9 * a, 9 * b).euler()
        ambient -= _ambient(9 * a - 1, 9 * b - 1).euler()
        assert dims.euler() == ambient, (a, b)


def test_rank_depends_on_p():
    # multiplication by the pairing form on sections: full rank over any p,
    # checked through the restriction of O(1, 1)
    dims2 = incidence_cohomology(1, 1, 2).dims
    dims3 = incidence_cohomology(1, 1, 3).dims
    assert dims2 == dims3 == (8, 0, 0, 0)


def test_cross_validation_against_toric_engine():
    # the binomial counts of the F_p engine's bases on P2 x P2, against the
    # toric engine's h^i of the same bundles
    for md in iproduct(range(-6, 5), repeat=2):
        dims = [0] * 5
        size = _basis_size(md)
        if size is not None:
            dims[size[0]] = size[1]
        assert tuple(dims) == _ambient(*md).dims, md


@pytest.mark.parametrize("a, b, stray", [(2, 2, "{-1: 1}"), (-3, -3, "{4: 1}")],
                         ids=["h0-kernel", "top-cokernel"])
def test_a_rank_one_short_breaks_exactness(monkeypatch, a, b, stray):
    # the map on H^0 of O(1, 1) -> O(2, 2) is injective, and the map on H^4
    # of O(-4, -4) -> O(-3, -3) onto; a rank one short leaves a kernel class
    # in degree -1, or a cokernel class in degree 4, which X cannot have
    real = cech_mod._map_rank_mod_p
    monkeypatch.setattr(cech_mod, "_map_rank_mod_p", lambda *args: real(*args) - 1)
    with pytest.raises(InvariantViolation, match=re.escape(f"outside degrees 0..3: {stray}")):
        incidence_cohomology(a, b, 3)


def test_incidence_large_twist_pinned():
    assert incidence_cohomology(12, -13, 3).dims == (0, 138, 60, 0)


def test_incidence_large_twist_serre_duality():
    lhs = incidence_cohomology(12, -13, 3).dims
    assert lhs == tuple(reversed(incidence_cohomology(-14, 11, 3).dims))


@pytest.mark.parametrize("a, b", [(10, -12), (12, -13), (20, -22)])
def test_incidence_large_twist_euler_from_ambient(a, b):
    ambient = _ambient(a, b).euler() - _ambient(a - 1, b - 1).euler()
    assert incidence_cohomology(a, b, 3).euler() == ambient


def _enumerated_basis(md):
    """(degree, basis size) of O(md) on P2 x P2 by listing each factor's
    exponent vectors, or None if acyclic: e >= 0 of sum d in degree 0, and
    e <= -1 of sum d in degree 2."""
    degree, size = 0, 1
    for n, d in zip((2, 2), md):
        if d < 0:
            degree += n
        exps = range(d, 0) if d < 0 else range(d + 1)
        size *= sum(1 for e in iproduct(exps, repeat=n + 1) if sum(e) == d)
    return (degree, size) if size else None


def test_basis_size_counts_the_enumerated_basis():
    for md in iproduct(range(-7, 5), repeat=2):
        assert _basis_size(md) == _enumerated_basis(md), md


def test_work_bound_admits_the_large_incidence_twists():
    # both terms of the restriction complex O(a-1, b-1) -> O(a, b), for every
    # twist the tests and the benchmark ask, and (40, -42)
    for a, b in ((4, -5), (6, -8), (10, -12), (12, -13), (-14, 11), (20, -22), (40, -42)):
        for md in ((a - 1, b - 1), (a, b)):
            assert _basis_size(md)[1] <= MAX_CECH_BASIS
    assert _basis_size((40, -42)) == (2, 706_020)
    assert _basis_size((50, -52))[1] > MAX_CECH_BASIS
