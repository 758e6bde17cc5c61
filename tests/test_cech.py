import re
from itertools import product as iproduct
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfrob import (
    MultiProjSpace,
    cohomology,
    concentration_check,
    incidence_cohomology,
    line_bundle_cohomology_fp,
)
from toricfrob import cech as cech_mod
from toricfrob.cech import MAX_CECH_BASIS, _basis_size
from toricfrob.fan import InvariantViolation


def test_line_bundle_single_factor():
    sp = MultiProjSpace((2,))
    assert line_bundle_cohomology_fp(sp, (-4,)).dims == (0, 0, 3)
    assert line_bundle_cohomology_fp(sp, (2,)).dims == (6, 0, 0)
    assert line_bundle_cohomology_fp(sp, (-1,)).dims == (0, 0, 0)


def test_line_bundle_product_factors():
    sp = MultiProjSpace((2, 2))
    assert line_bundle_cohomology_fp(sp, (-3, 0)).dims == (0, 0, 1, 0, 0)
    assert line_bundle_cohomology_fp(sp, (-1, 5)).dims == (0,) * 5
    assert line_bundle_cohomology_fp(sp, (-3, -3)).dims == (0, 0, 0, 0, 1)


def test_line_bundle_counts_without_enumerating():
    # 5,000,050,000 monomials: counted from binomials, never listed
    dims = line_bundle_cohomology_fp(MultiProjSpace((2, 2)), (99999, 0)).dims
    assert dims == (comb(100001, 2), 0, 0, 0, 0)


def test_space_validation():
    with pytest.raises(ValueError):
        MultiProjSpace((0,))
    sp = MultiProjSpace((1, 1))
    with pytest.raises(ValueError):
        line_bundle_cohomology_fp(sp, (1,))


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
    sp = MultiProjSpace((2, 2))
    chi = incidence_cohomology(a, b, p).euler()
    ambient = (
        line_bundle_cohomology_fp(sp, (a, b)).euler()
        - line_bundle_cohomology_fp(sp, (a - 1, b - 1)).euler()
    )
    assert chi == ambient


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


def test_concentration_at_p3_m2_over_a_twist_grid():
    # q = 9: the pullbacks of O(a, b) are O(9a, 9b); concentration holds on
    # the 3 x 3 grid and fails at (1, -2) and (-2, 1), where H^1 and H^2 meet
    sp = MultiProjSpace((2, 2))
    split = {(1, -2): (0, 1, 596, 0), (-2, 1): (0, 1, 596, 0)}
    for a, b in [*iproduct((-1, 0, 1), repeat=2), *split]:
        dims = incidence_cohomology(9 * a, 9 * b, 3)
        assert concentration_check(a, b, 3, 2) == ((a, b) not in split), (a, b)
        if (a, b) in split:
            assert dims.dims == split[a, b]
        ambient = (
            line_bundle_cohomology_fp(sp, (9 * a, 9 * b)).euler()
            - line_bundle_cohomology_fp(sp, (9 * a - 1, 9 * b - 1)).euler()
        )
        assert dims.euler() == ambient, (a, b)


def test_rank_depends_on_p():
    # multiplication by the pairing form on sections: full rank over any p,
    # checked through the restriction of O(1, 1)
    dims2 = incidence_cohomology(1, 1, 2).dims
    dims3 = incidence_cohomology(1, 1, 3).dims
    assert dims2 == dims3 == (8, 0, 0, 0)


def test_cross_validation_against_toric_engine(P2, Q11):
    sp2 = MultiProjSpace((2,))
    for d in range(-4, 5):
        assert line_bundle_cohomology_fp(sp2, (d,)).dims == cohomology(P2, (d, 0, 0)).dims
    sp11 = MultiProjSpace((1, 1))
    for d1 in range(-3, 4):
        for d2 in range(-3, 4):
            assert (
                line_bundle_cohomology_fp(sp11, (d1, d2)).dims
                == cohomology(Q11, (d1, 0, d2, 0)).dims
            )


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
    sp = MultiProjSpace((2, 2))
    ambient = (
        line_bundle_cohomology_fp(sp, (a, b)).euler()
        - line_bundle_cohomology_fp(sp, (a - 1, b - 1)).euler()
    )
    assert incidence_cohomology(a, b, 3).euler() == ambient


def _enumerated_basis(dims, md):
    """(degree, basis size) of O(md) by listing each factor's exponent
    vectors, or None if acyclic: e >= 0 of sum d in degree 0, and e <= -1 of
    sum d in top degree."""
    degree, size = 0, 1
    for n, d in zip(dims, md):
        if d < 0:
            degree += n
        exps = range(d, 0) if d < 0 else range(d + 1)
        size *= sum(1 for e in iproduct(exps, repeat=n + 1) if sum(e) == d)
    return (degree, size) if size else None


def test_basis_size_counts_the_enumerated_basis():
    for dims in ((1,), (2,), (1, 1), (2, 2), (1, 3)):
        sp = MultiProjSpace(dims)
        for md in iproduct(range(-7, 5), repeat=len(dims)):
            assert _basis_size(sp, md) == _enumerated_basis(dims, md), (dims, md)


def test_work_bound_admits_the_large_incidence_twists():
    # both terms of the restriction complex O(a-1, b-1) -> O(a, b), for every
    # twist the tests and the benchmark ask, and (40, -42)
    sp = MultiProjSpace((2, 2))
    for a, b in ((4, -5), (6, -8), (10, -12), (12, -13), (-14, 11), (20, -22), (40, -42)):
        for md in ((a - 1, b - 1), (a, b)):
            assert _basis_size(sp, md)[1] <= MAX_CECH_BASIS
    assert _basis_size(sp, (40, -42)) == (2, 706_020)
    assert _basis_size(sp, (50, -52))[1] > MAX_CECH_BASIS
