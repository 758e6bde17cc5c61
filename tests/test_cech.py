from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfrob import (
    LaurentComplex,
    MultiProjSpace,
    cohomology,
    concentration_check,
    incidence_cohomology,
    line_bundle_cohomology_fp,
)
from toricfrob.cech import (
    MAX_CECH_BASIS,
    UnsupportedComplex,
    _basis_size,
    hypercohomology_fp,
    incidence_form,
    line_bundle_basis,
)


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


def test_composition_check_rejects_nonzero_d_squared():
    sp = MultiProjSpace((2, 2))
    w = incidence_form(3)
    cx = LaurentComplex(
        space=sp,
        terms=(((-2, -2),), ((-1, -1),), ((0, 0),)),
        maps=((((w,),),) * 2),
    )
    assert not cx.check_composition()
    with pytest.raises(UnsupportedComplex):
        hypercohomology_fp(cx, 3)


def test_higher_differential_configurations_rejected():
    sp = MultiProjSpace((1,))
    from toricfrob.cech import Poly

    zero = Poly({})
    cx = LaurentComplex(
        space=sp,
        terms=(((-2,),), ((-1,),), ((0,),)),
        maps=((((zero,),),) * 2),
    )
    with pytest.raises(UnsupportedComplex):
        hypercohomology_fp(cx, 2)


def test_map_count_validated():
    sp = MultiProjSpace((1,))
    with pytest.raises(ValueError):
        LaurentComplex(space=sp, terms=(((0,),), ((1,),)), maps=())


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


def test_basis_size_counts_the_enumerated_basis():
    for dims in ((1,), (2,), (1, 1), (2, 2), (1, 3)):
        sp = MultiProjSpace(dims)
        for md in iproduct(range(-7, 5), repeat=len(dims)):
            info = line_bundle_basis(sp, md)
            expected = None if info is None else (info[0], len(info[1]))
            assert _basis_size(sp, md) == expected, (dims, md)


def test_work_bound_admits_the_large_incidence_twists():
    # both terms of the restriction complex O(a-1, b-1) -> O(a, b), for every
    # twist the tests and the benchmark ask, and (40, -42)
    sp = MultiProjSpace((2, 2))
    for a, b in ((4, -5), (6, -8), (10, -12), (12, -13), (-14, 11), (20, -22), (40, -42)):
        for md in ((a - 1, b - 1), (a, b)):
            assert _basis_size(sp, md)[1] <= MAX_CECH_BASIS
    assert _basis_size(sp, (40, -42)) == (2, 706_020)
    assert _basis_size(sp, (50, -52))[1] > MAX_CECH_BASIS
