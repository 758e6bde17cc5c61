"""Each F_p Cech rank is the sum of exact eliminations of the torus-weight
blocks of the map; the nested-tuple monomials and the dense assembly survive
here as the reference."""

from itertools import chain
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfrob import LaurentComplex, MultiProjSpace, incidence_cohomology
from toricfrob import cech as cech_mod
from toricfrob.cech import (
    Poly,
    _map_rank_mod_p,
    _term_basis,
    _weights,
    hypercohomology_fp,
    incidence_form,
)
from toricfrob.cohomology import Overflow
from toricfrob.linalg import _INT64_GUARD, rank_mod_p, rank_rational, ranks_mod_p


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _tuple_basis(space, multidegree):
    """(degree, list of monomials as one exponent tuple per factor), or None."""
    degree, factors = 0, []
    for n, d in zip(space.factor_dims, multidegree):
        if d >= 0:
            factors.append(list(_compositions(d, n + 1)))
        elif d <= -(n + 1):
            degree += n
            comps = _compositions(-d - (n + 1), n + 1)
            factors.append([tuple(-1 - x for x in c) for c in comps])
        else:
            return None
    return degree, list(iproduct(*factors))


def _apply(poly, monomial):
    """Multiply a basis monomial; yields (product monomial, coefficient)."""
    for m, c in poly.terms.items():
        yield tuple(
            tuple(a + b for a, b in zip(f1, f2)) for f1, f2 in zip(monomial, m)
        ), c


def _tuple_term_basis(space, term, degree):
    out = []
    for j, md in enumerate(term):
        info = _tuple_basis(space, md)
        if info is not None and info[0] == degree:
            out.extend((j, mono) for mono in info[1])
    return out


def _dense_map_matrix(space, src_term, dst_term, poly_matrix, degree):
    """Induced map on degree-`degree` cohomology, as one dense integer matrix."""
    src = _tuple_term_basis(space, src_term, degree)
    dst = _tuple_term_basis(space, dst_term, degree)
    if not src or not dst:
        return None
    dst_index = {key: i for i, key in enumerate(dst)}
    mat = np.zeros((len(dst), len(src)), dtype=np.int64)
    for col, (src_j, mono) in enumerate(src):
        for dst_j in range(len(dst_term)):
            for prod, coeff in _apply(poly_matrix[dst_j][src_j], mono):
                idx = dst_index.get((dst_j, prod))
                if idx is not None:
                    mat[idx, col] += coeff
    return mat


def _flat(mono):
    return tuple(chain.from_iterable(mono))


@pytest.mark.parametrize("a, b", [(4, -5), (6, -8), (10, -12)])
def test_incidence_block_ranks_match_dense_elimination(a, b):
    space = MultiProjSpace((2, 2))
    src, dst = ((a - 1, b - 1),), ((a, b),)
    maps = ((incidence_form(3),),)
    checked = 0
    for degree in range(space.dim + 1):
        for term in (src, dst):
            rows = [(j, *_flat(m)) for j, m in _tuple_term_basis(space, term, degree)]
            assert _term_basis(space, term, degree).tolist() == [list(r) for r in rows]
        dense = _dense_map_matrix(space, src, dst, maps, degree)
        for p in (2, 3, 5):
            rank = _map_rank_mod_p(space, src, dst, maps, degree, p)
            if dense is None:
                assert rank == 0
                continue
            assert rank == rank_mod_p(dense, p), (degree, p)
            checked += 1
    assert checked == 3


def test_incidence_weight_is_the_difference_of_exponents():
    # K . (alpha, beta) = (alpha - beta, beta - alpha) for sum x_i y_i
    eye = np.identity(3, dtype=int)
    expected = np.block([[eye, -eye], [-eye, eye]])
    assert np.array_equal(_weights(((incidence_form(3),),), 6), expected)


def test_incidence_blocks_at_12_minus_13(monkeypatch):
    # every true row and column of a block holds an entry nonzero mod p, so a
    # stacked block's true shape is its count of nonzero rows and columns
    shapes = []

    def recording(stack, p):
        nonzero = stack % p != 0
        rows, cols = nonzero.any(axis=2).sum(axis=1), nonzero.any(axis=1).sum(axis=1)
        shapes.extend(zip(rows.tolist(), cols.tolist()))
        return ranks_mod_p(stack, p)

    monkeypatch.setattr(cech_mod, "ranks_mod_p", recording)
    assert incidence_cohomology(12, -13, 3).dims == (0, 138, 60, 0)
    assert len(shapes) == 276
    assert max(r for r, _ in shapes) == 51 and max(c for _, c in shapes) == 52


SPACES = ((1,), (2,), (1, 1), (1, 2))


@st.composite
def random_maps(draw):
    """(p, space, src_term, dst_term, poly_matrix) for a random map of sums.

    Terms have one or two summands, the targets often just above the source;
    an entry has zero to three terms, usually of the degree that joins its
    summands and sometimes of any degree; coefficients include +-p and 2p.
    """
    p = draw(st.sampled_from((2, 3, 5)))
    dims = draw(st.sampled_from(SPACES))
    space = MultiProjSpace(dims)
    multidegree = st.tuples(*(st.integers(-5, 3) for _ in dims))
    src = tuple(draw(st.lists(multidegree, min_size=1, max_size=2)))
    # targets a little above the first source summand, so that maps hit
    step = st.tuples(*(st.integers(0, 2) for _ in dims))
    near = step.map(lambda e: tuple(s + x for s, x in zip(src[0], e)))
    dst = tuple(draw(st.lists(st.one_of(near, multidegree), min_size=1, max_size=2)))
    units = [c for c in range(-3, 4) if c % p]
    coeff = st.sampled_from([p, -p, 2 * p] + units * 3)  # about 1 in 5 is 0 mod p
    maps = []
    for dst_md in dst:
        row = []
        for src_md in src:
            terms = {}
            for _ in range(draw(st.integers(0, 3))):
                homogeneous = draw(st.booleans()) or draw(st.booleans())
                mono = []
                for n, s, d in zip(dims, src_md, dst_md):
                    head = draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))
                    total = d - s if homogeneous else draw(st.integers(-3, 3))
                    mono.append((*head, total - sum(head)))
                terms[tuple(mono)] = draw(coeff)
            row.append(Poly(terms))
        maps.append(tuple(row))
    return p, space, src, dst, tuple(maps)


@settings(max_examples=300, deadline=None)
@given(random_maps())
def test_map_rank_matches_dense_elimination(drawn):
    p, space, src, dst, maps = drawn
    for degree in range(space.dim + 1):
        dense = _dense_map_matrix(space, src, dst, maps, degree)
        expected = 0 if dense is None else rank_mod_p(dense, p)
        assert _map_rank_mod_p(space, src, dst, maps, degree, p) == expected, degree


@settings(max_examples=150, deadline=None)
@given(random_maps())
def test_weights_kill_exactly_the_span_of_the_terms(drawn):
    _, space, _, _, maps = drawn
    width = sum(n + 1 for n in space.factor_dims)
    weights = _weights(maps, width)
    terms = [_flat(mono) for row in maps for poly in row for mono in poly.terms]
    for t in terms:
        assert all(sum(k * x for k, x in zip(row, t)) == 0 for row in weights), t
    # K is the whole annihilator: its rank and the rank of the terms add up
    assert rank_rational(weights) + rank_rational(terms) == width


@pytest.mark.parametrize("big, refused", [(2**61 - 1, False), (2**61, True)])
def test_weight_overflow_guard(big, refused):
    # O(0) -> O(0) on P1 by 1 + x0^big x1^-big: K = [[1, 1], [1, 1]], so the
    # guard needs max|K row sum| * (max|m| + max|t|) = 2 * big below 2^62
    space = MultiProjSpace((1,))
    maps = ((Poly({((0, 0),): 1, ((big, -big),): 1}),),)
    assert _weights(maps, 2) == [[1, 1], [1, 1]]
    assert (2 * big >= _INT64_GUARD) == refused
    if refused:
        with pytest.raises(Overflow):
            _map_rank_mod_p(space, ((0,),), ((0,),), maps, 0, 3)
    else:
        assert _map_rank_mod_p(space, ((0,),), ((0,),), maps, 0, 3) == 1


def test_composite_p_refused_without_nonzero_entries():
    # O(0) -> O(1) on P1 by 0 and by 4 x_0: no entry is nonzero mod 2 or mod 4
    space = MultiProjSpace((1,))
    for poly, at_3 in ((Poly({}), {0: 1, 1: 2}), (Poly({((1, 0),): 4}), {1: 1})):
        cx = LaurentComplex(space=space, terms=(((0,),), ((1,),)), maps=(((poly,),),))
        assert hypercohomology_fp(cx, 2) == {0: 1, 1: 2}
        assert hypercohomology_fp(cx, 3) == at_3
        with pytest.raises(ValueError, match="not prime"):
            hypercohomology_fp(cx, 4)
