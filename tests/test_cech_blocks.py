"""Each F_p Cech rank is the sum of exact eliminations of the connected blocks
of the map's nonzero pattern; the dense assembly survives here as the
reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfrob import LaurentComplex, MultiProjSpace
from toricfrob.cech import (
    Poly,
    _block_rank_mod_p,
    _components,
    _map_entries,
    _term_basis,
    hypercohomology_fp,
    incidence_form,
)
from toricfrob.linalg import rank_mod_p


def _dense_map_matrix(space, src_term, dst_term, poly_matrix, degree):
    """Induced map on degree-`degree` cohomology, as one dense integer matrix."""
    src = _term_basis(space, src_term, degree)
    dst = _term_basis(space, dst_term, degree)
    if not src or not dst:
        return None
    dst_index = {key: i for i, key in enumerate(dst)}
    mat = np.zeros((len(dst), len(src)), dtype=np.int64)
    for col, (src_j, mono) in enumerate(src):
        for dst_j in range(len(dst_term)):
            poly = poly_matrix[dst_j][src_j]
            for prod, coeff in poly.apply(mono):
                idx = dst_index.get((dst_j, prod))
                if idx is not None:
                    mat[idx, col] += coeff
    return mat


def _densify(entries, shape):
    mat = np.zeros(shape, dtype=np.int64)
    for (row, col), coeff in entries.items():
        mat[row, col] = coeff
    return mat


@pytest.mark.parametrize("a, b", [(4, -5), (6, -8), (10, -12)])
def test_incidence_block_ranks_match_dense_elimination(a, b):
    space = MultiProjSpace((2, 2))
    src, dst = ((a - 1, b - 1),), ((a, b),)
    maps = ((incidence_form(3),),)
    checked = 0
    for degree in range(space.dim + 1):
        dense = _dense_map_matrix(space, src, dst, maps, degree)
        entries = _map_entries(space, src, dst, maps, degree)
        if dense is None:
            assert not entries
            continue
        assert np.array_equal(_densify(entries, dense.shape), dense)
        for p in (2, 3, 5):
            assert _block_rank_mod_p(entries, p) == rank_mod_p(dense, p), (degree, p)
            checked += 1
    assert checked == 3


@st.composite
def sparse_matrices(draw):
    """(p, shape, contributions): (row, col, coeff) triples, repeats summed.

    The shape leaves rows and columns untouched, some triples repeat a cell,
    and each cancelling pair puts a multiple of p into its cell.
    """
    p = draw(st.sampled_from((2, 3, 5, 7)))
    nrows, ncols = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    cell = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1))
    coeff = st.one_of(st.integers(-4, 4), st.sampled_from((p, -p, 2 * p)))
    triples = draw(st.lists(st.tuples(cell, coeff), max_size=30))
    for rc, v in draw(st.lists(st.tuples(cell, coeff), max_size=6)):
        triples += [(rc, v), (rc, draw(st.integers(-2, 2)) * p - v)]
    return p, (nrows, ncols), triples


@settings(max_examples=100, deadline=None)
@given(sparse_matrices())
def test_block_rank_matches_dense_elimination(drawn):
    p, shape, triples = drawn
    entries: dict = {}
    dense = np.zeros(shape, dtype=np.int64)
    for (row, col), coeff in triples:
        entries[row, col] = entries.get((row, col), 0) + coeff
        dense[row, col] += coeff
    assert _block_rank_mod_p(entries, p) == rank_mod_p(dense, p)


@settings(max_examples=100, deadline=None)
@given(sparse_matrices())
def test_components_partition_touched_rows_and_columns(drawn):
    _, _, triples = drawn
    cells = {rc for rc, _ in triples}
    comps = _components(cells)
    rows = [r for comp_rows, _ in comps for r in comp_rows]
    cols = [c for _, comp_cols in comps for c in comp_cols]
    assert sorted(rows) == sorted({r for r, _ in cells})
    assert sorted(cols) == sorted({c for _, c in cells})
    comp_of_row = {r: k for k, (comp_rows, _) in enumerate(comps) for r in comp_rows}
    comp_of_col = {c: k for k, (_, comp_cols) in enumerate(comps) for c in comp_cols}
    assert all(comp_of_row[r] == comp_of_col[c] for r, c in cells)
    # no component splits further: its cells connect all of its rows
    for k, (comp_rows, comp_cols) in enumerate(comps):
        reached_rows, reached_cols = {comp_rows[0]}, set()
        grew = True
        while grew:
            new_cols = {c for r, c in cells if r in reached_rows} - reached_cols
            reached_cols |= new_cols
            new_rows = {r for r, c in cells if c in reached_cols} - reached_rows
            reached_rows |= new_rows
            grew = bool(new_cols or new_rows)
        assert reached_rows == set(comp_rows) and reached_cols == set(comp_cols), k


def test_composite_p_refused_without_nonzero_entries():
    # O(0) -> O(1) on P1 by 0 and by 4 x_0: no entry is nonzero mod 2 or mod 4
    space = MultiProjSpace((1,))
    for poly, at_3 in ((Poly({}), {0: 1, 1: 2}), (Poly({((1, 0),): 4}), {1: 1})):
        cx = LaurentComplex(space=space, terms=(((0,),), ((1,),)), maps=(((poly,),),))
        assert hypercohomology_fp(cx, 2) == {0: 1, 1: 2}
        assert hypercohomology_fp(cx, 3) == at_3
        with pytest.raises(ValueError, match="not prime"):
            hypercohomology_fp(cx, 4)
