"""Each F_p Cech rank is the sum of exact eliminations of the torus-weight
blocks of the map; the nested-tuple monomials and the dense assembly survive
here as the reference."""

from itertools import chain, permutations
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfrob import LaurentComplex, MultiProjSpace, incidence_cohomology
from toricfrob import cech as cech_mod
from toricfrob.cech import (
    Poly,
    _basis_index,
    _map_rank_mod_p,
    _orbits,
    _symmetry,
    _term_basis,
    _weights,
    hypercohomology_fp,
    incidence_form,
    line_bundle_basis,
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
    shapes, calls = [], []

    def recording(stack, p):
        calls.append(stack.shape)
        nonzero = stack % p != 0
        rows, cols = nonzero.any(axis=2).sum(axis=1), nonzero.any(axis=1).sum(axis=1)
        shapes.extend(zip(rows.tolist(), cols.tolist()))
        return ranks_mod_p(stack, p)

    monkeypatch.setattr(cech_mod, "ranks_mod_p", recording)
    assert incidence_cohomology(12, -13, 3).dims == (0, 138, 60, 0)
    # one block per S3-orbit of weights is eliminated
    assert len(shapes) == 52
    # the map is eliminated in one call
    assert len(calls) == 1
    assert max(r for r, _ in shapes) == 51 and max(c for _, c in shapes) == 52
    # with every block ranked 1, the map's rank is the sum of the orbit sizes
    monkeypatch.setattr(cech_mod, "ranks_mod_p", lambda stack, p: np.ones(len(stack), int))
    space, maps = MultiProjSpace((2, 2)), ((incidence_form(3),),)
    assert _map_rank_mod_p(space, ((11, -14),), ((12, -13),), maps, 2, 3) == 276


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


def test_orbit_sum_matches_full_sum_on_a_twist_grid(monkeypatch):
    grid = [(a, b) for a in range(-8, 16) for b in range(-16, 8)]
    questions = [(a, b, 3) for a, b in grid + [(20, -22)]]
    questions += [(a, b, p) for a, b in ((5, -7), (12, -13)) for p in (2, 5, 7)]
    orbit = [incidence_cohomology(a, b, p).dims for a, b, p in questions]
    # the full sum: every block eliminated, as for a complex without symmetry
    monkeypatch.setattr(cech_mod, "_symmetry", lambda space, poly_matrix: 1)
    full = [incidence_cohomology(a, b, p).dims for a, b, p in questions]
    assert orbit == full


def _recording_stacks(monkeypatch):
    """Patch the kernel to record, for every stack it gets, the stack's cell
    count and, per matrix, which rows and columns hold a nonzero entry."""
    stacks = []

    def recording(stack, p):
        nonzero = stack % p != 0
        stacks.append((stack.size, nonzero.any(axis=2), nonzero.any(axis=1)))
        return ranks_mod_p(stack, p)

    monkeypatch.setattr(cech_mod, "ranks_mod_p", recording)
    return stacks


def _assert_aligned(stacks):
    """Each block's last nonzero column is its stack's last column; its used
    rows, and its used columns read from the right, have no gaps."""
    for _, rows, cols in stacks:
        assert cols[:, -1].all()
        for used in (rows, cols[:, ::-1]):
            count = used.sum(axis=1, keepdims=True)
            assert (used == (np.arange(used.shape[1]) < count)).all()


@pytest.mark.parametrize(
    "a, b, p, count", [(12, -13, 3, 1), (10, -12, 3, 1), (20, -22, 2, 2), (5, -7, 7, 1)]
)
def test_each_block_is_top_and_right_aligned_in_its_stack(monkeypatch, a, b, p, count):
    stacks = _recording_stacks(monkeypatch)
    incidence_cohomology(a, b, p)
    # one map, cut into stacks of at most _STACK_CELLS cells
    assert len(stacks) == count
    assert all(cells <= cech_mod._STACK_CELLS for cells, _, _ in stacks)
    _assert_aligned(stacks)


def test_a_smaller_stack_bound_gives_the_same_dims(monkeypatch):
    grid = [(a, b) for a in range(-8, 16) for b in range(-16, 8)]
    questions = grid + [(20, -22)]
    default = [incidence_cohomology(a, b, 3).dims for a, b in questions]
    # a bound of one 8 x 8 block: large blocks stand alone, small ones share
    monkeypatch.setattr(cech_mod, "_STACK_CELLS", 64)
    stacks = _recording_stacks(monkeypatch)
    assert [incidence_cohomology(a, b, 3).dims for a, b in questions] == default
    assert any(len(rows) == 1 and cells > 64 for cells, rows, _ in stacks)
    assert any(len(rows) > 1 for _, rows, _ in stacks)
    assert all(cells <= 64 or len(rows) == 1 for cells, rows, _ in stacks)
    _assert_aligned(stacks)


def _images(row, g):
    """The S_g images of a weight row, g coordinates per factor."""
    blocks = np.reshape(row, (-1, g))
    return [tuple(blocks[:, perm].ravel()) for perm in permutations(range(g))]


@pytest.mark.parametrize("factors, g", [(2, 3), (1, 2), (3, 2), (1, 4)])
def test_canonical_weights_and_orbit_sizes_by_brute_force(factors, g):
    rng = np.random.default_rng(factors * 10 + g)
    rows = rng.integers(-1, 2, size=(400, factors * g))
    canonical, size = _orbits(rows, g)
    for row, is_canonical in zip(rows, canonical):
        images = _images(row, g)
        # the sorted arrangement of the g per-coordinate tuples is the least
        key = [tuple(np.reshape(image, (-1, g)).T.ravel()) for image in images]
        assert is_canonical == (key[0] == min(key)), row
    assert size.tolist() == [len(set(_images(row, g))) for row in rows[canonical]]
    # each orbit holds exactly one canonical row
    for row in rows[:50]:
        assert _orbits(np.array(sorted(set(_images(row, g)))), g)[0].sum() == 1, row


def test_incidence_weights_commute_with_s3():
    space = MultiProjSpace((2, 2))
    maps = ((incidence_form(3),),)
    K = np.array(_weights(maps, 6))
    assert _symmetry(space, maps) == 3
    m = _term_basis(space, ((3, -5),), 2)[:, 1:]
    for perm in permutations(range(3)):
        sigma = np.concatenate((perm, [3 + i for i in perm]))
        assert np.array_equal(m[:, sigma] @ K.T, (m @ K.T)[:, sigma]), perm


@pytest.mark.parametrize(
    "terms",
    [
        {((1, 0, 0), (1, 0, 0)): 1, ((0, 1, 0), (0, 1, 0)): 2, ((0, 0, 1), (0, 0, 1)): 1},
        {((1, 0, 0), (1, 0, 0)): 1, ((0, 1, 0), (0, 1, 0)): 1},
    ],
)
def test_forms_without_the_full_symmetry_take_the_trivial_group(terms):
    space = MultiProjSpace((2, 2))
    maps = ((Poly(terms),),)
    assert _symmetry(space, maps) == 1
    for a, b in ((2, -3), (3, -5), (4, -4)):
        src, dst = ((a - 1, b - 1),), ((a, b),)
        for degree in range(space.dim + 1):
            dense = _dense_map_matrix(space, src, dst, maps, degree)
            for p in (2, 3, 5):
                expected = 0 if dense is None else rank_mod_p(dense, p)
                assert _map_rank_mod_p(space, src, dst, maps, degree, p) == expected


@st.composite
def symmetric_maps(draw):
    """A random map of sums on P^n or (P^n)^2, every entry made S_(n+1)-invariant
    by adding the images of its terms."""
    p = draw(st.sampled_from((2, 3, 5)))
    space = draw(st.sampled_from((MultiProjSpace((1,)), MultiProjSpace((2,)),
                                  MultiProjSpace((1, 1)), MultiProjSpace((2, 2)))))
    k, g = len(space.factor_dims), space.factor_dims[0] + 1
    degrees = st.tuples(*(st.integers(-4, 3) for _ in range(k)))
    src = tuple(draw(st.lists(degrees, min_size=1, max_size=2)))
    dst = tuple(draw(st.lists(degrees, min_size=1, max_size=2)))
    exps = st.lists(st.integers(-1, 2), min_size=g, max_size=g).map(tuple)
    maps = []
    for _ in dst:
        row = []
        for _ in src:
            terms = {}
            for _ in range(draw(st.integers(0, 2))):
                mono = tuple(draw(exps) for _ in range(k))
                coeff = draw(st.sampled_from((1, -1, 2, p)))
                for perm in permutations(range(g)):
                    image = tuple(tuple(f[i] for i in perm) for f in mono)
                    terms[image] = coeff
            row.append(Poly(terms))
        maps.append(tuple(row))
    return p, space, src, dst, tuple(maps)


@settings(max_examples=200, deadline=None)
@given(symmetric_maps())
def test_symmetric_map_rank_matches_dense_elimination(drawn):
    p, space, src, dst, maps = drawn
    assert _symmetry(space, maps) == space.factor_dims[0] + 1
    for degree in range(space.dim + 1):
        dense = _dense_map_matrix(space, src, dst, maps, degree)
        expected = 0 if dense is None else rank_mod_p(dense, p)
        assert _map_rank_mod_p(space, src, dst, maps, degree, p) == expected, degree


@pytest.mark.parametrize("dims", [(1,), (2,), (3,), (1, 2), (2, 2), (1, 1, 1)])
def test_basis_index_is_the_position_in_the_enumerated_basis(dims):
    space = MultiProjSpace(dims)
    rng = np.random.default_rng(len(dims) * 10 + dims[-1])
    for _ in range(25):
        multidegree = tuple(int(d) for d in rng.integers(-6, 5, size=len(dims)))
        info = line_bundle_basis(space, multidegree)
        if info is None:
            continue
        basis = info[1]
        assert _basis_index(space, multidegree, basis).tolist() == list(range(len(basis)))
        # rows a step away from the basis are found where they are in it, else -1
        moved = basis + rng.integers(-1, 2, size=basis.shape)
        position = {tuple(row): i for i, row in enumerate(basis.tolist())}
        want = [position.get(tuple(row), -1) for row in moved.tolist()]
        assert _basis_index(space, multidegree, moved).tolist() == want
