"""Each F_p Cech rank is the sum of exact eliminations of the torus-weight
blocks of the map; the nested-tuple monomials and the dense assembly survive
here as the reference."""

import re
from itertools import chain, combinations, combinations_with_replacement, permutations
from itertools import product as iproduct
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfrob import MultiProjSpace, incidence_cohomology
from toricfrob import cech as cech_mod
from toricfrob.cech import (
    _binomials,
    _canonical_rows,
    _factor_degrees,
    _factor_index,
    _factor_parts,
    _factor_rank,
    _map_rank_mod_p,
    _orbits,
    _product_index,
    _restriction_cohomology,
    _symmetry,
    _weights,
    incidence_form,
)
from toricfrob.cohomology import Overflow
from toricfrob.fan import InvariantViolation
from toricfrob.linalg import _INT64_GUARD, rank_mod_p, rank_rational, ranks_mod_p


@pytest.fixture(autouse=True)
def _cold_invariants():
    """Each test starts, and leaves, with no map's K and g cached, so that a
    test which patches _weights or _symmetry sees its patch take effect and
    leaves no value computed under it behind."""
    cech_mod._invariants.cache_clear()
    yield
    cech_mod._invariants.cache_clear()


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


def _apply(form, monomial):
    """Multiply a basis monomial; yields (product monomial, coefficient)."""
    for m, c in form.items():
        yield tuple(
            tuple(a + b for a, b in zip(f1, f2)) for f1, f2 in zip(monomial, m)
        ), c


def _degree_basis(space, multidegree, degree):
    """The monomials of O(multidegree) in cohomological degree ``degree``."""
    info = _tuple_basis(space, multidegree)
    return info[1] if info is not None and info[0] == degree else []


def _dense_map_matrix(space, src_md, dst_md, form, degree):
    """Multiplication by ``form`` on degree-`degree` cohomology, O(src_md) ->
    O(dst_md), as one dense integer matrix, or None if a side is empty."""
    src = _degree_basis(space, src_md, degree)
    dst = _degree_basis(space, dst_md, degree)
    if not src or not dst:
        return None
    dst_index = {mono: i for i, mono in enumerate(dst)}
    mat = np.zeros((len(dst), len(src)), dtype=np.int64)
    for col, mono in enumerate(src):
        for prod, coeff in _apply(form, mono):
            idx = dst_index.get(prod)
            if idx is not None:
                mat[idx, col] += coeff
    return mat


def _flat(mono):
    return tuple(chain.from_iterable(mono))


def _flat_basis(space, multidegree):
    """(degree, exponent rows as one flat tuple each), or None if acyclic."""
    info = _tuple_basis(space, multidegree)
    return None if info is None else (info[0], [_flat(m) for m in info[1]])


def _tables(space, multidegree):
    """The factor tables of O(multidegree), or None if it is acyclic."""
    info = _factor_degrees(space, multidegree)
    if info is None:
        return None
    return [_factor_parts(n, *deg) for n, deg in zip(space.factor_dims, info)]


def _grid_rows(space, multidegree):
    """The exponents of every point of the bundle's grid, read through its
    factor tables, the first factor slowest."""
    tables = (t.tolist() for t in _tables(space, multidegree))
    return [tuple(chain.from_iterable(rows)) for rows in iproduct(*tables)]


@pytest.mark.parametrize("a, b", [(4, -5), (6, -8), (10, -12)])
def test_incidence_block_ranks_match_dense_elimination(a, b):
    space = MultiProjSpace((2, 2))
    src, dst = (a - 1, b - 1), (a, b)
    form = incidence_form(3)
    for md in (src, dst):
        assert _grid_rows(space, md) == _flat_basis(space, md)[1]
    checked = 0
    for degree in range(space.dim + 1):
        dense = _dense_map_matrix(space, src, dst, form, degree)
        for p in (2, 3, 5):
            rank = _map_rank_mod_p(space, src, dst, form, degree, p)
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
    assert np.array_equal(_weights(incidence_form(3), 6), expected)


def test_incidence_blocks_at_12_minus_13(monkeypatch):
    # every true row and column of a block holds an entry nonzero mod p, so a
    # stacked block's true shape is its count of nonzero rows and columns
    shapes, calls = [], []

    def recording(rows, offsets, p):
        calls.append(rows.shape)
        nonzero = rows % p != 0
        for lo, hi in zip(offsets, offsets[1:]):
            block = nonzero[lo:hi]
            shapes.append((hi - lo, int(block.any(axis=0).sum())))
        # no row is padding: each holds an entry nonzero mod p
        assert nonzero.any(axis=1).all()
        return ranks_mod_p(rows, offsets, p)

    monkeypatch.setattr(cech_mod, "ranks_mod_p", recording)
    assert incidence_cohomology(12, -13, 3).dims == (0, 138, 60, 0)
    # one block per S3-orbit of weights is eliminated
    assert len(shapes) == 52
    # the map is eliminated in one call, of the 1,162 rows that hold an entry
    assert calls == [(1162, 52)] and sum(r for r, _ in shapes) == 1162
    assert max(r for r, _ in shapes) == 51 and max(c for _, c in shapes) == 52
    # with every block ranked 1, the map's rank is the sum of the orbit sizes
    monkeypatch.setattr(
        cech_mod, "ranks_mod_p", lambda rows, offsets, p: np.ones(len(offsets) - 1, int)
    )
    space = MultiProjSpace((2, 2))
    assert _map_rank_mod_p(space, (11, -14), (12, -13), incidence_form(3), 2, 3) == 276


SPACES = ((1,), (2,), (1, 1), (1, 2))


@st.composite
def random_maps(draw):
    """(p, space, src, dst, form) for multiplication by a random form,
    O(src) -> O(dst).

    The target is often just above the source; the form has zero to three
    terms, usually of the degree that joins the two bundles and sometimes of
    any degree; coefficients include +-p and 2p.
    """
    p = draw(st.sampled_from((2, 3, 5)))
    dims = draw(st.sampled_from(SPACES))
    space = MultiProjSpace(dims)
    multidegree = st.tuples(*(st.integers(-5, 3) for _ in dims))
    src = draw(multidegree)
    # a target a little above the source, so that the map hits
    step = st.tuples(*(st.integers(0, 2) for _ in dims))
    near = step.map(lambda e: tuple(s + x for s, x in zip(src, e)))
    dst = draw(st.one_of(near, multidegree))
    units = [c for c in range(-3, 4) if c % p]
    coeff = st.sampled_from([p, -p, 2 * p] + units * 3)  # about 1 in 5 is 0 mod p
    form = {}
    for _ in range(draw(st.integers(0, 3))):
        homogeneous = draw(st.booleans()) or draw(st.booleans())
        mono = []
        for n, s, d in zip(dims, src, dst):
            head = draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))
            total = d - s if homogeneous else draw(st.integers(-3, 3))
            mono.append((*head, total - sum(head)))
        form[tuple(mono)] = draw(coeff)
    return p, space, src, dst, form


@settings(max_examples=300, deadline=None)
@given(random_maps())
def test_map_rank_matches_dense_elimination(drawn):
    p, space, src, dst, form = drawn
    for degree in range(space.dim + 1):
        dense = _dense_map_matrix(space, src, dst, form, degree)
        expected = 0 if dense is None else rank_mod_p(dense, p)
        assert _map_rank_mod_p(space, src, dst, form, degree, p) == expected, degree


@settings(max_examples=150, deadline=None)
@given(random_maps())
def test_weights_kill_exactly_the_span_of_the_terms(drawn):
    _, space, _, _, form = drawn
    width = sum(n + 1 for n in space.factor_dims)
    weights = _weights(form, width)
    terms = [_flat(mono) for mono in form]
    for t in terms:
        assert all(sum(k * x for k, x in zip(row, t)) == 0 for row in weights), t
    # K is the whole annihilator: its rank and the rank of the terms add up
    assert rank_rational(weights) + rank_rational(terms) == width


@pytest.mark.parametrize("big, refused", [(2**61 - 1, False), (2**61, True)])
def test_weight_overflow_guard(big, refused):
    # O(0) -> O(0) on P1 by 1 + x0^big x1^-big: K = [[1, 1], [1, 1]], so the
    # guard needs max|K row sum| * (max|m| + max|t|) = 2 * big below 2^62
    space = MultiProjSpace((1,))
    form = {((0, 0),): 1, ((big, -big),): 1}
    assert _weights(form, 2) == [[1, 1], [1, 1]]
    assert (2 * big >= _INT64_GUARD) == refused
    if refused:
        with pytest.raises(Overflow):
            _map_rank_mod_p(space, (0,), (0,), form, 0, 3)
    else:
        assert _map_rank_mod_p(space, (0,), (0,), form, 0, 3) == 1


def test_the_basis_bound_counts_the_rows_kept(monkeypatch):
    # (12, -13) has 6,084 source monomials in degree 2 and keeps 1,178 of
    # them, one per S3-orbit of weights
    monkeypatch.setattr(cech_mod, "MAX_CECH_BASIS", 1_200)
    assert incidence_cohomology(12, -13, 3).dims == (0, 138, 60, 0)
    # the term is within 3! * 1,100, but the rows kept are not
    monkeypatch.setattr(cech_mod, "MAX_CECH_BASIS", 1_100)
    with pytest.raises(Overflow, match="canonical weight"):
        incidence_cohomology(12, -13, 3)
    # more than 3! * 1,000 monomials: refused before any is enumerated
    monkeypatch.setattr(cech_mod, "MAX_CECH_BASIS", 1_000)
    monkeypatch.setattr(cech_mod, "_factor_parts", None)
    with pytest.raises(Overflow, match="6084 basis monomials"):
        incidence_cohomology(12, -13, 3)


def test_the_basis_bound_counts_every_row_without_symmetry(monkeypatch):
    # under the trivial group every source row is kept
    monkeypatch.setattr(cech_mod, "_symmetry", lambda factor_dims, form: 1)
    monkeypatch.setattr(cech_mod, "MAX_CECH_BASIS", 6_084)
    assert incidence_cohomology(12, -13, 3).dims == (0, 138, 60, 0)
    monkeypatch.setattr(cech_mod, "MAX_CECH_BASIS", 6_083)
    monkeypatch.setattr(cech_mod, "_GRID_SLAB", 78)  # one row of the first factor
    with pytest.raises(Overflow, match="canonical weight"):
        incidence_cohomology(12, -13, 3)


def test_composite_p_refused_without_nonzero_entries():
    # O(0) -> O(1) on P1 by 0 and by 4 x_0: no term is nonzero mod 2 or mod
    # 4.  A form that vanishes mod p cuts out no hypersurface, so the kernel
    # on H^0 of O(0) is a class in degree -1, which exactness forbids
    space = MultiProjSpace((1,))
    zero, four_x0 = {}, {((1, 0),): 4}
    for form, p in ((zero, 2), (zero, 3), (four_x0, 2)):
        with pytest.raises(InvariantViolation, match=re.escape("0..0: {-1: 1}")):
            _restriction_cohomology(space, (0,), (1,), form, p)
    assert _restriction_cohomology(space, (0,), (1,), four_x0, 3).dims == (1,)
    for form in (zero, four_x0):
        with pytest.raises(ValueError, match="not prime"):
            _restriction_cohomology(space, (0,), (1,), form, 4)


def test_orbit_sum_matches_full_sum_on_a_twist_grid(monkeypatch):
    grid = [(a, b) for a in range(-8, 16) for b in range(-16, 8)]
    questions = [(a, b, 3) for a, b in grid + [(20, -22)]]
    questions += [(a, b, p) for a, b in ((5, -7), (12, -13)) for p in (2, 5, 7)]
    orbit = [incidence_cohomology(a, b, p).dims for a, b, p in questions]
    # the full sum: every block eliminated, as for a complex without symmetry
    monkeypatch.setattr(cech_mod, "_symmetry", lambda factor_dims, form: 1)
    full = [incidence_cohomology(a, b, p).dims for a, b, p in questions]
    assert orbit == full


def _recording_stacks(monkeypatch):
    """Patch the kernel to record, for every stack it gets, the stack's cell
    count and, per matrix, which rows and columns hold a nonzero entry."""
    stacks = []

    def recording(rows, offsets, p):
        nonzero = rows % p != 0
        blocks = [nonzero[lo:hi] for lo, hi in zip(offsets, offsets[1:])]
        stacks.append((rows.size, [(b.any(axis=1), b.any(axis=0)) for b in blocks]))
        return ranks_mod_p(rows, offsets, p)

    monkeypatch.setattr(cech_mod, "ranks_mod_p", recording)
    return stacks


def _assert_aligned(stacks):
    """Every row of a block holds an entry, so no row is padding; its last
    nonzero column is its stack's last column, and its used columns, read
    from the right, have no gaps."""
    for _, blocks in stacks:
        for rows, cols in blocks:
            assert rows.all() and cols[-1]
            count = cols.sum()
            assert (cols[::-1] == (np.arange(len(cols)) < count)).all()


@pytest.mark.parametrize(
    "a, b, p, count", [(12, -13, 3, 1), (10, -12, 3, 1), (20, -22, 2, 2), (5, -7, 7, 1)]
)
def test_each_block_is_top_and_right_aligned_in_its_stack(monkeypatch, a, b, p, count):
    stacks = _recording_stacks(monkeypatch)
    incidence_cohomology(a, b, p)
    # one map, cut into stacks of at most _STACK_CELLS cells
    assert len(stacks) == count
    assert all(cells <= cech_mod._STACK_CELLS for cells, _ in stacks)
    _assert_aligned(stacks)


def test_a_smaller_stack_bound_gives_the_same_dims(monkeypatch):
    grid = [(a, b) for a in range(-8, 16) for b in range(-16, 8)]
    questions = grid + [(20, -22)]
    default = [incidence_cohomology(a, b, 3).dims for a, b in questions]
    # a bound of one 8 x 8 block: large blocks stand alone, small ones share
    monkeypatch.setattr(cech_mod, "_STACK_CELLS", 64)
    stacks = _recording_stacks(monkeypatch)
    assert [incidence_cohomology(a, b, 3).dims for a, b in questions] == default
    assert any(len(blocks) == 1 and cells > 64 for cells, blocks in stacks)
    assert any(len(blocks) > 1 for _, blocks in stacks)
    assert all(cells <= 64 or len(blocks) == 1 for cells, blocks in stacks)
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
    form = incidence_form(3)
    K = np.array(_weights(form, 6))
    assert _symmetry(space.factor_dims, form) == 3
    m = np.array(_flat_basis(space, (3, -5))[1])
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
    assert _symmetry(space.factor_dims, terms) == 1
    for a, b in ((2, -3), (3, -5), (4, -4)):
        src, dst = (a - 1, b - 1), (a, b)
        for degree in range(space.dim + 1):
            dense = _dense_map_matrix(space, src, dst, terms, degree)
            for p in (2, 3, 5):
                expected = 0 if dense is None else rank_mod_p(dense, p)
                assert _map_rank_mod_p(space, src, dst, terms, degree, p) == expected


@st.composite
def symmetric_maps(draw):
    """A random form on P^n or (P^n)^2, made S_(n+1)-invariant by adding the
    images of its terms, as a map between two random bundles."""
    p = draw(st.sampled_from((2, 3, 5)))
    space = draw(st.sampled_from((MultiProjSpace((1,)), MultiProjSpace((2,)),
                                  MultiProjSpace((1, 1)), MultiProjSpace((2, 2)))))
    k, g = len(space.factor_dims), space.factor_dims[0] + 1
    degrees = st.tuples(*(st.integers(-4, 3) for _ in range(k)))
    src, dst = draw(degrees), draw(degrees)
    exps = st.lists(st.integers(-1, 2), min_size=g, max_size=g).map(tuple)
    form = {}
    for _ in range(draw(st.integers(0, 2))):
        mono = tuple(draw(exps) for _ in range(k))
        coeff = draw(st.sampled_from((1, -1, 2, p)))
        for perm in permutations(range(g)):
            image = tuple(tuple(f[i] for i in perm) for f in mono)
            form[image] = coeff
    return p, space, src, dst, form


@settings(max_examples=200, deadline=None)
@given(symmetric_maps())
def test_symmetric_map_rank_matches_dense_elimination(drawn):
    p, space, src, dst, form = drawn
    assert _symmetry(space.factor_dims, form) == space.factor_dims[0] + 1
    for degree in range(space.dim + 1):
        dense = _dense_map_matrix(space, src, dst, form, degree)
        expected = 0 if dense is None else rank_mod_p(dense, p)
        assert _map_rank_mod_p(space, src, dst, form, degree, p) == expected, degree


def _grid(sizes):
    """Every grid position of the given axis lengths, the first axis slowest."""
    return np.indices(sizes).reshape(len(sizes), -1).T


def _sizes(space, info):
    return [comb(total + n, n) for n, (_, total) in zip(space.factor_dims, info)]


@pytest.mark.parametrize("dims", [(1,), (2,), (3,), (1, 2), (2, 2), (1, 1, 1)])
def test_basis_index_is_the_position_in_the_enumerated_basis(dims):
    # each factor's rows are ranked by _factor_rank, and a basis row, read
    # at its grid position, is found where the enumerated basis has it
    space = MultiProjSpace(dims)
    rng = np.random.default_rng(len(dims) * 10 + dims[-1])
    for _ in range(25):
        multidegree = tuple(int(d) for d in rng.integers(-6, 5, size=len(dims)))
        flat = _flat_basis(space, multidegree)
        if flat is None:
            continue
        info = _factor_degrees(space, multidegree)
        for n, d, (degree, total) in zip(dims, multidegree, info):
            rows = _flat_basis(MultiProjSpace((n,)), (d,))[1]
            assert _factor_rank(n, degree, total, np.array(rows)).tolist() == list(range(len(rows)))
            # rows a step away from the basis are found where they are in it, else -1
            moved = np.array(rows) + rng.integers(-1, 2, size=(len(rows), n + 1))
            position = {row: i for i, row in enumerate(rows)}
            want = [position.get(tuple(row), -1) for row in moved.tolist()]
            assert _factor_rank(n, degree, total, moved).tolist() == want
        # the factors combine in the basis's mixed radix, first factor slowest;
        # products a step away are found where the basis has them, else -1
        steps = rng.integers(-1, 2, size=(3, len(flat[1][0])))
        shifts = ((0,) * steps.shape[1], *map(tuple, steps.tolist()))
        position = {row: i for i, row in enumerate(flat[1])}
        want = [
            [position.get(tuple(x + y for x, y in zip(row, t)), -1) for row in flat[1]]
            for t in shifts
        ]
        index = _product_index(dims, info, info, shifts, _grid(_sizes(space, info)))
        assert index.tolist() == want


def test_binomial_table_is_math_comb():
    for total, n in ((0, 1), (5, 1), (7, 2), (12, 3), (40, 2)):
        table = _binomials(total, n)
        assert table.tolist() == [
            [comb(y + k, k) for k in range(n + 1)] for y in range(total + 1)
        ]
        # one shared table per (total, n), which no reader can change
        assert _binomials(total, n) is table and not table.flags.writeable


@settings(max_examples=150, deadline=None)
@given(random_maps())
def test_each_target_row_lies_in_one_weight_block(drawn):
    # a product keeps its source row's weight, so the entries of a target row
    # all sit in the columns of one weight block, the row's own
    p, space, src, dst, form = drawn
    K = np.array(_weights(form, sum(n + 1 for n in space.factor_dims)), dtype=object)
    for degree in range(space.dim + 1):
        dense = _dense_map_matrix(space, src, dst, form, degree)
        if dense is None:
            continue
        cols = [_flat(m) for m in _degree_basis(space, src, degree)]
        rows = [_flat(m) for m in _degree_basis(space, dst, degree)]
        for r, entries in enumerate(dense % p):
            blocks = {tuple(K.dot(cols[c])) for c in np.flatnonzero(entries)}
            assert blocks <= {tuple(K.dot(rows[r]))}, (degree, r)


def test_two_twists_of_one_map_compute_its_invariants_once(monkeypatch):
    calls = {"_weights": 0, "_symmetry": 0}
    for name in calls:
        def counting(*args, name=name, real=getattr(cech_mod, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(cech_mod, name, counting)
    assert incidence_cohomology(4, -5, 3).dims == (0, 11, 1, 0)
    assert incidence_cohomology(12, -13, 3).dims == (0, 138, 60, 0)
    # every degree of both twists, and a new form per twist, share one key
    assert calls == {"_weights": 1, "_symmetry": 1}
    # a form with other terms is a new key
    space = MultiProjSpace((2, 2))
    x0y1 = {((1, 0, 0), (0, 1, 0)): 1}
    assert _restriction_cohomology(space, (0, 0), (1, 1), x0y1, 3).dims == (8, 0, 0, 0)
    assert calls == {"_weights": 2, "_symmetry": 2}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_factor_parts_are_the_compositions_in_lex_order(n):
    for total in range(7):
        # a multiset of `total` coordinates of P^n is one monomial
        parts = sorted(
            tuple(pick.count(i) for i in range(n + 1))
            for pick in combinations_with_replacement(range(n + 1), total)
        )
        table = _factor_parts(n, 0, total)
        assert table.tolist() == [list(e) for e in parts]
        assert _factor_parts(n, n, total).tolist() == [[-1 - x for x in e] for e in parts]
        # one shared table per (n, degree, total), which no reader can change
        assert _factor_parts(n, 0, total) is table and not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_factor_parts_are_the_bars_of_combinations(n):
    # the stars-and-bars enumeration the tables were once built from: the
    # gaps between n bars placed in total + n slots, in lex order of bars
    for total in range(12):
        bars = np.array(list(combinations(range(total + n), n)), dtype=np.int64)
        bars = bars.reshape(-1, n)
        parts = np.diff(bars, axis=1, prepend=-1, append=total + n) - 1
        assert np.array_equal(_factor_parts.__wrapped__(n, 0, total), parts)
        assert np.array_equal(_factor_parts.__wrapped__(n, n, total), -1 - parts)


def test_a_factor_table_past_the_kept_size_is_not_kept():
    # C(63, 3) rows of 4 on P^3: larger than any table the process keeps
    table = _factor_parts(3, 0, 60)
    assert table.size > cech_mod._KEPT_PARTS_CELLS and not table.flags.writeable
    again = _factor_parts(3, 0, 60)
    assert again is not table and np.array_equal(again, table)
    assert table.tolist() == sorted(table.tolist()) and (table.sum(axis=1) == 60).all()
    assert np.array_equal(_factor_parts(3, 3, 60), -1 - table)


@settings(max_examples=150, deadline=None)
@given(random_maps())
def test_canonical_rows_are_the_enumerated_basis_under_the_orbit_mask(drawn):
    # the factor grids of the source and the target against the
    # nested-tuple basis and its full weight product.  A kept row is its
    # row in each factor table: read through the tables, the kept rows are
    # the exponent rows of the enumerated basis, in order
    _, space, src, dst, form = drawn
    weights = _weights(form, sum(n + 1 for n in space.factor_dims))
    groups = [1]
    if len(set(space.factor_dims)) == 1:
        groups.append(space.factor_dims[0] + 1)
    for md in (src, dst):
        flat = _flat_basis(space, md)
        if flat is None:
            continue
        full = np.array(flat[1], dtype=np.int64)
        weight = full @ np.array(weights, dtype=np.int64).T
        tables = _tables(space, md)
        for g in groups:
            keep, orbit = _orbits(weight, g)
            pos, grid_weight, size = _canonical_rows(tables, weights, g)
            assert pos.shape == (len(size), len(space.factor_dims))
            exponents = [
                [x for t, i in zip(tables, at) for x in t[i].tolist()] for at in pos.tolist()
            ]
            assert exponents == full[keep].tolist(), (md, g)
            assert grid_weight.tolist() == weight[keep].tolist(), (md, g)
            assert size.tolist() == orbit.tolist(), (md, g)


@pytest.mark.parametrize("slab", [1, 7, 100])
def test_canonical_rows_do_not_depend_on_the_slab(monkeypatch, slab):
    # slabs of one first-factor row, of a few rows, and of part of the grid,
    # on both bundles of each twist's restriction sequence
    space = MultiProjSpace((2, 2))
    weights = _weights(incidence_form(3), 6)
    twists = [(12, -13), (-14, 11), (5, -7)]

    def rows(a, b):
        return [
            [np.asarray(x).tolist() for x in _canonical_rows(_tables(space, md), weights, 3)]
            for md in ((a - 1, b - 1), (a, b))
        ]

    whole = {(a, b): rows(a, b) for a, b in twists}
    dims = [incidence_cohomology(a, b, 3).dims for a, b in twists]
    monkeypatch.setattr(cech_mod, "_GRID_SLAB", slab)
    for a, b in twists:
        assert rows(a, b) == whole[a, b]
    assert [incidence_cohomology(a, b, 3).dims for a, b in twists] == dims


@st.composite
def shifted_products(draw):
    """(space, src multidegree, dst multidegree, shifts) on a product of P1s
    and P2s: one to three shifts, the target the source moved by the first
    shift's factor totals or, about one time in three, by other totals, so
    that many products fall outside the target basis; shift entries reach
    past the basis."""
    dims = draw(st.sampled_from(((1,), (2,), (1, 1), (1, 2), (2, 2), (2, 1, 1))))
    src = tuple(draw(st.integers(-7, 4)) for _ in dims)
    width = sum(n + 1 for n in dims)
    entry = st.lists(st.integers(-3, 3), min_size=width, max_size=width).map(tuple)
    shifts = tuple(draw(st.lists(entry, min_size=1, max_size=3, unique=True)))
    dst, start = [], 0
    for n, d in zip(dims, src):
        total = sum(shifts[0][start : start + n + 1])
        if not draw(st.integers(0, 2)):
            total = draw(st.integers(-3, 3))
        dst.append(d + total)
        start += n + 1
    return MultiProjSpace(dims), src, tuple(dst), shifts


@settings(max_examples=300, deadline=None)
@given(shifted_products())
def test_product_index_is_basis_index_on_the_product_rows(drawn):
    space, src, dst, shifts = drawn
    source, target = _flat_basis(space, src), _flat_basis(space, dst)
    if source is None or target is None or source[0] != target[0]:
        return
    # every source row, named by its grid position, first factor slowest
    info = (_factor_degrees(space, src), _factor_degrees(space, dst))
    position = {row: i for i, row in enumerate(target[1])}
    want = [
        [position.get(tuple(x + y for x, y in zip(row, t)), -1) for row in source[1]]
        for t in shifts
    ]
    pos = _grid(_sizes(space, info[0]))
    assert _product_index(space.factor_dims, *info, shifts, pos).tolist() == want


def test_factor_index_tables_are_shared_and_read_only():
    shifts = ((1, 0, -1), (0, 0, 0))
    first = _factor_index(2, 0, 5, shifts, (0, 5))
    assert _factor_index(2, 0, 5, shifts, (0, 5)) is first
    assert not first.flags.writeable and first.shape == (2, 21)
    assert first[1].tolist() == list(range(21))
    # a table past the kept size is built afresh, as its factor table is
    big = _factor_index(3, 0, 60, ((0, 0, 0, 1),), (0, 61))
    assert _factor_index(3, 0, 60, ((0, 0, 0, 1),), (0, 61)) is not big
    moved = _factor_parts(3, 0, 60) + np.array([0, 0, 0, 1])
    position = {row: i for i, row in enumerate(_compositions(61, 4))}
    assert big[0].tolist() == [position.get(tuple(row), -1) for row in moved.tolist()]
    assert (np.diff(big[0]) > 0).all()  # every row lands, in lex order


def _bad_parts(n, total):
    """Part vectors of P^n outside the basis of exponent total ``total`` >= 1:
    a negative part with the right sum, first and in the middle; a last part
    past the total; a sum one short; and two parts of the whole total, so
    that the running remainder goes negative."""
    zeros = (0,) * (n - 1)
    yield (-1, total + 1) + zeros
    yield (1, -1, total) + zeros[1:] if n > 1 else (total + 1, -1)
    yield zeros + (0, total + 1)
    yield zeros + (0, total - 1)
    yield (total, total) + zeros


@pytest.mark.parametrize("dims", [(1,), (2,), (3,), (1, 2), (2, 2)])
def test_basis_index_gives_minus_one_outside_the_basis(dims):
    space = MultiProjSpace(dims)
    for multidegree in ((3,) * len(dims), (-5,) * len(dims), (2, -6)[: len(dims)]):
        _, basis = _flat_basis(space, multidegree)
        info = _factor_degrees(space, multidegree)
        middle = basis[len(basis) // 2]
        shifts, start = [], 0
        for n, d, (degree, total) in zip(dims, multidegree, info):
            rows = _flat_basis(MultiProjSpace((n,)), (d,))[1]
            bad = [p if d >= 0 else tuple(-1 - x for x in p) for p in _bad_parts(n, total)]
            index = _factor_rank(n, degree, total, np.array(rows + bad))
            assert index.tolist() == list(range(len(rows))) + [-1] * len(bad), multidegree
            # the middle basis row moved onto each bad part of this factor
            for parts in bad:
                row = list(middle)
                row[start : start + n + 1] = parts
                shifts.append(tuple(x - y for x, y in zip(row, middle)))
            start += n + 1
        shifts = ((0,) * len(middle), *shifts)
        index = _product_index(dims, info, info, shifts, _grid(_sizes(space, info)))
        assert index[0].tolist() == list(range(len(basis))), multidegree
        assert index[1:, len(basis) // 2].tolist() == [-1] * (len(shifts) - 1), multidegree
