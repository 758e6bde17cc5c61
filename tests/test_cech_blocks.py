"""Each F_p Cech rank is the sum of exact eliminations of the torus-weight
blocks of the map; the nested-tuple monomials and the dense assembly survive
here as the reference."""

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
    _canonical_rows,
    _factor_degrees,
    _factor_index,
    _factor_parts,
    _factor_rank,
    _map_rank_mod_p,
    _orbits,
    _product_index,
)
from toricfrob.cohomology import Overflow
from toricfrob.linalg import rank_mod_p, ranks_mod_p

# The incidence threefold's ambient space and its form, sum x_i y_i, as
# monomial (one exponent tuple per factor) -> coefficient.
SPACE = MultiProjSpace((2, 2))
PAIRING = {
    ((1, 0, 0), (1, 0, 0)): 1,
    ((0, 1, 0), (0, 1, 0)): 1,
    ((0, 0, 1), (0, 0, 1)): 1,
}


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


def _tables(multidegree):
    """The factor tables of O(multidegree) on P2 x P2, or None if acyclic."""
    info = _factor_degrees(SPACE, multidegree)
    return None if info is None else [_factor_parts(*deg) for deg in info]


def _grid_rows(multidegree):
    """The exponents of every point of the bundle's grid on P2 x P2, read
    through its factor tables, the first factor slowest."""
    tables = (t.tolist() for t in _tables(multidegree))
    return [tuple(chain.from_iterable(rows)) for rows in iproduct(*tables)]


def _weight(row):
    """The torus weight alpha - beta of a flat exponent row (alpha, beta)."""
    return tuple(x - y for x, y in zip(row[:3], row[3:]))


def _block_ranks(src, dst, degree, p):
    """{w: F_p rank} of the blocks of the dense map, the rows and columns of
    weight alpha - beta = w, for every w of a source row."""
    dense = _dense_map_matrix(SPACE, src, dst, PAIRING, degree)
    if dense is None:
        return {}
    cols = [_weight(_flat(m)) for m in _degree_basis(SPACE, src, degree)]
    rows = [_weight(_flat(m)) for m in _degree_basis(SPACE, dst, degree)]
    ranks = {}
    for w in set(cols):
        block = dense[[r == w for r in rows]][:, [c == w for c in cols]]
        ranks[w] = rank_mod_p(block, p) if block.size else 0
    return ranks


@pytest.mark.parametrize("a, b", [(4, -5), (6, -8), (10, -12)])
def test_incidence_block_ranks_match_dense_elimination(a, b):
    src, dst = (a - 1, b - 1), (a, b)
    for md in (src, dst):
        assert _grid_rows(md) == _flat_basis(SPACE, md)[1]
    checked = 0
    for degree in range(SPACE.dim + 1):
        dense = _dense_map_matrix(SPACE, src, dst, PAIRING, degree)
        for p in (2, 3, 5):
            rank = _map_rank_mod_p(src, dst, degree, p)
            if dense is None:
                assert rank == 0
                continue
            assert rank == rank_mod_p(dense, p), (degree, p)
            checked += 1
    assert checked == 3


def test_incidence_weight_is_the_difference_of_exponents():
    # the engine's term i, the unit shift e_i on both factors, is the form's
    # x_i y_i, and each raises alpha_i and beta_i together, so a product
    # keeps the weight alpha - beta of its source
    src, dst = (3, -5), (4, -4)
    info = [_factor_degrees(SPACE, md) for md in (src, dst)]
    index = _product_index(*info, _grid(_sizes(info[0])))
    assert index.tolist() == _product_positions(src, dst)
    for row in _flat_basis(SPACE, src)[1]:
        for term in PAIRING:
            assert _weight([x + y for x, y in zip(row, _flat(term))]) == _weight(row)


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
    assert _map_rank_mod_p((11, -14), (12, -13), 2, 3) == 276


@st.composite
def random_twists(draw):
    """(p, src, dst): the restriction map O(a - 1, b - 1) -> O(a, b) of a
    random twist (a, b), multiplication by the pairing form."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    a, b = draw(st.integers(-7, 6)), draw(st.integers(-7, 6))
    return p, (a - 1, b - 1), (a, b)


@settings(max_examples=200, deadline=None)
@given(random_twists())
def test_map_rank_matches_dense_elimination(drawn):
    p, src, dst = drawn
    for degree in range(SPACE.dim + 1):
        dense = _dense_map_matrix(SPACE, src, dst, PAIRING, degree)
        expected = 0 if dense is None else rank_mod_p(dense, p)
        assert _map_rank_mod_p(src, dst, degree, p) == expected, degree


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


def test_orbit_sum_matches_full_sum_on_a_twist_grid():
    # the engine eliminates one block per S3-orbit; the full sum eliminates
    # every block of the dense map, blocked by the test's own alpha - beta
    questions = [(a, b, 3) for a in range(-9, 8) for b in range(-9, 8)]
    questions += [(a, b, p) for a, b in ((5, -7), (-7, 5), (3, 3)) for p in (2, 5, 7)]
    checked = set()
    for a, b, p in questions:
        src, dst = (a - 1, b - 1), (a, b)
        for degree in (0, 2, 4):
            full = sum(_block_ranks(src, dst, degree, p).values())
            assert _map_rank_mod_p(src, dst, degree, p) == full, (a, b, p, degree)
            if full:
                checked.add(degree)
    assert checked == {0, 2, 4}


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


def _orbit(weight):
    """The S3 images of a weight, as a set."""
    return set(permutations(weight))


@pytest.mark.parametrize("reach, seed", [(2, 3), (1, 2), (3, 2), (1, 4)])
def test_canonical_weights_and_orbit_sizes_by_brute_force(reach, seed):
    # every weight in [-reach, reach]^3, then 400 drawn from a wider cube
    rng = np.random.default_rng(seed)
    cube = list(iproduct(range(-reach, reach + 1), repeat=3))
    drawn = rng.integers(-3 * reach, 3 * reach + 1, size=(400, 3))
    weights = np.concatenate((cube, drawn))
    canonical, size = _orbits(weights.T)
    for w, is_canonical in zip(weights.tolist(), canonical):
        # the sorted arrangement is the least of its orbit
        assert is_canonical == (w == min(map(list, _orbit(w)))), w
    assert size.tolist() == [len(_orbit(w)) for w in weights[canonical].tolist()]
    # each orbit holds exactly one canonical weight
    for w in weights[:50].tolist():
        assert _orbits(np.array(sorted(_orbit(w))).T)[0].sum() == 1, w


@settings(max_examples=100, deadline=None)
@given(random_twists())
def test_symmetric_map_rank_matches_dense_elimination(drawn):
    # S3 fixes the form, so each weight block of the dense map has the F_p
    # rank of every block of its orbit: the engine's one block per orbit,
    # counted orbit-size times, is the dense rank
    p, src, dst = drawn
    for degree in range(SPACE.dim + 1):
        ranks = _block_ranks(src, dst, degree, p)
        for w, rank in ranks.items():
            assert {ranks[v] for v in _orbit(w)} == {rank}, (degree, w)
        assert _map_rank_mod_p(src, dst, degree, p) == sum(ranks.values()), degree


def test_incidence_weights_commute_with_s3():
    # s in S3, acting on the coordinates of both factors at once, maps the
    # form's terms to themselves and the weight of m to s of its weight
    for perm in permutations(range(3)):
        image = {tuple(tuple(f[i] for i in perm) for f in mono) for mono in PAIRING}
        assert image == set(PAIRING), perm
        for row in _flat_basis(SPACE, (3, -5))[1]:
            moved = [row[i] for i in perm] + [row[3 + i] for i in perm]
            assert _weight(moved) == tuple(_weight(row)[i] for i in perm)


def _grid(sizes):
    """Every grid position of the given axis lengths, the first axis slowest."""
    return np.indices(sizes).reshape(len(sizes), -1).T


def _sizes(info):
    """The factor basis sizes C(total + 2, 2) of a bundle on P2 x P2."""
    return [comb(total + 2, 2) for _, total in info]


def _lex_parts(total):
    """The parts of ``total`` into three entries >= 0 in lex order, from
    itertools: a multiset of ``total`` coordinates of P2 is one monomial."""
    return sorted(
        tuple(pick.count(i) for i in range(3))
        for pick in combinations_with_replacement(range(3), total)
    )


def _product_positions(src, dst):
    """For each term x_i y_i (one row each) and each enumerated source row of
    O(src) on P2 x P2, the product's position among the enumerated rows of
    O(dst), or -1."""
    position = {row: i for i, row in enumerate(_flat_basis(SPACE, dst)[1])}
    return [
        [
            position.get(tuple(x + y for x, y in zip(row, _flat(term))), -1)
            for row in _flat_basis(SPACE, src)[1]
        ]
        for term in PAIRING
    ]


@pytest.mark.parametrize("degree", [0, 2])
def test_factor_rank_is_the_lex_position_of_the_compositions(degree):
    # every basis row at its place, and rows off the basis, of a wrong sum or
    # with a negative entry, at -1
    for total in range(41):
        parts = _lex_parts(total)
        off = [
            (total + 1, 0, 0),
            (0, total, 1),
            (0, 0, total - 1),
            (-1, total + 1, 0),
            (1, -1, total),
            (total, 1, -1),
            (-1, -1, total + 2),
        ]
        rows = np.array(parts + off, dtype=np.int64)
        if degree:
            rows = -1 - rows
        want = list(range(len(parts))) + [-1] * len(off)
        assert _factor_rank(degree, total, rows).tolist() == want, total


@pytest.mark.parametrize("dims", [(2,), (2, 2)])
def test_basis_index_is_the_position_in_the_enumerated_basis(dims):
    # on P2, rows a step away from the basis of a random O(d) are found where
    # the basis has them, else -1; on P2 x P2, each product x_i y_i m of the
    # restriction map into a random O(a, b) is found where the enumerated
    # target basis has it, the factors combined first factor slowest
    space = MultiProjSpace(dims)
    rng = np.random.default_rng(len(dims))
    for _ in range(25):
        dst = tuple(int(d) for d in rng.integers(-6, 5, size=len(dims)))
        flat = _flat_basis(space, dst)
        if flat is None:
            continue
        if dims == (2,):
            degree, total = _factor_degrees(space, dst)[0]
            rows = np.array(flat[1])
            moved = rows + rng.integers(-1, 2, size=rows.shape)
            position = {row: i for i, row in enumerate(flat[1])}
            want = [position.get(tuple(row), -1) for row in moved.tolist()]
            assert _factor_rank(degree, total, moved).tolist() == want
            continue
        src = tuple(d - 1 for d in dst)
        info = [_factor_degrees(space, md) for md in (src, dst)]
        if info[0] is None or _flat_basis(space, src)[0] != flat[0]:
            continue
        index = _product_index(*info, _grid(_sizes(info[0])))
        assert index.tolist() == _product_positions(src, dst), dst


@settings(max_examples=150, deadline=None)
@given(random_twists())
def test_each_target_row_lies_in_one_weight_block(drawn):
    # a product keeps its source row's weight, so the entries of a target row
    # all sit in the columns of one weight block, the row's own
    p, src, dst = drawn
    for degree in range(SPACE.dim + 1):
        dense = _dense_map_matrix(SPACE, src, dst, PAIRING, degree)
        if dense is None:
            continue
        cols = [_flat(m) for m in _degree_basis(SPACE, src, degree)]
        rows = [_flat(m) for m in _degree_basis(SPACE, dst, degree)]
        for r, entries in enumerate(dense % p):
            blocks = {_weight(cols[c]) for c in np.flatnonzero(entries)}
            assert blocks <= {_weight(rows[r])}, (degree, r)


@pytest.mark.parametrize("degree", [0, 2])
def test_factor_parts_are_the_compositions_in_lex_order(degree):
    for total in range(7):
        parts = _lex_parts(total)
        table = _factor_parts(degree, total)
        assert table.tolist() == [[-1 - x for x in e] if degree else list(e) for e in parts]
        # one shared table per (degree, total), which no reader can change
        assert _factor_parts(degree, total) is table and not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1


@pytest.mark.parametrize("degree", [0, 2])
def test_factor_parts_are_the_bars_of_combinations(degree):
    # stars and bars: the gaps between two bars placed in total + 2 slots,
    # in lex order of bars
    for total in range(12):
        bars = np.array(list(combinations(range(total + 2), 2)), dtype=np.int64)
        parts = np.diff(bars, axis=1, prepend=-1, append=total + 2) - 1
        want = -1 - parts if degree else parts
        assert np.array_equal(_factor_parts.__wrapped__(degree, total), want)


def test_a_factor_table_past_the_kept_size_is_not_kept():
    # C(252, 2) rows of 3: larger than any table the process keeps, the
    # largest kept being that of total 207
    table = _factor_parts(0, 250)
    assert table.size > cech_mod._KEPT_PARTS_CELLS and not table.flags.writeable
    again = _factor_parts(0, 250)
    assert again is not table and np.array_equal(again, table)
    assert table.tolist() == sorted(table.tolist()) and (table.sum(axis=1) == 250).all()
    assert np.array_equal(_factor_parts(2, 250), -1 - table)
    assert _factor_parts(0, 207) is _factor_parts(0, 207)
    assert _factor_parts(0, 208) is not _factor_parts(0, 208)


@settings(max_examples=150, deadline=None)
@given(random_twists())
def test_canonical_rows_are_the_enumerated_basis_under_the_orbit_mask(drawn):
    # the factor grids of the source and the target against the
    # nested-tuple basis, its weights alpha - beta and their S3-orbits.  A
    # kept row is its row in each factor table: read through the tables,
    # the kept rows are the exponent rows of the enumerated basis of sorted
    # weight, in order
    _, src, dst = drawn
    for md in (src, dst):
        flat = _flat_basis(SPACE, md)
        if flat is None:
            continue
        weight = [_weight(row) for row in flat[1]]
        keep = [w == tuple(sorted(w)) for w in weight]
        tables = _tables(md)
        pos, grid_weight, size = _canonical_rows(tables)
        assert pos.shape == (len(size), 2)
        exponents = [
            [x for t, i in zip(tables, at) for x in t[i].tolist()] for at in pos.tolist()
        ]
        assert exponents == [list(row) for row, k in zip(flat[1], keep) if k], md
        kept = [w for w, k in zip(weight, keep) if k]
        assert grid_weight.tolist() == [list(w) for w in kept], md
        assert size.tolist() == [len(_orbit(w)) for w in kept], md


@pytest.mark.parametrize("slab", [1, 7, 100])
def test_canonical_rows_do_not_depend_on_the_slab(monkeypatch, slab):
    # slabs of one first-factor row, of a few rows, and of part of the grid,
    # on both bundles of each twist's restriction sequence
    twists = [(12, -13), (-14, 11), (5, -7)]

    def rows(a, b):
        return [
            [np.asarray(x).tolist() for x in _canonical_rows(_tables(md))]
            for md in ((a - 1, b - 1), (a, b))
        ]

    whole = {(a, b): rows(a, b) for a, b in twists}
    dims = [incidence_cohomology(a, b, 3).dims for a, b in twists]
    monkeypatch.setattr(cech_mod, "_GRID_SLAB", slab)
    for a, b in twists:
        assert rows(a, b) == whole[a, b]
    assert [incidence_cohomology(a, b, 3).dims for a, b in twists] == dims


@st.composite
def p2_products(draw):
    """(src, dst) multidegrees on P2 x P2: the target the source moved by
    one on each factor, as the restriction map has it, or, about one time in
    three per factor, by another step, so that many products fall outside
    the target basis."""
    src = tuple(draw(st.integers(-7, 4)) for _ in range(2))
    steps = tuple(
        1 if draw(st.integers(0, 2)) else draw(st.integers(-3, 3)) for _ in src
    )
    return src, tuple(d + s for d, s in zip(src, steps))


@settings(max_examples=300, deadline=None)
@given(p2_products())
def test_product_index_is_basis_index_on_the_product_rows(drawn):
    src, dst = drawn
    source, target = _flat_basis(SPACE, src), _flat_basis(SPACE, dst)
    if source is None or target is None or source[0] != target[0]:
        return
    # every source row, named by its grid position, first factor slowest
    info = [_factor_degrees(SPACE, md) for md in drawn]
    index = _product_index(*info, _grid(_sizes(info[0])))
    assert index.tolist() == _product_positions(src, dst)


def test_factor_index_tables_are_shared_and_read_only():
    first = _factor_index(0, 5, (0, 6))
    assert _factor_index(0, 5, (0, 6)) is first
    assert not first.flags.writeable and first.shape == (3, 21)
    # row i is each part moved by e_i, at its place in the target basis
    position = {row: i for i, row in enumerate(_lex_parts(6))}
    moved = _factor_parts(0, 5) + np.eye(3, dtype=np.int64)[:, None]
    assert first.tolist() == [[position[tuple(r)] for r in rows] for rows in moved.tolist()]
    # a table past the kept size is built afresh, as its factor table is
    big = _factor_index(0, 250, (0, 251))
    assert _factor_index(0, 250, (0, 251)) is not big
    moved = _factor_parts(0, 250) + np.array([0, 0, 1])
    position = {row: i for i, row in enumerate(_compositions(251, 3))}
    assert big[2].tolist() == [position[tuple(row)] for row in moved.tolist()]
    assert (np.diff(big) > 0).all()  # every row lands, in lex order


@pytest.mark.parametrize("dims", [(2,), (2, 2)])
def test_basis_index_gives_minus_one_outside_the_basis(dims):
    if dims == (2,):
        # in degree 2 a basis row is -1 - e, and the term x_i moves it to
        # -1 - (e - e_i): outside the basis of total t - 1 exactly where
        # e_i = 0.  A target of another total takes no row
        for total in range(1, 8):
            position = {row: i for i, row in enumerate(_lex_parts(total - 1))}
            want = [
                [
                    position[tuple(x - (j == i) for j, x in enumerate(e))] if e[i] else -1
                    for e in _lex_parts(total)
                ]
                for i in range(3)
            ]
            assert _factor_index(2, total, (2, total - 1)).tolist() == want
            assert (_factor_index(2, total, (2, total + 1)) == -1).all()
            assert (_factor_index(0, total, (0, total)) == -1).all()
        return
    # a product outside the target on either factor is outside the target
    for src, dst in (((-5, -6), (-4, -5)), ((2, -6), (3, -5)), ((2, -6), (4, -5))):
        info = [_factor_degrees(SPACE, md) for md in (src, dst)]
        index = _product_index(*info, _grid(_sizes(info[0])))
        assert index.tolist() == _product_positions(src, dst), src
        assert (index == -1).any()
    assert (index == -1).all()  # the first factor's target has another total
