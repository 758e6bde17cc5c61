"""Exact line bundle cohomology on smooth complete toric varieties.

For a torus-invariant divisor D the group H^i(X, O(D)) splits over characters
m, with the m-piece given by reduced simplicial cohomology of the subcomplex
of the fan's boundary complex supported on the rays where <m, v> < -a.  For
dim <= 4 the support complexes sit inside a triangulated sphere of dimension
<= 3, whose subcomplexes have torsion-free homology; their boundary maps then
have only unit elementary divisors, so their ranks are the same over Q and
over every prime field.  The per-character pieces are therefore computed over
F_p with p = _BETTI_P, exactly, and equal the dimensions over any field.
Higher dimensions are rejected rather than silently risking torsion.

The characters that can contribute lie in a box spanned by the vertices of
the arrangement {<m, v_rho> = -a_rho}; each vertex is adj . (-a) / det for an
invertible d-subset of rays, with the integer adjugates cached per fan, so
the whole engine runs on integers.  Each class's cohomology, each support's
Betti numbers and each axis's ray data are computed once per fan and kept by
``fan.per_fan``.

The box is counted line by line, never point by point.  Along a line parallel
to a coordinate axis each condition <m, v_rho> < -a_rho is linear in the free
coordinate, so it flips at most once, at a breakpoint that is one exact
integer floor or ceiling quotient.  The breakpoints cut the line into
intervals of constant support, and an interval's length is the number of its
characters; the counts per support are therefore the box's counts exactly,
for box^(d-1) * #rays work in place of box^d.  One kernel, _line_counts,
sorts and groups such intervals for any key that moves by fixed steps at
breakpoints; the Frobenius residue decomposition counts its classes with it
too, for q^(d-1) * sum |v_rho[d]| work in place of q^d.

Lattice point counting in the section polytope, which enumerates the box
point by point, provides an independent oracle for global sections.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .fan import DivisorClass, Fan, _read_divisor, class_of, per_fan
from .linalg import _INT64_GUARD, _residue_dtype, group_rows, ranks_mod_p

MAX_DIM = 4
MAX_BOX_POINTS = 4_000_000
# A Frobenius residue decomposition holds all its q^(d-1) residue lines of
# 1 + sum |v_rho[d]| intervals each in memory at once, 80-100 bytes per
# interval on the catalog's surfaces and threefolds; past this many intervals
# (~100 MB) it raises Overflow before allocating.
MAX_RESIDUE_WORK = 1_000_000
# Odd, so that a sign error in a boundary matrix still changes its rank.
_BETTI_P = 32749


class DimensionUnsupported(ValueError):
    """Fan dimension outside the range where Q-coefficients are certified."""


class Overflow(RuntimeError):
    """Candidate character box too large to enumerate exactly."""


@dataclass(frozen=True)
class CohomologyVector:
    """Dimensions (h^0, ..., h^dim) of the cohomology of a line bundle."""

    dims: tuple

    def __iter__(self):
        return iter(self.dims)

    def __getitem__(self, i):
        return self.dims[i]

    def euler(self) -> int:
        return sum(d if i % 2 == 0 else -d for i, d in enumerate(self.dims))


def _vertex_box(fan: Fan, coeffs):
    """Integer bounding box of all solutions of d-subsets <m, v> = -a, +-1.

    Every character whose support subcomplex has nontrivial reduced cohomology
    lies in this box: the support pattern is constant on the (bounded) cells of
    the hyperplane arrangement, and unbounded cells have contractible or empty
    support complexes.  The solutions come from the fan's cached integer
    adjugates as exact floor and ceiling quotients; Overflow is raised before
    any int64 product that could reach _INT64_GUARD.
    """
    subsets, adj, det, bound = fan._vertex_adjugates
    if not len(subsets):
        raise Overflow("ray matrix has no invertible d-subset")
    if adj is None or bound * max(abs(c) for c in coeffs) >= _INT64_GUARD:
        raise Overflow("vertex solutions exceed the exact int64 range")
    num = np.einsum("kij,kj->ki", adj, -np.array(coeffs, dtype=np.int64)[subsets])
    lo = (num // det).min(axis=0)
    hi = (-(-num // det)).max(axis=0)
    return [(int(a) - 1, int(b) + 1) for a, b in zip(lo, hi)]


def _checked_box(fan: Fan, coeffs):
    """The candidate box of :func:`_vertex_box`, refused if too big to count.

    Overflow is raised when the box has more than MAX_BOX_POINTS points, and
    then when <m, v> + a could reach _INT64_GUARD for a character m in it.
    """
    box = _vertex_box(fan, coeffs)
    npts = 1
    for a, b in box:
        npts *= b - a + 1
    if npts > MAX_BOX_POINTS:
        raise Overflow(f"candidate box has {npts} points")
    extent = max(max(abs(a), abs(b)) for a, b in box)
    if extent * fan._int_bounds[0] + max(abs(c) for c in coeffs) + 1 >= _INT64_GUARD:
        raise Overflow("coefficients exceed the exact int64 range")
    return box


def _char_grid(fan: Fan, coeffs):
    """All characters in the candidate box as an int64 array of shape (B, d)."""
    box = _checked_box(fan, coeffs)
    shape = [b - a + 1 for a, b in box]
    grids = np.indices(shape, dtype=np.int64).reshape(fan.dim, -1).T
    return grids + np.array([a for a, _ in box], dtype=np.int64)


@per_fan
def _line_rays(fan: Fan, axis: int):
    """Ray data for lines parallel to ``axis``, kept per fan.

    Returns (order, rays, slopes): ``order`` lists the ray indices with the
    rays of nonzero component c along the axis first, ``rays`` the rays in
    that order, and ``slopes`` their nonzero c.
    """
    slope = [ray[axis] for ray in fan.rays]
    order = sorted(range(len(slope)), key=lambda i: not slope[i])
    return (
        np.array(order, dtype=np.int64),
        np.array([fan.rays[i] for i in order], dtype=np.int64),
        np.array([slope[i] for i in order if slope[i]], dtype=np.int64),
    )


def _line_starts(start, rays, axes):
    """start + <m', v> for every line, with m' over a product of coordinates.

    ``axes`` lists (k, values) for the coordinates m'_k off the line, the
    first most significant, so the rows come in ``itertools.product`` order.
    """
    for k, values in axes:
        start = start[..., None, :] + values[:, None] * rays[:, k]
    return start.reshape(-1, len(rays))


def _line_counts(base, cuts, steps, width):
    """Distinct keys of lines cut into intervals, with their counts.

    Line i holds the positions t in [0, width).  Its key (a scalar, or a
    row) is ``base[i]`` at t = 0 and moves by ``steps[j]`` at the
    breakpoint ``cuts[i, j]``, already clipped to [0, width].  Sorted, the
    breakpoints cut each line into intervals of constant key whose lengths
    are exact counts; intervals of length 0 are dropped.  Returns
    (keys, counts): the distinct keys met, ascending (rows compare from
    their last entry), and the number of positions with each key.
    """
    lines, r = cuts.shape
    col = cuts.argsort(axis=1)
    ends = np.empty((lines, r + 2), dtype=np.int64)
    ends[:, 0] = 0
    ends[:, 1:-1] = np.take_along_axis(cuts, col, axis=1)
    ends[:, -1] = width
    keys = np.concatenate((base[:, None], steps[col]), axis=1)
    keys.cumsum(axis=1, out=keys)
    lengths = (ends[:, 1:] - ends[:, :-1]).ravel()
    met = lengths.nonzero()[0]
    keys = keys.reshape((lines * (r + 1),) + base.shape[1:])[met]
    by_key, starts, _ = group_rows(keys.reshape(len(keys), -1), labels=False)
    return keys[by_key[starts]], np.add.reduceat(lengths[met[by_key]], starts)


def _mask_counts(fan: Fan, coeffs):
    """Support masks of the characters in the candidate box, with their counts.

    Returns (masks, counts), int64 arrays with the masks ascending and every
    count positive: bit rho of a mask is set when <m, v_rho> < -a_rho, and
    the count is the number of characters m of the box with that support.

    The box is cut into lines along its longest axis k, one line per point
    m' of the other coordinates.  On that line, with m_k = t and
    c = v_rho[k], the condition reads c t < x := -a_rho - <m', v_rho>.  For
    c = 0 it holds on the whole line when x > 0 and nowhere else.  For
    c != 0 it changes exactly once, at the breakpoint
    b = floor((x - [c > 0]) / c) + 1: it holds for t < b when c > 0 (b is
    then ceil(x / c)) and for t >= b when c < 0.  So the mask far to the left
    has the bits of the rays with c > 0 and of the rays with c = 0, x > 0,
    and at each breakpoint one bit is subtracted (c > 0) or added (c < 0);
    :func:`_line_counts` sums the intervals.  The work is box^(d-1) * #rays
    in place of box^d.  A mask is one int64, so a fan with more than 64 rays
    raises Overflow rather than drop the rays past bit 63.
    """
    if len(fan.rays) > 64:
        raise Overflow(f"{len(fan.rays)} rays do not fit a 64-bit support mask")
    box = _checked_box(fan, coeffs)
    axis = max(range(fan.dim), key=lambda k: box[k][1] - box[k][0])
    lo, hi = box[axis]
    width = hi + 1 - lo
    order, rays, slopes = _line_rays(fan, axis)
    r = len(slopes)
    rising = slopes > 0
    bits = np.left_shift(np.int64(1), order)
    # x[line, j] = -a - [c > 0] - <m', v> for the j-th reordered ray, with
    # the coordinates m' taken negated
    x = -np.array(coeffs, dtype=np.int64)[order]
    x[:r] -= rising
    x = _line_starts(x, rays, [
        (k, np.arange(-a, -b - 1, -1, dtype=np.int64))
        for k, (a, b) in enumerate(box) if k != axis
    ])
    base = (x[:, r:] > 0) @ bits[r:] + bits[:r] @ rising
    cuts = np.clip(x[:, :r] // slopes + (1 - lo), 0, width)
    steps = np.where(rising, -bits[:r], bits[:r])
    return _line_counts(base, cuts, steps, width)


@per_fan
def _support_contrib(fan: Fan, mask: int):
    """h^i contributions of one ray support set S (bitmask over ray indices).

    Returns a tuple c with c[i] = dim of reduced cohomology in degree i-1 of
    the induced subcomplex on S, i.e. the contribution of one character with
    this support to (h^0, ..., h^dim).  The empty support contributes to h^0.
    Kept per fan.
    """
    support = [i for i in range(len(fan.rays)) if mask >> i & 1]
    d = fan.dim
    faces = [[()]]
    for card in range(1, d + 1):
        faces.append([c for c in combinations(support, card) if c in fan.faces])

    # Boundary ranks of the augmented chain complex over F_p, equal to those
    # over Q by the torsion-freeness in the module docstring: the nonzero
    # maps, one matrix per chain degree, a row per face of one dimension
    # less, zero-padded to one width, are eliminated by one call.
    cards = [c for c in range(1, d + 1) if faces[c] and faces[c - 1]]
    ranks = [0] * (d + 2)
    if cards:
        entries = []
        offsets = [0]
        for card in cards:
            lower = {f: offsets[-1] + i for i, f in enumerate(faces[card - 1])}
            for col, f in enumerate(faces[card]):
                for pos in range(card):
                    sub = f[:pos] + f[pos + 1 :]
                    entries.append((lower[sub], col, -1 if pos % 2 else 1))
            offsets.append(offsets[-1] + len(faces[card - 1]))
        row, col, sign = np.array(entries, dtype=np.int64).T
        width = max(len(faces[c]) for c in cards)
        rows = np.zeros((offsets[-1], width), dtype=_residue_dtype(_BETTI_P))
        rows[row, col] = sign
        for card, rank in zip(cards, ranks_mod_p(rows, offsets, _BETTI_P).tolist()):
            ranks[card] = rank

    return tuple(len(faces[c]) - ranks[c] - ranks[c + 1] for c in range(d + 1))


@per_fan
def cohomology_of_class(fan: Fan, cls: DivisorClass) -> CohomologyVector:
    """Cohomology of the line bundle with the given Picard class, kept per fan.

    h^i is the sum over the supports S met in the candidate box of
    (number of characters with support S) * (contribution of S), the numbers
    counted exactly line by line by :func:`_mask_counts`.  A class refused
    with Overflow or DimensionUnsupported keeps nothing.
    """
    if fan.dim > MAX_DIM:
        raise DimensionUnsupported(f"dimension {fan.dim} > {MAX_DIM}")
    vals, counts = _mask_counts(fan, fan.divisor_of_class(cls))
    h = [0] * (fan.dim + 1)
    for mask, count in zip(vals.tolist(), counts.tolist()):
        contrib = _support_contrib(fan, int(mask))
        if any(contrib):
            for i, c in enumerate(contrib):
                h[i] += count * c
    return CohomologyVector(tuple(h))


def cohomology(fan: Fan, divisor) -> CohomologyVector:
    """Exact dimensions h^i(X, O(D)) for a torus-invariant divisor."""
    return cohomology_of_class(fan, class_of(fan, divisor))


def h0_points(fan: Fan, divisor) -> int:
    """Number of lattice points of the section polytope of D.

    Counts {m : <m, v_rho> >= -a_rho for all rho} directly; equals h^0 and is
    independent of the simplicial machinery above.
    """
    coeffs = _read_divisor(fan, divisor)
    pts = _char_grid(fan, coeffs)
    rays_t = np.array(fan.rays, dtype=np.int64).T
    inside = (pts @ rays_t >= -np.array(coeffs, dtype=np.int64)).all(axis=1)
    return int(inside.sum())
