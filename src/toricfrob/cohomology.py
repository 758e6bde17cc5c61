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
the whole engine runs on integers.

Lattice point counting in the section polytope provides an independent oracle
for global sections.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .fan import DivisorClass, Fan, class_of
from .linalg import rank_mod_p

MAX_DIM = 4
MAX_BOX_POINTS = 4_000_000
_INT64_GUARD = 2**62
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

    def total(self) -> int:
        return sum(self.dims)

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


def _char_grid(fan: Fan, coeffs):
    """All characters in the candidate box as an int64 array of shape (B, d)."""
    box = _vertex_box(fan, coeffs)
    shape = [b - a + 1 for a, b in box]
    npts = 1
    for s in shape:
        npts *= s
    if npts > MAX_BOX_POINTS:
        raise Overflow(f"candidate box has {npts} points")
    extent = max(max(abs(a), abs(b)) for a, b in box)
    ray_bound = max(sum(abs(x) for x in r) for r in fan.rays)
    if extent * ray_bound + max(abs(c) for c in coeffs) + 1 >= _INT64_GUARD:
        raise Overflow("coefficients exceed the exact int64 range")
    grids = np.indices(shape, dtype=np.int64).reshape(fan.dim, -1).T
    return grids + np.array([a for a, _ in box], dtype=np.int64)


def _support_contrib(fan: Fan, mask: int):
    """h^i contributions of one ray support set S (bitmask over ray indices).

    Returns a tuple c with c[i] = dim of reduced cohomology in degree i-1 of
    the induced subcomplex on S, i.e. the contribution of one character with
    this support to (h^0, ..., h^dim).  The empty support contributes to h^0.
    """
    cache = fan._betti_cache
    hit = cache.get(mask)
    if hit is not None:
        return hit
    support = [i for i in range(len(fan.rays)) if mask >> i & 1]
    d = fan.dim
    faces = [[()]]
    for card in range(1, d + 1):
        level = [
            c
            for c in combinations(support, card)
            if any(set(c) <= cs for cs in fan.cone_sets)
        ]
        faces.append(level)

    # Boundary ranks of the augmented chain complex over F_p, equal to those
    # over Q by the torsion-freeness in the module docstring.
    ranks = [0] * (d + 2)
    for card in range(1, d + 1):
        lower = {f: i for i, f in enumerate(faces[card - 1])}
        if not faces[card] or not faces[card - 1]:
            continue
        mat = [[0] * len(faces[card]) for _ in range(len(faces[card - 1]))]
        for col, f in enumerate(faces[card]):
            for pos in range(card):
                sub = f[:pos] + f[pos + 1 :]
                mat[lower[sub]][col] = -1 if pos % 2 else 1
        ranks[card] = rank_mod_p(mat, _BETTI_P)

    contrib = tuple(
        len(faces[c]) - ranks[c] - ranks[c + 1] for c in range(d + 1)
    )
    cache[mask] = contrib
    return contrib


def cohomology_of_class(fan: Fan, cls: DivisorClass) -> CohomologyVector:
    """Cohomology of the line bundle with the given Picard class (cached)."""
    cached = fan._coh_cache.get(cls)
    if cached is not None:
        return cached
    if fan.dim > MAX_DIM:
        raise DimensionUnsupported(f"dimension {fan.dim} > {MAX_DIM}")
    coeffs = fan.divisor_of_class(cls)
    pts = _char_grid(fan, coeffs)
    rays_t = np.array(fan.rays, dtype=np.int64).T
    dots = pts @ rays_t
    neg = dots < -np.array(coeffs, dtype=np.int64)
    weights = np.left_shift(np.int64(1), np.arange(len(fan.rays), dtype=np.int64))
    masks = neg @ weights
    vals, counts = np.unique(masks, return_counts=True)
    h = [0] * (fan.dim + 1)
    for mask, count in zip(vals.tolist(), counts.tolist()):
        contrib = _support_contrib(fan, int(mask))
        if any(contrib):
            for i, c in enumerate(contrib):
                h[i] += count * c
    result = CohomologyVector(tuple(h))
    fan._coh_cache[cls] = result
    return result


def cohomology(fan: Fan, divisor) -> CohomologyVector:
    """Exact dimensions h^i(X, O(D)) for a torus-invariant divisor."""
    return cohomology_of_class(fan, class_of(fan, divisor))


def h0_points(fan: Fan, divisor) -> int:
    """Number of lattice points of the section polytope of D.

    Counts {m : <m, v_rho> >= -a_rho for all rho} directly; equals h^0 and is
    independent of the simplicial machinery above.
    """
    coeffs = tuple(divisor)
    pts = _char_grid(fan, coeffs)
    rays_t = np.array(fan.rays, dtype=np.int64).T
    inside = (pts @ rays_t >= -np.array(coeffs, dtype=np.int64)).all(axis=1)
    return int(inside.sum())
