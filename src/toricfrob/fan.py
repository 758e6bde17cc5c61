"""Smooth complete fans, torus-invariant divisors and Picard classes.

All lattice data is exact integer arithmetic.  A ``Fan`` is immutable after
construction and safe to share between threads; every operation in this module
is a pure function of its inputs.

Divisors are plain tuples of integer coefficients aligned with ``Fan.rays``
(the coefficient of the prime divisor attached to each ray).  Classes live in
fixed Picard coordinates: the rays of the first maximal cone are eliminated by
a unimodular change of character, so a class is the coefficient vector on the
remaining rays.  Two divisors differing by a principal divisor get identical
coordinates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import combinations
from math import gcd

import numpy as np

from .linalg import adjugate_int, det_int, inverse_unimodular

Divisor = tuple


class FanError(ValueError):
    """Invalid or unsupported fan data."""


class NonPrimitiveRay(FanError):
    pass


class NotSmooth(FanError):
    pass


class BadWall(FanError):
    pass


class NotComplete(FanError):
    pass


class InvariantViolation(RuntimeError):
    """A mathematical identity the library guarantees failed to hold.

    This always signals an implementation bug or corrupted data, never a user
    error.
    """


@dataclass(frozen=True, order=True)
class DivisorClass:
    """A line bundle class in the fan's fixed Picard coordinates."""

    coords: tuple

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(tuple(-a for a in self.coords))

    def __mul__(self, k: int) -> "DivisorClass":
        return DivisorClass(tuple(k * a for a in self.coords))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def __repr__(self) -> str:
        return f"O{self.coords}"


@dataclass(frozen=True)
class Fan:
    """A smooth complete fan: primitive rays plus full-dimensional cones.

    ``max_cones`` holds sorted tuples of ray indices; the ray ordering is
    user-given and significant, since divisor coefficient vectors align to it.
    Use :func:`build_fan` to construct a validated instance.
    """

    dim: int
    rays: tuple
    max_cones: tuple
    name: str = field(default="", compare=False)
    collection: tuple | None = field(default=None, compare=False, repr=False)

    @cached_property
    def cone_sets(self):
        return tuple(frozenset(c) for c in self.max_cones)

    @cached_property
    def _pic(self):
        cone0 = self.max_cones[0]
        mat = [self.rays[i] for i in cone0]
        inv = inverse_unimodular(mat)
        free = tuple(i for i in range(len(self.rays)) if i not in set(cone0))
        return cone0, inv, free

    @cached_property
    def class_matrix(self):
        """Integer matrix C with class_of(D) = D . C, as a tuple of rows.

        Row rho is the class of the prime divisor D_rho: the character fixed
        on the first cone removes the cone's coefficients, and the class is
        what is left on the free rays.
        """
        cone0, inv, free = self._pic
        n = len(self.rays)
        rows = []
        for rho in range(n):
            unit = [int(i == rho) for i in range(n)]
            rhs = [-unit[i] for i in cone0]
            m = [sum(inv[i][j] * rhs[j] for j in range(self.dim)) for i in range(self.dim)]
            rows.append(tuple(unit[j] + _dot(m, self.rays[j]) for j in free))
        return tuple(rows)

    @cached_property
    def _cone_inverses(self):
        return tuple(
            inverse_unimodular([self.rays[i] for i in cone]) for cone in self.max_cones
        )

    @cached_property
    def _vertex_adjugates(self):
        """Adjugates of the invertible d-subsets of rays: (subsets, adj, det, bound).

        ``subsets`` (k, d) holds each subset's ray indices, ``adj`` (k, d, d)
        its integer adjugate and ``det`` (k, 1) its determinant, with signs
        flipped so that every det > 0; the solution of <m, v_i> = b_i over the
        subset is adj . b / det.  ``bound`` is the largest absolute row sum of
        any adjugate, so |adj . b| <= bound * max|b|.  The arrays are int64,
        or None when an adjugate row sum or a det reaches 2^62; the character
        box then refuses the fan.
        """
        subsets, adjs, dets = [], [], []
        for subset in combinations(range(len(self.rays)), self.dim):
            det, adj = adjugate_int([self.rays[i] for i in subset])
            if det:
                sign = 1 if det > 0 else -1
                subsets.append(subset)
                adjs.append([[sign * x for x in row] for row in adj])
                dets.append([sign * det])
        bound = max((sum(map(abs, row)) for adj in adjs for row in adj), default=0)
        subsets = np.array(subsets, dtype=np.int64).reshape(-1, self.dim)
        if bound >= 2**62 or any(det >= 2**62 for det, in dets):
            return subsets, None, None, bound
        adjs = np.array(adjs, dtype=np.int64).reshape(-1, self.dim, self.dim)
        return subsets, adjs, np.array(dets, dtype=np.int64).reshape(-1, 1), bound

    # Per-fan memo dictionaries, shared by the cohomology engine.  Values are
    # deterministic functions of the key, so concurrent insertion is benign.
    @cached_property
    def _coh_cache(self):
        return {}

    @cached_property
    def _betti_cache(self):
        return {}

    @property
    def pic_rank(self) -> int:
        return len(self.rays) - self.dim

    @property
    def free_rays(self):
        return self._pic[2]

    def zero_divisor(self) -> Divisor:
        return (0,) * len(self.rays)

    def canonical_divisor(self) -> Divisor:
        """K = -(sum of all prime ray divisors)."""
        return (-1,) * len(self.rays)

    def canonical_class(self) -> DivisorClass:
        return class_of(self, self.canonical_divisor())

    def zero_class(self) -> DivisorClass:
        return DivisorClass((0,) * self.pic_rank)

    def divisor_of_class(self, cls: DivisorClass) -> Divisor:
        """Canonical representative: zero on the first cone's rays."""
        _, _, free = self._pic
        coeffs = [0] * len(self.rays)
        for value, idx in zip(cls.coords, free):
            coeffs[idx] = value
        return tuple(coeffs)


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def class_of(fan: Fan, divisor) -> DivisorClass:
    """Picard class of a torus-invariant divisor.

    The kernel is exactly the lattice of principal divisors div(chi^m), and
    the map is surjective onto Z^(#rays - dim).  It is linear, and reads the
    classes of the prime divisors off ``Fan.class_matrix``.
    """
    divisor = tuple(divisor)
    if len(divisor) != len(fan.rays):
        raise ValueError("divisor length does not match number of rays")
    return DivisorClass(tuple(_dot(divisor, col) for col in zip(*fan.class_matrix)))


def _cone_characters(fan: Fan, divisor):
    """For each maximal cone, the character m with <m, v> = -a on the cone."""
    out = []
    for cone, inv in zip(fan.max_cones, fan._cone_inverses):
        rhs = [-divisor[i] for i in cone]
        out.append([sum(inv[i][j] * rhs[j] for j in range(fan.dim)) for i in range(fan.dim)])
    return out


def is_nef(fan: Fan, divisor) -> bool:
    """Nef test via weak convexity of the support function."""
    divisor = tuple(divisor)
    for cone, m in zip(fan.cone_sets, _cone_characters(fan, divisor)):
        for j, ray in enumerate(fan.rays):
            if j not in cone and _dot(m, ray) < -divisor[j]:
                return False
    return True


def is_ample(fan: Fan, divisor) -> bool:
    """Ampleness test via strict convexity of the support function."""
    divisor = tuple(divisor)
    for cone, m in zip(fan.cone_sets, _cone_characters(fan, divisor)):
        for j, ray in enumerate(fan.rays):
            if j not in cone and _dot(m, ray) <= -divisor[j]:
                return False
    return True


def _containing_cones(fan: Fan, v):
    """Indices of the closed maximal cones that contain the vector v."""
    # coefficients of v in a cone's ray basis: lambda = v . M^-1
    return [
        k
        for k, inv in enumerate(fan._cone_inverses)
        if all(_dot(v, col) >= 0 for col in zip(*inv))
    ]


def build_fan(rays, max_cones, name: str = "", collection=None) -> Fan:
    """Validate and build a smooth complete fan.

    Raises NonPrimitiveRay, NotSmooth, BadWall or NotComplete.  Completeness
    is certified exactly: (a) every wall is shared by exactly two maximal
    cones, (b) those two cones lie strictly on opposite sides of the wall's
    hyperplane, and (c) the interior point sum(v_i, i in the first cone) lies
    in no other closed maximal cone.  By (a) and (b), crossing a wall away
    from the codimension-2 faces leaves the number of cones containing a point
    unchanged, so that number is the same for every point off those faces;
    (c) makes it 1, so the cones cover R^d exactly once.
    """
    rays = tuple(tuple(int(x) for x in r) for r in rays)
    if not rays:
        raise FanError("no rays given")
    dim = len(rays[0])
    if dim < 1:
        raise FanError("dimension must be positive")
    if any(len(r) != dim for r in rays):
        raise FanError("rays have inconsistent dimensions")
    for r in rays:
        if all(x == 0 for x in r) or gcd(*(abs(x) for x in r)) != 1:
            raise NonPrimitiveRay(f"ray {r} is not primitive")
    if len(set(rays)) != len(rays):
        raise FanError("duplicate rays")

    cones = []
    for c in max_cones:
        c = tuple(sorted(int(i) for i in c))
        if len(set(c)) != dim:
            raise FanError(f"maximal cone {c} must have {dim} distinct rays")
        if any(i < 0 or i >= len(rays) for i in c):
            raise FanError(f"cone {c} has an out-of-range ray index")
        cones.append(c)
    if len(set(cones)) != len(cones):
        raise FanError("duplicate maximal cones")

    for c in cones:
        d = det_int([rays[i] for i in c])
        if d not in (1, -1):
            raise NotSmooth(f"cone {c} has determinant {d}")

    # wall -> [(cone index, position in the cone of the ray off the wall)]
    walls = {}
    for k, c in enumerate(cones):
        for pos in range(dim):
            walls.setdefault(c[:pos] + c[pos + 1 :], []).append((k, pos))
    for facet, sides in walls.items():
        if len(sides) != 2:
            raise BadWall(
                f"wall {facet} belongs to {len(sides)} maximal cones, expected 2"
            )

    fan = Fan(dim=dim, rays=rays, max_cones=tuple(cones), name=name,
              collection=collection)

    for facet, ((k0, pos0), (k1, pos1)) in walls.items():
        # column pos0 of the inverse is the wall's normal, 1 on cone k0's ray
        normal = [row[pos0] for row in fan._cone_inverses[k0]]
        if _dot(normal, rays[cones[k1][pos1]]) >= 0:
            raise BadWall(f"the two cones at wall {facet} lie on the same side")
    interior = [sum(rays[i][j] for i in cones[0]) for j in range(dim)]
    others = [cones[k] for k in _containing_cones(fan, interior) if k]
    if others:
        raise NotComplete(
            f"cones {cones[0]} and {others[0]} overlap: the cones cover space "
            "more than once"
        )
    return fan


def product_fan(f1: Fan, f2: Fan, name: str = "") -> Fan:
    """Fan of the product variety; rays of the first factor come first.

    Picard coordinates of the product are the concatenation of the factors'
    coordinates, so the class of an external sum D1 (+) D2 is the concatenated
    class vector.
    """
    d1, d2 = f1.dim, f2.dim
    rays = [r + (0,) * d2 for r in f1.rays] + [(0,) * d1 + r for r in f2.rays]
    off = len(f1.rays)
    cones = [c1 + tuple(i + off for i in c2) for c1 in f1.max_cones for c2 in f2.max_cones]
    return build_fan(rays, cones, name=name or f"{f1.name}x{f2.name}")


def external_sum(f1: Fan, d1, f2: Fan, d2) -> Divisor:
    """Divisor D1 (+) D2 on the product fan built by :func:`product_fan`."""
    return tuple(d1) + tuple(d2)


@dataclass(frozen=True)
class Blowup:
    """Star subdivision of a fan at a smooth cone, with pullback bookkeeping."""

    fan: Fan
    base: Fan
    cone: tuple
    new_ray_index: int

    def pullback_divisor(self, divisor) -> Divisor:
        # The support function is linear on the subdivided cone, so the new
        # ray (= sum of the cone's rays) gets the sum of their coefficients.
        divisor = tuple(divisor)
        return divisor + (sum(divisor[i] for i in self.cone),)

    def pullback_class(self, cls: DivisorClass) -> DivisorClass:
        return class_of(self.fan, self.pullback_divisor(self.base.divisor_of_class(cls)))

    def exceptional_class(self) -> DivisorClass:
        coeffs = [0] * len(self.fan.rays)
        coeffs[self.new_ray_index] = 1
        return class_of(self.fan, tuple(coeffs))


def blowup_fan(fan: Fan, cone, name: str = "") -> Blowup:
    """Star subdivision at ``cone`` (a set of ray indices spanning a cone)."""
    cone = tuple(sorted(int(i) for i in cone))
    if not any(set(cone) <= cs for cs in fan.cone_sets):
        raise FanError(f"{cone} does not span a cone of the fan")
    new_ray = tuple(sum(fan.rays[i][j] for i in cone) for j in range(fan.dim))
    if new_ray in fan.rays:
        raise FanError("star subdivision ray already present")
    rays = fan.rays + (new_ray,)
    new_idx = len(fan.rays)
    cones = []
    csub = set(cone)
    for c in fan.max_cones:
        if csub <= set(c):
            for i in cone:
                cones.append(tuple(sorted(set(c) - {i} | {new_idx})))
        else:
            cones.append(c)
    new_fan = build_fan(rays, cones, name=name or f"Bl{fan.name}")
    return Blowup(fan=new_fan, base=fan, cone=cone, new_ray_index=new_idx)


@dataclass(frozen=True)
class ProjBundle:
    """Fan of P(O(E_0) + ... + O(E_r)) over a toric base, with the relative
    O(1) and pullback maps exposed in Picard coordinates.

    The construction uses the tautological-subbundle convention: the relative
    O(-1) is the universal line inside the pulled-back bundle, so the
    pushforward of the relative O(1) is the direct sum of O(-E_i + E_0).
    Degrees are normalised so that E_0 = 0.  Class coordinates on the total
    fan are (base coordinates, t) where t is the O_pi(1)-multiplicity.
    """

    fan: Fan
    base: Fan
    degrees: tuple  # normalised: degrees[0] is the zero divisor
    u_index0: int   # index of the ray whose divisor is O_pi(1)

    @property
    def rank(self) -> int:
        return len(self.degrees)

    def pullback_divisor(self, divisor) -> Divisor:
        return tuple(divisor) + (0,) * self.rank

    def pullback_class(self, cls: DivisorClass) -> DivisorClass:
        return class_of(self.fan, self.pullback_divisor(self.base.divisor_of_class(cls)))

    def o_pi_divisor(self, k: int = 1) -> Divisor:
        coeffs = [0] * len(self.fan.rays)
        coeffs[self.u_index0] = k
        return tuple(coeffs)

    def o_pi_class(self, k: int = 1) -> DivisorClass:
        return class_of(self.fan, self.o_pi_divisor(k))


def projectivization_fan(base: Fan, degrees, name: str = "") -> ProjBundle:
    """Fan of the projectivized split bundle P(O(E_0) + ... + O(E_r)).

    ``degrees`` lists r+1 torus-invariant divisors on the base (E_0 may be
    nonzero; it is normalised away).  Base ray i lifts to ray i; the relative
    rays follow, the last one carrying the class of O_pi(1).
    """
    degrees = [tuple(d) for d in degrees]
    if len(degrees) < 2:
        raise FanError("need at least two degrees for a projectivization")
    if any(len(d) != len(base.rays) for d in degrees):
        raise FanError("degree divisors must align with the base rays")
    d0 = degrees[0]
    norm = [tuple(a - b for a, b in zip(d, d0)) for d in degrees]
    r = len(degrees) - 1
    dim = base.dim

    lifts = [
        base.rays[i] + tuple(-norm[k][i] for k in range(1, r + 1))
        for i in range(len(base.rays))
    ]
    fibers = []
    for k in range(1, r + 1):
        e = [0] * (dim + r)
        e[dim + k - 1] = 1
        fibers.append(tuple(e))
    u0 = tuple([0] * dim + [-1] * r)
    rays = lifts + fibers + [u0]
    n = len(base.rays)
    fiber_idx = list(range(n, n + r)) + [n + r]

    # One chart per base cone and omitted fiber ray; omitting u_0 first keeps
    # the first maximal cone equal to (lifted first base cone) + (u_1..u_r),
    # which makes total Picard coordinates (base coordinates, O_pi(1)-slot).
    omit_order = [r] + list(range(r))
    cones = []
    for c in base.max_cones:
        lifted = tuple(c)
        for omit in omit_order:
            keep = tuple(fiber_idx[j] for j in range(r + 1) if j != omit)
            cones.append(tuple(sorted(lifted + keep)))
    fan = build_fan(rays, cones, name=name or f"P(E)/{base.name}")
    return ProjBundle(fan=fan, base=base, degrees=tuple(norm), u_index0=n + r)


def fan_from_json(text: str) -> Fan:
    """Parse a fan from its JSON file format.

    Schema: {"name": str?, "rays": [[int, ...]], "max_cones": [[int, ...]]}.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FanError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or "rays" not in data or "max_cones" not in data:
        raise FanError('fan JSON needs "rays" and "max_cones"')
    return build_fan(data["rays"], data["max_cones"], name=str(data.get("name", "")))


def parse_divisor(fan: Fan, text: str) -> Divisor:
    """Parse a divisor given as CSV integers aligned to rays, or "K"/"-K"/"0"."""
    text = text.strip()
    if text == "K":
        return fan.canonical_divisor()
    if text == "-K":
        return tuple(-a for a in fan.canonical_divisor())
    if text == "0":
        return fan.zero_divisor()
    try:
        coeffs = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise FanError(f"cannot parse divisor {text!r}") from exc
    if len(coeffs) != len(fan.rays):
        raise FanError(
            f"divisor has {len(coeffs)} coefficients, fan has {len(fan.rays)} rays"
        )
    return coeffs


def with_collection(fan: Fan, collection) -> Fan:
    return replace(fan, collection=tuple(collection))
