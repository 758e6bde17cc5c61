"""Built-in fans: projective spaces, products, Hirzebruch and del Pezzo
surfaces, and the projective bundles from the toric Fano threefold catalog.

Each constructor attaches a full exceptional collection of line bundle
classes to the fan it returns.  Collections for projectivizations and
blow-ups are produced by the semiorthogonal-decomposition recursion: one copy
of the base collection per relative twist (blocks twisted to line up with the
Frobenius summands), respectively the pulled-back collection plus the negative
exceptional class.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

from .fan import (
    Blowup,
    DivisorClass,
    Fan,
    ProjBundle,
    blowup_fan,
    build_fan,
    class_of,
    product_fan,
    projectivization_fan,
    with_collection,
)


def projective_space(m: int, name: str | None = None) -> Fan:
    """P^m with rays e_1..e_m, -(e_1+...+e_m); collection O, O(-1), ..., O(-m).

    For p > m + 1 (the Coxeter number of the underlying type-A symmetry) the
    pushforward of the structure sheaf is known to generate the derived
    category, so containment of the collection upgrades strong exceptionality
    to a tilting bundle; containment itself already holds whenever q >= m + 1.
    """
    rays = [tuple(1 if j == i else 0 for j in range(m)) for i in range(m)]
    rays.append(tuple([-1] * m))
    cones = list(combinations(range(m + 1), m))
    coll = tuple(DivisorClass((-k,)) for k in range(m + 1))
    return build_fan(rays, cones, name=name or f"P{m}", collection=coll)


def projective_line() -> Fan:
    return projective_space(1)


def projective_plane() -> Fan:
    return projective_space(2)


def product(f1: Fan, f2: Fan, name: str = "") -> Fan:
    """Product fan; the collection is the set of concatenated factor classes."""
    fan = product_fan(f1, f2, name=name)
    if f1.collection is not None and f2.collection is not None:
        coll = tuple(
            DivisorClass(c1.coords + c2.coords)
            for c1 in f1.collection
            for c2 in f2.collection
        )
        fan = with_collection(fan, coll)
    return fan


def p1xp1() -> Fan:
    return product(projective_line(), projective_line(), name="P1xP1")


def hirzebruch_one() -> Fan:
    """The blow-up of the plane at a point, with its fixed ray ordering.

    Ray 1 spans the exceptional section (self-intersection -1) and ray 2 a
    fiber of the ruling.  The collection is O, O(-f), O(-H), O(-f-H) with f
    the fiber class and H = f + E the pulled-back line class; each bundle is a
    Frobenius summand for every q >= 3.
    """
    rays = [(1, 0), (0, 1), (-1, 1), (0, -1)]
    cones = [(0, 1), (1, 2), (2, 3), (0, 3)]
    fan = build_fan(rays, cones, name="F1")
    e1 = [0] * 4
    e1[1] = 1
    e2 = [0] * 4
    e2[2] = 1
    exceptional = class_of(fan, tuple(e1))
    fiber = class_of(fan, tuple(e2))
    hyper = fiber + exceptional
    coll = (fan.zero_class(), -fiber, -hyper, -(fiber + hyper))
    return with_collection(fan, coll)


def _ruled_surface_collection(blow: Blowup, hyper: DivisorClass) -> tuple:
    exceptional = blow.exceptional_class()
    fiber = hyper - exceptional
    zero = blow.fan.zero_class()
    return (zero, -fiber, -hyper, -(fiber + hyper))


def del_pezzo(k: int) -> Fan:
    """Blow-up of the plane at k <= 3 torus-fixed points (del Pezzo for k>=1).

    The first blow-up carries the ruled-surface collection; later ones extend
    it by the negative of each new exceptional class.
    """
    if not 1 <= k <= 3:
        raise ValueError("only k in {1, 2, 3} is toric")
    plane = projective_plane()
    blow = blowup_fan(plane, plane.max_cones[0], name="X1")
    line = [0] * len(plane.rays)
    line[0] = 1
    hyper = blow.pullback_class(class_of(plane, tuple(line)))
    coll = _ruled_surface_collection(blow, hyper)
    fan = with_collection(blow.fan, coll)
    # remaining torus-fixed points of the plane: the surviving original cones
    for step, cone in zip(range(2, k + 1), [(1, 2), (0, 2)]):
        blow = blowup_fan(fan, cone, name=f"X{step}")
        coll = tuple(blow.pullback_class(c) for c in fan.collection) + (
            -blow.exceptional_class(),
        )
        fan = with_collection(blow.fan, coll)
    return fan


def _pos(cls: DivisorClass) -> DivisorClass:
    return DivisorClass(tuple(max(x, 0) for x in cls.coords))


def bundle_collection(pb: ProjBundle, base_collection) -> tuple:
    """Collection for P(E): one base block per relative twist O_pi(-i).

    Block i is the base collection shifted by minus the accumulated positive
    part of the summand degrees; the shift keeps each block inside the classes
    the Frobenius pushforward actually produces, and any block twist yields a
    full collection by the projective-bundle semiorthogonal decomposition.
    """
    xi = pb.o_pi_class(1)
    shift = pb.base.zero_class()
    out = []
    for i, deg in enumerate(pb.degrees):
        if i > 0:
            shift = shift - _pos(class_of(pb.base, deg))
        for c in base_collection:
            out.append(pb.pullback_class(c + shift) - i * xi)
    return tuple(out)


def projective_bundle(base: Fan, degrees, name: str = "") -> Fan:
    """Projectivized split bundle with the recursed collection attached."""
    pb = projectivization_fan(base, degrees, name=name)
    fan = pb.fan
    if base.collection is not None:
        fan = with_collection(fan, bundle_collection(pb, base.collection))
    return fan


def _multidegree_divisor(fan: Fan, *entries) -> tuple:
    """Divisor with the given coefficients on selected rays, zero elsewhere.

    ``entries`` are (ray_index, coefficient) pairs.
    """
    coeffs = [0] * len(fan.rays)
    for idx, value in entries:
        coeffs[idx] = value
    return tuple(coeffs)


# (base builder, degrees builder) for the projective-bundle catalog entries;
# degrees are oriented so that the total space is Fano.
def _bundle_specs():
    def over_p2(k):
        base = named_variety("P2")
        return base, [base.zero_divisor(), _multidegree_divisor(base, (0, k))]

    def over_p1_rank3():
        base = named_variety("P1")
        # P(O + O + O(1)) in the quotient convention is, in the tautological
        # subbundle convention used here, P(O + O + O(-1)): this is the Fano
        # orientation.
        return base, [
            base.zero_divisor(),
            base.zero_divisor(),
            _multidegree_divisor(base, (0, -1)),
        ]

    def over_p1xp1(k2):
        base = named_variety("P1xP1")
        return base, [
            base.zero_divisor(),
            _multidegree_divisor(base, (0, 1), (2, k2)),
        ]

    def over_x1():
        base = named_variety("X1")
        # l = H, the pull-back of the line class: the unique choice (up to
        # isomorphism) making the total space Fano.
        return base, [
            base.zero_divisor(),
            _multidegree_divisor(base, (0, 1), (3, 1)),
        ]

    return {
        "P(O+O(2))/P2": lambda: over_p2(2),
        "P(O+O(1))/P2": lambda: over_p2(1),
        "P(O+O+O(1))/P1": over_p1_rank3,
        "P(O+O(1,1))/P1xP1": lambda: over_p1xp1(1),
        "P(O+O(1,-1))/P1xP1": lambda: over_p1xp1(-1),
        "P(O+O(l))/X1": over_x1,
    }


BUNDLE_SPECS = _bundle_specs()


_BUILDERS = {
    "P1": projective_line,
    "P2": projective_plane,
    "P3": lambda: projective_space(3),
    "P1xP1": p1xp1,
    "F1": hirzebruch_one,
    "X1": lambda: del_pezzo(1),
    "X2": lambda: del_pezzo(2),
    "X3": lambda: del_pezzo(3),
    "P2xP1": lambda: product(projective_plane(), projective_line(), name="P2xP1"),
    "P1xP1xP1": lambda: product(p1xp1(), projective_line(), name="P1xP1xP1"),
    "X1xP1": lambda: product(del_pezzo(1), projective_line(), name="X1xP1"),
    "X2xP1": lambda: product(del_pezzo(2), projective_line(), name="X2xP1"),
    "X3xP1": lambda: product(del_pezzo(3), projective_line(), name="X3xP1"),
}

VARIETY_NAMES = tuple(_BUILDERS) + tuple(BUNDLE_SPECS)


@cache
def named_variety(name: str) -> Fan:
    """The registered variety ``name`` (one of VARIETY_NAMES), built once.

    Every call with the same name returns the same validated fan, shared
    across the process, so the answers the fan keeps (``fan.per_fan``) serve
    every question asked of it.  They live as long as the process and grow
    with the questions asked.
    """
    if name in _BUILDERS:
        return _BUILDERS[name]()
    if name in BUNDLE_SPECS:
        base, degrees = BUNDLE_SPECS[name]()
        return projective_bundle(base, degrees, name=name)
    raise KeyError(f"unknown variety {name!r}")
