from functools import cache
from itertools import permutations

import pytest

from toricfrob import (
    FrobeniusOrder,
    blowup_fan,
    hirzebruch_one,
    p1xp1,
    projective_line,
    projective_plane,
    projective_space,
)
from toricfrob import frobenius as frobenius_mod
from toricfrob.linalg import inverse_unimodular


@pytest.fixture(scope="session")
def P1():
    return projective_line()


@pytest.fixture(scope="session")
def P2():
    return projective_plane()


@pytest.fixture(scope="session")
def P3():
    return projective_space(3)


@pytest.fixture(scope="session")
def Q11():
    return p1xp1()


@pytest.fixture(scope="session")
def F1():
    return hirzebruch_one()


@pytest.fixture
def cold_decompositions(monkeypatch):
    """Give the fans passed to it no kept decompositions for one test.

    A fault-injection test corrupts ``_raw_decompose``; a certified
    decomposition already held by the fan would be returned without reaching
    it, and the corruption would pass unseen.  Only the decomposition entry
    of the fan's memo is reset; what else the fan keeps stays.
    """

    def cold(*fans):
        for fan in fans:
            monkeypatch.setitem(fan._memo, frobenius_mod._certified, {})

    return cold


@cache
def plane_blown_up_to(rays):
    """P2 blown up at torus-fixed points on ray 0 until it has ``rays`` rays."""
    fan = projective_plane()
    while len(fan.rays) < rays:
        fan = blowup_fan(fan, next(c for c in fan.max_cones if 0 in c)).fan
    return fan


def order(p, n=1):
    return FrobeniusOrder(p, n)


def fans_isomorphic(f1, f2) -> bool:
    """Brute-force lattice isomorphism test (adequate at catalog scale)."""
    if (
        f1.dim != f2.dim
        or len(f1.rays) != len(f2.rays)
        or len(f1.max_cones) != len(f2.max_cones)
    ):
        return False
    d = f1.dim
    cone = f1.max_cones[0]
    vinv = inverse_unimodular([f1.rays[i] for i in cone])
    rays2 = set(f2.rays)
    cones2 = {frozenset(f2.rays[i] for i in c) for c in f2.max_cones}
    for c2 in f2.max_cones:
        for perm in permutations(c2):
            w = [f2.rays[i] for i in perm]
            m = [
                [sum(vinv[i][k] * w[k][j] for k in range(d)) for j in range(d)]
                for i in range(d)
            ]
            image = [
                tuple(sum(r[i] * m[i][j] for i in range(d)) for j in range(d))
                for r in f1.rays
            ]
            if set(image) != rays2:
                continue
            if all(
                frozenset(image[i] for i in c) in cones2 for c in f1.max_cones
            ):
                return True
    return False
