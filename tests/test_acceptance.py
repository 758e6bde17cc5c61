"""Acceptance suite: one test per criterion, every tolerance exact (zero).

Each test prints a single PASS/FAIL line (visible with pytest -s); a FAIL
line is followed by the assertion detail from pytest.
"""

from contextlib import contextmanager
from math import comb

from toricfrob import (
    Decomposition,
    DivisorClass,
    FrobeniusOrder,
    blowup_bookkeeping_check,
    cohomology,
    concentration_check,
    corank_oracle,
    delpezzo_jet_check,
    frobenius_decompose,
    adjunction_crosscheck,
    hirzebruch_one,
    incidence_cohomology,
    p1xp1,
    pbundle_check,
    product,
    projective_line,
    projective_plane,
    projective_space,
    s2d2_identity_check,
    tilting_verdict,
    verify_projection_formula,
)
from toricfrob.catalog import catalog_entries, catalog_run
from toricfrob.cech import _basis_size
from toricfrob.frobenius import _raw_decompose
from toricfrob.structure import _blown_up_plane
from toricfrob.varieties import BUNDLE_SPECS


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number:>3}: FAIL  {description}")
        raise
    print(f"criterion {number:>3}: PASS  {description}")


def test_criterion_01_p1_pushforward():
    with criterion("1", "F_* O on the line is O + O(-1)^(p-1) for p in {2,3,5,7}"):
        line = projective_line()
        for p in (2, 3, 5, 7):
            dec = frobenius_decompose(line, line.zero_divisor(), FrobeniusOrder(p))
            assert dec.entries == {
                DivisorClass((0,)): 1,
                DivisorClass((-1,)): p - 1,
            }


def test_criterion_02_projective_space_twist_range():
    with criterion("2", "P^m summand twists lie in [-m, 0]; all present iff q >= m+1"):
        for m in (1, 2, 3):
            fan = projective_space(m)
            for p in (2, 3, 5):
                for n in (1, 2):
                    order = FrobeniusOrder(p, n)
                    dec = frobenius_decompose(fan, fan.zero_divisor(), order)
                    degrees = {cls.coords[0] for cls in dec.entries}
                    assert degrees <= set(range(-m, 1)), (m, p, n)
                    expect_all = order.q >= m + 1
                    assert (degrees == set(range(-m, 1))) is expect_all, (m, p, n)
                    verdict = tilting_verdict(fan, order)
                    assert verdict.contains_collection is expect_all, (m, p, n)


def test_criterion_03_rank_and_projection_oracle():
    with criterion("3", "rank q^d and full projection oracle across the catalog"):
        for entry in catalog_entries():
            fan = entry.build()
            for p in (2, 3):
                for n in (1, 2):
                    order = FrobeniusOrder(p, n)
                    divisor = fan.zero_divisor()
                    dec = Decomposition(
                        fan, divisor, order, _raw_decompose(fan, divisor, order)
                    )
                    assert dec.rank == order.q**fan.dim, (entry.key, p, n)
                    assert verify_projection_formula(dec), (entry.key, p, n)


def test_criterion_04_adjunction_crosscheck():
    with criterion("4", "both Ext routes agree on every catalog entry, p in {2,3}"):
        for entry in catalog_entries():
            fan = entry.build()
            for p in (2, 3):
                assert adjunction_crosscheck(fan, FrobeniusOrder(p)), (entry.key, p)


def test_criterion_05_catalog_failure_pattern():
    # Top degree never fails: a difference E of two Thomsen summands has every
    # coefficient in (-1, 1) in Pic (x) Q, so K - E has coefficients in
    # (-2, 0), has no sections, and Ext^3 = H^0(K - E)^* = 0 by Serre
    # duality.  The degree-2 pattern was recomputed without this package
    # (own fans, own summands, own per-character reduced cohomology over the
    # character boxes +-6 and +-9): P(O+O(2))/P2 gives (92,0,0,0) at q=2 and
    # (1104,0,3,0) at q=3; P(O+O(1,-1))/P1xP1 gives (56,0,0,0) and
    # (621,0,0,0).  The reference survey's pattern (top degree for
    # P(O+O(2)), Ext^1 for P(O+O(1,-1))) is contradicted by both arguments.
    with criterion(
        "5",
        "catalog at p=2,3: no top-degree Ext; nothing fails at p=2; "
        "at p=3 only O+O(2) over the plane, in degree 2",
    ):
        expected_failing = {2: {}, 3: {"P(O+O(2))/P2": [0, 3, 0]}}
        for p in (2, 3):
            result = catalog_run(p, 1)
            rows = result["rows"]
            assert len(rows) == 12 and all("dims" in row for row in rows), p
            assert all(row["dims"][3] == 0 for row in rows), p
            failing = {
                row["key"]: row["dims"][1:]
                for row in rows
                if any(row["dims"][1:])
            }
            # in particular P(O+O(1,-1))/P1xP1 vanishes at both p
            assert failing == expected_failing[p], (p, failing)


def test_criterion_06_hirzebruch_surface():
    with criterion("6", "blown-up plane: vanishing at p in {2,3,5}, containment for p >= 3"):
        fan = hirzebruch_one()
        for p in (2, 3, 5):
            verdict = tilting_verdict(fan, FrobeniusOrder(p))
            assert verdict.strong_exceptional, p
            if p >= 3:
                assert verdict.contains_collection, p


def test_criterion_07_bundle_structure_checks():
    with criterion("7", "P1-bundle splitting, rank-3 filtration and power identity"):
        rank2 = (
            "P(O+O(2))/P2",
            "P(O+O(1))/P2",
            "P(O+O(1,1))/P1xP1",
            "P(O+O(1,-1))/P1xP1",
            "P(O+O(l))/X1",
        )
        for key in rank2:
            base, degrees = BUNDLE_SPECS[key]()
            for p in (2, 3):
                assert pbundle_check(base, degrees, FrobeniusOrder(p)), (key, p)
        line = projective_line()
        for p in (2, 3):
            assert pbundle_check(line, [(0, 0), (1, 0)], FrobeniusOrder(p))
        base, degrees = BUNDLE_SPECS["P(O+O+O(1))/P1"]()
        for p in (2, 3):
            assert pbundle_check(base, degrees, FrobeniusOrder(p))
        plane = projective_plane()
        quadric = p1xp1()
        cases = [
            (plane, (0, 0, 0)),
            (plane, (1, 0, 0)),
            (plane, (2, 0, 0)),
            (quadric, (1, 0, -1, 0)),
        ]
        for fan, a in cases:
            for order in (FrobeniusOrder(2), FrobeniusOrder(3), FrobeniusOrder(2, 2)):
                assert s2d2_identity_check(fan, a, order), (fan.name, a, order.q)


def test_criterion_08_blowup_bookkeeping():
    with criterion("8", "corank oracle through p = 13 and determinant discrepancy"):
        for p in (2, 3, 5, 7, 11, 13):
            assert corank_oracle(p) == p * (p - 1) // 2
        exc = _blown_up_plane().exceptional_class()
        for p in (2, 3, 5):
            report = blowup_bookkeeping_check(p)
            assert report.corank == p * (p - 1) // 2
            assert report.det_discrepancy == report.corank * exc


def test_criterion_09a_jet_dimension_counts():
    with criterion("9a", "jet multiplicities, section counts and dimension count"):
        for p in (2, 3, 5, 7):
            for n in (1, 2):
                report = delpezzo_jet_check(p, n)
                q = p**n
                assert report.p1 == (q - 1) * (q + 4) // 2
                assert report.p2 == (q - 1) * (q - 2) // 2
                assert report.passed


def test_criterion_09b_jet_evaluation_full_rank():
    # The matrix is block diagonal, one block per summand O(d) of
    # O(3q-3) + O(2q-3)^p1 + O(q-3)^p2, with C(d+2,2) section rows and
    # C(q,2) jet columns.  In the translated monomials (x-a)^s (y-b)^t the
    # evaluation is injective for d <= q-2 and surjective for d >= q-2, so
    # each block has rank min(C(d+2,2), C(q,2)) in every characteristic.
    # min(dimH0, jet_conditions) is unreachable once q >= 3: the O(q-3)
    # blocks have fewer rows than columns.
    with criterion("9b", "jet evaluation matrix has full rank block by block, p in {2,3,5}"):
        for p in (2, 3, 5):
            report = delpezzo_jet_check(p, 1, compute_rank=True)
            q = p  # n = 1
            blocks = [(3 * q - 3, 1), (2 * q - 3, report.p1), (q - 3, report.p2)]
            expected = sum(
                mult * min(comb(d + 2, 2), comb(q, 2)) for d, mult in blocks
            )
            assert report.surjective_rank == expected, (
                p,
                report.surjective_rank,
                expected,
            )


def test_criterion_10_fp_engine_cross_validation():
    with criterion("10", "F_p engine agrees with the toric engine; duality and concentration"):
        p2xp2 = product(projective_plane(), projective_plane(), name="P2xP2")
        for d1 in range(-6, 7):
            for d2 in range(-6, 7):
                dims = [0] * 5
                size = _basis_size((d1, d2))
                if size is not None:
                    dims[size[0]] = size[1]
                assert tuple(dims) == cohomology(p2xp2, (d1, 0, 0, d2, 0, 0)).dims
        for p in (2, 3):
            for a in range(-6, 4):
                for b in range(-6, 4):
                    lhs = incidence_cohomology(a, b, p).dims
                    rhs = incidence_cohomology(-2 - a, -2 - b, p).dims
                    assert lhs == tuple(reversed(rhs)), (p, a, b)
        for a, b in ((-1, 0), (0, -1)):
            for p in (2, 3):
                for m in (1, 2):
                    assert concentration_check(a, b, p, m), (a, b, p, m)
