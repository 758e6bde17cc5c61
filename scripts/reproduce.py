#!/usr/bin/env python3
"""Run the full survey: catalog Ext tables, surface verdicts, structural
checks, blow-up bookkeeping, jet counts and the F_p cross-validation.

Usage: python3 scripts/reproduce.py [--primes 2,3,5]
"""

import argparse
import sys
import time

from toricfrob import (
    FrobeniusOrder,
    blowup_bookkeeping_check,
    concentration_check,
    corank_oracle,
    delpezzo_jet_check,
    named_variety,
    pbundle_check,
    tilting_verdict,
)
from toricfrob.catalog import MAX_Q_THREEFOLD, catalog_run
from toricfrob.varieties import BUNDLE_SPECS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--primes", default="2,3,5")
    args = parser.parse_args(argv)
    primes = [int(x) for x in args.primes.split(",")]
    start = time.time()

    print("== toric Fano threefold survey ==")
    for p in primes:
        if p > MAX_Q_THREEFOLD:
            print(f"p={p}: skipped (q exceeds the threefold bound)")
            continue
        result = catalog_run(p, 1)
        print(f"-- p = {p} --")
        for row in result["rows"]:
            if "error" in row:
                print(f"  {row['key']:24s} ERROR {row['error']}")
            else:
                print(
                    f"  {row['key']:24s} Ext dims {row['dims']}  "
                    f"vanishing={row['strong_exceptional']}  "
                    f"contains collection={row['contains_collection']}"
                )
        print(f"  summary: {result['summary']}")

    print("\n== blown-up plane (ruled surface) ==")
    surface = named_variety("F1")
    for p in primes:
        verdict = tilting_verdict(surface, FrobeniusOrder(p))
        print(
            f"  p={p}: vanishing={verdict.strong_exceptional} "
            f"contains collection={verdict.contains_collection}"
        )

    print("\n== projective bundle structure checks ==")
    for key, build in BUNDLE_SPECS.items():
        base, degrees = build()
        for p in (2, 3):
            ok = pbundle_check(base, degrees, FrobeniusOrder(p))
            print(f"  {key:24s} p={p}: {'ok' if ok else 'MISMATCH'}")

    print("\n== blow-up bookkeeping ==")
    for p in (2, 3, 5):
        report = blowup_bookkeeping_check(p)
        print(
            f"  p={p}: corank {report.corank} (oracle {corank_oracle(p)}), "
            f"determinant discrepancy O{report.det_discrepancy.coords}"
        )

    print("\n== plane jet counts ==")
    for p in (2, 3, 5):
        report = delpezzo_jet_check(p, 1, compute_rank=(p <= 5))
        print(
            f"  p={p}: q={report.q} p1={report.p1} p2={report.p2} "
            f"h0={report.dimH0} conditions={report.jet_conditions} "
            f"rank={report.surjective_rank} dimension count "
            f"{'passed' if report.passed else 'failed'}"
        )

    print("\n== incidence threefold concentration ==")
    for a, b in ((-1, 0), (0, -1)):
        for p in (2, 3):
            checks = [concentration_check(a, b, p, m) for m in (1, 2)]
            print(f"  O({a},{b}) p={p}: {checks}")

    print(f"\ndone in {time.time() - start:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
