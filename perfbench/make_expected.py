"""Write ``perfbench/expected.json`` from the engine's own answers.

    python3 perfbench/make_expected.py

Every input variant that a seed can choose is asked (both factor orders of
each 4-fold product, every jet evaluation point); the file is written only
when all variants of a question give the same answer, so the expected values
do not depend on the seed.
"""

from __future__ import annotations

import json
import sys

import run
import workloads as w


def _agree(qid, answers):
    first = json.loads(json.dumps(answers[0]))
    for other in answers[1:]:
        if json.loads(json.dumps(other)) != first:
            raise SystemExit(f"{qid}: variants disagree: {first} vs {other}")
    return first


def main() -> int:
    tf = run.import_toricfrob()
    out = {name: {} for name in w.WORKLOADS}
    for p, n in w.SURVEY_ORDERS:
        out["survey"][f"catalog q={p**n}"] = w.survey_answer(tf, p, n)
    for p, n in w.HIGHQ_ORDERS:
        for e in tf.catalog_entries():
            out["survey-highq"][f"tilting {e.key} q={p**n}"] = w.tilting_answer(
                tf, e.build(), p, n)
    for first, second in w.FOURFOLD_FACTORS:
        qid = f"tilting {first}x{second} q=2"
        out["fourfold"][qid] = _agree(qid, [
            w.tilting_answer(tf, w.fourfold_fan(tf, *pair), 2, 1)
            for pair in ((first, second), (second, first))
        ])
    for p, n in w.JET_ORDERS:
        qid = f"jet q={p**n}"
        out["fp-ranks"][qid] = _agree(
            qid, [w.jet_answer(tf, p, n, pt) for pt in w.jet_points(p)])
    for a, b in w.INCIDENCE_TWISTS:
        qid = f"incidence ({a},{b}) p={w.INCIDENCE_P}"
        out["fp-ranks"][qid] = w.incidence_answer(tf, a, b)
    run.EXPECTED.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
