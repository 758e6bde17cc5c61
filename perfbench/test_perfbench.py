"""Tests of the benchmark itself (not of toricfrob).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import json
import sys

import pytest

import run
import workloads
from tracing import SELF_TIME_METRICS, Tracer

tf = run.import_toricfrob()


def _namespaces():
    return {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if name.split(".")[0] == "toricfrob"
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_quick_answers_equal_traced_and_untraced(workload):
    questions = workloads.questions(tf, workload, seed=3, quick=True)
    expected = run.load_expected(workload)
    untraced = {q.qid: q.ask() for q in questions}
    originals = _namespaces()
    tracer = Tracer()
    tracer.install(tf)
    try:
        traced = {q.qid: tracer.question(q.ask) for q in questions}
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert json.loads(json.dumps(traced)) == {k: expected[k] for k in traced}
    assert _namespaces() == originals
    roots = [s for s in tracer.spans if s[1] < 0]
    assert len(roots) == len(questions) < len(tracer.spans)


def test_wrong_or_raising_answer_counts_as_failure():
    questions = workloads.questions(tf, "fp-ranks", seed=0, quick=True)
    expected = copy.deepcopy(run.load_expected("fp-ranks"))
    assert run.closed_loop(questions, expected, seconds=0).failed == 0

    expected["jet q=5"]["surjective_rank"] += 1
    result = run.closed_loop(questions, expected, seconds=0)
    assert (result.attempted, result.failed) == (2, 1)

    def boom():
        raise ValueError("no answer")

    result = run.closed_loop([workloads.Question("jet q=5", boom)], expected, 0)
    assert (result.attempted, result.failed) == (1, 1)


def test_layer_self_times_sum_to_traced_wall():
    questions = workloads.questions(tf, "survey", seed=0, quick=True)
    expected = run.load_expected("survey")
    tracer, untraced, traced = run.traced_pass(tf, questions, expected)
    metrics = tracer.metrics()
    overhead = traced.wall - untraced.wall
    gap = traced.wall - sum(metrics[name] for name in SELF_TIME_METRICS)
    assert 0 <= gap <= abs(overhead)
    assert metrics["catalog.run_calls"] == 1
    assert metrics["frobenius.ask_ratio"] == 12 / 48
