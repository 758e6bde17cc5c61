"""Benchmark of toricfrob: four question sets, every answer checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload survey --seed 1 --seconds 40 --trace 0

``--workload all`` runs the four workloads one after another, each in a
process of its own, and ends with one table of every metric with its unit.

One closed-loop client in one process asks the workload's questions one
after another (no threads, no pool), in the order the seed gives, and starts
over until ``--seconds`` have passed; every question is asked at least once.
Each answer is compared with ``perfbench/expected.json``.

With ``--trace 0`` it reports the end-to-end metrics:

- ``wall_s``: time to answer the whole question set, as the sum over the
  questions of each one's median time in the run;
- ``peak_rss_mb``: peak resident memory of this process;
- ``setup_s``: median over seven fresh interpreters, started at even
  intervals during the run, of the time from start to ready
  (``import toricfrob`` plus building the questions).

With ``--trace 1`` it makes one untraced and one traced pass over the
question set (see ``traced_pass``), whatever ``--seconds`` says, and reports
the per-layer metrics of ``tracing.py`` with ``run.trace_overhead_s``
(traced minus untraced wall) and ``run.cpu_s``; the spans go to
``.bench_build/perfbench/``.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
toricfrob sources are imported from ``src/`` of the checkout; without them
the benchmark exits with status 1 before printing a result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED = BENCH_DIR / "expected.json"
TRACE_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 7

sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402
from tracing import SELF_TIME_METRICS, Tracer  # noqa: E402


def import_toricfrob():
    """Import toricfrob from this checkout's ``src``, and nowhere else."""
    src = ROOT / "src"
    package = src / "toricfrob"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no toricfrob sources in {src}")
    sys.path.insert(0, str(src))
    import toricfrob

    if Path(toricfrob.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported toricfrob from {toricfrob.__file__}")
    return toricfrob


def load_expected(workload: str) -> dict:
    return json.loads(EXPECTED.read_text())[workload]


def check(qid: str, ask, expected: dict) -> bool:
    """Ask one question; True when it answers the expected value."""
    try:
        answer = ask()
    except Exception as exc:  # noqa: BLE001 - a raise is a failed question
        print(f"FAIL {qid}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return False
    answer = json.loads(json.dumps(answer))
    if answer != expected.get(qid):
        print(f"FAIL {qid}: got {answer}, expected {expected.get(qid)}",
              file=sys.stderr)
        return False
    return True


class Run:
    """Per-question times and answer checks of one closed-loop run."""

    def __init__(self, questions):
        self.times = {q.qid: [] for q in questions}
        self.cpu_times = {q.qid: [] for q in questions}
        self.attempted = 0
        self.failed = 0
        self.wall = 0.0

    def ask(self, question, expected, wrap=None) -> None:
        start, cpu0 = time.perf_counter(), time.process_time()
        if wrap is None:
            ok = check(question.qid, question.ask, expected)
        else:
            ok = wrap(lambda: check(question.qid, question.ask, expected))
        self.times[question.qid].append(time.perf_counter() - start)
        self.cpu_times[question.qid].append(time.process_time() - cpu0)
        self.attempted += 1
        self.failed += not ok

    def set_wall(self) -> float:
        """Time to answer the question set once: the sum of the medians."""
        return sum(statistics.median(t) for t in self.times.values())

    def set_cpu(self) -> float:
        return sum(statistics.median(t) for t in self.cpu_times.values())


def closed_loop(questions, expected, seconds: float, between=None) -> Run:
    """Ask the questions in order, round after round, for ``seconds``.

    ``between(elapsed)`` runs before each question, outside its timing.
    """
    run = Run(questions)
    start = time.perf_counter()
    i = 0
    while i < len(questions) or time.perf_counter() - start < seconds:
        if between:
            between(time.perf_counter() - start)
        run.ask(questions[i % len(questions)], expected)
        i += 1
    run.wall = time.perf_counter() - start
    return run


def traced_pass(tf, questions, expected):
    """One untraced and one traced pass, asked question by question.

    Each question is asked untraced and traced back to back, alternating
    which goes first, so that warm-up and slow drifts of the machine fall on
    both passes alike.  Each pass's wall is the sum of its question times.
    """
    tracer = Tracer()
    untraced, traced = Run(questions), Run(questions)
    for i, q in enumerate(questions):
        for trace in (i % 2, 1 - i % 2):
            if not trace:
                untraced.ask(q, expected)
                continue
            tracer.install(tf)
            try:
                traced.ask(q, expected, wrap=tracer.question)
            finally:
                tracer.uninstall()
    for run in (untraced, traced):
        run.wall = sum(t for times in run.times.values() for t in times)
    return tracer, untraced, traced


class SetupProbes:
    """Fresh interpreters timed from start to ready, spread over the run.

    Spreading the probes over the measured window, rather than running them
    back to back, keeps a burst of load on the machine from moving them all.
    """

    def __init__(self, workload: str, seed: int, seconds: float):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
                    workload, "--seed", str(seed), "--setup-probe"]
        self.seconds = seconds
        self.samples = []

    def probe(self) -> None:
        start = time.perf_counter()
        with subprocess.Popen(self.cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            self.samples.append(time.perf_counter() - start)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"perfbench: setup probe failed ({proc.returncode})")

    def __call__(self, elapsed: float) -> None:
        due = SETUP_PROBES
        if elapsed < self.seconds:
            due *= elapsed / self.seconds
        if len(self.samples) < due:
            self.probe()

    def median(self) -> float:
        while len(self.samples) < SETUP_PROBES:
            self.probe()
        return statistics.median(self.samples)


def unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes_computed"):
        return "bytes"
    return "count"


def result_line(runs, metrics: dict) -> str:
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    })


def print_summary(workload, runs, metrics, untraced):
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    print(f"workload {workload}: {attempted} questions asked, {failed} failed")
    print(f"  {'failed_ratio':44s} {failed / attempted:16.6g} ratio")
    for qid, times in untraced.times.items():
        print(f"  {qid:40s} median {statistics.median(times):8.4f} s "
              f"over {len(times)}")
    wall = metrics.get("run.traced_wall_s")
    for name, value in metrics.items():
        share = ""
        if wall and name in SELF_TIME_METRICS:
            share = f"  {100 * value / wall:5.1f}% of traced wall"
        print(f"  {name:44s} {value:16.6g} {unit(name)}{share}")


def run_all(args) -> int:
    """Run every workload in a process of its own; print one table."""
    table = []
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        table.append((workload, "failed_ratio",
                      result["failed"] / result["attempted"], "ratio"))
        table.extend((workload, name, m["value"], m["unit"])
                     for name, m in result["metrics"].items())
    for workload, name, value, unit_name in table:
        print(f"{workload:14s} {name:44s} {value:16.6g} {unit_name}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    tf = import_toricfrob()
    if args.setup_probe:
        workloads.questions(tf, args.workload, args.seed)
        print("ready", flush=True)
        return 0

    expected = load_expected(args.workload)
    questions = workloads.questions(tf, args.workload, args.seed)
    if not args.trace:
        probes = SetupProbes(args.workload, args.seed, args.seconds)
        untraced = closed_loop(questions, expected, args.seconds, between=probes)
        runs = [untraced]
        metrics = {
            "wall_s": untraced.set_wall(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": probes.median(),
        }
    else:
        tracer, untraced, traced = traced_pass(tf, questions, expected)
        tracer.write(TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json")
        runs = [untraced, traced]
        metrics = tracer.metrics()
        metrics["run.cpu_s"] = untraced.set_cpu()
        metrics["run.traced_wall_s"] = traced.wall
        metrics["run.trace_overhead_s"] = traced.wall - untraced.wall
    print_summary(args.workload, runs, metrics, untraced)
    print(result_line(runs, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
