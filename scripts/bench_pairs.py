"""Paired parent/change runs of the benchmark, written as one BENCH_<n>.json.

Run from anywhere, with two checkouts of the repository, each holding its own
copy of the tracked files:

    python scripts/bench_pairs.py PARENT CHANGE --out BENCH_10.json \\
        --pairs fp-ranks=10 --pairs survey=5 --cold-runs 6 --claim fp-ranks \\
        --note "what the change does"

For each workload it runs ``python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0`` once in each checkout per seed, alternating which side
runs first, with T the ``run_seconds`` of the parent's ``BENCHMARK.json``.
Seeds count up from ``--seed``, one per pair.  Each end-to-end metric gets
each side's median and inclusive quartiles, the change's relative median, and
the number of pairs the change won (ties count for neither side).
``peak_rss_mb`` also carries each side's questions asked per run
(``attempted``, as a summary), so that a rise in RSS that comes with more
attempts can be told from one in the library's own memory.

``--cold-runs N`` adds, outside the benchmark, N alternating runs per side of
the seven-q survey in one fresh interpreter: ``import toricfrob`` and then
``catalog_run`` at q = 2, 3, 4, 5, 7, 8, 9 in turn, import included.  It also
times ``incidence_cohomology`` at each of the large twists (30, -32),
(40, -42) and (50, -52) with p = 3, and the jet ranks ``delpezzo_jet_check(p,
n, compute_rank=True)`` at q = 25 (p = 5), q = 29 (p = 29) and q = 32
(p = 2), and ``scripts/reproduce.py --primes 2,3,5`` (its ``main``, whose
last step asks the incidence concentration checks), N alternating runs per
side, each in a fresh interpreter after ``import toricfrob``.  Each run
records its wall time, its CPU time (``ru_utime + ru_stime`` over the same
span), so that a loaded host can be told from a slower change, and the
interpreter's peak RSS (``ru_maxrss``).  A question a side refuses with
``Overflow`` records the number of refused runs in place of its times.

Each benchmark run, each seven-q pass and each cold call also records the
host's steal time over it (``steal_s``): the 8th value on the ``cpu`` line of
``/proc/stat``, summed over the host's CPUs, read before and after the run
and taken in seconds.  Time a hypervisor gave to other guests shows there,
not in the run's own CPU time; where ``/proc/stat`` is absent it reads 0.
Each benchmark run and each seven-q pass records its child process's CPU
time (``cpu_s``), the ``RUSAGE_CHILDREN`` user and system time gained over
the run, so a run slowed by CPU work can be told from one that waited.

For each tree it also records the size of the library, the lines of the
``.py`` files under ``src/toricfrob``; the lines of the ``.py`` files under
``tests``, so that lines moved from the library into the tests show; and the
``tracemalloc`` peak of ``compile()`` on ``src/toricfrob/cech.py`` in a
fresh interpreter, the cost that module's bytecode compilation adds to a
cold process's peak RSS.

``--interleave SECONDS`` adds, for each workload of ``--pairs``, a run in this
one process: both checkouts' ``toricfrob`` are imported under the distinct
package names ``toricfrob_parent`` and ``toricfrob_change``, and the
workload's questions (from the parent's ``perfbench/workloads.py``, first
seed) are asked of each side alternately, question by question, for SECONDS,
the side that goes first alternating by round.  Every answer is checked
against the parent's ``perfbench/expected.json``.  Each question gets each
side's median time, and the set its summed medians, as ``wall_s`` sums them.
Both sides then share the machine's load moment by moment, which separate
runs do not.  These runs come after the cold runs, whose peak RSS would
otherwise start from this process's own.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

METRICS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# The survey workload's seven (p, n), read from the checkout's own perfbench.
COLD_PASS = """
import sys, time
sys.path[:0] = ["src", "perfbench"]
from workloads import SURVEY_ORDERS
start = time.perf_counter()
import toricfrob
for p, n in SURVEY_ORDERS:
    toricfrob.catalog_run(p, n)
print(time.perf_counter() - start)
"""

# Questions outside the benchmark, keyed by their record's name, each asked
# once in a fresh interpreter: wall seconds, CPU seconds and peak RSS (MB).
COLD_CALLS = {
    "incidence_cohomology_30_-32_p3": "toricfrob.incidence_cohomology(30, -32, 3)",
    "incidence_cohomology_40_-42_p3": "toricfrob.incidence_cohomology(40, -42, 3)",
    "incidence_cohomology_50_-52_p3": "toricfrob.incidence_cohomology(50, -52, 3)",
    "delpezzo_jet_check_q25_p5": "toricfrob.delpezzo_jet_check(5, 2, compute_rank=True)",
    "delpezzo_jet_check_q29_p29": "toricfrob.delpezzo_jet_check(29, 1, compute_rank=True)",
    "delpezzo_jet_check_q32_p2": "toricfrob.delpezzo_jet_check(2, 5, compute_rank=True)",
    "reproduce_primes_2_3_5": "import reproduce; reproduce.main(['--primes', '2,3,5'])",
}
# The last line printed is the measurement; a question the tree refuses with
# Overflow prints "refused" for its times.
COLD_CALL = """
import resource, sys, time
sys.path[:0] = ["src", "scripts"]
import toricfrob


def cpu():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


start, cpu_start = time.perf_counter(), cpu()
try:
    {}
    seconds, cpu_s = time.perf_counter() - start, cpu() - cpu_start
except toricfrob.Overflow:
    seconds = cpu_s = "refused"
print(seconds, cpu_s, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""

# The tracemalloc peak (MB) of compiling cech.py, in a fresh interpreter.
COMPILE_PEAK = """
import tracemalloc
source = open("src/toricfrob/cech.py").read()
tracemalloc.start()
compile(source, "cech.py", "exec")
print(tracemalloc.get_traced_memory()[1] / 2**20)
"""


def steal_s() -> float:
    """The host's steal time so far, in seconds, from ``/proc/stat``."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except OSError:
        return 0.0
    if fields[:1] != ["cpu"] or len(fields) < 9:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def children_cpu_s() -> float:
    """User and system seconds of every child this process has waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measured(run):
    """(what ``run()`` returns, the CPU seconds of the children it waited
    for, the host's steal seconds over it)."""
    steal, cpu = steal_s(), children_cpu_s()
    result = run()
    return result, round(children_cpu_s() - cpu, 4), round(steal_s() - steal, 4)


def tree_size(tree: Path) -> dict:
    """Lines of the library's source and of its tests, and the peak of
    compiling cech.py.  The test lines show whether lines that left the
    library moved into the tests."""
    def lines(folder: Path) -> int:
        return sum(len(path.read_text().splitlines()) for path in folder.rglob("*.py"))

    proc = subprocess.run([sys.executable, "-c", COMPILE_PEAK], cwd=tree,
                          capture_output=True, text=True, check=True)
    return {"src_toricfrob_lines": lines(tree / "src" / "toricfrob"),
            "tests_lines": lines(tree / "tests"),
            "cech_compile_peak_mb": round(float(proc.stdout), 3)}


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: the JSON object of its last line, with
    the run's CPU seconds added as ``cpu_s`` and the host's steal seconds
    over it as ``steal_s``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc, cpu, steal = measured(lambda: subprocess.run(
        cmd, cwd=tree, capture_output=True, text=True, check=True))
    return {**json.loads(proc.stdout.splitlines()[-1]), "cpu_s": cpu, "steal_s": steal}


def cold_pass(tree: Path) -> tuple:
    """(wall seconds, CPU seconds, steal seconds) of one seven-q pass."""
    proc, cpu, steal = measured(lambda: subprocess.run(
        [sys.executable, "-c", COLD_PASS], cwd=tree, capture_output=True,
        text=True, check=True))
    return round(float(proc.stdout), 4), cpu, steal


def cold_call(tree: Path, call: str) -> tuple:
    """(wall seconds, CPU seconds, peak RSS in MB, steal seconds) of one cold
    call."""
    # the child times its call alone, so its interpreter start-up is left out
    proc, _, steal = measured(lambda: subprocess.run(
        [sys.executable, "-c", COLD_CALL.format(call)], cwd=tree,
        capture_output=True, text=True, check=True))
    seconds, cpu_s, rss = proc.stdout.splitlines()[-1].split()
    return (*(x if x == "refused" else round(float(x), 4) for x in (seconds, cpu_s)),
            round(float(rss), 1), steal)


def summary(runs: list) -> dict:
    # the quartiles of a single run are that run
    q1, _, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                 if len(runs) > 1 else runs * 3)
    return {"median": round(statistics.median(runs), 4), "q1": round(q1, 4),
            "q3": round(q3, 4), "iqr": round(q3 - q1, 4),
            "runs": [round(x, 4) for x in runs]}


def timings(runs: list) -> dict:
    """summary() of the runs' seconds, or how many runs were refused."""
    refused = runs.count("refused")
    return {"refused": refused} if refused else summary(runs)


def alternate(count: int, parent, change):
    """Call ``parent`` and ``change`` ``count`` times each, alternating the
    side that goes first; returns the two lists of results."""
    out = {"parent": [], "change": []}
    for i in range(count):
        sides = (("parent", parent), ("change", change))
        for side, fn in sides if i % 2 == 0 else sides[::-1]:
            out[side].append(fn(i))
            print(f"  {side} {i}: {json.dumps(out[side][-1])}", file=sys.stderr,
                  flush=True)
    return out["parent"], out["change"]


def workload_record(parent: Path, change: Path, workload: str, pairs: int,
                    first_seed: int, seconds: float) -> dict:
    seeds = list(range(first_seed, first_seed + pairs))
    print(f"{workload}: seeds {seeds}", file=sys.stderr, flush=True)
    old, new = alternate(
        pairs,
        lambda i: bench_run(parent, workload, seeds[i], seconds),
        lambda i: bench_run(change, workload, seeds[i], seconds),
    )
    record = {"seeds": seeds, "pairs": pairs}
    for name, unit in METRICS.items():
        a = [r["metrics"][name]["value"] for r in old]
        b = [r["metrics"][name]["value"] for r in new]
        before, after = summary(a), summary(b)
        record[name] = {
            "unit": unit, "parent": before, "change": after,
            "change_vs_parent_median": round(after["median"] / before["median"] - 1, 4),
            "pairs_change_lower": sum(y < x for x, y in zip(a, b)),
        }
    # a run that asks more questions holds more of perfbench's own per-attempt
    # records, so its RSS rises without any library memory behind it
    record["peak_rss_mb"]["attempted"] = {
        "parent": summary([r["attempted"] for r in old]),
        "change": summary([r["attempted"] for r in new])}
    for name in ("cpu_s", "steal_s"):
        record[name] = {"unit": "s",
                        "parent": summary([r[name] for r in old]),
                        "change": summary([r[name] for r in new])}
    record["all_correct"] = all(r["correct"] for r in old + new)
    for key in ("attempted", "failed"):
        record[key] = {"parent": sum(r[key] for r in old),
                       "change": sum(r[key] for r in new)}
    return record


def load(name: str, path: Path, package: bool = False):
    """The module (or, with ``package``, the package) at ``path``, imported
    and registered as ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py" if package else path,
        submodule_search_locations=[str(path)] if package else None)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def interleaved_record(parent: Path, change: Path, workload: str, seed: int,
                       seconds: float) -> dict:
    """Ask the workload's questions of both sides alternately, in process."""
    workloads = load("perfbench_workloads", parent / "perfbench" / "workloads.py")
    expected = json.loads((parent / "perfbench" / "expected.json").read_text())[workload]
    sides = {side: workloads.questions(
                 load(f"toricfrob_{side}", tree / "src" / "toricfrob", package=True),
                 workload, seed)
             for side, tree in (("parent", parent), ("change", change))}
    qids = [q.qid for q in sides["parent"]]
    times = {side: {qid: [] for qid in qids} for side in sides}
    correct, rounds, start = True, 0, time.perf_counter()
    print(f"{workload}: interleaved, seed {seed}", file=sys.stderr, flush=True)
    while rounds < 1 or time.perf_counter() - start < seconds:
        order = ("parent", "change") if rounds % 2 == 0 else ("change", "parent")
        for k, qid in enumerate(qids):
            for side in order:
                question = sides[side][k]
                begin = time.perf_counter()
                answer = question.ask()
                times[side][qid].append(time.perf_counter() - begin)
                correct &= json.loads(json.dumps(answer)) == expected[qid]
        rounds += 1
    record = {"seed": seed, "seconds": seconds, "rounds": rounds,
              "all_correct": correct, "questions": {}}
    for qid in qids:
        before, after = (statistics.median(times[side][qid]) for side in sides)
        record["questions"][qid] = {
            "parent_median_s": round(before, 6), "change_median_s": round(after, 6),
            "change_vs_parent": round(after / before - 1, 4)}
    before, after = (sum(statistics.median(t) for t in times[side].values())
                     for side in sides)
    record["wall_s"] = {"unit": "s", "parent": round(before, 6),
                        "change": round(after, 6),
                        "change_vs_parent": round(after / before - 1, 4)}
    return record


def git_rev(tree: Path, rev: str):
    """The short commit of ``rev`` in ``tree``, or None if it is no checkout."""
    if not (tree / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "--short", rev], cwd=tree,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def parent_commit(parent: Path, change: Path) -> tuple:
    """(commit, where it was read) of the parent tree.

    A parent checkout names its own HEAD.  A parent exported without .git is
    the change checkout's HEAD~1 once the change is committed there, and its
    HEAD while tracked files still differ from it."""
    commit = git_rev(parent, "HEAD")
    if commit:
        return commit, "parent tree: git rev-parse HEAD"
    dirty = git_rev(change, "HEAD") and subprocess.run(
        ["git", "diff", "--quiet", "HEAD"], cwd=change).returncode == 1
    rev = "HEAD" if dirty else "HEAD~1"
    commit = git_rev(change, rev)
    return commit, f"change tree: git rev-parse {rev}" if commit else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", action="append", default=[], metavar="W=N",
                        help="run N pairs of workload W (repeatable)")
    parser.add_argument("--seed", type=int, default=1001)
    parser.add_argument("--cold-runs", type=int, default=0)
    parser.add_argument("--interleave", type=float, default=0, metavar="SECONDS",
                        help="also ask each workload of --pairs of both sides "
                             "alternately in one process for SECONDS")
    parser.add_argument("--claim", metavar="W", help="the workload whose wall_s is claimed")
    parser.add_argument("--note", default="", help="what the change does")
    args = parser.parse_args(argv)

    config = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    commit, source = parent_commit(args.parent, args.change)
    out = {
        "change": args.note,
        "parent_commit": commit,
        "parent_commit_source": source,
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> "
                   f"--seconds {seconds:g} --trace 0",
        "method": "parent and change each run from its own copy of the tracked "
                  "files; one parent and one change run per seed, alternating "
                  "which side runs first; statistics over the runs of each side "
                  "(median, quartiles by the inclusive method)",
        "machine": {"cores": os.cpu_count(), "cpu": platform.processor() or "unknown",
                    "python": platform.python_version(), "numpy": np.__version__,
                    "arch": platform.machine()},
        "trees": {"parent": tree_size(args.parent), "change": tree_size(args.change)},
        "workloads": {},
    }
    seed = args.seed
    for spec in args.pairs:
        workload, count = spec.split("=")
        out["workloads"][workload] = workload_record(
            args.parent, args.change, workload, int(count), seed, seconds)
        seed += int(count)
    if args.claim:
        wall = out["workloads"][args.claim]["wall_s"]
        out["claimed"] = {
            "workload": args.claim, "metric": "wall_s",
            "pairs": out["workloads"][args.claim]["pairs"],
            "pairs_change_lower": wall["pairs_change_lower"],
            "change_vs_parent_median": wall["change_vs_parent_median"],
            "parent_iqr": wall["parent"]["iqr"],
        }
    if args.cold_runs:
        print("seven-q cold pass", file=sys.stderr, flush=True)
        old, new = alternate(args.cold_runs, lambda i: cold_pass(args.parent),
                             lambda i: cold_pass(args.change))
        out["outside_benchmark"] = {
            "note": "not part of BENCHMARK.json: the cold cost a single process "
                    f"pays once; {args.cold_runs} alternating runs per side, each "
                    "in a fresh interpreter",
            "seven_q_cold_pass": {
                "command": "python -c: import toricfrob, then catalog_run at "
                           "q = 2, 3, 4, 5, 7, 8, 9 in turn (import included)",
                "unit": "s",
                "parent": summary([t for t, _, _ in old]),
                "change": summary([t for t, _, _ in new]),
                "cpu_s": {"parent": summary([c for _, c, _ in old]),
                          "change": summary([c for _, c, _ in new])},
                "steal_s": {"parent": summary([s for _, _, s in old]),
                            "change": summary([s for _, _, s in new])},
            },
        }
        for name, call in COLD_CALLS.items():
            print(f"{call}, cold", file=sys.stderr, flush=True)
            old, new = alternate(args.cold_runs,
                                 lambda i: cold_call(args.parent, call),
                                 lambda i: cold_call(args.change, call))
            out["outside_benchmark"][name] = {
                "command": f"python -c: import toricfrob, then time {call}; "
                           "CPU time is ru_utime + ru_stime over the same span; "
                           "peak RSS is the interpreter's ru_maxrss",
                "wall_s": {"unit": "s",
                           "parent": timings([t for t, _, _, _ in old]),
                           "change": timings([t for t, _, _, _ in new])},
                "cpu_s": {"unit": "s",
                          "parent": timings([c for _, c, _, _ in old]),
                          "change": timings([c for _, c, _, _ in new])},
                "peak_rss_mb": {"unit": "MB",
                                "parent": summary([m for _, _, m, _ in old]),
                                "change": summary([m for _, _, m, _ in new])},
                "steal_s": {"unit": "s",
                            "parent": summary([s for _, _, _, s in old]),
                            "change": summary([s for _, _, _, s in new])},
            }
    # last: a child's ru_maxrss counts this process's resident size when it
    # was spawned, and the interleaved runs grow it by two imported trees
    if args.interleave:
        out["interleaved"] = {
            workload: interleaved_record(args.parent, args.change, workload,
                                         args.seed, args.interleave)
            for workload in (spec.split("=")[0] for spec in args.pairs)
        }
    args.out.write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
