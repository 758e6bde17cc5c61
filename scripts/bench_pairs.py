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

``--cold-runs N`` adds, outside the benchmark, N alternating runs per side of
the seven-q survey in one fresh interpreter: ``import toricfrob`` and then
``catalog_run`` at q = 2, 3, 4, 5, 7, 8, 9 in turn, import included.  It also
times ``incidence_cohomology`` at each of the large twists (30, -32) and
(40, -42) with p = 3, N alternating runs per side, each in a fresh
interpreter, and records that interpreter's peak RSS (``ru_maxrss``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
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

# One large incidence twist in a fresh interpreter: seconds and peak RSS (MB).
LARGE_TWISTS = ((30, -32, 3), (40, -42, 3))
LARGE_TWIST = """
import resource, sys, time
sys.path[:0] = ["src"]
from toricfrob import incidence_cohomology
start = time.perf_counter()
incidence_cohomology({}, {}, {})
print(time.perf_counter() - start,
      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``; the JSON object of its last line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def cold_pass(tree: Path) -> float:
    proc = subprocess.run([sys.executable, "-c", COLD_PASS], cwd=tree,
                          capture_output=True, text=True, check=True)
    return round(float(proc.stdout), 4)


def large_twist(tree: Path, twist) -> tuple:
    proc = subprocess.run([sys.executable, "-c", LARGE_TWIST.format(*twist)],
                          cwd=tree, capture_output=True, text=True, check=True)
    seconds, rss = map(float, proc.stdout.split())
    return round(seconds, 4), round(rss, 1)


def summary(runs: list) -> dict:
    # the quartiles of a single run are that run
    q1, _, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                 if len(runs) > 1 else runs * 3)
    return {"median": round(statistics.median(runs), 4), "q1": round(q1, 4),
            "q3": round(q3, 4), "iqr": round(q3 - q1, 4),
            "runs": [round(x, 4) for x in runs]}


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
    record["all_correct"] = all(r["correct"] for r in old + new)
    for key in ("attempted", "failed"):
        record[key] = {"parent": sum(r[key] for r in old),
                       "change": sum(r[key] for r in new)}
    return record


def git_head(tree: Path):
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=tree,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", action="append", default=[], metavar="W=N",
                        help="run N pairs of workload W (repeatable)")
    parser.add_argument("--seed", type=int, default=1001)
    parser.add_argument("--cold-runs", type=int, default=0)
    parser.add_argument("--claim", metavar="W", help="the workload whose wall_s is claimed")
    parser.add_argument("--note", default="", help="what the change does")
    args = parser.parse_args(argv)

    config = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    out = {
        "change": args.note,
        "parent_commit": git_head(args.parent),
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> "
                   f"--seconds {seconds:g} --trace 0",
        "method": "parent and change each run from its own copy of the tracked "
                  "files; one parent and one change run per seed, alternating "
                  "which side runs first; statistics over the runs of each side "
                  "(median, quartiles by the inclusive method)",
        "machine": {"cores": os.cpu_count(), "cpu": platform.processor() or "unknown",
                    "python": platform.python_version(), "numpy": np.__version__,
                    "arch": platform.machine()},
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
                "unit": "s", "parent": summary(old), "change": summary(new),
            },
        }
        for twist in LARGE_TWISTS:
            print(f"incidence_cohomology{twist}, cold", file=sys.stderr, flush=True)
            old, new = alternate(args.cold_runs,
                                 lambda i: large_twist(args.parent, twist),
                                 lambda i: large_twist(args.change, twist))
            out["outside_benchmark"]["incidence_cohomology_%d_%d_p%d" % twist] = {
                "command": "python -c: import toricfrob, then time "
                           f"incidence_cohomology{twist}; peak RSS is the "
                           "interpreter's ru_maxrss",
                "wall_s": {"unit": "s",
                           "parent": summary([t for t, _ in old]),
                           "change": summary([t for t, _ in new])},
                "peak_rss_mb": {"unit": "MB",
                                "parent": summary([m for _, m in old]),
                                "change": summary([m for _, m in new])},
            }
    args.out.write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
