"""Steadiness (A/A) report: two sets of runs of the same commit.

Run from the root of a checkout:

    python3 perfbench/aa.py --runs 10 --sets 2

For each workload and each of ``--runs`` seeds, runs ``perfbench/run.py``
once per set, alternating which set goes first.  Prints, per workload, set
and end-to-end metric, the median, the quartiles (``statistics.quantiles``
with n=4) and the spread, (Q3 - Q1) / median, next to the metric's bound in
BENCHMARK.json; then how far the second set's median moved from the first's,
in the metric's worse direction.  Also prints failed_frac per set.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError("%s failed:\n%s" % (" ".join(cmd), proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma-separated; default: those in BENCHMARK.json")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]

    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    for workload in names:
        results = [[] for _ in range(args.sets)]
        for i in range(args.runs):
            order = range(args.sets) if i % 2 == 0 else reversed(range(args.sets))
            for s in order:
                results[s].append(run_once(workload, args.first_seed + i, seconds))
                print("%s seed %d set %d done" % (workload, args.first_seed + i, s),
                      file=sys.stderr, flush=True)
        print("\n%s: %d runs per set, %g s each" % (workload, args.runs, seconds))
        print("  %-12s %3s %12s %12s %12s %7s %6s %s"
              % ("metric", "set", "median", "q1", "q3", "spread", "bound", ""))
        medians = {}
        for m in metrics:
            for s, runs in enumerate(results):
                values = [r["metrics"][m["name"]]["value"] for r in runs]
                median, q1, q3, spread = summary(values)
                medians.setdefault(m["name"], []).append(median)
                flag = "" if spread <= m["bound"] else "SPREAD OVER BOUND"
                print("  %-12s %3d %12.5g %12.5g %12.5g %7.3f %6.2f %s"
                      % (m["name"], s, median, q1, q3, spread, m["bound"], flag))
                print("  %16s %s" % ("runs:", " ".join("%.4g" % v for v in values)))
        for m in metrics:
            first, *rest = medians[m["name"]]
            for s, median in enumerate(rest, start=1):
                change = (median - first) / first
                worse = change if m["better"] == "lower" else -change
                flag = "" if worse <= m["bound"] else "WORSE THAN BOUND"
                print("  %-12s set %d vs set 0: median moved %+.3f (worse by %+.3f) %s"
                      % (m["name"], s, change, worse, flag))
        for s, runs in enumerate(results):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            correct = all(r["correct"] for r in runs)
            print("  set %d: failed_frac %.4f (%d of %d), correct in every run: %s"
                  % (s, failed / attempted, failed, attempted, correct))


if __name__ == "__main__":
    sys.exit(main())
