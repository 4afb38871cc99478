#!/usr/bin/env python3
"""Runs each workload N times with different seeds and prints, for every
end-to-end metric, its median, quartiles and spread (interquartile range
over median) against the bound BENCHMARK.json gives it.

    python3 perfbench/steady.py --runs 10 [--workload churn_audit ...]
                                [--first-seed 1] [--seconds S] [--verbose]

Seeds are first-seed, first-seed+1, ...; the run length defaults to
BENCHMARK.json's run_seconds. Exits non-zero when a run fails, reports
incorrect output, or a spread (setup_s excepted) exceeds its bound.
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
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--verbose", action="store_true",
                        help="also print every run's value")
    args = parser.parse_args()

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in workloads:
        results = []
        for i in range(args.runs):
            result = run_once(workload, args.first_seed + i, args.seconds)
            if result is None or not result["correct"]:
                print("%s seed %d: run failed or incorrect" %
                      (workload, args.first_seed + i))
                ok = False
                continue
            results.append(result)
        if not results:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print("%s: %d runs, failed share %s" %
              (workload, len(results), ", ".join("%.6f" % s for s in shares)))
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            flag = ""
            if spread > metric["bound"] and metric["name"] != "setup_s":
                flag = "  OVER BOUND"
                ok = False
            elif spread > metric["bound"] / 3:
                flag = "  above bound/3"
            print("  %-16s median %12.4f %-3s  q1 %12.4f  q3 %12.4f  "
                  "spread %.3f / bound %.2f%s" %
                  (metric["name"], median, metric["unit"], q1, q3, spread,
                   metric["bound"], flag))
            if args.verbose:
                print("    " + " ".join("%.5g" % v for v in values))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
