#!/usr/bin/env python3
"""Steadiness check: runs one workload several times and reports the spread.

    python3 perfbench/steady.py --workload serve [--runs 10] [--first-seed 1]
                                [--seconds S] [--trace 0|1]

Each run uses its own seed (first-seed, first-seed + 1, ...). For every
metric the tool prints the median, the quartiles (statistics.quantiles with
n=4) and the spread (Q3 - Q1) / median. With --trace 0 it flags every
end-to-end metric of BENCHMARK.json whose spread exceeds its bound (setup_s
is reported but not flagged: set-up is compared by median only) and exits
non-zero when any is flagged or any run failed, was wrong, or failed a
different share of its operations than the first run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, "exit %d" % proc.returncode
    return json.loads(lines[-1]), None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    values = {}
    shares = []
    problems = []
    for k in range(args.runs):
        seed = args.first_seed + k
        result, err = run_once(args.workload, seed, args.seconds, args.trace)
        if result is None:
            problems.append("seed %d: %s" % (seed, err))
            continue
        if not result["correct"]:
            problems.append("seed %d: wrong output" % seed)
        shares.append((result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d done: attempted %d failed %d" % (seed, result["attempted"],
                                                        result["failed"]), file=sys.stderr)
    if shares and any(f * shares[0][1] != shares[0][0] * a for f, a in shares):
        problems.append("failed share differs between runs: %s" % shares)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print("%-44s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if args.trace == 0 and bound is not None and name != "setup_s" and spread > bound:
            flag = "  SPREAD > BOUND"
            problems.append("%s spread %.3f > bound %.3f" % (name, spread, bound))
        elif args.trace == 0 and bound is not None and spread > bound / 3:
            flag = "  (over a third of the bound)"
        print("%-44s %12.5g %12.5g %12.5g %8.3f %6s%s" %
              (name, med, q1, q3, spread, "" if bound is None else "%.2f" % bound, flag))
    for p in problems:
        print("PROBLEM: " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
