#!/usr/bin/env python3
"""Steadiness check for layerbench: repeat workloads, report the spread.

    python3 layerbench/steady.py [--runs 10] [--first-seed 1]
                                 [--workloads a,b] [--trace] [--unix]

Runs run.py once per seed (seeds first-seed .. first-seed+runs-1) for
each workload and prints, for every metric, the median, the first and
third quartiles (Python's statistics.quantiles(n=4)), and the spread
(Q3 - Q1) / median against the metric's bound from BENCHMARK.json
("ok" when the spread is under a third of the bound, "WIDE" when over
the bound). --unix adds the unix-socket variant of snort-serve, which
shows how that workload behaves without the TCP delayed-ACK floor.
Exits non-zero when any run failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the metric tables)


def one_run(workload, seed, trace, transport):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(run.RUN_SECONDS), "--trace", str(trace),
           "--transport", transport]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    last = r.stdout.strip().split("\n")[-1] if r.stdout.strip() else ""
    try:
        res = json.loads(last)
    except ValueError:
        res = None
    if r.returncode != 0 or res is None or not res.get("correct"):
        sys.stderr.write(r.stderr[-2000:])
        return None
    return {k: v["value"] for k, v in res["metrics"].items()}


def report(label, runs, defs, per_run):
    print("\n== %s (%d runs)" % (label, len(runs)))
    if per_run:
        for d in defs:
            print("%-40s %s" % (d["name"], " ".join(
                "%.4g" % r[d["name"]] for r in runs)))
    print("%-40s %14s %14s %14s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for d in defs:
        vals = [r[d["name"]] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = d.get("bound")
        verdict = ""
        if bound is not None:
            verdict = "ok" if spread < bound / 3 else (
                "near" if spread <= bound else "WIDE")
        print("%-40s %14.6g %14.6g %14.6g %8.4f %6s %s" %
              (d["name"], med, q1, q3, spread,
               "" if bound is None else bound, verdict))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in run.WORKLOADS))
    ap.add_argument("--trace", action="store_true",
                    help="repeat the traced run (per-layer metrics)")
    ap.add_argument("--unix", action="store_true",
                    help="also run snort-serve over a unix socket")
    ap.add_argument("--per-run", action="store_true",
                    help="also print every run's value of every metric")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 (quartiles need two values)")

    jobs = [(w, "tcp") for w in args.workloads.split(",") if w]
    if args.unix:
        jobs.append(("snort-serve", "unix"))
    defs = run.PER_LAYER if args.trace else run.END_TO_END
    failed = 0
    for workload, transport in jobs:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            m = one_run(workload, seed, int(args.trace), transport)
            if m is None:
                failed += 1
                print("%s seed %d: FAILED" % (workload, seed))
            else:
                runs.append(m)
        if len(runs) >= 2:
            label = workload + ("" if transport == "tcp" else " over unix")
            report(label, runs, defs, args.per_run)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
