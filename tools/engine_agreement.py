#!/usr/bin/env python3
"""Check that every engine kind of azoo_run reports the same matches.

nfa, lazydfa and auto are routings of one compiled plan, and multidfa
is the determinized baseline; all of them, block, chunked or sharded,
must print the same report list. For each benchmark this generates a
small instance with azoo_gen, runs azoo_run under every configuration
below, and fails unless the sorted report lines (and report counts)
are identical and the nfa and lazydfa runs, which simulate every
component, print the same average active set. It then splits the
input into two streams and compares the per-stream lines of a chunked
two-thread batch across nfa, lazydfa and auto.

Usage: engine_agreement.py AZOO_GEN AZOO_RUN WORKDIR
"""

import os
import re
import subprocess
import sys

BENCHMARKS = ["Random Forest A", "Seq. Match 6w 6p wC"]

RUNS = [
    ["--engine", "nfa"],
    ["--engine", "lazydfa"],
    ["--engine", "auto"],
    ["--engine", "multidfa"],
    ["--engine", "lazydfa", "--chunk", "777"],
    ["--engine", "auto", "--chunk", "777"],
    ["--engine", "nfa", "--chunk", "777"],
    ["--engine", "lazydfa", "--threads", "3"],
    ["--engine", "auto", "--threads", "3"],
]

BATCH_ENGINES = ["nfa", "lazydfa", "auto"]


def run(cmd):
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"FAILED ({out.returncode}): {' '.join(cmd)}\n"
                 f"{out.stdout}{out.stderr}")
    return out.stdout


def block_outcome(stdout):
    """(report count, sorted report lines) of a single-stream run, and
    its average active set (None when not printed)."""
    count = re.search(r" (\d+) reports", stdout)
    if not count:
        sys.exit(f"no report count in:\n{stdout}")
    lines = sorted(l for l in stdout.splitlines()
                   if l.startswith("  report offset="))
    active = re.search(r"avg active set ([0-9.]+)", stdout)
    return (int(count.group(1)), lines), active and active.group(1)


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    gen, azoo_run, work = sys.argv[1:]
    os.makedirs(work, exist_ok=True)
    for name in BENCHMARKS:
        stem = os.path.join(work, re.sub(r"\W+", "_", name))
        run([gen, "--name", name, "--out", stem, "--format", "mnrl",
             "--scale", "0.01", "--input", "16384"])
        base = [azoo_run, "--automaton", stem + ".mnrl",
                "--reports", "100000"]

        want = want_active = None
        for flags in RUNS:
            got, active = block_outcome(
                run(base + ["--input", stem + ".input"] + flags))
            if want is None:
                want, want_active = got, active
                if got[0] != len(got[1]):
                    sys.exit(f"{name}: {got[0]} reports but "
                             f"{len(got[1])} report lines")
            elif got != want:
                sys.exit(f"{name} {' '.join(flags)}: {got[0]} reports "
                         f"differ from nfa's {want[0]}")
            if flags[1] in ("nfa", "lazydfa") and active != want_active:
                sys.exit(f"{name} {' '.join(flags)}: avg active set "
                         f"{active}, nfa's {want_active}")
        print(f"{name}: {want[0]} reports, avg active set {want_active}, "
              f"agree across {len(RUNS)} runs")

        with open(stem + ".input", "rb") as f:
            data = f.read()
        halves = [stem + ".s0", stem + ".s1"]
        for path, part in zip(halves, (data[:len(data) // 2],
                                       data[len(data) // 2:])):
            with open(path, "wb") as f:
                f.write(part)
        streams = None
        for engine in BATCH_ENGINES:
            out = run(base + ["--input", ",".join(halves), "--batch",
                              "--threads", "2", "--chunk", "777",
                              "--engine", engine])
            lines = [l for l in out.splitlines() if l.startswith("stream ")]
            if len(lines) != len(halves):
                sys.exit(f"{name} batch {engine}: stream lines {lines}")
            if streams is None:
                streams = lines
            elif lines != streams:
                sys.exit(f"{name} batch {engine}: {lines} differ from "
                         f"nfa's {streams}")
        print(f"{name}: batch stream lines agree: {streams}")


if __name__ == "__main__":
    main()
