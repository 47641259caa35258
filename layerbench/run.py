#!/usr/bin/env python3
"""layerbench: the repository's benchmark, one workload per run.

    python3 layerbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the layerbench package (the azoo library from src/ plus the
benchmark program in layerbench/src/) into $CARGO_TARGET_DIR (default
.bench_build) with CMake in Release mode, runs one workload, and prints
its report. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

holding the end-to-end metrics (--trace 0) or the per-layer metrics of
the traced run (--trace 1; its spans go to <build>/traces/). The exit
code is 0 only when every output matched serial NfaEngine.

Other modes:
    --write-benchmark-json   regenerate BENCHMARK.json from the tables below
    --self-test              build and run the unit tests of the helpers
    --transport unix         serve workloads over a unix socket instead of
                             TCP (used by steady.py; not a defined workload)
    --workload seqmatch-scan the interpreter control, run like a workload
                             but not in BENCHMARK.json (UNGATED_WORKLOADS)

Run it from the repository root. layerbench/README.md documents every
workload and metric.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = "layerbench"
RUN_SECONDS = 45
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700

WORKLOADS = [
    {"name": "snort-serve",
     "why": "Snort served in-process over TCP loopback by 2 closed-loop "
            "clients: net, server loop, pool and streaming sessions do the "
            "work; the prefilter is nearly idle; the traced run adds RELOADs"},
    {"name": "clamav-scan",
     "why": "ClamAV block planned scans of 256 MiB of disk images (beyond "
            "the LLC) with a signature planted per 64 KiB: prefilter scan "
            "and exact replay dominate"},
]

# Runs like a workload but is not in BENCHMARK.json: on a shared host its
# interpreter loop slows by up to 1.7x while other tenants load the
# memory system, beyond any bound (see README.md, "Steadiness").
UNGATED_WORKLOADS = [
    {"name": "seqmatch-scan",
     "why": "Seq. Match 6w 6p wC block scan, an all-interpreter plan with "
            "counters and no literals: the control where prefilter and "
            "planner changes must not move"},
]

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "compile_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "op_p10_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_MB", "unit": "MB", "better": "lower", "bound": 0.2},
]


def _layer(name, unit, better="higher"):
    return {"name": name, "unit": unit, "better": better}


PER_LAYER = [
    _layer("core.mnrl_read_s", "s", "lower"),
    _layer("analysis.verify_s", "s", "lower"),
    _layer("analysis.infer_s", "s", "lower"),
    _layer("artifact.write_s", "s", "lower"),
    _layer("artifact.bytes", "bytes", "lower"),
    _layer("artifact.load_s", "s", "lower"),
    _layer("engine.planner.build_s", "s", "lower"),
    _layer("serve.ruleset.compile_s", "s", "lower"),
    _layer("serve.pool.build_s", "s", "lower"),
    _layer("engine.planner.components.prefilter", "count"),
    _layer("engine.planner.components.anchored-prefix", "count"),
    _layer("engine.planner.components.lazy-dfa", "count"),
    _layer("engine.planner.components.interpreter", "count", "lower"),
    _layer("engine.planner.components.skip", "count"),
    _layer("engine.nfa.MBps", "MB/s"),
    _layer("engine.nfa.active_avg", "count", "lower"),
    _layer("engine.prefilter.candidates", "count", "lower"),
    _layer("engine.prefilter.skip_frac", "fraction"),
    _layer("engine.prefilter.confirm_frac", "reports/cand"),
    _layer("engine.planned.MBps", "MB/s"),
    _layer("engine.lazy.hit_frac", "fraction"),
    _layer("engine.lazy.flushes", "count/scan", "lower"),
    _layer("engine.stream.nfa.MBps", "MB/s"),
    _layer("engine.stream.planned.MBps", "MB/s"),
    _layer("engine.stream.block_ratio", "ratio"),
    _layer("engine.stream.footprint_bytes", "bytes", "lower"),
    _layer("serve.pool.MBps", "MB/s"),
    _layer("serve.pool.rung_ratio", "ratio"),
    _layer("serve.pool.acquire_us", "us", "lower"),
    _layer("serve.pool.created", "count", "lower"),
    _layer("serve.unix.session_p50_ms", "ms", "lower"),
    _layer("serve.unix.MBps", "MB/s"),
    _layer("serve.unix.rung_ratio", "ratio"),
    _layer("serve.admitted", "count"),
    _layer("serve.shed", "count", "lower"),
    _layer("serve.rejected", "count", "lower"),
    _layer("serve.peak_queue_bytes", "bytes", "lower"),
    _layer("net.tcp.session_p50_ms", "ms", "lower"),
    _layer("net.tcp.MBps", "MB/s"),
    _layer("net.tcp.rung_ratio", "ratio"),
    _layer("client.connect_us", "us", "lower"),
    _layer("client.open_us", "us", "lower"),
    _layer("client.send_ms", "ms", "lower"),
    _layer("client.finish_ms", "ms", "lower"),
    _layer("client.span_cover_frac", "fraction"),
    _layer("serve.reload.load_s", "s", "lower"),
    _layer("serve.reload.swap_ms", "ms", "lower"),
    _layer("serve.reload.generations_live_max", "count", "lower"),
    _layer("serve.reload.during_tail_over_base", "ratio", "lower"),
    _layer("match_density", "reports/MiB"),
]


def benchmark_json():
    return {
        "command": ["python3", "layerbench/run.py"],
        "paths": [PKG],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    d = d if os.path.isabs(d) else os.path.join(ROOT, d)
    rel = os.path.relpath(d, ROOT)
    # Relative inside the checkout keeps the unix socket path short.
    return d if rel.startswith("..") else rel


def build(root):
    """Configure (once) and build; returns the cmake build directory."""
    bdir = os.path.join(root, "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", PKG, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            log("layerbench: build failed: " + " ".join(cmd))
            return None
    return bdir


def git_info():
    """(sha, dirty) of the checkout, or ("unknown", False) outside git."""
    def git(*args):
        return subprocess.run(["git", "-C", ROOT] + list(args),
                              capture_output=True, text=True, timeout=30)
    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or \
                os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown", False
        sha = git("rev-parse", "HEAD").stdout.strip() or "unknown"
        dirty = bool(git("status", "--porcelain", "--untracked-files=no")
                     .stdout.strip())
        return sha, dirty
    except (OSError, subprocess.SubprocessError):
        return "unknown", False


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--transport", choices=("tcp", "unix"), default="tcp")
    ap.add_argument("--write-benchmark-json", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(benchmark_json(), f, indent=2)
            f.write("\n")
        return 0

    root = build_root()
    bdir = build(root)
    if bdir is None:
        return 1
    if args.self_test:
        exe = os.path.join(ROOT, bdir, "layerbench_tests")
        if not os.path.exists(exe):
            log("layerbench: GTest not found; tests were not built")
            return 1
        return subprocess.run([exe], cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode

    names = [w["name"] for w in WORKLOADS + UNGATED_WORKLOADS]
    if args.workload not in names:
        log("layerbench: --workload must be one of: " + ", ".join(names))
        return 2
    sha, dirty = git_info()
    work = os.path.join(root, "work", "%s-%d" % (args.workload, os.getpid()))
    traces = os.path.join(root, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(bdir, "layerbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--transport", args.transport,
           "--trace-out", os.path.join(
               traces, "%s-seed%d.json" % (args.workload, args.seed)),
           "--git-sha", sha, "--git-dirty", "1" if dirty else "0"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("layerbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = r.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("layerbench: no result line (exit %d)" % r.returncode)
        return 1
    expect = [m["name"] for m in (PER_LAYER if args.trace else END_TO_END)]
    if list(result.get("metrics", {})) != expect:
        log("layerbench: metrics differ from BENCHMARK.json's list")
        return 1
    print(lines[-1], flush=True)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
