/**
 * @file
 * layerbench's workloads and the metrics each run reports.
 *
 * One run = one workload, one seed, one mode:
 *
 *  - end-to-end (trace off): for the run's seconds, in rounds, compile
 *    the generated MNRL ruleset to a verified .azoox, set up from the
 *    .azoox, and run the workload's operation (a block scan, or a
 *    closed-loop serve session). Reports the end-to-end metrics.
 *  - traced (trace on): the same compile and set-up with spans, then
 *    the serve ladder on the workload's ruleset — block engine,
 *    streaming session at the serve chunk size, session pool,
 *    in-process server over a unix socket, the same over TCP loopback,
 *    then TCP beside ruleset RELOADs — with every call into a layer
 *    recorded as a span. Reports the
 *    per-layer metrics, derived from the spans and from the layers'
 *    own counters.
 *
 * Every output (scan results, streamed results, pooled sessions,
 * serve REPLYs) is checked against serial NfaEngine; any mismatch or
 * failed operation counts in `failed`.
 */

#ifndef LAYERBENCH_WORKLOADS_HH
#define LAYERBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace.hh"

namespace layerbench {

struct RunConfig {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Scratch directory for the ruleset files and the unix socket
     *  (created and removed by the run). Keep it short: a unix socket
     *  path must fit in 108 bytes. */
    std::string workDir;
    /** End-to-end serve transport: "tcp" (the workload as defined) or
     *  "unix" (how the workload behaves without the TCP stack). */
    std::string transport = "tcp";
};

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

struct RunResult {
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** End-to-end metrics (trace off) or per-layer metrics (on). */
    std::vector<Metric> metrics;
    /** Human-readable report lines (the serve-level metric names with
     *  units, sample counts and percentiles). */
    std::vector<std::string> lines;

    bool correct() const { return failed == 0 && attempted > 0; }
};

/** Names of the defined workloads, in order. */
std::vector<std::string> workloadNames();

/** Run one workload; false in @p known when the name is unknown. */
RunResult runWorkload(const RunConfig &cfg, Tracer &tracer, bool &known);

} // namespace layerbench

#endif // LAYERBENCH_WORKLOADS_HH
