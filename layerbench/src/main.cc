/**
 * @file
 * layerbench: one run of one workload.
 *
 *   layerbench --workload NAME --seed N --seconds S --trace 0|1
 *              --work-dir DIR [--trace-out FILE]
 *              [--git-sha SHA] [--git-dirty 0|1] [--transport tcp|unix]
 *
 * Prints a provenance line, human-readable report lines, and as its
 * last line one JSON object:
 *   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
 * with the end-to-end metrics (--trace 0) or the per-layer metrics
 * (--trace 1). A traced run writes every span to --trace-out.
 * Exit code 0 only when every output matched serial NfaEngine; 2 for
 * usage errors.
 */

#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>

#include "provenance.hh"
#include "trace.hh"
#include "util/cli.hh"
#include "workloads.hh"

using namespace layerbench;

namespace {

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    azoo::Cli cli(argc, argv,
                  {"workload", "seed", "seconds", "trace", "work-dir",
                   "trace-out", "git-sha", "git-dirty", "transport"});
    RunConfig cfg;
    cfg.workload = cli.get("workload");
    cfg.seed = static_cast<uint64_t>(cli.getInt("seed", 1));
    cfg.seconds = cli.getDouble("seconds", 10);
    cfg.trace = cli.getInt("trace", 0) != 0;
    cfg.workDir = cli.get("work-dir");
    cfg.transport = cli.get("transport", "tcp");
    if (cfg.workDir.empty() || cfg.seconds <= 0 ||
        (cfg.transport != "tcp" && cfg.transport != "unix")) {
        std::cerr << "layerbench: --work-dir, --seconds > 0 and "
                     "--transport tcp|unix are required\n";
        return 2;
    }

    Provenance prov = collectProvenance();
    prov.gitSha = cli.get("git-sha", "unknown");
    prov.gitDirty = cli.getInt("git-dirty", 0) != 0;
    prov.workload = cfg.workload;
    prov.seed = cfg.seed;
    const std::string provJson = provenanceJson(prov);
    std::cout << "provenance: " << provJson << "\n";
    if (!prov.optimised)
        std::cout << "WARNING: non-optimised build (" << prov.buildType
                  << "); numbers are not comparable\n";

    Tracer tracer(cfg.trace);
    bool known = false;
    const RunResult res = runWorkload(cfg, tracer, known);
    if (!known) {
        std::cerr << "layerbench: unknown workload '" << cfg.workload
                  << "'; known:";
        for (const std::string &w : workloadNames())
            std::cerr << " " << w;
        std::cerr << "\n";
        return 2;
    }
    for (const std::string &line : res.lines)
        std::cout << cfg.workload << ": " << line << "\n";

    const std::string traceOut = cli.get("trace-out");
    if (cfg.trace && !traceOut.empty() &&
        !tracer.writeJson(traceOut, provJson)) {
        std::cerr << "layerbench: cannot write " << traceOut << "\n";
        return 1;
    }

    std::ostringstream js;
    js << "{\"correct\": " << (res.correct() ? "true" : "false")
       << ", \"attempted\": " << res.attempted
       << ", \"failed\": " << res.failed << ", \"metrics\": {";
    for (size_t i = 0; i < res.metrics.size(); ++i) {
        const Metric &m = res.metrics[i];
        js << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
           << jsonNumber(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    }
    js << "}}";
    std::cout << js.str() << std::endl;
    return res.correct() ? 0 : 1;
}
