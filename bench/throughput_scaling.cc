/**
 * @file
 * Thread-scaling throughput of the parallel execution layer.
 *
 * Reports aggregate symbols/sec at 1/2/4/8 threads (and the machine's
 * hardware thread count if it is not in that list), or at --threads N
 * alone when that flag is given, for both axes of ParallelRunner:
 *
 *  - batch: the benchmark's standard input split into --streams equal
 *    streams, fanned out across the pool;
 *  - sharded: one input scanned by per-thread component shards.
 *
 * --engine nfa|lazydfa picks the per-stream/per-shard engine and
 * --json PATH writes every measurement as a bench::JsonReport row
 * (benchmark "name/batch" or "name/sharded", engine, threads,
 * symbols/sec, lazy cache flushes).
 *
 * Methodology (see docs/ARCHITECTURE.md): one untimed warmup run per
 * configuration, then --reps timed repetitions; the best repetition
 * is reported (minimum-noise estimator for a dedicated machine).
 * "symbols/sec" counts input symbols consumed by the automaton:
 * per-stream bytes summed over the batch, or the single input length
 * in sharded mode. Report recording and active-set accounting are
 * off, matching a deployment scan loop.
 */

#include <algorithm>
#include <iostream>
#include <vector>

#include "bench/common.hh"
#include "engine/nfa_engine.hh"
#include "engine/parallel_runner.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"
#include "util/timer.hh"
#include "zoo/registry.hh"

using namespace azoo;

namespace {

std::vector<std::vector<uint8_t>>
splitStreams(const std::vector<uint8_t> &input, size_t count)
{
    std::vector<std::vector<uint8_t>> streams;
    const size_t per = std::max<size_t>(1, input.size() / count);
    for (size_t pos = 0; pos < input.size(); pos += per) {
        const size_t len = std::min(per, input.size() - pos);
        streams.emplace_back(input.begin() + pos,
                             input.begin() + pos + len);
    }
    return streams;
}

/** Best-of-reps wall time of fn(), after one untimed warmup. */
double
bestSeconds(int reps, const std::function<void()> &fn)
{
    fn();
    double best = 1e300;
    for (int i = 0; i < reps; ++i) {
        Timer t;
        fn();
        best = std::min(best, t.seconds());
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchConfig cfg = bench::parseBenchFlags(
        argc, argv, {"name", "streams", "reps", "engine", "json"});
    Cli cli(argc, argv,
            {"scale", "input", "sim", "seed", "full", "threads",
             "name", "streams", "reps", "engine", "json"});
    const std::string name = cli.get("name", "Snort");
    const auto streamCount =
        static_cast<size_t>(cli.getInt("streams", 16));
    const int reps = static_cast<int>(cli.getInt("reps", 3));
    const std::string engineName = cli.get("engine", "nfa");
    if (engineName != "nfa" && engineName != "lazydfa")
        fatal("throughput_scaling: --engine must be nfa or lazydfa");
    const bool lazy = engineName == "lazydfa";
    bench::JsonReport json("throughput_scaling");

    zoo::Benchmark b = zoo::makeBenchmark(name, cfg.zoo);
    std::vector<uint8_t> input(b.input.begin(),
                               b.input.begin() + cfg.simBytes);
    auto streams = splitStreams(input, streamCount);

    std::vector<size_t> counts = {1, 2, 4, 8};
    const size_t hw = ThreadPool::hardwareThreads();
    if (cli.has("threads"))
        counts = {cfg.threads};
    else if (std::find(counts.begin(), counts.end(), hw) == counts.end())
        counts.push_back(hw);

    std::cout << "Throughput scaling: " << name << " (scale="
              << cfg.zoo.scale << ", engine=" << engineName << "), "
              << input.size() << " input bytes, " << streams.size()
              << " streams, " << hw
              << " hardware threads, best of " << reps << " reps\n\n";

    SimOptions sim;
    sim.recordReports = false;
    sim.computeActiveSet = false;

    Table t({"Threads", "Batch MSym/s", "Speedup", "Shards",
             "Sharded MSym/s", "Speedup"});
    double batchBase = 0, shardBase = 0;
    for (size_t threads : counts) {
        ParallelOptions popts;
        popts.threads = threads;
        popts.engine = lazy ? EngineKind::kLazyDfa : EngineKind::kNfa;
        popts.sim = sim;
        ParallelRunner runner(b.automaton, popts);

        uint64_t batchFlushes = 0;
        const double batchSecs = bestSeconds(reps, [&] {
            batchFlushes = runner.runBatch(streams).totalLazyFlushes;
        });
        const double batchRate = input.size() / batchSecs / 1e6;

        uint64_t shardFlushes = 0;
        const double shardSecs = bestSeconds(reps, [&] {
            shardFlushes =
                runner.simulateSharded(input).lazyFlushes;
        });
        const double shardRate = input.size() / shardSecs / 1e6;

        if (threads == counts.front()) { // speedups are vs the first row
            batchBase = batchRate;
            shardBase = shardRate;
        }
        t.addRow({std::to_string(threads),
                  Table::fixed(batchRate, 2),
                  Table::ratio(batchRate / batchBase, 2),
                  std::to_string(runner.shardCount()),
                  Table::fixed(shardRate, 2),
                  Table::ratio(shardRate / shardBase, 2)});
        json.add({name + "/batch", engineName, threads,
                  batchRate * 1e6, batchFlushes, {}});
        json.add({name + "/sharded", engineName, threads,
                  shardRate * 1e6, shardFlushes,
                  {{"shards", double(runner.shardCount())}}});
    }
    t.print(std::cout);

    // Sanity line: the serial engine, for an apples-to-apples anchor.
    double serialSecs;
    uint64_t serialFlushes = 0;
    if (lazy) {
        LazyDfaEngine serial(b.automaton);
        serialSecs = bestSeconds(reps, [&] {
            serial.simulate(input.data(), input.size(), sim);
        });
        serialFlushes = serial.cacheFlushes();
    } else {
        NfaEngine serial(b.automaton);
        EngineScratch scratch;
        serialSecs = bestSeconds(reps, [&] {
            serial.simulate(input.data(), input.size(), scratch, sim);
        });
    }
    const double serialRate = input.size() / serialSecs / 1e6;
    std::cout << "\nserial "
              << (lazy ? "LazyDfaEngine" : "NfaEngine") << ": "
              << Table::fixed(serialRate, 2) << " MSym/s\n";
    json.add({name + "/serial", engineName, 1, serialRate * 1e6,
              serialFlushes, {}});
    json.writeFile(cli.get("json"));
    return 0;
}
