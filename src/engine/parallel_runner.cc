#include "engine/parallel_runner.hh"

#include <numeric>

#include "engine/partition.hh"
#include "obs/obs.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace azoo {

namespace {

/** Feed @p in through @p sess from the start of a stream, in chunks
 *  of @p chunk bytes (0 = one feed), stopping at a short feed (the
 *  guard stopped the session; further chunks would be refused). */
SimResult
feedChunks(PlannedSession &sess, const SimOptions &opts,
           const std::vector<uint8_t> &in, size_t chunk)
{
    if (chunk == 0)
        chunk = in.size();
    sess.reset();
    sess.options = opts;
    for (size_t pos = 0; pos < in.size();) {
        const size_t want = std::min(chunk, in.size() - pos);
        const size_t got = sess.feed(in.data() + pos, want);
        pos += got;
        if (got < want)
            break;
    }
    return sess.takeResults();
}

} // namespace

ParallelRunner::ParallelRunner(const Automaton &a, ParallelOptions opts)
    : opts_(std::move(opts))
{
    const size_t threads =
        opts_.threads ? opts_.threads : ThreadPool::hardwareThreads();
    pool_ = std::make_unique<ThreadPool>(threads);
    // One compile; every slot's session executes it.
    const std::shared_ptr<const CompiledPlan> plan =
        compilePlan(a, opts_.engine, opts_.plan);
    slotSessions_.reserve(pool_->size());
    for (size_t s = 0; s < pool_->size(); ++s)
        slotSessions_.emplace_back(plan);
    buildShards(a, threads);
}

ParallelRunner::~ParallelRunner() = default;

size_t
ParallelRunner::threads() const
{
    return pool_->size();
}

void
ParallelRunner::buildShards(const Automaton &a, size_t groups)
{
    if (a.size() == 0)
        return;

    // LPT over components (activation *and* reset edges, so a counter
    // stays in the shard of everything that counts or resets it):
    // biggest component first into the currently lightest shard.
    const ComponentPartition parts(a);
    const std::vector<uint64_t> compSize = parts.sizes();
    const size_t g = std::min<size_t>(groups, parts.count());
    std::vector<uint32_t> order(parts.count());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](uint32_t a, uint32_t b) {
                         return compSize[a] > compSize[b];
                     });
    std::vector<uint64_t> load(g, 0);
    std::vector<uint32_t> shardOf(parts.count());
    for (uint32_t c : order) {
        const size_t s = static_cast<size_t>(
            std::min_element(load.begin(), load.end()) - load.begin());
        shardOf[c] = static_cast<uint32_t>(s);
        load[s] += compSize[c];
    }

    std::vector<ComponentPartition::Group> cut = parts.split(shardOf, g);
    shards_.reserve(g);
    for (ComponentPartition::Group &grp : cut) {
        shards_.push_back(
            {std::move(grp.toGlobal), PlannedEngine(
                compilePlan(grp.sub, opts_.engine, opts_.plan))});
    }
    if (obs::kEnabled) {
        // LPT balance is visible as the spread of this distribution.
        obs::Histogram &h =
            obs::Registry::global().histogram("runner.shard.states");
        for (const Shard &sh : shards_)
            h.record(sh.origId.size());
    }
}

BatchResult
ParallelRunner::runBatch(
    const std::vector<std::vector<uint8_t>> &streams) const
{
    BatchResult out;
    out.perStream.resize(streams.size());
    out.perStreamStatus.resize(streams.size());
    obs::ScopedTimer wall(
        obs::Registry::global().histogram("runner.batch.wall_us"));
    pool_->parallelFor(streams.size(), [&](size_t slot, size_t i) {
        // Failures are captured per stream so one bad stream (or an
        // injected worker fault) never kills the batch; the other
        // streams complete exactly as a serial run would.
        try {
            if (fault::shouldFail(fault::Point::kAllocFail)) {
                throw StatusError(
                    Status(ErrorCode::kResourceExhausted,
                           cat("stream ", i,
                               ": worker allocation failed")));
            }
            // The slot's session, over the shared compile; its
            // scratch and lazy cache stay warm across the slot's
            // streams, and its results are canonical.
            out.perStream[i] = feedChunks(slotSessions_[slot], opts_.sim,
                                          streams[i], opts_.chunkBytes);
        } catch (const StatusError &e) {
            out.perStream[i] = SimResult();
            out.perStreamStatus[i] = e.status();
        } catch (const std::exception &e) {
            out.perStream[i] = SimResult();
            out.perStreamStatus[i] =
                Status(ErrorCode::kInternal, e.what());
        }
    });
    for (size_t i = 0; i < out.perStream.size(); ++i) {
        if (!out.perStreamStatus[i].ok()) {
            ++out.failedStreams;
            continue;
        }
        const SimResult &r = out.perStream[i];
        out.totalSymbols += r.symbols;
        out.totalReports += r.reportCount;
        out.totalLazyFlushes += r.lazyFlushes;
    }
    if (obs::kEnabled) {
        obs::Registry &reg = obs::Registry::global();
        reg.counter("runner.batch.streams").add(streams.size());
        reg.counter("runner.batch.failed_streams")
            .add(out.failedStreams);
        reg.counter("runner.batch.symbols").add(out.totalSymbols);
        reg.counter("runner.batch.reports").add(out.totalReports);
    }
    return out;
}

SimResult
ParallelRunner::simulateSharded(const uint8_t *input, size_t len) const
{
    SimResult merged;
    merged.symbols = len;
    if (shards_.empty())
        return merged;

    // Shards record every report internally (the merge needs full
    // offset streams to reconstruct reportingCycles and byCode
    // exactly); the caller's recording options apply after the merge.
    const SimOptions inner = recordAllOptions(opts_.sim);

    obs::ScopedTimer wall(
        obs::Registry::global().histogram("runner.sharded.wall_us"));

    std::vector<SimResult> parts(shards_.size());
    auto runShards = [&](size_t simLen,
                         const SimOptions &shardOpts) -> Status {
        try {
            pool_->parallelFor(shards_.size(), [&](size_t s) {
                if (fault::shouldFail(fault::Point::kAllocFail)) {
                    throw StatusError(
                        Status(ErrorCode::kResourceExhausted,
                               cat("shard ", s,
                                   ": worker allocation failed")));
                }
                parts[s] =
                    shards_[s].engine.simulate(input, simLen, shardOpts);
            });
        } catch (const StatusError &e) {
            return e.status();
        }
        return Status();
    };

    if (Status st = runShards(len, inner); !st.ok()) {
        // A failed shard invalidates the merged view (its reports are
        // missing); return an empty result carrying the error instead
        // of a silently wrong one.
        SimResult failed;
        failed.guardStatus = st;
        return failed;
    }

    // Guard truncation reconciliation: if any shard stopped early,
    // the merged result covers only the prefix every shard consumed.
    uint64_t consumed = len;
    for (const SimResult &p : parts) {
        if (!p.guardStatus.ok()) {
            consumed = std::min(consumed, p.symbols);
            if (merged.guardStatus.ok())
                merged.guardStatus = p.guardStatus;
        }
    }
    merged.symbols = consumed;

    if (consumed < len) {
        // Shards poll the guard independently, so on a wall-clock or
        // injected stop they consume *different* prefixes — summing
        // their counters (totalEnabled, per-shard report streams)
        // would mix coverage of different symbol ranges, and even a
        // shard whose symbols == consumed may have partially counted
        // the poll window beyond it. Re-simulate every shard over
        // exactly the common prefix with the guard off: the result is
        // then exact for [0, consumed), and the cost is bounded by
        // work the shards already did. (Symbol-budget guards stop all
        // shards at the same poll point, so this path is really about
        // deadline/cancellation/injected stops.)
        obs::noteGuardStop("runner.sharded",
                           merged.guardStatus.code());
        SimOptions replay = inner;
        replay.guard = nullptr;
        if (Status st = runShards(static_cast<size_t>(consumed),
                                  replay);
            !st.ok()) {
            SimResult failed;
            failed.guardStatus = st;
            return failed;
        }
    }

    std::vector<Report> reports;
    for (size_t s = 0; s < parts.size(); ++s) {
        const SimResult &p = parts[s];
        merged.totalEnabled += p.totalEnabled;
        merged.lazyFlushes += p.lazyFlushes;
        merged.lazyStates += p.lazyStates;
        appendGlobal(reports, p.reports, shards_[s].origId);
    }
    mergeCanonical(std::move(reports), opts_.sim, merged);
    return merged;
}

} // namespace azoo
