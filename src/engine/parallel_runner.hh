/**
 * @file
 * ParallelRunner: multi-threaded automata simulation with serial
 * semantics.
 *
 * The suite's engines are single-threaded by design; this layer
 * shards work along the two axes the workloads naturally expose.
 * Every engine kind is a routing of one CompiledPlan (planner.hh) —
 * kNfa runs interpreterPlan(), kLazyDfa lazyDfaPlan() and kPlanned
 * the profiled planComponents() — compiled by compilePlan(), so both
 * axes run on the planned executor:
 *
 *  - **Stream-level** (runBatch): a batch of independent input
 *    streams (packets, disk-image chunks, DNA reads) fans out across
 *    the pool. All workers share one CompiledPlan; each worker slot
 *    owns a PlannedSession, fed each stream once or in chunks, whose
 *    scratch and lazy cache stay warm across that slot's streams, so
 *    the hot path performs no per-stream O(n) allocation.
 *
 *  - **Component-level** (simulateSharded): the automaton's connected
 *    components (activation *and* reset edges, so counters never
 *    split from their enable/reset sources) are packed into one shard
 *    per thread by size-balanced LPT; each shard compiles its own
 *    plan of its sub-automaton and simulates the same input
 *    concurrently.
 *
 * Determinism guarantee: results are *canonical* — per stream,
 * reports are sorted by (offset, element, code); a batch is ordered
 * by stream index. Canonical output is identical for every thread
 * count, and equals the serial engine's output after
 * canonicalizeReports() (the serial engine emits same-cycle reports
 * in internal propagation order, which the canonical order
 * normalizes). Aggregate counters (reportCount, totalEnabled,
 * reportingCycles, byCode) match the serial engine exactly.
 */

#ifndef AZOO_ENGINE_PARALLEL_RUNNER_HH
#define AZOO_ENGINE_PARALLEL_RUNNER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/automaton.hh"
#include "engine/planner.hh"
#include "engine/report.hh"

namespace azoo {

class ThreadPool;

/** Configuration for a ParallelRunner. */
struct ParallelOptions {
    /** Worker threads; 0 means all hardware threads. */
    size_t threads = 0;
    /** Batch mode: feed each stream to its slot's PlannedSession in
     *  chunks of this many bytes (0 = one feed). Chunking never
     *  changes results, for any engine kind; it exists to exercise
     *  and measure the streaming path under parallelism. */
    size_t chunkBytes = 0;
    /** Routing for streams and component shards. */
    EngineKind engine = EngineKind::kNfa;
    /** Plan knobs. lazyCacheBytes is the budget of each slot's and
     *  shard's private lazy cache (kLazyDfa, kPlanned); the rest
     *  steer planComponents() (kPlanned). One CompiledPlan is shared
     *  by every worker slot; each shard compiles its own. */
    PlanOptions plan;
    /** Per-stream simulation options. */
    SimOptions sim;
};

/** Outcome of a batch run; perStream[i] belongs to streams[i]. */
struct BatchResult {
    std::vector<SimResult> perStream;
    /** Parallel to perStream: OK when the stream completed. A failed
     *  stream leaves an empty SimResult and its error here; the other
     *  streams still complete and stay bit-identical to a serial run
     *  (worker failures never kill the batch). */
    std::vector<Status> perStreamStatus;
    uint64_t totalSymbols = 0;
    uint64_t totalReports = 0;
    /** Lazy-DFA cache flushes summed over streams (0 for kNfa). */
    uint64_t totalLazyFlushes = 0;
    /** Streams whose perStreamStatus is non-OK. */
    uint64_t failedStreams = 0;

    bool allOk() const { return failedStreams == 0; }
};

/**
 * Parallel runner over one automaton, which need only outlive
 * construction. Construction compiles the configured kind's plan
 * once for the batch slots and once per component shard (cut by
 * ComponentPartition); runBatch()/simulateSharded() can then be
 * called repeatedly (but not concurrently with each other from
 * multiple threads — the runner owns one pool).
 */
class ParallelRunner
{
  public:
    explicit ParallelRunner(const Automaton &a,
                            ParallelOptions opts = ParallelOptions());
    ~ParallelRunner();

    /** Worker threads actually running. */
    size_t threads() const;

    /** Component shards built for simulateSharded(). */
    size_t shardCount() const { return shards_.size(); }

    /** Simulate each stream independently; canonical per-stream
     *  results in input order, identical for any thread count. */
    BatchResult
    runBatch(const std::vector<std::vector<uint8_t>> &streams) const;

    /** Simulate one input with the automaton sharded by connected
     *  components; canonical result identical to the (canonicalized)
     *  serial NfaEngine result. */
    SimResult simulateSharded(const uint8_t *input, size_t len) const;

    SimResult
    simulateSharded(const std::vector<uint8_t> &input) const
    {
        return simulateSharded(input.data(), input.size());
    }

  private:
    struct Shard {
        /** Shard-local element id -> id in the runner's automaton. */
        std::vector<ElementId> origId;
        /** The shard's plan, executed by exactly one worker at a
         *  time, so its session needs no locking. */
        PlannedEngine engine;
    };

    void buildShards(const Automaton &a, size_t groups);

    ParallelOptions opts_;
    std::unique_ptr<ThreadPool> pool_;
    mutable std::vector<Shard> shards_;

    /** One session per worker slot, all over one CompiledPlan: the
     *  slot-indexed parallelFor guarantees exclusive slot ownership,
     *  so sessions are reused lock-free across streams. */
    mutable std::vector<PlannedSession> slotSessions_;
};

} // namespace azoo

#endif // AZOO_ENGINE_PARALLEL_RUNNER_HH
