/**
 * @file
 * ParallelRunner: multi-threaded automata simulation with serial
 * semantics.
 *
 * The suite's engines are single-threaded by design; this layer
 * shards work along the two axes the workloads naturally expose:
 *
 *  - **Stream-level** (runBatch): a batch of independent input
 *    streams (packets, disk-image chunks, DNA reads) fans out across
 *    the pool. All workers share one const NfaEngine (or, under
 *    ParallelEngine::kPlanned, one CompiledPlan); each worker slot
 *    owns an EngineScratch (or a private LazyDfaEngine, or a
 *    PlannedSession whose lazy cache warms across that slot's
 *    streams, monolithic or chunked), so the hot path performs no
 *    per-stream O(n) allocation. Chunked kNfa streams each get a
 *    StreamingSession over the shared engine.
 *
 *  - **Component-level** (simulateSharded): the automaton's connected
 *    components (activation *and* reset edges, so counters never
 *    split from their enable/reset sources) are packed into one shard
 *    per thread by size-balanced LPT, and each shard simulates the
 *    same input concurrently.
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
#include "engine/lazy_dfa_engine.hh"
#include "engine/nfa_engine.hh"
#include "engine/planner.hh"
#include "engine/report.hh"

namespace azoo {

class ThreadPool;

/** Which engine a ParallelRunner drives per stream / per shard. */
enum class ParallelEngine : uint8_t {
    kNfa,     ///< enabled-set interpreter (NfaEngine)
    kLazyDfa, ///< lazy-DFA hybrid (LazyDfaEngine)
    kPlanned, ///< profile-planned per-component backends (PlannedEngine)
};

/** Configuration for a ParallelRunner. */
struct ParallelOptions {
    /** Worker threads; 0 means all hardware threads. */
    size_t threads = 0;
    /** Batch mode: feed each stream through a StreamingSession in
     *  chunks of this many bytes (0 = one monolithic simulate()).
     *  Chunking never changes results; it exists to exercise and
     *  measure the streaming path under parallelism. Chunked feeding
     *  runs on a StreamingSession (kNfa) or PlannedSession (kPlanned);
     *  combining it with ParallelEngine::kLazyDfa is rejected —
     *  runBatch() marks every stream kInvalidArgument rather than
     *  silently substituting a different engine. */
    size_t chunkBytes = 0;
    /** Engine for monolithic streams and component shards. */
    ParallelEngine engine = ParallelEngine::kNfa;
    /** Lazy-DFA transition-cache budget (engine == kLazyDfa). Each
     *  worker slot / shard owns a private cache of this size. */
    size_t lazyCacheBytes = 8u << 20;
    /** Planning knobs (engine == kPlanned). One CompiledPlan is
     *  shared by every worker slot's PlannedSession; each shard
     *  compiles its own. */
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
 * construction. Construction builds only what the configured engine
 * drives: for batch mode one whole-automaton NfaEngine (kNfa), one
 * LazyDfaEngine per worker slot (kLazyDfa) or one CompiledPlan
 * (kPlanned); for sharded mode one engine of that kind per component
 * shard (cut by ComponentPartition);
 * runBatch()/simulateSharded() can then be called repeatedly (but not
 * concurrently with each other from multiple threads — the runner
 * owns one pool).
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
        /** Engine for ParallelEngine::kNfa (else nullptr). */
        std::unique_ptr<NfaEngine> engine;
        /** Engine for ParallelEngine::kLazyDfa (else nullptr). */
        std::unique_ptr<LazyDfaEngine> lazy;
        /** Engine for ParallelEngine::kPlanned (else nullptr). */
        std::unique_ptr<PlannedEngine> planned;
        /** Interpreter scratch; each shard is driven by exactly one
         *  worker at a time, so per-shard state needs no locking. */
        mutable EngineScratch scratch;
    };

    void buildShards(const Automaton &a, size_t groups);

    ParallelOptions opts_;
    std::unique_ptr<ThreadPool> pool_;
    /** kNfa: shared by batch slots and chunked streams. */
    std::shared_ptr<const NfaEngine> engine_;
    std::vector<Shard> shards_;

    // Per-worker-slot mutable state for runBatch: the slot-indexed
    // parallelFor guarantees exclusive slot ownership, so scratches,
    // sessions and lazy caches are reused lock-free across streams.
    mutable std::vector<EngineScratch> slotScratch_;
    mutable std::vector<std::unique_ptr<LazyDfaEngine>> slotLazy_;
    /** kPlanned: one session per slot, all over one CompiledPlan. */
    mutable std::vector<PlannedSession> slotSessions_;
};

} // namespace azoo

#endif // AZOO_ENGINE_PARALLEL_RUNNER_HH
