/**
 * @file
 * The lazy DFA: an RE2-style lazy-DFA executor with a bounded
 * transition cache, split into a compiled half and a cache.
 *
 * MultiDfaEngine realises the paper's compiled-CPU speedup only for
 * components that fully determinize inside a state budget; everything
 * else — exactly the large-active-set benchmarks the paper uses to
 * motivate spatial architectures — used to drop to the enabled-set
 * interpreter. The lazy DFA closes that gap the way RE2 and modern
 * Hyperscan hybrids do: subset construction runs *on the fly* during
 * simulation, memoizing (state-set, symbol-class) -> next state-set
 * transitions in a cache with a configurable byte budget. Hot input
 * regions therefore cost one table probe per symbol regardless of how
 * many NFA states are enabled, while pathological inputs (too many
 * distinct state-sets) trigger whole-cache flushes and degrade
 * gracefully to interpretation speed instead of exploding memory.
 *
 * It has the compile-then-execute split of NfaEngine and
 * EngineScratch. LazyDfaTables, the compiled half (activation CSR,
 * labels, symbol classes, start set of a counter-free element set),
 * is immutable and shared: a CompiledPlan holds its lazy group's.
 * LazyDfaCache, the executor's half, is the transition cache and a
 * cursor, the current DFA state id; resume() runs the one lazy
 * per-symbol loop from the cursor, so a stream may be fed in any
 * chunks, and since a flush re-interns the cursor in place, neither
 * reports nor (on a cache of its own) the flush/state trajectory
 * depend on the chunking. Between feeds a stream may keep just its
 * cursor's state-set and seek() it into another cache: reports do not
 * depend on which caches ran it, only the flush/state counters do.
 *
 * LazyDfaEngine is the standalone block engine: a PlannedEngine over
 * lazyDfaPlan(), which puts the counter components, which cannot be
 * determinized (counter values are not part of the subset state), on
 * the plan's interpreter lane — mirroring how hybrid engines mix DFA
 * and NFA subsystems. Without counters the lazy DFA is the plan's
 * only lane and runs under the caller's options with no merge.
 *
 * Determinism: results are bit-identical to NfaEngine's on every
 * semantic field — reports carry the original element ids and appear
 * in canonical (offset, element, code) order (the order
 * canonicalizeReports() gives a serial NfaEngine result), and
 * reportCount, totalEnabled, reportingCycles, and byCode are exact,
 * not approximations.
 *
 * A cache (and so a LazyDfaEngine) must not be shared by concurrently
 * running threads. A PlannedSession runs its lazy lane on a cache it
 * is lent for one feed (the serve pool lends each worker's) or on one
 * of its own, which every ParallelRunner slot and shard has.
 */

#ifndef AZOO_ENGINE_LAZY_DFA_ENGINE_HH
#define AZOO_ENGINE_LAZY_DFA_ENGINE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/automaton.hh"
#include "engine/report.hh"

namespace azoo {

/** Tuning knobs for LazyDfaEngine. */
struct LazyDfaOptions {
    /**
     * Transition-cache byte budget. Interned state-sets, their
     * transition rows, and the report pool are charged against it;
     * when an insertion would exceed the budget the whole cache is
     * flushed (RE2's policy: one counter bump and O(1) amortized
     * bookkeeping, no LRU lists on the hot path) and rebuilding
     * restarts from the in-flight state-set. The budget is a target,
     * not a hard cap: the cache always retains at least the current
     * and next state-set so simulation can make progress.
     */
    size_t cacheBytes = 8u << 20;
};

/** The compiled, immutable half of a lazy DFA over a counter-free
 *  set of elements. */
struct LazyDfaTables {
    /** Compile the elements @p members (ascending ids) of @p a. They
     *  must be counter-free and closed under activation edges (whole
     *  components). Reports carry ids of @p a; the automaton is not
     *  referenced afterwards. */
    LazyDfaTables(const Automaton &a, const std::vector<ElementId> &members);

    size_t elements() const { return globalId.size(); }

    /** Resident bytes of the tables. */
    size_t footprintBytes() const;

    /** local id -> element id in the compiled automaton (ascending). */
    std::vector<ElementId> globalId;
    /** CSR over activation edges, all-input targets pre-filtered
     *  (they are permanently enabled and never join a state-set). */
    std::vector<uint32_t> edgeBegin;
    std::vector<uint32_t> edgeTarget;
    std::vector<std::array<uint64_t, 4>> label;
    std::vector<uint8_t> reporting;
    std::vector<uint32_t> reportCode;
    /** Per input byte, the all-input local ids whose label matches. */
    std::array<std::vector<uint32_t>, 256> matchingAllInput;
    /** Start-of-data local ids, sorted: the cycle-0 state-set. */
    std::vector<uint32_t> start0;

    /** Byte -> symbol equivalence class (bytes indistinguishable to
     *  every lazy charset share a class, and so a transition row). */
    std::array<uint8_t, 256> classOf{};
    uint32_t numClasses = 1;
    /** One representative byte per class. */
    std::vector<uint8_t> classRep;
};

/**
 * An executor's half of a lazy DFA: a bounded transition cache over
 * borrowed tables (which must outlive it), and a cursor.
 *
 * The cursor belongs to whichever stream last seek()ed the cache, so
 * one cache can serve many streams in turn: a stream keeps its
 * cursor's state-set between feeds (cursor()) and seeks it back into
 * any cache over the same tables before its next feed. The cache
 * stays warm across streams and is flushed only by its budget.
 *
 * Layout: each interned state-set owns one row of numClasses 32-bit
 * cells, so a state costs 4 B per class. A cell holds the next state
 * id; when the transition reports, it holds kReportBit and an index
 * into a side table of (next state, report list) edges instead, which
 * the per-symbol loop reads only for such cells. Row storage is
 * reserved once, to the budget, so a row never reallocates, and a
 * flush clears every table but keeps its capacity: the bytes the
 * cache accounts for are the bytes it holds.
 */
class LazyDfaCache
{
  public:
    LazyDfaCache(const LazyDfaTables &tables, size_t cacheBytes);

    const LazyDfaTables &tables() const { return t_; }

    /** Put the cursor on the state-set @p set (sorted local ids;
     *  tables().start0 at the start of a stream), interning it if the
     *  cache does not hold it, after a flush if that passes the
     *  budget. */
    void seek(const std::vector<uint32_t> &set);

    /** Copy the cursor's state-set into @p out (after a seek()). */
    void cursor(std::vector<uint32_t> &out) const;

    /**
     * Run stream offsets [from, to) from the cursor; bytes[0] is
     * offset @p from. Reports (element ids of the compiled automaton)
     * and the active set are tallied into @p res under @p opts; every
     * report list of one transition is one offset, so the
     * reporting-cycle tally needs no carried state. opts.guard (may
     * be null) is polled before every offset that is a multiple of
     * kGuardCheckIntervalSymbols; returns the offset reached: @p to,
     * or the poll point where the guard stopped the run
     * (res.guardStatus then says why). The cursor must have been
     * placed by seek().
     */
    uint64_t resume(uint64_t from, uint64_t to, const uint8_t *bytes,
                    const SimOptions &opts, SimResult &res);

    /** Add the hits, misses and flushes since the last call, and
     *  @p symbols, to the engine.lazy.* obs counters (one run). */
    void noteRun(uint64_t symbols);

    /** Whole-cache flushes since construction (cumulative). */
    uint64_t flushes() const { return flushes_; }
    /** State-sets currently interned. */
    uint64_t states() const { return sets_.size(); }
    /** Computed (state, class) transition cells currently cached. */
    uint64_t transitions() const { return cachedTransitions_; }
    /** Current accounted cache footprint in bytes. */
    uint64_t bytesUsed() const { return bytesUsed_; }
    /** Row cells reserved at construction; flushes never change it. */
    size_t rowCapacity() const { return next_.capacity(); }

    /** Resident bytes of the cache and its scratch: the accounted
     *  high-water mark (a flush keeps its capacity) plus scratch. */
    size_t footprintBytes() const;

  private:
    static constexpr uint32_t kUnknown = ~uint32_t(0);
    /** Cell bit: the rest of the cell indexes reportEdges_. */
    static constexpr uint32_t kReportBit = uint32_t(1) << 31;

    /** Sequences of T interned in one flat buffer under an
     *  open-addressing index: ids are dense from 0, and clear() keeps
     *  every buffer's capacity. */
    template <typename T>
    class SeqPool
    {
      public:
        uint32_t
        size() const
        {
            return static_cast<uint32_t>(begin_.size() - 1);
        }
        const T *data(uint32_t id) const { return items_.data() + begin_[id]; }
        uint32_t length(uint32_t id) const
        {
            return begin_[id + 1] - begin_[id];
        }
        /** The id of @p seq; @p added says whether it was new. */
        uint32_t intern(const std::vector<T> &seq, bool &added);
        void clear();

      private:
        /** Double the index (at least 64 slots) and re-slot every
         *  sequence. */
        void grow();

        std::vector<T> items_;
        /** Sequence id is items_[begin_[id], begin_[id + 1]). */
        std::vector<uint32_t> begin_{0};
        /** Power-of-two open-addressing index of ids (kUnknown =
         *  empty), at most half full. */
        std::vector<uint32_t> slots_;
    };

    /** A reporting transition: where it goes and what it reports. */
    struct ReportEdge {
        uint32_t next;
        uint32_t list;
    };

    /** Intern a sorted local-id set, charging a new one to the
     *  budget; returns its state id. */
    uint32_t intern(const std::vector<uint32_t> &set);

    /** Drop every interned state/transition/report list; capacities
     *  are kept. */
    void flushCache();

    /** Compute + cache the transition for (cur, cls); may flush the
     *  cache, in which case @p cur is re-interned in place. Returns
     *  the now-filled cell. */
    uint32_t fillCell(uint32_t &cur, uint32_t cls);

    const LazyDfaTables &t_;
    size_t budget_;
    /** The current state id (set by seek()). */
    uint32_t cur_ = 0;

    /** State id -> sorted local-id set. */
    SeqPool<uint32_t> sets_;
    /** next_[sid * numClasses + cls]: a cell (kUnknown = not yet
     *  computed). */
    std::vector<uint32_t> next_;
    std::vector<ReportEdge> reportEdges_;
    /** Report lists, entries sorted by (element, code). */
    SeqPool<std::pair<ElementId, uint32_t>> lists_;
    uint64_t bytesUsed_ = 0;
    uint64_t peakBytes_ = 0;
    uint64_t flushes_ = 0;
    uint64_t cachedTransitions_ = 0;

    /** obs tallies not yet flushed by noteRun(). */
    uint64_t hits_ = 0, misses_ = 0, notedFlushes_ = 0;

    // Scratch for transition computation (reused).
    std::vector<uint8_t> inNext_;
    std::vector<uint32_t> curScratch_;
    std::vector<uint32_t> succScratch_;
    std::vector<std::pair<ElementId, uint32_t>> repScratch_;
};

class PlannedEngine;

/**
 * Standalone lazy-DFA hybrid engine over one automaton: a
 * PlannedEngine over lazyDfaPlan() (planner.hh), so the counter
 * components run on the plan's interpreter lane and the merge, the
 * poll clock and the cache are the planned executor's.
 */
class LazyDfaEngine
{
  public:
    /** Compile @p a (not referenced after construction). */
    explicit LazyDfaEngine(const Automaton &a,
                           const LazyDfaOptions &opts = LazyDfaOptions());
    ~LazyDfaEngine();

    /**
     * Run over @p input. Mutates the transition cache (and therefore
     * the engine): callers share an engine across sequential calls to
     * keep the cache warm, but never across concurrent threads.
     */
    SimResult simulate(const uint8_t *input, size_t len,
                       const SimOptions &opts = SimOptions());

    SimResult
    simulate(const std::vector<uint8_t> &input,
             const SimOptions &opts = SimOptions())
    {
        return simulate(input.data(), input.size(), opts);
    }

    /** Elements on the lazy-DFA path (counter-free components). */
    size_t lazyElements() const { return tables_ ? tables_->elements() : 0; }

    /** Components interpreted by the NFA fallback (counters). */
    size_t fallbackComponents() const { return fallbackComponents_; }

    // The cache's counters (see LazyDfaCache; 0 without a lazy part
    // or before the first simulate()).
    uint64_t cacheFlushes() const { return cache() ? cache()->flushes() : 0; }
    uint64_t cachedStates() const { return cache() ? cache()->states() : 0; }
    uint64_t
    cachedTransitions() const
    {
        return cache() ? cache()->transitions() : 0;
    }
    uint64_t
    cacheBytesUsed() const
    {
        return cache() ? cache()->bytesUsed() : 0;
    }

    /** Input-symbol equivalence classes over the lazy partition. */
    uint32_t symbolClasses() const { return tables_ ? tables_->numClasses : 1; }

  private:
    /** The session's lazy cache (null as for cacheFlushes()). */
    const LazyDfaCache *cache() const;

    std::unique_ptr<PlannedEngine> engine_;
    /** The plan's lazy tables (null without a lazy part); they live
     *  as long as engine_. */
    const LazyDfaTables *tables_ = nullptr;
    size_t fallbackComponents_ = 0;
};

} // namespace azoo

#endif // AZOO_ENGINE_LAZY_DFA_ENGINE_HH
