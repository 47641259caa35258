/**
 * @file
 * LazyDfaEngine: an RE2-style lazy-DFA executor with a bounded
 * transition cache.
 *
 * MultiDfaEngine realises the paper's compiled-CPU speedup only for
 * components that fully determinize inside a state budget; everything
 * else — exactly the large-active-set benchmarks the paper uses to
 * motivate spatial architectures — used to drop to the enabled-set
 * interpreter. This engine closes that gap the way RE2 and modern
 * Hyperscan hybrids do: subset construction runs *on the fly* during
 * simulation, memoizing (state-set, symbol-class) -> next state-set
 * transitions in a cache with a configurable byte budget. Hot input
 * regions therefore cost one table probe per symbol regardless of how
 * many NFA states are enabled, while pathological inputs (too many
 * distinct state-sets) trigger whole-cache flushes and degrade
 * gracefully to interpretation speed instead of exploding memory.
 *
 * Counter components cannot be determinized (counter values are not
 * part of the subset state), so they are split off at construction
 * and interpreted by an embedded NfaEngine, mirroring how hybrid
 * engines mix DFA and NFA subsystems.
 *
 * Determinism: results are bit-identical to NfaEngine's on every
 * semantic field — reports carry the original element ids and appear
 * in canonical (offset, element, code) order (the order
 * canonicalizeReports() gives a serial NfaEngine result), and
 * reportCount, totalEnabled, reportingCycles, and byCode are exact,
 * not approximations.
 *
 * Unlike NfaEngine, simulate() mutates the engine (the transition
 * cache warms up and persists across calls), so an engine must not be
 * shared by concurrently simulating threads; ParallelRunner builds
 * one per worker slot instead.
 */

#ifndef AZOO_ENGINE_LAZY_DFA_ENGINE_HH
#define AZOO_ENGINE_LAZY_DFA_ENGINE_HH

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/automaton.hh"
#include "engine/engine_scratch.hh"
#include "engine/nfa_engine.hh"
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

/** Lazy-DFA hybrid engine over a borrowed automaton. */
class LazyDfaEngine
{
  public:
    explicit LazyDfaEngine(const Automaton &a,
                           const LazyDfaOptions &opts = LazyDfaOptions());

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
    size_t lazyElements() const { return globalId_.size(); }

    /** Components interpreted by the NFA fallback (counters). */
    size_t fallbackComponents() const { return fallbackComponentCount_; }

    /** Whole-cache flushes since construction (cumulative). */
    uint64_t cacheFlushes() const { return flushes_; }

    /** State-sets currently interned in the cache. */
    uint64_t cachedStates() const { return members_.size(); }

    /** Computed (state, class) transition cells currently cached. */
    uint64_t cachedTransitions() const { return cachedTransitions_; }

    /** Current accounted cache footprint in bytes. */
    uint64_t cacheBytesUsed() const { return bytesUsed_; }

    /** Input-symbol equivalence classes over the lazy partition. */
    uint32_t symbolClasses() const { return numClasses_; }

  private:
    static constexpr uint32_t kUnknown = ~uint32_t(0);

    void buildLazyPart(const std::vector<ElementId> &members);

    /** Intern a sorted local-id set; returns its state id. */
    uint32_t intern(const std::vector<uint32_t> &set);

    /** Intern a sorted (element, code) report list; 0 = empty. */
    uint32_t internReports(
        const std::vector<std::pair<ElementId, uint32_t>> &reps);

    /** Drop every interned state/transition/report list. */
    void flushCache();

    /** Compute + cache the transition for (cur, cls); may flush the
     *  cache, in which case @p cur is re-interned in place. Returns
     *  the cell index of the now-filled transition. */
    size_t fillCell(uint32_t &cur, uint32_t cls);

    /** Pure-lazy simulation (no counter fallback), streaming stats. */
    void simulateLazy(const uint8_t *input, size_t len,
                      const SimOptions &opts, SimResult &res);

    // ---- compiled lazy partition (immutable after construction) ----
    /** Borrowed: the caller guarantees the automaton outlives the
     *  engine (in the serve path, via a RulesetGeneration pin). */
    const Automaton &a_;
    LazyDfaOptions opts_;

    /** local id -> original element id (ascending). */
    std::vector<ElementId> globalId_;
    /** CSR over activation edges, all-input targets pre-filtered
     *  (they are permanently enabled and never join a state-set). */
    std::vector<uint32_t> edgeBegin_;
    std::vector<uint32_t> edgeTarget_;
    std::vector<std::array<uint64_t, 4>> label_;
    std::vector<uint8_t> reporting_;
    std::vector<uint32_t> reportCode_;
    /** Per input byte, the all-input local ids whose label matches. */
    std::array<std::vector<uint32_t>, 256> matchingAllInput_;
    /** Start-of-data local ids, sorted: the cycle-0 state-set. */
    std::vector<uint32_t> start0_;

    /** Byte -> symbol equivalence class (bytes indistinguishable to
     *  every lazy charset share a class, and so a transition row). */
    std::array<uint8_t, 256> classOf_{};
    uint32_t numClasses_ = 1;
    /** One representative byte per class. */
    std::vector<uint8_t> classRep_;

    // ---- bounded transition cache (mutated by simulate()) ----
    /** members_[sid] = sorted local-id set of DFA state sid. */
    std::vector<std::vector<uint32_t>> members_;
    /** next_[sid * numClasses_ + cls]; kUnknown = not yet computed. */
    std::vector<uint32_t> next_;
    /** reportIdx_ parallel to next_; index into pool_ (0 = none). */
    std::vector<uint32_t> reportIdx_;
    /** Report lists, entries sorted by (element, code); pool_[0] is
     *  the empty list. */
    std::vector<std::vector<std::pair<ElementId, uint32_t>>> pool_;
    std::map<std::vector<std::pair<ElementId, uint32_t>>, uint32_t>
        poolIds_;
    /** FNV hash of members -> state ids with that hash. */
    std::unordered_map<uint64_t, std::vector<uint32_t>> buckets_;
    uint64_t bytesUsed_ = 0;
    uint64_t flushes_ = 0;
    uint64_t cachedTransitions_ = 0;
    /** Cached start-state id (re-interned after each flush). */
    uint32_t startState_ = kUnknown;

    // Scratch for transition computation (per-engine, reused).
    std::vector<uint8_t> inNext_;
    std::vector<uint32_t> succScratch_;
    std::vector<std::pair<ElementId, uint32_t>> repScratch_;

    // ---- counter fallback ----
    std::unique_ptr<NfaEngine> fallbackEngine_;
    std::vector<ElementId> fallbackToGlobal_;
    size_t fallbackComponentCount_ = 0;
    EngineScratch fallbackScratch_;
};

} // namespace azoo

#endif // AZOO_ENGINE_LAZY_DFA_ENGINE_HH
