/**
 * @file
 * Profile-driven per-component engine planning.
 *
 * PR 7's analysis layer computes a ComponentProfile for every
 * connected component — class (literal-chain / bounded-regex /
 * counter-coupled / cyclic-unbounded), mandatory literal factor,
 * match-length and anchoring intervals, a determinization blowup
 * estimate. This module turns those facts into wall-clock throughput:
 * planComponents() assigns each component the cheapest backend that
 * is exact for it, CompiledPlan compiles the assignment once, and
 * PlannedEngine (block) / PlannedSession (streaming) execute that one
 * shared plan with results bit-identical (on the semantic
 * fields: symbols, reports, reportCount, reportingCycles, byCode,
 * guardStatus) to the serial NfaEngine after canonicalizeReports().
 * totalEnabled is engine-defined, as for MultiDfaEngine: skipped
 * regions and never-simulated components contribute nothing.
 *
 * The decision table (docs/ARCHITECTURE.md "Engine planning &
 * prefilters" is the narrative version):
 *
 *   reportCount == 0                  -> kSkip        (never reports)
 *   counter-coupled                   -> kInterpreter (exact counters)
 *   cyclic-unbounded, small blowup    -> kLazyDfa
 *   cyclic-unbounded, huge blowup     -> kInterpreter
 *   anchored, bounded depth           -> kAnchoredPrefix
 *   literal-chain, strong literal,
 *     bounded matches, all-input      -> kPrefilter
 *   everything else                   -> kLazyDfa
 *
 * Guard semantics: a planned run polls the caller's RunGuard on the
 * same kGuardCheckIntervalSymbols clock as the serial engines (every
 * backend polls, and a sweep covers skipped/absent work), and on a
 * stop all backends are reconciled to the shortest consumed prefix —
 * the same contract ParallelRunner::simulateSharded() keeps.
 */

#ifndef AZOO_ENGINE_PLANNER_HH
#define AZOO_ENGINE_PLANNER_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/profile.hh"
#include "core/automaton.hh"
#include "engine/engine_scratch.hh"
#include "engine/lazy_dfa_engine.hh"
#include "engine/nfa_engine.hh"
#include "engine/prefilter.hh"
#include "engine/report.hh"
#include "engine/streaming.hh"

namespace azoo {

/** Execution backend a component is planned onto. */
enum class PlanBackend : uint8_t {
    kPrefilter = 0,      ///< literal scan + windowed interpreter
    kAnchoredPrefix = 1, ///< interpreter over a bounded input prefix
    kLazyDfa = 2,        ///< lazy-DFA hybrid
    kInterpreter = 3,    ///< enabled-set interpreter
    kSkip = 4,           ///< no reporting member: never simulated
};

inline constexpr size_t kPlanBackends = 5;

/** "prefilter" / "anchored-prefix" / "lazy-dfa" / "interpreter" /
 *  "skip". */
const char *planBackendName(PlanBackend b);

/** One-letter census code: P / A / D / I / S. */
char planBackendCode(PlanBackend b);

/** Planning knobs. */
struct PlanOptions {
    /** Allow the literal-prefilter backend (`--no-prefilter` routes
     *  literal chains to the interpreter instead). */
    bool enablePrefilter = true;
    /** Shortest mandatory literal worth scanning for. */
    uint32_t minScanLiteral = 4;
    /** Scan-literal length cap (longer factors are truncated; the
     *  verify step inside the window restores exactness). */
    uint32_t maxScanLiteral = 8;
    /** Cyclic components with blowupLog2 above this interpret rather
     *  than use the lazy DFA. The estimate saturates at 32, so the
     *  default keeps every cyclic component on the lazy DFA: gap
     *  self-loops are absorbing, the set of state-sets actually
     *  visited stays small, and a saturated static estimate says
     *  nothing about the run-time working set. */
    uint32_t maxLazyBlowupLog2 = 32;
    /** Transition-cache budget of the lazy-DFA backend. */
    size_t lazyCacheBytes = 8u << 20;
    /** Profile-inference knobs (when the planner infers them). */
    analysis::InferOptions infer;
};

/** Where one component was routed. */
struct ComponentDecision {
    uint32_t componentId = 0;
    PlanBackend backend = PlanBackend::kInterpreter;
};

/** A full per-component assignment. */
struct EnginePlan {
    std::vector<ComponentDecision> decisions;
    std::array<uint32_t, kPlanBackends> backendCount{};

    /** Compact census like "P12/D3/I1" (zero counts omitted; "-"
     *  when there are no components). */
    std::string census() const;
};

/**
 * Assign a backend to every component of @p a. @p profiles must come
 * from analysis::inferProfiles() on the same automaton (they are
 * indexed by componentId). Deterministic.
 */
EnginePlan planComponents(const Automaton &a,
                          const std::vector<analysis::ComponentProfile>
                              &profiles,
                          const PlanOptions &opts = PlanOptions());

/**
 * A compiled EnginePlan: everything about a plan that does not change
 * while it runs, built once and shared (through a
 * `shared_ptr<const CompiledPlan>`) by every PlannedEngine and
 * PlannedSession executing it — block and streaming alike. One
 * ComponentPartition split cuts the backend groups; each gets its
 * `toGlobal` remap and, where it is interpreted, a compiled NfaEngine.
 *
 * Immutable after construction and therefore safe to share across
 * threads. The one mutable backend, the lazy DFA's transition cache,
 * is not part of it: each PlannedEngine builds its own LazyDfaEngine
 * over the plan's lazy group.
 */
class CompiledPlan
{
  public:
    /** One backend group of the plan. */
    struct Group {
        /** Sub-automaton (kept only where an executor borrows it: the
         *  lazy group, for per-executor LazyDfaEngines). */
        Automaton sub;
        /** Group-local element id -> original id (ascending). */
        std::vector<ElementId> toGlobal;
        /** Compiled interpreter tables (null for an empty group and
         *  for the lazy group). */
        std::shared_ptr<const NfaEngine> engine;

        bool empty() const { return toGlobal.empty(); }
    };

    /** Plan @p a from its profiles (analysis::inferProfiles(a)) and
     *  compile every group. The automaton is not referenced after
     *  construction. */
    CompiledPlan(const Automaton &a,
                 const std::vector<analysis::ComponentProfile> &profiles,
                 const PlanOptions &opts = PlanOptions());

    CompiledPlan(const CompiledPlan &) = delete;
    CompiledPlan &operator=(const CompiledPlan &) = delete;

    const EnginePlan &plan() const { return plan_; }
    const PlanOptions &options() const { return opts_; }

    /** Literal-prefilter group (null when none was planned). */
    const PrefilteredNfa *prefilter() const { return prefilter_.get(); }
    /** Anchored components, interpreted over the first
     *  anchoredPrefix() symbols only (block mode). */
    const Group &anchored() const { return anchored_; }
    /** Input prefix after which every anchored component has
     *  quiesced. */
    uint64_t anchoredPrefix() const { return anchoredPrefix_; }
    /** Lazy-DFA components (block mode; sub-automaton only). */
    const Group &lazy() const { return lazy_; }
    /** Interpreter components (block mode). */
    const Group &interp() const { return interp_; }
    /** Streaming mode: anchored + lazy + interpreter components in
     *  one interpreted group (the lazy DFA has no incremental API, so
     *  streams trade its speed for interpretation). */
    const Group &rest() const { return rest_; }

    /** Resident bytes of the shared compiled form, counted once per
     *  plan (sessions count only their own state). */
    size_t footprintBytes() const;

  private:
    EnginePlan plan_;
    PlanOptions opts_;
    std::unique_ptr<PrefilteredNfa> prefilter_;
    Group anchored_, lazy_, interp_, rest_;
    uint64_t anchoredPrefix_ = 0;
};

/**
 * Block executor of a CompiledPlan: runs each group on its backend
 * over the whole input and merges the reports into a single canonical
 * SimResult.
 *
 * simulate() mutates per-executor state (the lazy DFA's transition
 * cache, scratches), so a PlannedEngine must not be shared by
 * concurrently simulating threads — ParallelRunner gives each worker
 * slot its own, all over one shared CompiledPlan. Reports come out in
 * canonical (offset, element, code) order with original element ids.
 */
class PlannedEngine
{
  public:
    /** Infer profiles and compile a private plan. The automaton need
     *  only outlive construction (groups are copied out). */
    explicit PlannedEngine(const Automaton &a,
                           const PlanOptions &opts = PlanOptions());

    /** Compile a private plan from precomputed profiles
     *  (inferProfiles(a)). */
    PlannedEngine(const Automaton &a,
                  const std::vector<analysis::ComponentProfile> &profiles,
                  const PlanOptions &opts = PlanOptions());

    /** Execute a shared compiled plan (pinned; never null). */
    explicit PlannedEngine(std::shared_ptr<const CompiledPlan> plan);

    SimResult simulate(const uint8_t *input, size_t len,
                       const SimOptions &opts = SimOptions());

    SimResult
    simulate(const std::vector<uint8_t> &input,
             const SimOptions &opts = SimOptions())
    {
        return simulate(input.data(), input.size(), opts);
    }

    const EnginePlan &plan() const { return plan_->plan(); }

    /** Scan literals the prefilter backend sweeps for (0 when no
     *  component was planned onto it). */
    size_t prefilterPatterns() const
    {
        return plan_->prefilter() ? plan_->prefilter()->patternCount()
                                  : 0;
    }

    /** Prefilter effectiveness of the most recent simulate() (all
     *  zero when the plan has no prefilter group). */
    const PrefilterStats &lastPrefilterStats() const
    {
        return lastPrefilterStats_;
    }

  private:
    std::shared_ptr<const CompiledPlan> plan_;
    /** This executor's lazy DFA over the plan's lazy group. */
    std::unique_ptr<LazyDfaEngine> lazyEngine_;
    EngineScratch prefilterScratch_, anchoredScratch_, interpScratch_;
    PrefilterStats lastPrefilterStats_;
};

/**
 * Streaming executor of a CompiledPlan: chunked feeding with
 * persistent state, same canonical results as a monolithic planned
 * run (and therefore as serial NfaEngine + canonicalizeReports()).
 *
 * The prefilter group streams through PrefilteredNfa::Session; the
 * plan's rest group streams through one StreamingSession over the
 * plan's compiled rest engine. The session holds only per-stream
 * state and pins the plan, so many sessions (on any threads) share one
 * compile. It owns the guard poll clock: options.guard is polled
 * every kGuardCheckIntervalSymbols stream symbols regardless of
 * chunking, exactly like StreamingSession.
 */
class PlannedSession
{
  public:
    /** Infer profiles and compile a private plan. */
    explicit PlannedSession(const Automaton &a,
                            const PlanOptions &opts = PlanOptions());
    /** Compile a private plan from precomputed profiles. */
    PlannedSession(const Automaton &a,
                   const std::vector<analysis::ComponentProfile>
                       &profiles,
                   const PlanOptions &opts = PlanOptions());
    /** Stream over a shared compiled plan (pinned; never null). */
    explicit PlannedSession(std::shared_ptr<const CompiledPlan> plan);

    /** Feed a chunk; returns bytes consumed (short exactly when
     *  options.guard stopped the session). */
    size_t feed(const uint8_t *data, size_t len);

    size_t
    feed(const std::vector<uint8_t> &data)
    {
        return feed(data.data(), data.size());
    }

    /** True once options.guard has stopped this session. */
    bool stopped() const { return !guardStatus_.ok(); }

    /** Merged canonical results over the consumed prefix (built on
     *  each call; offsets are absolute stream offsets). */
    SimResult results() const;

    uint64_t offset() const { return t_; }

    void reset();

    /** Resident bytes of this session's own state: the rest group's
     *  scratch and reports, and the prefilter session's scratch,
     *  window buffer and reports. The shared plan is counted once,
     *  by CompiledPlan::footprintBytes(). The serve layer's admission
     *  estimate is validated against this. */
    size_t footprintBytes() const;

    const EnginePlan &plan() const { return plan_->plan(); }

    const PrefilterStats &
    prefilterStats() const
    {
        static const PrefilterStats kNone;
        return prefilterSession_ ? prefilterSession_->stats() : kNone;
    }

    SimOptions options;

  private:
    std::shared_ptr<const CompiledPlan> plan_;
    std::unique_ptr<PrefilteredNfa::Session> prefilterSession_;
    std::unique_ptr<StreamingSession> restSession_;

    uint64_t t_ = 0;
    Status guardStatus_;
};

} // namespace azoo

#endif // AZOO_ENGINE_PLANNER_HH
