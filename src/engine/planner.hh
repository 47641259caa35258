/**
 * @file
 * Per-component engine plans: the one way every multi-backend engine
 * kind runs.
 *
 * PR 7's analysis layer computes a ComponentProfile for every
 * connected component — class (literal-chain / bounded-regex /
 * counter-coupled / cyclic-unbounded), mandatory literal factor,
 * match-length and anchoring intervals, a determinization blowup
 * estimate. An EnginePlan routes each component to a backend, and
 * there are three routings, one per engine kind:
 *
 *  - planComponents() (`--engine auto`) assigns each component the
 *    cheapest backend that is exact for it, from its profile;
 *  - lazyDfaPlan() (`--engine lazydfa`, LazyDfaEngine) routes counter
 *    components to the interpreter and all others to the lazy DFA;
 *  - interpreterPlan() (`--engine nfa` sessions and runners) routes
 *    everything to the interpreter.
 *
 * CompiledPlan compiles whichever routing it is given, once, and
 * PlannedEngine (block) / PlannedSession (streaming) execute that one
 * shared plan with results bit-identical (on the semantic fields:
 * symbols, reports, reportCount, reportingCycles, byCode,
 * guardStatus) to the serial NfaEngine after canonicalizeReports().
 * totalEnabled is engine-defined, as for MultiDfaEngine: skipped
 * regions and never-simulated components contribute nothing; the nfa
 * and lazydfa routings skip nothing, so theirs is NfaEngine's.
 *
 * The profile-driven decision table (docs/ARCHITECTURE.md "Engine
 * planning & prefilters" is the narrative version):
 *
 *   reportCount == 0                  -> kSkip        (never reports)
 *   counter-coupled                   -> kInterpreter (exact counters)
 *   cyclic-unbounded                  -> kLazyDfa
 *                                        (kInterpreter when the plan
 *                                        has no lazy cache budget)
 *   anchored, bounded depth           -> kAnchoredPrefix
 *   literal-chain, strong literal,
 *     bounded matches, all-input      -> kPrefilter
 *   everything else                   -> kInterpreter
 *
 * Execution: there is one executor, PlannedSession, which feeds every
 * chunk to the plan's lanes in turn — prefilter, anchored (only up to
 * the anchored prefix), lazy DFA and interpreter — each resuming its
 * own kernel from per-session state. The lazy DFA's per-session state
 * is only its cursor's state-set: its transition cache is lent for
 * each feed (in serve, by the feeding worker: one cache per worker per
 * generation) or, with no lender, is the session's own. Block
 * execution is a session fed once: PlannedEngine::simulate() is
 * reset(), feed(), results(). The lanes record every report and
 * results() merges them canonically, except when the lazy DFA or the
 * interpreter is the plan's only lane: that lane runs under the
 * caller's options (so
 * reportRecordLimit caps what it keeps) and its tallies are the
 * result — the lazy DFA's reports already come out canonical, and
 * the interpreter's are sorted as canonicalizeReports() sorts
 * NfaEngine's.
 *
 * Guard semantics: the session is the only poll clock of a planned
 * run. It polls the caller's RunGuard every kGuardCheckIntervalSymbols
 * stream symbols (the serial engines' clock, whatever the chunking)
 * and feeds the lanes in slices that end on those poll points, so a
 * stop truncates every lane at the same prefix the serial engine
 * would.
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
    /** Transition-cache budget of each executor's lazy DFA. 0 means
     *  no lazy backend: cyclic components are interpreted, and an
     *  executor carries no cache. */
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

/** Every component of @p a on the interpreter. */
EnginePlan interpreterPlan(const Automaton &a);

/** Components of @p a that hold a counter on the interpreter (counter
 *  values are not part of a DFA state), every other one on the lazy
 *  DFA. */
EnginePlan lazyDfaPlan(const Automaton &a);

/**
 * A compiled EnginePlan: everything about a plan that does not change
 * while it runs, built once and shared (through a
 * `shared_ptr<const CompiledPlan>`) by every PlannedEngine and
 * PlannedSession executing it — block and streaming alike. One
 * ComponentPartition split cuts the interpreted groups, each with its
 * `toGlobal` remap and compiled NfaEngine (a group holding the whole
 * automaton compiles it without a copy); the lazy group compiles
 * straight into LazyDfaTables (reports carry original ids, so it needs
 * no remap). No automaton is kept.
 *
 * Immutable after construction and therefore safe to share across
 * threads. The one mutable backend state, the lazy DFA's transition
 * cache, is not part of it: LazyDfaCaches over the plan's lazy tables
 * belong to executors (a session's own) or to the serve pool's
 * workers, which lend theirs to the sessions they feed.
 */
class CompiledPlan
{
  public:
    /** One interpreted backend group of the plan. */
    struct Group {
        /** Group-local element id -> original id (ascending). */
        std::vector<ElementId> toGlobal;
        /** Compiled interpreter tables (null for an empty group). */
        std::shared_ptr<const NfaEngine> engine;

        bool empty() const { return toGlobal.empty(); }
    };

    /** Plan @p a from its profiles (analysis::inferProfiles(a)) and
     *  compile every group: planComponents() plus the constructor
     *  below. The automaton is not referenced after construction. */
    CompiledPlan(const Automaton &a,
                 const std::vector<analysis::ComponentProfile> &profiles,
                 const PlanOptions &opts = PlanOptions());

    /** Compile the routing @p plan of @p a. Only prefilter and
     *  anchored components read their profile (so the nfa and lazydfa
     *  routings pass none); a missing one is a panic. */
    CompiledPlan(const Automaton &a, EnginePlan plan,
                 const std::vector<analysis::ComponentProfile> &profiles,
                 const PlanOptions &opts = PlanOptions());

    CompiledPlan(const CompiledPlan &) = delete;
    CompiledPlan &operator=(const CompiledPlan &) = delete;

    const EnginePlan &plan() const { return plan_; }
    const PlanOptions &options() const { return opts_; }

    /** Literal-prefilter group (null when none was planned). */
    const PrefilteredNfa *prefilter() const { return prefilter_.get(); }
    /** Anchored components, interpreted over the first
     *  anchoredPrefix() symbols of a stream only. */
    const Group &anchored() const { return anchored_; }
    /** Input prefix after which every anchored component has
     *  quiesced. */
    uint64_t anchoredPrefix() const { return anchoredPrefix_; }
    /** Lazy-DFA components' compiled tables (null when none). */
    const LazyDfaTables *lazy() const { return lazy_.get(); }
    /** Interpreter components. */
    const Group &interp() const { return interp_; }

    /** Resident bytes of the shared compiled form, counted once per
     *  plan (sessions count only their own state). */
    size_t footprintBytes() const;

  private:
    EnginePlan plan_;
    PlanOptions opts_;
    std::unique_ptr<PrefilteredNfa> prefilter_;
    Group anchored_, interp_;
    std::unique_ptr<const LazyDfaTables> lazy_;
    uint64_t anchoredPrefix_ = 0;
};

/** The engine kinds that are routings of one CompiledPlan. */
enum class EngineKind : uint8_t {
    kNfa,     ///< interpreterPlan(): the enabled-set interpreter
    kLazyDfa, ///< lazyDfaPlan(): the lazy-DFA hybrid
    kPlanned, ///< planComponents(): profile-planned backends
};

/** Compile @p a under @p kind's routing. Only kPlanned reads
 *  profiles: @p profiles (inferProfiles(a)) when given, inferred
 *  otherwise. */
std::shared_ptr<const CompiledPlan>
compilePlan(const Automaton &a, EngineKind kind,
            const PlanOptions &opts = PlanOptions(),
            const std::vector<analysis::ComponentProfile> *profiles =
                nullptr);

/**
 * The executor of a CompiledPlan: chunked feeding with persistent
 * state, with the same canonical results as serial NfaEngine +
 * canonicalizeReports() for any chunking (see the file comment for
 * the groups and the poll clock).
 *
 * The prefilter group streams through a PrefilteredNfa::Session, the
 * anchored and interpreter groups through StreamingSessions, and the
 * lazy group through a LazyDfaCache. Between feeds the session keeps
 * only the lazy cursor's state-set; each feed seeks it into the cache
 * the caller lends for that feed (the serve pool lends the feeding
 * worker's), or, with no lender, into a private cache the session
 * makes on its first such feed and keeps warm across reset(). The
 * session pins the plan and holds only its own state, so many
 * sessions (on any threads) share one compile; a cache is the only
 * part that grows, up to the plan's lazyCacheBytes.
 *
 * It is also the serve layer's match session (serve::MatchSession)
 * and every ParallelRunner slot, whatever the engine kind.
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
     *  options.guard stopped the session). The lazy group runs on
     *  @p lent, a cache over this plan's lazy tables that the caller
     *  owns and no other thread uses during the call, or on the
     *  session's own cache when @p lent is null. */
    size_t feed(const uint8_t *data, size_t len,
                LazyDfaCache *lent = nullptr);

    size_t
    feed(const std::vector<uint8_t> &data)
    {
        return feed(data.data(), data.size());
    }

    /** True once options.guard has stopped this session. */
    bool stopped() const { return !guardStatus_.ok(); }

    /** Merged canonical results over the consumed prefix (built on
     *  each call; offsets are absolute stream offsets). lazyFlushes
     *  counts the flushes during this stream's feeds, lazyStates the
     *  states the cache of its last feed held after it; on lent
     *  caches both depend on which other streams shared them. */
    SimResult results() const;

    /** results(), moving out what it would copy (a sole lane's
     *  report vector): the block callers' form. The session must be
     *  reset() before it is fed again. */
    SimResult takeResults();

    uint64_t offset() const { return t_; }

    /** Back to start-of-stream; results cleared, own lazy cache
     *  kept. */
    void reset();

    /** Resident bytes of this session's own state: the interpreted
     *  groups' scratch and reports, the prefilter session's scratch,
     *  kept tail and reports, the lazy cursor and reports, and its own
     *  lazy cache if it made one. The shared plan is counted once, by
     *  CompiledPlan::footprintBytes(), and a lent cache by its owner.
     *  The serve layer's admission estimate is validated against
     *  this. */
    size_t footprintBytes() const;

    const EnginePlan &plan() const { return plan_->plan(); }

    const PrefilterStats &
    prefilterStats() const
    {
        static const PrefilterStats kNone;
        return prefilter_ ? prefilter_->stats() : kNone;
    }

    /** The session's own lazy cache (null when the plan has no lazy
     *  group or every feed so far ran on a lent cache). */
    const LazyDfaCache *lazyCache() const { return ownLazy_.get(); }

    SimOptions options;

  private:
    /** The plan's only lane, when it is one that runs under the
     *  caller's options (minus the guard) and tallies the result. */
    enum class SoleLane : uint8_t { kNone, kLazy, kInterp };

    /** Turn the sole lane's tallies @p out into the session's result:
     *  the fields the lane does not know, and the interpreter's
     *  reports mapped to original ids in canonical order. */
    void finishSole(SimResult &out) const;

    std::shared_ptr<const CompiledPlan> plan_;
    std::unique_ptr<PrefilteredNfa::Session> prefilter_;
    std::unique_ptr<StreamingSession> anchored_, interp_;
    /** The plan's lazy tables (null without a lazy group). */
    const LazyDfaTables *lazy_ = nullptr;
    /** The cache of feeds with no lender, made by the first. */
    std::unique_ptr<LazyDfaCache> ownLazy_;
    /** The lazy cursor's state-set between feeds. */
    std::vector<uint32_t> lazyCursor_;
    SoleLane sole_ = SoleLane::kNone;
    /** The lazy group's reports and active set since reset(). */
    SimResult lazyResult_;
    /** Flushes during this stream's feeds; states of the cache that
     *  ran the last one, after it. */
    uint64_t lazyFlushes_ = 0, lazyStates_ = 0;

    uint64_t t_ = 0;
    Status guardStatus_;
};

/**
 * Block executor of a CompiledPlan: a PlannedSession fed once.
 * simulate() is reset(), feed(input), results(), so block and
 * streaming share one executor, one poll clock and one canonical
 * merge; reports come out in canonical (offset, element, code) order
 * with original element ids.
 *
 * simulate() mutates the session (its lazy cache warms across calls),
 * so a PlannedEngine must not be shared by concurrently simulating
 * threads — give each thread its own, all over one shared
 * CompiledPlan.
 */
class PlannedEngine
{
  public:
    /** Infer profiles and compile a private plan. The automaton need
     *  only outlive construction. */
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

    /** The executed plan. */
    const CompiledPlan &compiled() const { return *plan_; }

    /** The session's lazy transition cache (null without a lazy
     *  group, or before the first simulate()). */
    const LazyDfaCache *lazyCache() const { return session_.lazyCache(); }

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
        return session_.prefilterStats();
    }

  private:
    std::shared_ptr<const CompiledPlan> plan_;
    PlannedSession session_;
};

} // namespace azoo

#endif // AZOO_ENGINE_PLANNER_HH
