/**
 * @file
 * Session lifecycle for the match service: the match session, a
 * reset-reuse pool, and the admission controller.
 *
 * Three separable robustness mechanisms live here, used by
 * serve::Server but testable without sockets:
 *
 *  - MatchSession is a PlannedSession: both serve engines are
 *    routings of one CompiledPlan (interpreterPlan() for --engine nfa,
 *    the profiled plan for --engine auto), so the server's data path
 *    has exactly one shape and no virtual calls.
 *
 *  - MatchSessionPool recycles engine sessions across client
 *    sessions. The pool compiles its generation once (one
 *    CompiledPlan, on the first acquire()) and every session
 *    borrows it, holding only per-stream state; reset() is
 *    O(counters + start states), so a pooled session costs one
 *    scratch allocation per concurrency slot. The pool also owns one
 *    lazy-DFA cache per serve worker, which it lends to every session
 *    that worker feeds: lazy-DFA memory grows with the workers, not
 *    the sessions. The pool's correctness
 *    contract — a reused session behaves bit-identically to a fresh
 *    one, including after a guard stop — is what the reset-reuse
 *    regression in tests/test_streaming.cc pins across the zoo.
 *
 *  - SessionManager is the admission controller: a hard session-table
 *    cap and a memory budget translated into a session cap
 *    (budget / per-session footprint), with strict-priority shedding
 *    — when the table is full, a newcomer of strictly higher priority
 *    evicts the lowest-priority admitted session (which gets an
 *    explicit kShedOverload reply, never a silent drop); an equal- or
 *    lower-priority newcomer is rejected with a status naming the
 *    exhausted resource. Admission never allocates unboundedly: every
 *    reject happens before an engine session or queue is created.
 */

#ifndef AZOO_SERVE_SESSION_MANAGER_HH
#define AZOO_SERVE_SESSION_MANAGER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "analysis/profile.hh"
#include "engine/lazy_dfa_engine.hh"
#include "engine/planner.hh"
#include "engine/report.hh"
#include "serve/protocol.hh"

namespace azoo {
namespace serve {

struct CompiledRuleset; // serve/ruleset.hh

/** Resource bounds and QoS knobs for one server instance. */
struct ServeLimits {
    /** Hard cap on concurrently admitted sessions. */
    size_t maxSessions = 256;
    /** Per-session input-queue bound: past this many buffered bytes
     *  the server stops reading the client's socket (backpressure)
     *  until a worker drains the queue. */
    size_t queueBudgetBytes = 256u << 10;
    /** Total memory budget for session state (queues + engine
     *  sessions + reply buffers). Admission derives a session cap
     *  from it; 0 = no memory-derived cap. */
    size_t memoryBudgetBytes = 256u << 20;
    /** Per-session wall-clock deadline (RunGuard); 0 = none. */
    int64_t sessionDeadlineMs = 0;
    /** Per-session input-symbol budget (RunGuard); 0 = none. */
    uint64_t sessionSymbolBudget = 0;
    /** Report records a REPLY may carry (count is always exact). */
    size_t maxReportRecords = 4096;
};

/** One client stream: a PlannedSession over the pool's plan. */
using MatchSession = PlannedSession;

/** Which engine backs pooled sessions. */
enum class ServeEngine : uint8_t {
    kNfa,     ///< interpreterPlan() (enabled-set interpreter)
    kPlanned, ///< the profile-routed plan; its lazy DFA runs on the
              ///< feeding worker's cache (MatchSessionPool::feed)
};

/**
 * Free-list of engine sessions over one ruleset generation. acquire()
 * hands out a reset session with default options; release() returns
 * it for the next client. Not thread-safe: the server's event loop
 * owns acquire/release (workers only touch a session between them).
 *
 * The pool is keyed by generation by construction: it owns a
 * RulesetGeneration pin, compiles that generation's automaton once
 * (lazily, on the first acquire(), so building a pool stays cheap),
 * every session it creates executes that one compile, and a hot
 * reload swaps in a whole new pool — so a pooled session can never be
 * reused across rulesets, and a retired generation dies exactly when
 * its pool (and therefore its last session) does.
 *
 * Lazy-DFA caches: the plan keeps the generation's lazyCacheBytes,
 * and the pool holds one LazyDfaCache slot per serve worker, filled
 * on that worker's first feed() and only ever touched by it. They are
 * a fixed cost per generation (workers x lazyCacheBytes at most), so
 * admission does not price them per session; the
 * serve.lazy.worker_cache_bytes gauge sums the live ones.
 */
class MatchSessionPool
{
  public:
    /** Pin @p gen and serve sessions over it. Profiles for kPlanned
     *  come from the generation (inferred at compile/load time, once,
     *  not per session). @p maxReportRecords is the effective
     *  per-reply record cap (ServeLimits::maxReportRecords), sizing
     *  the report-buffer term of estimatedSessionBytes(). @p workers
     *  is the serve ThreadPool's size: one lazy cache slot each. */
    explicit MatchSessionPool(
        std::shared_ptr<const CompiledRuleset> gen,
        size_t maxReportRecords = ServeLimits().maxReportRecords,
        size_t workers = 0);

    /** Compatibility path for callers with a bare automaton: wraps
     *  @p a (copied) in an inline epoch-1 generation. */
    MatchSessionPool(const Automaton &a, ServeEngine engine,
                     const PlanOptions &popts = PlanOptions(),
                     size_t maxReportRecords =
                         ServeLimits().maxReportRecords,
                     size_t workers = 0);

    ~MatchSessionPool();

    MatchSessionPool(const MatchSessionPool &) = delete;
    MatchSessionPool &operator=(const MatchSessionPool &) = delete;

    std::unique_ptr<MatchSession> acquire();
    void release(std::unique_ptr<MatchSession> s);

    /**
     * Feed @p s, a session of this pool, on serve worker @p worker
     * (ThreadPool::currentWorker() of the calling worker), lending it
     * that worker's lazy cache; the cache is made on the worker's
     * first feed. Only worker @p worker may pass its index. An index
     * past the pool's workers (ThreadPool::kNoWorker off a worker
     * thread) feeds on the session's own cache instead.
     */
    size_t feed(MatchSession &s, const uint8_t *data, size_t len,
                size_t worker);

    /** Estimated resident bytes of one session's own state (scratch,
     *  window buffers, report records, lazy cursor); the admission
     *  controller's memory unit. The shared compile and the worker
     *  caches are fixed per generation and not priced per session. */
    size_t estimatedSessionBytes() const { return sessionBytes_; }

    /** Sessions constructed so far (reuse keeps this at the
     *  concurrency high-water mark, not the session count). */
    size_t created() const { return created_; }

    /** The pinned generation (never null). */
    const std::shared_ptr<const CompiledRuleset> &generation() const
    {
        return gen_;
    }

    /** Epoch of the pinned generation. */
    uint64_t epoch() const;

  private:
    /** One serve worker's lazy cache and the bytes of it the gauge
     *  holds. */
    struct WorkerCache {
        std::unique_ptr<LazyDfaCache> cache;
        size_t gaugedBytes = 0;
    };

    std::shared_ptr<const CompiledRuleset> gen_;
    ServeEngine engine_;
    /** The generation's compile (engine_'s routing), built by the
     *  first acquire(); sessions pin it too. */
    std::shared_ptr<const CompiledPlan> plan_;
    std::vector<std::unique_ptr<MatchSession>> free_;
    /** Indexed by worker; sized at construction, never resized. */
    std::vector<WorkerCache> workerCaches_;
    size_t created_ = 0;
    size_t sessionBytes_ = 0;
};

/** No session (shed-victim "none" value). */
inline constexpr uint64_t kNoSession = ~uint64_t(0);

/** Outcome of an admission attempt. */
struct AdmitDecision {
    bool admitted = false;
    /** When !admitted: kRejectedBusy / kRejectedMemory /
     *  kRejectedDrain. */
    ReplyStatus reject = ReplyStatus::kRejectedBusy;
    /** When admitted at capacity: the strictly-lower-priority session
     *  to shed first (kNoSession when capacity was free). */
    uint64_t shedVictim = kNoSession;
};

/**
 * Admission controller. Pure bookkeeping — the server enacts the
 * decisions (sends rejects, sheds victims) and reports lifecycle
 * transitions back. Sessions are identified by the server's ids.
 */
class SessionManager
{
  public:
    SessionManager(const ServeLimits &limits, size_t perSessionBytes);

    /**
     * Decide admission for a newcomer at @p priority (higher value =
     * more important). @p draining rejects everything (kRejectedDrain).
     * At capacity, a strictly-lower-priority admitted session is
     * offered as shedVictim; the caller must retire() it.
     */
    AdmitDecision tryAdmit(uint8_t priority, bool draining) const;

    /** Record an admitted session. */
    void admit(uint64_t id, uint8_t priority);

    /** Record the end of an admitted session (replied, shed, or
     *  dropped). Unknown ids are ignored (retire is idempotent). */
    void retire(uint64_t id);

    size_t active() const { return sessions_.size(); }

    /** Effective session cap: min(maxSessions, memory-derived). */
    size_t capacity() const { return capacity_; }

    /** Recompute capacity for a new per-session footprint (a hot
     *  ruleset reload changes the engine's memory unit). Sessions
     *  already admitted stay admitted — only future tryAdmit() calls
     *  see the new cap. */
    void setPerSessionBytes(size_t perSessionBytes);

    const ServeLimits &limits() const { return limits_; }

  private:
    ServeLimits limits_;
    size_t capacity_;
    std::map<uint64_t, uint8_t> sessions_; ///< id -> priority
};

} // namespace serve
} // namespace azoo

#endif // AZOO_SERVE_SESSION_MANAGER_HH
