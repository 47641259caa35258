#include "serve/session_manager.hh"

#include "obs/obs.hh"
#include "serve/ruleset.hh"
#include "util/logging.hh"

namespace azoo {
namespace serve {

namespace {

/**
 * Resident-size estimate for one engine session: its own state only.
 * The compiled tables (engine or plan) are shared by every session of
 * a generation and fixed per generation, so they are not priced per
 * session. Per element, the interpreter scratch holds enable, count
 * and reset stamps (8 B each), a counter value (4 B), a latch byte and
 * two worklist slots (4 B each): 37 B, rounded up to 40. The constant
 * covers a planned session's prefilter window buffer and allocator
 * slack. An estimate is enough: admission only needs the right order
 * of magnitude to keep capacity * footprint under the budget, and the
 * session tests hold it to within one order of a measured
 * footprintBytes().
 */
size_t
estimateBytes(const Automaton &a, size_t maxReportRecords)
{
    return a.size() * 40 + maxReportRecords * sizeof(Report) +
        (64u << 10);
}

/** Sum of the live worker caches' footprintBytes(), across every
 *  live generation. */
obs::Gauge &
workerCacheGauge()
{
    static obs::Gauge &g =
        obs::Registry::global().gauge("serve.lazy.worker_cache_bytes");
    return g;
}

} // namespace

MatchSessionPool::MatchSessionPool(
    std::shared_ptr<const CompiledRuleset> gen, size_t maxReportRecords,
    size_t workers)
    : gen_(std::move(gen)), workerCaches_(workers)
{
    if (!gen_)
        panic("MatchSessionPool: null generation");
    engine_ = gen_->spec.engine;
    sessionBytes_ = estimateBytes(gen_->automaton, maxReportRecords);
}

MatchSessionPool::MatchSessionPool(const Automaton &a, ServeEngine engine,
                                   const PlanOptions &popts,
                                   size_t maxReportRecords, size_t workers)
    : MatchSessionPool(
          makeInlineRuleset(a, RulesetSpec{engine, popts, ParseLimits()}),
          maxReportRecords, workers)
{
}

MatchSessionPool::~MatchSessionPool()
{
    for (const WorkerCache &w : workerCaches_)
        workerCacheGauge().add(-static_cast<int64_t>(w.gaugedBytes));
}

uint64_t
MatchSessionPool::epoch() const
{
    return gen_->epoch;
}

std::unique_ptr<MatchSession>
MatchSessionPool::acquire()
{
    if (!free_.empty()) {
        std::unique_ptr<MatchSession> s = std::move(free_.back());
        free_.pop_back();
        // Fresh options for the new client; release() already reset
        // the engine state.
        s->options = SimOptions();
        return s;
    }
    ++created_;
    // The generation's one compile, shared by every session. Deferred
    // to the first acquire so that building a pool (at start-up, or
    // on a reload worker) stays cheap.
    if (!plan_) {
        plan_ = compilePlan(gen_->automaton,
                            engine_ == ServeEngine::kPlanned
                                ? EngineKind::kPlanned
                                : EngineKind::kNfa,
                            gen_->spec.plan, &gen_->profiles);
    }
    return std::make_unique<MatchSession>(plan_);
}

size_t
MatchSessionPool::feed(MatchSession &s, const uint8_t *data, size_t len,
                       size_t worker)
{
    // plan_ is set: s came from acquire().
    if (!plan_->lazy() || worker >= workerCaches_.size())
        return s.feed(data, len);
    WorkerCache &w = workerCaches_[worker];
    if (!w.cache) {
        w.cache = std::make_unique<LazyDfaCache>(
            *plan_->lazy(), plan_->options().lazyCacheBytes);
    }
    const size_t done = s.feed(data, len, w.cache.get());
    const size_t bytes = w.cache->footprintBytes();
    workerCacheGauge().add(static_cast<int64_t>(bytes) -
                           static_cast<int64_t>(w.gaugedBytes));
    w.gaugedBytes = bytes;
    return done;
}

void
MatchSessionPool::release(std::unique_ptr<MatchSession> s)
{
    if (!s)
        return;
    s->reset();
    free_.push_back(std::move(s));
}

SessionManager::SessionManager(const ServeLimits &limits,
                               size_t perSessionBytes)
    : limits_(limits)
{
    setPerSessionBytes(perSessionBytes);
}

void
SessionManager::setPerSessionBytes(size_t perSessionBytes)
{
    capacity_ = limits_.maxSessions;
    if (limits_.memoryBudgetBytes > 0 && perSessionBytes > 0) {
        // Each admitted session may buffer up to the queue budget on
        // top of its engine footprint.
        const size_t per = perSessionBytes + limits_.queueBudgetBytes;
        size_t byMemory = limits_.memoryBudgetBytes / per;
        if (byMemory == 0)
            byMemory = 1; // a budget too small for one session still
                          // serves one at a time rather than nothing
        if (byMemory < capacity_)
            capacity_ = byMemory;
    }
    if (capacity_ == 0)
        capacity_ = 1;
}

AdmitDecision
SessionManager::tryAdmit(uint8_t priority, bool draining) const
{
    AdmitDecision d;
    if (draining) {
        d.reject = ReplyStatus::kRejectedDrain;
        return d;
    }
    if (sessions_.size() < capacity_) {
        d.admitted = true;
        return d;
    }
    // At capacity: shed the lowest-priority admitted session iff it is
    // strictly less important than the newcomer.
    uint64_t victim = kNoSession;
    uint8_t victimPrio = 255;
    for (const auto &[id, prio] : sessions_) {
        if (prio < victimPrio || victim == kNoSession) {
            victim = id;
            victimPrio = prio;
        }
    }
    if (victim != kNoSession && victimPrio < priority) {
        d.admitted = true;
        d.shedVictim = victim;
        return d;
    }
    d.reject = capacity_ < limits_.maxSessions
        ? ReplyStatus::kRejectedMemory
        : ReplyStatus::kRejectedBusy;
    return d;
}

void
SessionManager::admit(uint64_t id, uint8_t priority)
{
    sessions_[id] = priority;
}

void
SessionManager::retire(uint64_t id)
{
    sessions_.erase(id);
}

} // namespace serve
} // namespace azoo
