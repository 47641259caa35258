#include "engine/planner.hh"

#include <algorithm>
#include <numeric>
#include <utility>

#include "engine/partition.hh"
#include "engine/run_guard.hh"
#include "obs/obs.hh"
#include "util/logging.hh"

namespace azoo {

const char *
planBackendName(PlanBackend b)
{
    switch (b) {
      case PlanBackend::kPrefilter:
        return "prefilter";
      case PlanBackend::kAnchoredPrefix:
        return "anchored-prefix";
      case PlanBackend::kLazyDfa:
        return "lazy-dfa";
      case PlanBackend::kInterpreter:
        return "interpreter";
      case PlanBackend::kSkip:
        return "skip";
    }
    return "?";
}

char
planBackendCode(PlanBackend b)
{
    switch (b) {
      case PlanBackend::kPrefilter:
        return 'P';
      case PlanBackend::kAnchoredPrefix:
        return 'A';
      case PlanBackend::kLazyDfa:
        return 'D';
      case PlanBackend::kInterpreter:
        return 'I';
      case PlanBackend::kSkip:
        return 'S';
    }
    return '?';
}

std::string
EnginePlan::census() const
{
    std::string out;
    for (size_t b = 0; b < kPlanBackends; ++b) {
        if (backendCount[b] == 0)
            continue;
        if (!out.empty())
            out += '/';
        out += planBackendCode(static_cast<PlanBackend>(b));
        out += std::to_string(backendCount[b]);
    }
    return out.empty() ? "-" : out;
}

namespace {

/** Shortest mandatory literal worth scanning for. */
constexpr size_t kMinScanLiteral = 4;
/** Scan-literal length cap (longer factors are truncated; the verify
 *  step inside the window restores exactness). */
constexpr size_t kMaxScanLiteral = 8;

/** Per-component "has a start-of-data member" bits; the prefilter
 *  window replay is only exact for pure all-input-start components
 *  (an SoD start matches at offset 0 only, which a window opened
 *  mid-stream cannot represent). */
std::vector<uint8_t>
sodComponents(const Automaton &a)
{
    uint32_t count = 0;
    const std::vector<uint32_t> comp = a.connectedComponents(count);
    std::vector<uint8_t> hasSod(count, 0);
    for (ElementId i = 0; i < a.size(); ++i) {
        if (a.element(i).start == StartType::kStartOfData)
            hasSod[comp[i]] = 1;
    }
    return hasSod;
}

PlanBackend
decide(const analysis::ComponentProfile &p, bool hasSod,
       const PlanOptions &opts)
{
    using analysis::ComponentClass;
    if (p.reportCount == 0)
        return PlanBackend::kSkip;
    if (p.cls == ComponentClass::kCounterCoupled)
        return PlanBackend::kInterpreter;
    if (p.cls == ComponentClass::kCyclicUnbounded) {
        // Cycles on accepting paths (dot-star gaps) are absorbing:
        // once active they stay active, so the lazy DFA's state-sets
        // converge to a small hot set regardless of the static blowup
        // estimate — as long as the plan gives executors a cache.
        return opts.lazyCacheBytes > 0 ? PlanBackend::kLazyDfa
                                       : PlanBackend::kInterpreter;
    }
    // Acyclic, counter-free from here on.
    if (p.anchored && p.maxActivationDepth != analysis::kUnboundedLen)
        return PlanBackend::kAnchoredPrefix;
    if (opts.enablePrefilter &&
        p.cls == ComponentClass::kLiteralChain &&
        p.mandatoryLiteral.size() >= kMinScanLiteral &&
        p.maxMatchLen != analysis::kUnboundedLen && !hasSod) {
        return PlanBackend::kPrefilter;
    }
    // Unanchored acyclic components restart at every input offset, so
    // a lazy-DFA state-set encodes the phase of every live run and
    // rarely repeats — the transition cache churns instead of
    // converging (mesh kernels are the worst case). The enabled-set
    // interpreter pays per active state but never constructs
    // state-sets.
    return PlanBackend::kInterpreter;
}

void
notePlan(const EnginePlan &plan)
{
    if (!obs::kEnabled)
        return;
    obs::Registry &reg = obs::Registry::global();
    for (size_t b = 0; b < kPlanBackends; ++b) {
        if (plan.backendCount[b] == 0)
            continue;
        reg.counter(cat("planner.assignments.",
                        planBackendName(static_cast<PlanBackend>(b))))
            .add(plan.backendCount[b]);
    }
}

} // namespace

EnginePlan
planComponents(const Automaton &a,
               const std::vector<analysis::ComponentProfile> &profiles,
               const PlanOptions &opts)
{
    const std::vector<uint8_t> hasSod = sodComponents(a);
    if (hasSod.size() != profiles.size())
        panic("planComponents: profiles do not match the automaton");
    EnginePlan plan;
    plan.decisions.reserve(profiles.size());
    for (const analysis::ComponentProfile &p : profiles) {
        const PlanBackend b =
            decide(p, hasSod[p.componentId] != 0, opts);
        plan.decisions.push_back({p.componentId, b});
        ++plan.backendCount[static_cast<size_t>(b)];
    }
    return plan;
}

namespace {

/** Components holding a counter to @p counterBackend, the others to
 *  @p otherBackend. */
EnginePlan
routeByCounters(const Automaton &a, PlanBackend counterBackend,
                PlanBackend otherBackend)
{
    uint32_t count = 0;
    const std::vector<uint32_t> comp = a.connectedComponents(count);
    std::vector<uint8_t> hasCounter(count, 0);
    if (counterBackend != otherBackend) {
        for (ElementId i = 0; i < a.size(); ++i) {
            if (a.element(i).kind == ElementKind::kCounter)
                hasCounter[comp[i]] = 1;
        }
    }
    EnginePlan plan;
    plan.decisions.reserve(count);
    for (uint32_t c = 0; c < count; ++c) {
        const PlanBackend b = hasCounter[c] ? counterBackend : otherBackend;
        plan.decisions.push_back({c, b});
        ++plan.backendCount[static_cast<size_t>(b)];
    }
    return plan;
}

} // namespace

EnginePlan
interpreterPlan(const Automaton &a)
{
    return routeByCounters(a, PlanBackend::kInterpreter,
                           PlanBackend::kInterpreter);
}

EnginePlan
lazyDfaPlan(const Automaton &a)
{
    return routeByCounters(a, PlanBackend::kInterpreter,
                           PlanBackend::kLazyDfa);
}

std::shared_ptr<const CompiledPlan>
compilePlan(const Automaton &a, EngineKind kind, const PlanOptions &opts,
            const std::vector<analysis::ComponentProfile> *profiles)
{
    if (kind == EngineKind::kPlanned) {
        if (profiles)
            return std::make_shared<const CompiledPlan>(a, *profiles, opts);
        return std::make_shared<const CompiledPlan>(
            a, analysis::inferProfiles(a, opts.infer), opts);
    }
    EnginePlan routing =
        kind == EngineKind::kNfa ? interpreterPlan(a) : lazyDfaPlan(a);
    return std::make_shared<const CompiledPlan>(
        a, std::move(routing), std::vector<analysis::ComponentProfile>(),
        opts);
}

// ---------------------------------------------------------------------
// CompiledPlan

CompiledPlan::CompiledPlan(
    const Automaton &a,
    const std::vector<analysis::ComponentProfile> &profiles,
    const PlanOptions &opts)
    : CompiledPlan(a, planComponents(a, profiles, opts), profiles, opts)
{
}

CompiledPlan::CompiledPlan(
    const Automaton &a, EnginePlan plan,
    const std::vector<analysis::ComponentProfile> &profiles,
    const PlanOptions &opts)
    : plan_(std::move(plan)), opts_(opts)
{
    // Counted here, once per compile — never per executor or session.
    notePlan(plan_);

    const size_t interpreted =
        plan_.backendCount[static_cast<size_t>(PlanBackend::kInterpreter)];
    if (interpreted != 0 && interpreted == plan_.decisions.size()) {
        // Everything on the interpreter: the group is the automaton
        // itself, so compile it without cutting a copy.
        interp_.toGlobal.resize(a.size());
        std::iota(interp_.toGlobal.begin(), interp_.toGlobal.end(),
                  ElementId(0));
        interp_.engine = std::make_shared<const NfaEngine>(a);
        return;
    }

    // One split cuts a group per interpreted backend (group index =
    // backend); lazy and skipped components are never copied.
    const ComponentPartition parts(a);
    if (plan_.decisions.size() != parts.count())
        panic("CompiledPlan: the plan does not match the automaton");
    std::vector<uint32_t> byBackend(parts.count(),
                                    ComponentPartition::kNoGroup);
    std::vector<uint8_t> onLazy(parts.count(), 0);
    std::vector<const analysis::ComponentProfile *> prefiltered;
    for (const ComponentDecision &d : plan_.decisions) {
        if (d.backend == PlanBackend::kLazyDfa)
            onLazy[d.componentId] = 1;
        else if (d.backend != PlanBackend::kSkip)
            byBackend[d.componentId] = static_cast<uint32_t>(d.backend);
        if (d.backend != PlanBackend::kPrefilter &&
            d.backend != PlanBackend::kAnchoredPrefix)
            continue;
        // Only these two backends read their component's profile.
        if (d.componentId >= profiles.size())
            panic("CompiledPlan: no profile for a prefilter or "
                  "anchored component");
        const analysis::ComponentProfile &p = profiles[d.componentId];
        if (d.backend == PlanBackend::kPrefilter) {
            prefiltered.push_back(&p);
        } else {
            anchoredPrefix_ = std::max<uint64_t>(
                anchoredPrefix_, uint64_t(p.maxActivationDepth) + 2);
        }
    }
    std::vector<ComponentPartition::Group> groups =
        parts.split(byBackend, kPlanBackends);
    auto take = [&](PlanBackend b) {
        ComponentPartition::Group &g = groups[static_cast<size_t>(b)];
        Group out;
        out.toGlobal = std::move(g.toGlobal);
        if (!out.empty())
            out.engine = std::make_shared<const NfaEngine>(g.sub);
        return out;
    };

    // Prefilter group: one scan literal + window radius per component
    // (in component order, as the group's elements are).
    if (!prefiltered.empty()) {
        std::vector<PrefilterPattern> pats;
        for (const analysis::ComponentProfile *p : prefiltered) {
            PrefilterPattern pat;
            pat.literal = p->mandatoryLiteral.substr(0, kMaxScanLiteral);
            // +2 slop over the exact reach so off-by-one drift in the
            // length facts can never clip a match.
            pat.radius = p->maxMatchLen + 2;
            pats.push_back(std::move(pat));
        }
        ComponentPartition::Group &pre =
            groups[static_cast<size_t>(PlanBackend::kPrefilter)];
        prefilter_ = std::make_unique<PrefilteredNfa>(
            pre.sub, std::move(pre.toGlobal), std::move(pats));
    }

    anchored_ = take(PlanBackend::kAnchoredPrefix);
    interp_ = take(PlanBackend::kInterpreter);

    std::vector<ElementId> lazyMembers;
    for (ElementId i = 0; i < a.size(); ++i) {
        if (onLazy[parts.of(i)])
            lazyMembers.push_back(i);
    }
    if (!lazyMembers.empty())
        lazy_ = std::make_unique<const LazyDfaTables>(a, lazyMembers);
}

size_t
CompiledPlan::footprintBytes() const
{
    size_t n = sizeof(*this);
    if (prefilter_)
        n += prefilter_->footprintBytes();
    if (lazy_)
        n += lazy_->footprintBytes();
    for (const Group *g : {&anchored_, &interp_}) {
        n += g->toGlobal.capacity() * sizeof(ElementId);
        if (g->engine)
            n += g->engine->footprintBytes();
    }
    return n;
}

// ---------------------------------------------------------------------
// PlannedSession

namespace {

/** The stream of one interpreted group, or null for an empty group
 *  (PlannedSession::feed() sets its options). */
std::unique_ptr<StreamingSession>
laneFor(const CompiledPlan::Group &g)
{
    if (g.empty())
        return nullptr;
    return std::make_unique<StreamingSession>(g.engine);
}

} // namespace

PlannedSession::PlannedSession(const Automaton &a,
                               const PlanOptions &opts)
    : PlannedSession(a, analysis::inferProfiles(a, opts.infer), opts)
{
}

PlannedSession::PlannedSession(
    const Automaton &a,
    const std::vector<analysis::ComponentProfile> &profiles,
    const PlanOptions &opts)
    : PlannedSession(std::make_shared<const CompiledPlan>(a, profiles, opts))
{
}

PlannedSession::PlannedSession(std::shared_ptr<const CompiledPlan> plan)
    : plan_(std::move(plan))
{
    if (!plan_)
        panic("PlannedSession: null plan");
    const CompiledPlan &p = *plan_;
    if (p.prefilter())
        prefilter_ = std::make_unique<PrefilteredNfa::Session>(*p.prefilter());
    anchored_ = laneFor(p.anchored());
    interp_ = laneFor(p.interp());
    lazy_ = p.lazy();
    if (lazy_)
        lazyCursor_ = lazy_->start0;
    if (!prefilter_ && !anchored_) {
        if (lazy_ && !interp_)
            sole_ = SoleLane::kLazy;
        else if (interp_ && !lazy_)
            sole_ = SoleLane::kInterp;
    }
}

size_t
PlannedSession::feed(const uint8_t *data, size_t len, LazyDfaCache *lent)
{
    if (stopped())
        return 0;
    // The lazy lane runs on the lent cache, or on the session's own,
    // from the cursor the session kept since its last feed.
    LazyDfaCache *cache = nullptr;
    uint64_t flushes0 = 0;
    if (lazy_) {
        if (!lent && !ownLazy_) {
            ownLazy_ = std::make_unique<LazyDfaCache>(
                *lazy_, plan_->options().lazyCacheBytes);
        }
        cache = lent ? lent : ownLazy_.get();
        if (&cache->tables() != lazy_)
            panic("PlannedSession: lent a cache over other tables");
        flushes0 = cache->flushes();
        cache->seek(lazyCursor_);
    }
    const uint64_t prefix = plan_->anchoredPrefix();
    // A sole lane tallies under the caller's options, so its record
    // cap holds as the stream grows; otherwise every lane records
    // everything for results() to merge. The session polls the guard.
    SimOptions laneOpts = recordAllOptions(SimOptions());
    laneOpts.computeActiveSet = options.computeActiveSet;
    if (sole_ != SoleLane::kNone) {
        laneOpts = options;
        laneOpts.guard = nullptr;
    }
    for (StreamingSession *lane : {anchored_.get(), interp_.get()}) {
        if (lane)
            lane->options = laneOpts;
    }
    size_t done = 0;
    while (done < len) {
        // The session owns the poll clock: every group is fed in
        // slices that never cross a kGuardCheckIntervalSymbols
        // boundary of *stream* position, so truncation lands on the
        // same poll points as the serial engines regardless of how
        // callers chunk their feeds. Unguarded, a feed is one slice.
        size_t step = len - done;
        if (options.guard) {
            const uint64_t phase = t_ % kGuardCheckIntervalSymbols;
            if (phase == 0) {
                Status st = options.guard->check(t_);
                if (!st.ok()) {
                    guardStatus_ = std::move(st);
                    obs::noteGuardStop("engine.stream",
                                       guardStatus_.code());
                    break;
                }
            }
            step = static_cast<size_t>(std::min<uint64_t>(
                step, kGuardCheckIntervalSymbols - phase));
        }
        const uint8_t *slice = data + done;
        if (prefilter_)
            prefilter_->feed(slice, step);
        if (anchored_ && t_ < prefix) {
            // Anchored components quiesce after the prefix.
            anchored_->feed(slice, static_cast<size_t>(std::min<uint64_t>(
                                       step, prefix - t_)));
        }
        if (cache)
            cache->resume(t_, t_ + step, slice, laneOpts, lazyResult_);
        if (interp_)
            interp_->feed(slice, step);
        done += step;
        t_ += step;
    }
    if (cache) {
        cache->cursor(lazyCursor_);
        lazyFlushes_ += cache->flushes() - flushes0;
        lazyStates_ = cache->states();
        cache->noteRun(done);
    }
    return done;
}

void
PlannedSession::finishSole(SimResult &out) const
{
    out.symbols = t_;
    out.guardStatus = guardStatus_;
    if (sole_ == SoleLane::kLazy) {
        out.lazyFlushes = lazyFlushes_;
        out.lazyStates = lazyStates_;
        return;
    }
    // Original ids, then canonical order: the interpreter emits a
    // cycle's reports in propagation order.
    const std::vector<ElementId> &toGlobal = plan_->interp().toGlobal;
    for (Report &r : out.reports)
        r.element = toGlobal[r.element];
    canonicalizeReports(out);
}

SimResult
PlannedSession::takeResults()
{
    if (sole_ == SoleLane::kNone)
        return results();
    SimResult out = sole_ == SoleLane::kLazy
        ? std::exchange(lazyResult_, SimResult())
        : interp_->takeResults();
    finishSole(out);
    return out;
}

SimResult
PlannedSession::results() const
{
    if (sole_ != SoleLane::kNone) {
        SimResult out = sole_ == SoleLane::kLazy ? lazyResult_
                                                 : interp_->results();
        finishSole(out);
        return out;
    }
    const CompiledPlan &p = *plan_;
    SimResult out;
    out.symbols = t_;
    out.guardStatus = guardStatus_;
    std::vector<Report> reports;
    auto collect = [&](const StreamingSession *lane,
                       const CompiledPlan::Group &g) {
        if (!lane)
            return;
        appendGlobal(reports, lane->results().reports, g.toGlobal);
        out.totalEnabled += lane->results().totalEnabled;
    };
    collect(anchored_.get(), p.anchored());
    collect(interp_.get(), p.interp());
    if (lazy_) {
        // The lazy tables report original element ids.
        reports.insert(reports.end(), lazyResult_.reports.begin(),
                       lazyResult_.reports.end());
        out.totalEnabled += lazyResult_.totalEnabled;
        out.lazyFlushes = lazyFlushes_;
        out.lazyStates = lazyStates_;
    }
    if (prefilter_) {
        const std::vector<Report> &pre = prefilter_->reports();
        reports.insert(reports.end(), pre.begin(), pre.end());
        out.totalEnabled += prefilter_->totalEnabled();
    }
    mergeCanonical(std::move(reports), options, out);
    return out;
}

void
PlannedSession::reset()
{
    if (prefilter_)
        prefilter_->reset();
    for (StreamingSession *lane : {anchored_.get(), interp_.get()}) {
        if (lane)
            lane->reset();
    }
    if (lazy_) {
        lazyCursor_ = lazy_->start0;
        lazyResult_ = SimResult();
        lazyFlushes_ = lazyStates_ = 0;
    }
    t_ = 0;
    guardStatus_ = Status();
}

size_t
PlannedSession::footprintBytes() const
{
    size_t n = sizeof(*this);
    for (StreamingSession *lane : {anchored_.get(), interp_.get()}) {
        if (lane)
            n += lane->footprintBytes();
    }
    if (prefilter_)
        n += prefilter_->footprintBytes();
    n += lazyCursor_.capacity() * sizeof(uint32_t) +
        lazyResult_.reports.capacity() * sizeof(Report);
    if (ownLazy_)
        n += ownLazy_->footprintBytes();
    return n;
}

// ---------------------------------------------------------------------
// PlannedEngine

PlannedEngine::PlannedEngine(const Automaton &a, const PlanOptions &opts)
    : PlannedEngine(a, analysis::inferProfiles(a, opts.infer), opts)
{
}

PlannedEngine::PlannedEngine(
    const Automaton &a,
    const std::vector<analysis::ComponentProfile> &profiles,
    const PlanOptions &opts)
    : PlannedEngine(std::make_shared<const CompiledPlan>(a, profiles, opts))
{
}

PlannedEngine::PlannedEngine(std::shared_ptr<const CompiledPlan> plan)
    : plan_(std::move(plan)), session_(plan_)
{
}

SimResult
PlannedEngine::simulate(const uint8_t *input, size_t len,
                        const SimOptions &opts)
{
    session_.reset();
    session_.options = opts;
    session_.feed(input, len);
    return session_.takeResults();
}

} // namespace azoo
