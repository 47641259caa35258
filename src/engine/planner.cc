#include "engine/planner.hh"

#include <algorithm>

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
        // estimate.
        return p.blowupLog2 <= opts.maxLazyBlowupLog2
            ? PlanBackend::kLazyDfa
            : PlanBackend::kInterpreter;
    }
    // Acyclic, counter-free from here on.
    if (p.anchored && p.maxActivationDepth != analysis::kUnboundedLen)
        return PlanBackend::kAnchoredPrefix;
    if (opts.enablePrefilter &&
        p.cls == ComponentClass::kLiteralChain &&
        p.mandatoryLiteral.size() >= opts.minScanLiteral &&
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

// ---------------------------------------------------------------------
// CompiledPlan

CompiledPlan::CompiledPlan(
    const Automaton &a,
    const std::vector<analysis::ComponentProfile> &profiles,
    const PlanOptions &opts)
    : plan_(planComponents(a, profiles, opts)), opts_(opts)
{
    // Counted here, once per compile — never per executor or session.
    notePlan(plan_);

    // One split cuts a group per backend; kSkip (the last backend)
    // components are never copied.
    static_assert(static_cast<size_t>(PlanBackend::kSkip) ==
                  kPlanBackends - 1);
    const ComponentPartition parts(a);
    std::vector<uint32_t> byBackend(parts.count(),
                                    ComponentPartition::kNoGroup);
    std::vector<uint32_t> restOf(parts.count(),
                                 ComponentPartition::kNoGroup);
    for (const ComponentDecision &d : plan_.decisions) {
        if (d.backend == PlanBackend::kSkip)
            continue;
        byBackend[d.componentId] = static_cast<uint32_t>(d.backend);
        if (d.backend != PlanBackend::kPrefilter)
            restOf[d.componentId] = 0;
    }
    std::vector<ComponentPartition::Group> groups =
        parts.split(byBackend, kPlanBackends - 1);
    auto take = [&](PlanBackend b, bool compile) {
        ComponentPartition::Group &g = groups[static_cast<size_t>(b)];
        Group out;
        out.toGlobal = std::move(g.toGlobal);
        if (out.empty())
            return out;
        if (compile)
            out.engine = std::make_shared<const NfaEngine>(g.sub);
        else
            out.sub = std::move(g.sub);
        return out;
    };

    // Prefilter group: one scan literal + window radius per component.
    Group pre = take(PlanBackend::kPrefilter, false);
    if (!pre.empty()) {
        std::vector<PrefilterPattern> pats;
        for (const analysis::ComponentProfile &p : profiles) {
            if (byBackend[p.componentId] !=
                static_cast<uint32_t>(PlanBackend::kPrefilter))
                continue;
            PrefilterPattern pat;
            pat.literal = p.mandatoryLiteral.substr(0, opts.maxScanLiteral);
            // +2 slop over the exact reach so off-by-one drift in the
            // length facts can never clip a match.
            pat.radius = p.maxMatchLen + 2;
            pats.push_back(std::move(pat));
        }
        prefilter_ = std::make_unique<PrefilteredNfa>(
            pre.sub, std::move(pre.toGlobal), std::move(pats));
    }

    anchored_ = take(PlanBackend::kAnchoredPrefix, true);
    for (const analysis::ComponentProfile &p : profiles) {
        if (byBackend[p.componentId] ==
            static_cast<uint32_t>(PlanBackend::kAnchoredPrefix)) {
            anchoredPrefix_ = std::max<uint64_t>(
                anchoredPrefix_, uint64_t(p.maxActivationDepth) + 2);
        }
    }
    lazy_ = take(PlanBackend::kLazyDfa, false);
    interp_ = take(PlanBackend::kInterpreter, true);

    // Streaming interprets every non-prefilter group as one. When a
    // single block group already is that group, share its tables.
    const int restSources = int(!anchored_.empty()) +
        int(!lazy_.empty()) + int(!interp_.empty());
    if (restSources == 1) {
        const Group &only = !anchored_.empty() ? anchored_
            : !interp_.empty()                 ? interp_
                                               : lazy_;
        rest_.toGlobal = only.toGlobal;
        rest_.engine = only.engine
            ? only.engine
            : std::make_shared<const NfaEngine>(only.sub);
    } else if (restSources > 1) {
        ComponentPartition::Group g = std::move(parts.split(restOf, 1)[0]);
        rest_.engine = std::make_shared<const NfaEngine>(g.sub);
        rest_.toGlobal = std::move(g.toGlobal);
    }
}

size_t
CompiledPlan::footprintBytes() const
{
    size_t n = sizeof(*this);
    if (prefilter_)
        n += prefilter_->footprintBytes();
    for (const Group *g : {&anchored_, &lazy_, &interp_, &rest_}) {
        n += g->toGlobal.capacity() * sizeof(ElementId);
        n += g->sub.size() * sizeof(Element);
        for (const Element &e : g->sub.elements())
            n += (e.out.capacity() + e.resetOut.capacity()) *
                sizeof(ElementId);
    }
    // The rest group may share its engine with a block group.
    for (const Group *g : {&anchored_, &interp_})
        if (g->engine)
            n += g->engine->footprintBytes();
    if (rest_.engine && rest_.engine != anchored_.engine &&
        rest_.engine != interp_.engine)
        n += rest_.engine->footprintBytes();
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
    : plan_(std::move(plan))
{
    if (!plan_)
        panic("PlannedEngine: null plan");
    if (!plan_->lazy().empty()) {
        LazyDfaOptions lo;
        lo.cacheBytes = plan_->options().lazyCacheBytes;
        lazyEngine_ = std::make_unique<LazyDfaEngine>(plan_->lazy().sub, lo);
    }
}

SimResult
PlannedEngine::simulate(const uint8_t *input, size_t len,
                        const SimOptions &uopts)
{
    const CompiledPlan &p = *plan_;
    const NfaEngine *interp = p.interp().engine.get();
    const NfaEngine *anchored = p.anchored().engine.get();
    const PrefilteredNfa *prefilter = p.prefilter();
    lastPrefilterStats_ = PrefilterStats();

    // Single-group fast path: when one backend covers every non-skip
    // component it already runs the whole input with the serial guard
    // contract, so delegating with the caller's options keeps
    // counter-coupled plans at interpreter parity. Recorded reports
    // still need the remap + canonical merge.
    if (!prefilter && !anchored && (!interp != !lazyEngine_)) {
        const SimOptions inner =
            uopts.recordReports ? recordAllOptions(uopts) : uopts;
        SimResult r = interp
            ? interp->simulate(input, len, interpScratch_, inner)
            : lazyEngine_->simulate(input, len, inner);
        if (!uopts.recordReports)
            return r;
        std::vector<Report> reports;
        appendGlobal(reports, r.reports,
                     interp ? p.interp().toGlobal : p.lazy().toGlobal);
        mergeCanonical(std::move(reports), uopts, r);
        return r;
    }

    // Backends record everything; the caller's recording options
    // apply in the merge (same contract as simulateSharded()).
    const SimOptions inner = recordAllOptions(uopts);
    SimResult out;
    out.symbols = len;
    auto truncate = [&](uint64_t sym, const Status &st) {
        if (sym < out.symbols || out.guardStatus.ok()) {
            out.symbols = std::min(out.symbols, sym);
            out.guardStatus = st;
        }
    };

    // Poll sweep over the whole input *before* the backends run: the
    // poll clock must tick even where every backend is absent or
    // skipping (an all-kSkip plan still honours a symbol budget), and
    // running it first means a budget stop truncates at the same poll
    // point the serial engine would, while wall-clock/cancel stops
    // mid-run are caught by the backends' own polls below.
    if (uopts.guard) {
        for (uint64_t t = 0; t < len;
             t += kGuardCheckIntervalSymbols) {
            Status st = uopts.guard->check(t);
            if (!st.ok()) {
                truncate(t, st);
                break;
            }
        }
    }

    std::vector<Report> reports;
    auto collect = [&](SimResult &&r, const CompiledPlan::Group &g) {
        appendGlobal(reports, r.reports, g.toGlobal);
        out.totalEnabled += r.totalEnabled;
        out.lazyFlushes += r.lazyFlushes;
        out.lazyStates += r.lazyStates;
        out.lazyFallbackComponents += r.lazyFallbackComponents;
        if (!r.guardStatus.ok())
            truncate(r.symbols, r.guardStatus);
    };

    if (interp && out.symbols > 0) {
        collect(interp->simulate(input, len, interpScratch_, inner),
                p.interp());
    }
    if (lazyEngine_ && out.symbols > 0)
        collect(lazyEngine_->simulate(input, len, inner), p.lazy());
    if (anchored && out.symbols > 0) {
        // Anchored components quiesce after anchoredPrefix() symbols,
        // so a completed prefix run covers the whole input.
        const size_t alen = static_cast<size_t>(
            std::min<uint64_t>(len, p.anchoredPrefix()));
        collect(anchored->simulate(input, alen, anchoredScratch_, inner),
                p.anchored());
    }
    if (prefilter && out.symbols > 0) {
        // Scans the caller's buffer in place.
        PrefilteredNfa::RunResult rr =
            prefilter->run(input, len, uopts.guard, prefilterScratch_);
        reports.insert(reports.end(), rr.reports.begin(),
                       rr.reports.end());
        out.totalEnabled += rr.totalEnabled;
        lastPrefilterStats_ = rr.stats;
        if (!rr.guardStatus.ok())
            truncate(rr.symbols, rr.guardStatus);
    }

    // Every backend's report stream is complete over the shortest
    // consumed prefix (each ran at least that far), so the merge's
    // clip is exact — no re-simulation, unlike simulateSharded().
    mergeCanonical(std::move(reports), uopts, out);
    return out;
}

// ---------------------------------------------------------------------
// PlannedSession

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
    if (plan_->prefilter()) {
        prefilterSession_ =
            std::make_unique<PrefilteredNfa::Session>(*plan_->prefilter());
    }
    if (!plan_->rest().empty()) {
        restSession_ =
            std::make_unique<StreamingSession>(plan_->rest().engine);
        // Record everything, unguarded: results() merges and caps,
        // and feed() owns the poll clock.
        restSession_->options = recordAllOptions(SimOptions());
    }
}

size_t
PlannedSession::feed(const uint8_t *data, size_t len)
{
    if (!guardStatus_.ok())
        return 0;
    if (restSession_) {
        restSession_->options.computeActiveSet =
            options.computeActiveSet;
    }
    size_t done = 0;
    while (done < len) {
        // The session owns the poll clock: both inner sessions are
        // fed in slices that never cross a kGuardCheckIntervalSymbols
        // boundary of *stream* position, so truncation lands on the
        // same poll points as the monolithic engines regardless of
        // how callers chunk their feeds.
        if (options.guard &&
            t_ % kGuardCheckIntervalSymbols == 0) {
            Status st = options.guard->check(t_);
            if (!st.ok()) {
                guardStatus_ = std::move(st);
                return done;
            }
        }
        const uint64_t untilPoll = kGuardCheckIntervalSymbols -
            t_ % kGuardCheckIntervalSymbols;
        const size_t step = static_cast<size_t>(
            std::min<uint64_t>(len - done, untilPoll));
        if (restSession_)
            restSession_->feed(data + done, step);
        if (prefilterSession_)
            prefilterSession_->feed(data + done, step);
        done += step;
        t_ += step;
    }
    return done;
}

SimResult
PlannedSession::results() const
{
    SimResult out;
    out.symbols = t_;
    out.guardStatus = guardStatus_;
    std::vector<Report> reports;
    if (restSession_) {
        const SimResult &r = restSession_->results();
        appendGlobal(reports, r.reports, plan_->rest().toGlobal);
        out.totalEnabled += r.totalEnabled;
    }
    if (prefilterSession_) {
        const std::vector<Report> &pre = prefilterSession_->reports();
        reports.insert(reports.end(), pre.begin(), pre.end());
        out.totalEnabled += prefilterSession_->totalEnabled();
    }
    mergeCanonical(std::move(reports), options, out);
    return out;
}

void
PlannedSession::reset()
{
    if (prefilterSession_)
        prefilterSession_->reset();
    if (restSession_)
        restSession_->reset();
    t_ = 0;
    guardStatus_ = Status();
}

size_t
PlannedSession::footprintBytes() const
{
    size_t n = sizeof(*this);
    if (restSession_)
        n += restSession_->footprintBytes();
    if (prefilterSession_)
        n += prefilterSession_->footprintBytes();
    return n;
}

} // namespace azoo
