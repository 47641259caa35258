#include "engine/lazy_dfa_engine.hh"

#include <algorithm>

#include "engine/planner.hh"
#include "engine/run_guard.hh"
#include "obs/obs.hh"

namespace azoo {

namespace {

/** FNV-1a over the raw words of a sorted local-id set. */
uint64_t
hashSet(const std::vector<uint32_t> &set)
{
    uint64_t h = 1469598103934665603ULL;
    for (uint32_t v : set) {
        h ^= v;
        h *= 1099511628211ULL;
    }
    return h;
}

/** Accounted footprint of one interned state (members + one
 *  transition/report row + map overhead). */
size_t
stateBytes(size_t setSize, size_t numClasses)
{
    return 64 + setSize * sizeof(uint32_t) +
        numClasses * 2 * sizeof(uint32_t);
}

/** Accounted footprint of one pooled report list. */
size_t
poolBytes(size_t listSize)
{
    return 48 + listSize * sizeof(std::pair<ElementId, uint32_t>);
}

} // namespace

// ---------------------------------------------------------------------
// LazyDfaTables

LazyDfaTables::LazyDfaTables(const Automaton &a,
                             const std::vector<ElementId> &members)
    : globalId(members)
{
    const auto m = static_cast<uint32_t>(members.size());
    constexpr uint32_t kNone = ~uint32_t(0);
    std::vector<uint32_t> toLocal(a.size(), kNone);
    for (uint32_t i = 0; i < m; ++i)
        toLocal[members[i]] = i;

    std::vector<uint8_t> isAllInput(m, 0);
    label.resize(m);
    reporting.assign(m, 0);
    reportCode.assign(m, 0);
    edgeBegin.assign(m + 1, 0);
    for (uint32_t i = 0; i < m; ++i) {
        const Element &e = a.element(members[i]);
        for (int w = 0; w < 4; ++w)
            label[i][w] = e.symbols.word(w);
        reporting[i] = e.reporting;
        reportCode[i] = e.reportCode;
        if (e.start == StartType::kAllInput) {
            isAllInput[i] = 1;
            for (int v = 0; v < 256; ++v) {
                if (e.symbols.test(static_cast<uint8_t>(v)))
                    matchingAllInput[v].push_back(i);
            }
        } else if (e.start == StartType::kStartOfData) {
            start0.push_back(i);
        }
    }
    // CSR with all-input targets pre-filtered: they never enter a
    // state-set (the matchingAllInput index covers them per byte),
    // exactly mirroring NfaEngine's isAllInput skip.
    for (uint32_t i = 0; i < m; ++i) {
        uint32_t deg = 0;
        for (auto t : a.element(members[i]).out) {
            if (!isAllInput[toLocal[t]])
                ++deg;
        }
        edgeBegin[i + 1] = edgeBegin[i] + deg;
    }
    edgeTarget.reserve(edgeBegin[m]);
    for (uint32_t i = 0; i < m; ++i) {
        for (auto t : a.element(members[i]).out) {
            const uint32_t lt = toLocal[t];
            if (!isAllInput[lt])
                edgeTarget.push_back(lt);
        }
    }

    // Symbol equivalence classes: bytes no lazy state can tell apart
    // share one transition row, which shrinks both cache rows and the
    // number of distinct cells a hot region touches.
    std::vector<const CharSet *> sets(m);
    for (uint32_t i = 0; i < m; ++i)
        sets[i] = &a.element(members[i]).symbols;
    SymbolClasses classes = symbolClasses(sets);
    classOf = classes.classOf;
    classRep = std::move(classes.rep);
    numClasses = static_cast<uint32_t>(classRep.size());
}

size_t
LazyDfaTables::footprintBytes() const
{
    size_t n = sizeof(*this);
    n += (globalId.capacity() + edgeBegin.capacity() +
          edgeTarget.capacity() + reportCode.capacity() +
          start0.capacity()) * sizeof(uint32_t);
    n += label.capacity() * sizeof(label[0]);
    n += reporting.capacity() + classRep.capacity();
    for (const std::vector<uint32_t> &v : matchingAllInput)
        n += v.capacity() * sizeof(uint32_t);
    return n;
}

// ---------------------------------------------------------------------
// LazyDfaCache

LazyDfaCache::LazyDfaCache(const LazyDfaTables &tables, size_t cacheBytes)
    : t_(tables), budget_(cacheBytes)
{
    pool_.emplace_back(); // index 0 = the empty report list
    inNext_.assign(t_.elements(), 0);
}

uint32_t
LazyDfaCache::intern(const std::vector<uint32_t> &set)
{
    const uint64_t h = hashSet(set);
    auto &bucket = buckets_[h];
    for (uint32_t id : bucket) {
        if (members_[id] == set)
            return id;
    }
    const auto id = static_cast<uint32_t>(members_.size());
    members_.push_back(set);
    bucket.push_back(id);
    next_.resize(members_.size() * t_.numClasses, kUnknown);
    reportIdx_.resize(members_.size() * t_.numClasses, 0);
    bytesUsed_ += stateBytes(set.size(), t_.numClasses);
    return id;
}

uint32_t
LazyDfaCache::internReports(
    const std::vector<std::pair<ElementId, uint32_t>> &reps)
{
    auto it = poolIds_.find(reps);
    if (it != poolIds_.end())
        return it->second;
    const auto idx = static_cast<uint32_t>(pool_.size());
    pool_.push_back(reps);
    poolIds_.emplace(reps, idx);
    bytesUsed_ += poolBytes(reps.size());
    return idx;
}

void
LazyDfaCache::flushCache()
{
    members_.clear();
    buckets_.clear();
    next_.clear();
    reportIdx_.clear();
    pool_.clear();
    pool_.emplace_back();
    poolIds_.clear();
    cachedTransitions_ = 0;
    bytesUsed_ = 0;
    ++flushes_;
}

size_t
LazyDfaCache::fillCell(uint32_t &cur, uint32_t cls)
{
    // Copy: interning below may reallocate members_.
    const std::vector<uint32_t> curSet = members_[cur];
    const uint8_t rep = t_.classRep[cls];
    const uint32_t word = rep >> 6;
    const uint64_t bit = uint64_t(1) << (rep & 63);

    succScratch_.clear();
    repScratch_.clear();
    auto onMatch = [&](uint32_t ls) {
        if (t_.reporting[ls])
            repScratch_.emplace_back(t_.globalId[ls], t_.reportCode[ls]);
        for (uint32_t k = t_.edgeBegin[ls]; k < t_.edgeBegin[ls + 1];
             ++k) {
            const uint32_t tgt = t_.edgeTarget[k];
            if (!inNext_[tgt]) {
                inNext_[tgt] = 1;
                succScratch_.push_back(tgt);
            }
        }
    };
    for (uint32_t ls : curSet) {
        if (t_.label[ls][word] & bit)
            onMatch(ls);
    }
    for (uint32_t al : t_.matchingAllInput[rep])
        onMatch(al);
    for (uint32_t t : succScratch_)
        inNext_[t] = 0;
    std::sort(succScratch_.begin(), succScratch_.end());
    std::sort(repScratch_.begin(), repScratch_.end());

    // Budget check with a worst-case (both inserts are new) estimate.
    // Keeping at least the current and next state guarantees forward
    // progress even when a single transition overshoots the budget.
    const size_t need = stateBytes(succScratch_.size(), t_.numClasses) +
        poolBytes(repScratch_.size());
    if (bytesUsed_ + need > budget_ && members_.size() > 2) {
        flushCache();
        cur = intern(curSet);
    }

    const uint32_t tgt = intern(succScratch_);
    const uint32_t ridx =
        repScratch_.empty() ? 0 : internReports(repScratch_);
    const size_t cell = static_cast<size_t>(cur) * t_.numClasses + cls;
    next_[cell] = tgt;
    reportIdx_[cell] = ridx;
    ++cachedTransitions_;
    return cell;
}

uint64_t
LazyDfaCache::resume(uint64_t from, uint64_t to, const uint8_t *bytes,
                     const SimOptions &opts, SimResult &res)
{
    constexpr uint64_t kPollMask = kGuardCheckIntervalSymbols - 1;
    if (cur_ == kUnknown)
        cur_ = intern(t_.start0);
    uint32_t cur = cur_;
    uint64_t hits = 0, misses = 0;
    uint64_t t = from;
    while (t < to) {
        uint64_t segEnd = to;
        if (opts.guard) {
            if ((t & kPollMask) == 0) {
                Status st = opts.guard->check(t);
                if (!st.ok()) {
                    res.guardStatus = std::move(st);
                    break;
                }
            }
            segEnd = std::min(to, (t | kPollMask) + 1);
        }
        for (; t < segEnd; ++t) {
            // The state-set is exactly NfaEngine's edge-enabled set
            // (all-input starts excluded), so its size *is* the
            // active set for this cycle.
            if (opts.computeActiveSet)
                res.totalEnabled += members_[cur].size();

            const uint32_t cls = t_.classOf[bytes[t - from]];
            size_t cell = static_cast<size_t>(cur) * t_.numClasses + cls;
            if (next_[cell] == kUnknown) {
                cell = fillCell(cur, cls);
                ++misses;
            } else {
                ++hits;
            }

            const uint32_t ridx = reportIdx_[cell];
            if (ridx) {
                const auto &list = pool_[ridx];
                res.reportCount += list.size();
                ++res.reportingCycles;
                if (opts.recordReports) {
                    for (const auto &[el, code] : list) {
                        if (res.reports.size() >= opts.reportRecordLimit)
                            break;
                        res.reports.push_back({t, el, code});
                    }
                }
                if (opts.countByCode) {
                    for (const auto &[el, code] : list)
                        ++res.byCode[code];
                }
            }
            cur = next_[cell];
        }
    }
    cur_ = cur;
    hits_ += hits;
    misses_ += misses;
    return t;
}

void
LazyDfaCache::noteRun(uint64_t symbols)
{
    // Hits and misses are tallied in resume()'s locals — never one
    // atomic per symbol — and land in the registry once per run.
    if (obs::kEnabled) {
        obs::Registry &reg = obs::Registry::global();
        static obs::Counter &runs = reg.counter("engine.lazy.runs");
        static obs::Counter &syms = reg.counter("engine.lazy.symbols");
        static obs::Counter &cacheHits =
            reg.counter("engine.lazy.cache_hits");
        static obs::Counter &cacheMisses =
            reg.counter("engine.lazy.cache_misses");
        static obs::Counter &cacheFlushes =
            reg.counter("engine.lazy.cache_flushes");
        runs.inc();
        syms.add(symbols);
        cacheHits.add(hits_);
        cacheMisses.add(misses_);
        cacheFlushes.add(flushes_ - notedFlushes_);
    }
    hits_ = misses_ = 0;
    notedFlushes_ = flushes_;
}

size_t
LazyDfaCache::footprintBytes() const
{
    return sizeof(*this) + bytesUsed_ + inNext_.capacity() +
        succScratch_.capacity() * sizeof(uint32_t) +
        repScratch_.capacity() * sizeof(repScratch_[0]);
}

// ---------------------------------------------------------------------
// LazyDfaEngine

LazyDfaEngine::LazyDfaEngine(const Automaton &a,
                             const LazyDfaOptions &opts)
{
    PlanOptions po;
    po.lazyCacheBytes = opts.cacheBytes;
    engine_ = std::make_unique<PlannedEngine>(
        compilePlan(a, EngineKind::kLazyDfa, po));
    tables_ = engine_->compiled().lazy();
    cache_ = engine_->lazyCache();
    fallbackComponents_ = engine_->plan().backendCount[static_cast<size_t>(
        PlanBackend::kInterpreter)];
}

LazyDfaEngine::~LazyDfaEngine() = default;

SimResult
LazyDfaEngine::simulate(const uint8_t *input, size_t len,
                        const SimOptions &opts)
{
    SimResult res = engine_->simulate(input, len, opts);
    res.lazyFallbackComponents = fallbackComponents_;
    return res;
}

} // namespace azoo
