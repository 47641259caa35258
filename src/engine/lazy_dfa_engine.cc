#include "engine/lazy_dfa_engine.hh"

#include <algorithm>

#include "engine/planner.hh"
#include "engine/run_guard.hh"
#include "obs/obs.hh"

namespace azoo {

namespace {

/** One FNV-1a step per 32-bit word. */
uint64_t
mix(uint64_t h, uint32_t v)
{
    return (h ^ v) * 1099511628211ULL;
}

uint64_t
mix(uint64_t h, const std::pair<ElementId, uint32_t> &rep)
{
    return mix(mix(h, rep.first), rep.second);
}

/** FNV-1a over a sequence's words, with the high half folded into
 *  the low one (whose bits alone see only the items' low bits), so
 *  that masking it picks an index slot. */
template <typename T>
uint64_t
hashSeq(const T *items, size_t n)
{
    uint64_t h = 1469598103934665603ULL;
    for (size_t i = 0; i < n; ++i)
        h = mix(h, items[i]);
    return h ^ (h >> 32);
}

/** Accounted footprint of one interned state: its members, its
 *  transition row (4 B per class), its pool offset and two index
 *  slots. */
size_t
stateBytes(size_t setSize, size_t numClasses)
{
    return 16 + (setSize + numClasses) * sizeof(uint32_t);
}

/** Accounted footprint of one reporting transition: its side-table
 *  edge, plus its report list when the list is new. */
size_t
reportBytes(size_t newListSize)
{
    return 16 + newListSize * sizeof(std::pair<ElementId, uint32_t>);
}

/** Row storage is reserved up to this many bytes; a larger budget
 *  reallocates rows past it rather than reserving address space it
 *  may never touch. */
constexpr size_t kMaxRowReserveBytes = size_t(1) << 30;

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

template <typename T>
uint32_t
LazyDfaCache::SeqPool<T>::intern(const std::vector<T> &seq, bool &added)
{
    if (2 * (size() + 1) > slots_.size())
        grow();
    const size_t mask = slots_.size() - 1;
    for (size_t i = hashSeq(seq.data(), seq.size()) & mask;;
         i = (i + 1) & mask) {
        const uint32_t id = slots_[i];
        if (id == kUnknown) {
            slots_[i] = size();
            items_.insert(items_.end(), seq.begin(), seq.end());
            begin_.push_back(static_cast<uint32_t>(items_.size()));
            added = true;
            return slots_[i];
        }
        if (length(id) == seq.size() &&
            std::equal(seq.begin(), seq.end(), data(id))) {
            added = false;
            return id;
        }
    }
}

template <typename T>
void
LazyDfaCache::SeqPool<T>::grow()
{
    slots_.assign(std::max<size_t>(64, 2 * slots_.size()), kUnknown);
    const size_t mask = slots_.size() - 1;
    for (uint32_t id = 0; id < size(); ++id) {
        size_t i = hashSeq(data(id), length(id)) & mask;
        while (slots_[i] != kUnknown)
            i = (i + 1) & mask;
        slots_[i] = id;
    }
}

template <typename T>
void
LazyDfaCache::SeqPool<T>::clear()
{
    items_.clear();
    begin_.resize(1);
    std::fill(slots_.begin(), slots_.end(), kUnknown);
}

LazyDfaCache::LazyDfaCache(const LazyDfaTables &tables, size_t cacheBytes)
    : t_(tables), budget_(cacheBytes)
{
    inNext_.assign(t_.elements(), 0);
    // Every state charges at least an empty set's bytes, and the
    // budget check lets the cache pass its budget by a few states
    // (the progress guarantee, a seek()): reserve that many rows.
    const size_t rowBytes = t_.numClasses * sizeof(uint32_t);
    const size_t rows = budget_ / stateBytes(0, t_.numClasses) + 4;
    next_.reserve(std::min(rows, kMaxRowReserveBytes / rowBytes) *
                  t_.numClasses);
}

uint32_t
LazyDfaCache::intern(const std::vector<uint32_t> &set)
{
    bool added = false;
    const uint32_t id = sets_.intern(set, added);
    if (added) {
        next_.resize(next_.size() + t_.numClasses, kUnknown);
        bytesUsed_ += stateBytes(set.size(), t_.numClasses);
        peakBytes_ = std::max(peakBytes_, bytesUsed_);
    }
    return id;
}

void
LazyDfaCache::seek(const std::vector<uint32_t> &set)
{
    const uint32_t known = sets_.size();
    cur_ = intern(set);
    // A set new to the cache (another stream's cursor) past the budget
    // flushes, so that feeds which fill no cell (empty ones) cannot
    // grow a lent cache past its reserved rows.
    if (sets_.size() > known && bytesUsed_ > budget_ && known > 0) {
        flushCache();
        cur_ = intern(set);
    }
}

void
LazyDfaCache::cursor(std::vector<uint32_t> &out) const
{
    const uint32_t *p = sets_.data(cur_);
    out.assign(p, p + sets_.length(cur_));
}

void
LazyDfaCache::flushCache()
{
    sets_.clear();
    next_.clear();
    reportEdges_.clear();
    lists_.clear();
    cachedTransitions_ = 0;
    bytesUsed_ = 0;
    ++flushes_;
}

uint32_t
LazyDfaCache::fillCell(uint32_t &cur, uint32_t cls)
{
    // Copy: interning below may reallocate the set pool.
    const uint32_t *curData = sets_.data(cur);
    curScratch_.assign(curData, curData + sets_.length(cur));
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
    for (uint32_t ls : curScratch_) {
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
    size_t need = stateBytes(succScratch_.size(), t_.numClasses);
    if (!repScratch_.empty())
        need += reportBytes(repScratch_.size());
    if (bytesUsed_ + need > budget_ && sets_.size() > 2) {
        flushCache();
        cur = intern(curScratch_);
    }

    uint32_t cell = intern(succScratch_);
    if (!repScratch_.empty()) {
        bool added = false;
        const uint32_t list = lists_.intern(repScratch_, added);
        bytesUsed_ += reportBytes(added ? repScratch_.size() : 0);
        peakBytes_ = std::max(peakBytes_, bytesUsed_);
        reportEdges_.push_back({cell, list});
        cell = kReportBit |
            static_cast<uint32_t>(reportEdges_.size() - 1);
    }
    next_[static_cast<size_t>(cur) * t_.numClasses + cls] = cell;
    ++cachedTransitions_;
    return cell;
}

uint64_t
LazyDfaCache::resume(uint64_t from, uint64_t to, const uint8_t *bytes,
                     const SimOptions &opts, SimResult &res)
{
    constexpr uint64_t kPollMask = kGuardCheckIntervalSymbols - 1;
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
                res.totalEnabled += sets_.length(cur);

            const uint32_t cls = t_.classOf[bytes[t - from]];
            uint32_t cell =
                next_[static_cast<size_t>(cur) * t_.numClasses + cls];
            if (cell == kUnknown) {
                cell = fillCell(cur, cls);
                ++misses;
            } else {
                ++hits;
            }

            if (cell & kReportBit) {
                const ReportEdge &edge = reportEdges_[cell & ~kReportBit];
                const auto *list = lists_.data(edge.list);
                const uint32_t n = lists_.length(edge.list);
                res.reportCount += n;
                ++res.reportingCycles;
                if (opts.recordReports) {
                    for (uint32_t k = 0; k < n; ++k) {
                        if (res.reports.size() >= opts.reportRecordLimit)
                            break;
                        res.reports.push_back(
                            {t, list[k].first, list[k].second});
                    }
                }
                if (opts.countByCode) {
                    for (uint32_t k = 0; k < n; ++k)
                        ++res.byCode[list[k].second];
                }
                cell = edge.next;
            }
            cur = cell;
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
    return sizeof(*this) + peakBytes_ + inNext_.capacity() +
        (curScratch_.capacity() + succScratch_.capacity()) *
        sizeof(uint32_t) +
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
    fallbackComponents_ = engine_->plan().backendCount[static_cast<size_t>(
        PlanBackend::kInterpreter)];
}

LazyDfaEngine::~LazyDfaEngine() = default;

const LazyDfaCache *
LazyDfaEngine::cache() const
{
    return engine_->lazyCache();
}

SimResult
LazyDfaEngine::simulate(const uint8_t *input, size_t len,
                        const SimOptions &opts)
{
    SimResult res = engine_->simulate(input, len, opts);
    res.lazyFallbackComponents = fallbackComponents_;
    return res;
}

} // namespace azoo
