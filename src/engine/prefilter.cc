#include "engine/prefilter.hh"

#include <bit>

#include "engine/interpreter.hh"
#include "obs/obs.hh"
#include "util/logging.hh"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace azoo {

void
notePrefilter(uint64_t candidates, uint64_t windowBytes,
              uint64_t skippedBytes)
{
    if (!obs::kEnabled)
        return;
    obs::Registry &reg = obs::Registry::global();
    static obs::Counter &cand = reg.counter("prefilter.candidates");
    static obs::Counter &win = reg.counter("prefilter.window_bytes");
    static obs::Counter &skip = reg.counter("prefilter.bytes_skipped");
    cand.add(candidates);
    win.add(windowBytes);
    skip.add(skippedBytes);
}

// ---------------------------------------------------------------------
// LiteralScanner

LiteralScanner::LiteralScanner(std::vector<std::string> patterns)
    : pats_(std::move(patterns))
{
    if (pats_.empty())
        panic("LiteralScanner: no patterns");
    minLen_ = pats_[0].size();
    maxLen_ = pats_[0].size();
    for (const std::string &p : pats_) {
        if (p.size() < 2)
            panic("LiteralScanner: pattern shorter than one 2-gram");
        minLen_ = std::min(minLen_, p.size());
        maxLen_ = std::max(maxLen_, p.size());
    }
    if (pats_.size() == 1)
        return; // first-byte sweep; no tables

    // Wu-Manber over 2-grams: shift_[g] is how far the probe may
    // advance when gram g ends at the probe point; 0 sends it to the
    // bucket chain of patterns whose first minLen_ bytes end in g.
    const size_t m = minLen_;
    shift_.assign(1u << 16,
                  static_cast<uint16_t>(m - 1));
    bucketHead_.assign(1u << 16, -1);
    bucketNext_.assign(pats_.size(), -1);
    for (size_t pi = 0; pi < pats_.size(); ++pi) {
        const std::string &p = pats_[pi];
        for (size_t j = 1; j < m; ++j) {
            const uint32_t g =
                gram(static_cast<uint8_t>(p[j - 1]),
                     static_cast<uint8_t>(p[j]));
            shift_[g] = std::min(shift_[g],
                                 static_cast<uint16_t>(m - 1 - j));
        }
        const uint32_t tail =
            gram(static_cast<uint8_t>(p[m - 2]),
                 static_cast<uint8_t>(p[m - 1]));
        bucketNext_[pi] = bucketHead_[tail];
        bucketHead_[tail] = static_cast<int32_t>(pi);
    }
}

const uint8_t *
LiteralScanner::findByte(const uint8_t *p, const uint8_t *end, uint8_t b)
{
    if (p >= end)
        return nullptr;
#if defined(__SSE2__)
    const __m128i needle = _mm_set1_epi8(static_cast<char>(b));
    while (end - p >= 16) {
        const __m128i block = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(p));
        const int mask =
            _mm_movemask_epi8(_mm_cmpeq_epi8(block, needle));
        if (mask != 0)
            return p + std::countr_zero(static_cast<unsigned>(mask));
        p += 16;
    }
#else
    // SWAR: a zero byte in w ^ broadcast(b) lights the corresponding
    // high bit of (w - 0x01..01) & ~w & 0x80..80.
    constexpr uint64_t kOnes = 0x0101010101010101ull;
    constexpr uint64_t kHighs = 0x8080808080808080ull;
    const uint64_t bcast = kOnes * b;
    while (static_cast<size_t>(end - p) >= 8) {
        uint64_t w;
        std::memcpy(&w, p, 8);
        w ^= bcast;
        if (((w - kOnes) & ~w & kHighs) != 0)
            break; // a match is within these 8 bytes; scalar finds it
        p += 8;
    }
#endif
    for (; p < end; ++p) {
        if (*p == b)
            return p;
    }
    return nullptr;
}

// ---------------------------------------------------------------------
// PrefilteredNfa

PrefilteredNfa::PrefilteredNfa(const Automaton &sub,
                               std::vector<ElementId> toGlobal,
                               std::vector<PrefilterPattern> patterns)
    : engine_(sub)
    , toGlobal_(std::move(toGlobal))
    , scanner_([&patterns] {
        std::vector<std::string> lits;
        lits.reserve(patterns.size());
        for (PrefilterPattern &p : patterns)
            lits.push_back(p.literal);
        return lits;
    }())
{
    const NfaExecImage &img = engine_.image();
    if (!img.counters.empty())
        panic("PrefilteredNfa: counter elements in a prefilter group");
    if (!img.startOfData.empty())
        panic("PrefilteredNfa: start-of-data starts in a prefilter "
              "group (windowed replay would miss anchored matches)");
    if (toGlobal_.size() != img.elementCount)
        panic("PrefilteredNfa: toGlobal size mismatch");
    radius_.reserve(patterns.size());
    for (const PrefilterPattern &p : patterns) {
        radius_.push_back(p.radius);
        maxRadius_ = std::max(maxRadius_, p.radius);
    }
}

// ---------------------------------------------------------------------
// PrefilteredNfa::Session

namespace {

/** A feed is scanned and replayed in segments of this many bytes, so
 *  the hit list stays bounded whatever the chunk size and a segment's
 *  bytes are still in cache when its windows replay them. */
constexpr size_t kSegmentBytes = 4096;

} // namespace

PrefilteredNfa::Session::Session(const PrefilteredNfa &pf)
    : pf_(pf)
{
    // Size the scratch now rather than at the first candidate, so the
    // session's footprint (what admission prices) does not jump
    // mid-stream.
    const NfaExecImage &img = pf_.engine_.image();
    scratch_.beginRun(img.elementCount, img.counters);
}

void
PrefilteredNfa::Session::openRun(uint64_t lo)
{
    startRun(pf_.engine_.image(), scratch_);
    active_ = true;
    runStart_ = lo;
    fedEnd_ = lo;
    windowEnd_ = lo;
}

void
PrefilteredNfa::Session::closeRun()
{
    scratch_.endRun(static_cast<size_t>(fedEnd_ - runStart_));
    active_ = false;
}

void
PrefilteredNfa::Session::replayTo(uint64_t target, const uint8_t *data)
{
    if (target <= fedEnd_)
        return;
    // A window run starts from an empty enabled set: no start-of-data
    // seeding (the constructor rejects such groups), and all-input
    // states enter through the per-byte index exactly as they would
    // at these offsets in an unfiltered run. Guard-free: the planned
    // session owns the poll clock.
    Status unguarded;
    auto sink = [&](uint64_t at, ElementId id, uint32_t code) {
        reports_.push_back({at, pf_.toGlobal_[id], code});
    };
    const NfaExecImage &img = pf_.engine_.image();
    stats_.windowBytes += target - fedEnd_;
    if (fedEnd_ < pos_) {
        const uint64_t mid = std::min(target, pos_);
        interpret(img, scratch_, runStart_, fedEnd_, mid, tail_.data(),
                  tailBase_, &totalEnabled_, nullptr, unguarded, sink);
        fedEnd_ = mid;
    }
    if (fedEnd_ < target) {
        interpret(img, scratch_, runStart_, fedEnd_, target, data, pos_,
                  &totalEnabled_, nullptr, unguarded, sink);
    }
    fedEnd_ = target;
}

void
PrefilteredNfa::Session::applyHit(uint64_t e, uint32_t pat,
                                  uint64_t avail, const uint8_t *data)
{
    ++stats_.candidates;
    const uint64_t lo = e >= pf_.maxRadius_ ? e - pf_.maxRadius_ : 0;
    const uint64_t hi = e + pf_.radius_[pat] + 1; // half-open right edge
    if (active_ && lo > windowEnd_) {
        // Disjoint windows: drain the old engagement, then start
        // fresh. lo is monotone in hit order (global left reach), so
        // no later hit can need the closed window's state.
        replayTo(std::min(windowEnd_, avail), data);
        closeRun();
    }
    if (!active_)
        openRun(lo);
    windowEnd_ = std::max(windowEnd_, hi);
}

void
PrefilteredNfa::Session::feed(const uint8_t *data, size_t len)
{
    if (len == 0)
        return;
    const LiteralScanner &sc = pf_.scanner_;
    for (size_t seg = 0; seg < len; seg += kSegmentBytes) {
        const size_t segEnd = std::min(len, seg + kSegmentBytes);
        hits_.clear();
        sc.scan(data, segEnd, seg, [&](size_t end, uint32_t pi) {
            hits_.emplace_back(pos_ + end, pi);
        });
        if (seg == 0 && !tail_.empty()) {
            // Occurrences that start in the kept tail and end in this
            // chunk: scan the tail with the chunk's first maxLen - 1
            // bytes appended. The ones wholly inside those bytes were
            // found above; unique() below drops the repeats.
            const size_t kept = tail_.size();
            tail_.insert(tail_.end(), data,
                         data + std::min(len, sc.maxLen() - 1));
            sc.scan(tail_.data(), tail_.size(), kept,
                    [&](size_t end, uint32_t pi) {
                        hits_.emplace_back(tailBase_ + end, pi);
                    });
            tail_.resize(kept);
        }
        std::sort(hits_.begin(), hits_.end());
        hits_.erase(std::unique(hits_.begin(), hits_.end()), hits_.end());
        const uint64_t avail = pos_ + segEnd;
        for (const auto &[e, pat] : hits_)
            applyHit(e, pat, avail, data);
        if (active_)
            replayTo(std::min(windowEnd_, avail), data);
    }
    pos_ += len;
    stats_.skippedBytes = pos_ - stats_.windowBytes;

    notePrefilter(stats_.candidates - flushed_.candidates,
                  stats_.windowBytes - flushed_.windowBytes,
                  stats_.skippedBytes - flushed_.skippedBytes);
    flushed_ = stats_;

    // Keep the stream's last max(maxRadius, maxLen) bytes. Later
    // feeds only read back to
    //  - scanner starts >= pos_ + 1 - maxLen (straddling candidates),
    //  - window bytes from >= pos_ - maxRadius (a hit at e >= pos_
    //    opens its window at e - maxRadius, and an engagement it
    //    extends was fed up to min(its windowEnd, pos_), which is at
    //    least that window start).
    const size_t keep = std::max<size_t>(pf_.maxRadius_, sc.maxLen());
    if (len >= keep) {
        tail_.assign(data + len - keep, data + len);
    } else {
        tail_.insert(tail_.end(), data, data + len);
        if (tail_.size() > keep)
            tail_.erase(tail_.begin(),
                        tail_.end() - static_cast<ptrdiff_t>(keep));
    }
    tailBase_ = pos_ - tail_.size();
}

void
PrefilteredNfa::Session::reset()
{
    if (active_)
        closeRun();
    runStart_ = fedEnd_ = windowEnd_ = 0;
    totalEnabled_ = 0;
    reports_.clear();
    stats_ = PrefilterStats();
    tail_.clear();
    tailBase_ = 0;
    pos_ = 0;
    hits_.clear();
    flushed_ = PrefilterStats();
}

size_t
PrefilteredNfa::footprintBytes() const
{
    return sizeof(*this) + engine_.footprintBytes() +
        toGlobal_.capacity() * sizeof(ElementId) +
        radius_.capacity() * sizeof(uint32_t) +
        scanner_.footprintBytes();
}

} // namespace azoo
