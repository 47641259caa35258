/**
 * @file
 * StreamingSession tests: chunked feeding is equivalent to monolithic
 * simulation for arbitrary chunkings, including single-byte feeds,
 * counter state across boundaries, reset semantics, and sessions on
 * several threads sharing one compiled engine or plan.
 */

#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "analysis/profile.hh"
#include "core/builder.hh"
#include "engine/nfa_engine.hh"
#include "engine/parallel_runner.hh"
#include "engine/planner.hh"
#include "engine/run_guard.hh"
#include "engine/streaming.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "regex/glushkov.hh"
#include "regex/parser.hh"
#include "util/rng.hh"
#include "zoo/registry.hh"
#include "zoo/seqmatch.hh"

namespace azoo {
namespace {

std::vector<uint8_t>
bytes(const std::string &s)
{
    return {s.begin(), s.end()};
}

TEST(Streaming, MatchStraddlesChunkBoundary)
{
    Automaton a("t");
    addLiteral(a, "abcd", StartType::kAllInput, true, 1);
    StreamingSession sess(a);
    sess.feed(bytes("xxab"));
    EXPECT_EQ(sess.results().reportCount, 0u);
    sess.feed(bytes("cdxx"));
    ASSERT_EQ(sess.results().reportCount, 1u);
    EXPECT_EQ(sess.results().reports[0].offset, 5u);
}

TEST(Streaming, OffsetsAreAbsolute)
{
    Automaton a("t");
    addLiteral(a, "z", StartType::kAllInput, true, 1);
    StreamingSession sess(a);
    for (int chunk = 0; chunk < 5; ++chunk)
        sess.feed(bytes("xyz"));
    ASSERT_EQ(sess.results().reportCount, 5u);
    EXPECT_EQ(sess.results().reports[4].offset, 14u);
    EXPECT_EQ(sess.offset(), 15u);
}

TEST(Streaming, StartOfDataOnlyAtStreamStart)
{
    Automaton a("t");
    addLiteral(a, "ab", StartType::kStartOfData, true, 1);
    StreamingSession sess(a);
    sess.feed(bytes("a"));
    sess.feed(bytes("b"));
    EXPECT_EQ(sess.results().reportCount, 1u);
    sess.feed(bytes("ab")); // not at stream start anymore
    EXPECT_EQ(sess.results().reportCount, 1u);
    sess.reset();
    sess.feed(bytes("ab"));
    EXPECT_EQ(sess.results().reportCount, 1u);
}

TEST(Streaming, CounterStatePersistsAcrossChunks)
{
    Automaton a("t");
    ElementId s = a.addSte(CharSet::single('a'), StartType::kAllInput);
    ElementId c = a.addCounter(3, CounterMode::kLatch, true, 9);
    a.addEdge(s, c);
    StreamingSession sess(a);
    sess.feed(bytes("a"));
    sess.feed(bytes("a"));
    EXPECT_EQ(sess.results().reportCount, 0u);
    sess.feed(bytes("a"));
    EXPECT_EQ(sess.results().reportCount, 1u);
}

/** Property: any chunking equals monolithic simulation. */
class StreamingProperty : public testing::TestWithParam<int>
{
};

TEST_P(StreamingProperty, ChunkingInvariance)
{
    Rng rng(31000 + GetParam());
    static const char *kPatterns[] = {"ab+c", "a(b|c)d", "x[ab]{2,4}y",
                                      "a.b"};
    Automaton a("t");
    for (int i = 0; i < 3; ++i) {
        appendRegex(
            a,
            parseRegexOrDie(kPatterns[rng.nextBelow(std::size(kPatterns))]),
            static_cast<uint32_t>(i));
    }
    // Mix in a counter component.
    zoo::SeqMatchParams sp;
    sp.itemsetSize = 2;
    sp.filterWidth = 3;
    sp.withCounters = true;
    sp.supportThreshold = 2;
    zoo::appendSeqFilter(a, {'b', 'x'}, sp, 7);

    const std::string text =
        rng.randomString(200, "abcxy") + "\xff" + "bx\xff" + "bx\xff" +
        rng.randomString(50, "abcxy");
    const auto in = bytes(text);

    NfaEngine mono(a);
    auto expect = mono.simulate(in);

    StreamingSession sess(a);
    size_t pos = 0;
    while (pos < in.size()) {
        const size_t chunk =
            std::min<size_t>(1 + rng.nextBelow(17), in.size() - pos);
        sess.feed(in.data() + pos, chunk);
        pos += chunk;
    }
    EXPECT_EQ(sess.results().reportCount, expect.reportCount);
    EXPECT_EQ(sess.results().reports, expect.reports);
    EXPECT_EQ(sess.results().totalEnabled, expect.totalEnabled);

    // Byte-at-a-time feeding too.
    StreamingSession one(a);
    for (auto b : in)
        one.feed(&b, 1);
    EXPECT_EQ(one.results().reports, expect.reports);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingProperty,
                         testing::Range(0, 20));

// ---------------------------------------------------------------
// Guard semantics under chunking. The guard is polled at multiples
// of kGuardCheckIntervalSymbols of *stream* position, so a chunked
// session with a symbol budget must stop at exactly the same prefix
// as a monolithic guarded run — and report exactly the same results.

/** 'z' reporter plus input with a 'z' every 7 bytes. */
Automaton
guardAutomaton()
{
    Automaton a("g");
    addLiteral(a, "z", StartType::kAllInput, true, 1);
    return a;
}

std::vector<uint8_t>
guardInput(size_t n)
{
    std::vector<uint8_t> in(n, 'x');
    for (size_t i = 0; i < n; i += 7)
        in[i] = 'z';
    return in;
}

TEST(StreamingGuard, BudgetStopsMidChunkAndMatchesSerial)
{
    Automaton a = guardAutomaton();
    const std::vector<uint8_t> in = guardInput(10000);

    RunGuard guard;
    guard.setSymbolBudget(3000);

    StreamingSession sess(a);
    sess.options.guard = &guard;
    size_t consumed = 0;
    // 512-byte chunks: the stop point (a multiple of 1024) falls
    // mid-stream, so some feed must return short.
    bool sawShortFeed = false;
    for (size_t pos = 0; pos < in.size();) {
        const size_t want = std::min<size_t>(512, in.size() - pos);
        const size_t got = sess.feed(in.data() + pos, want);
        consumed += got;
        pos += got;
        if (got < want) {
            sawShortFeed = true;
            break;
        }
    }
    EXPECT_TRUE(sawShortFeed);
    EXPECT_TRUE(sess.stopped());
    const SimResult &r = sess.results();
    EXPECT_EQ(r.guardStatus.code(), ErrorCode::kLimitExceeded);
    EXPECT_TRUE(r.truncated());
    EXPECT_EQ(r.symbols, consumed);
    // Budget 3000 stops at the first poll point >= 3000.
    EXPECT_EQ(consumed, 3072u);

    // A monolithic guarded NFA run must agree exactly.
    RunGuard guard2;
    guard2.setSymbolBudget(3000);
    SimOptions sopts;
    sopts.guard = &guard2;
    NfaEngine engine(a);
    SimResult serial = engine.simulate(in.data(), in.size(), sopts);
    EXPECT_EQ(r.symbols, serial.symbols);
    EXPECT_EQ(r.reportCount, serial.reportCount);
    EXPECT_EQ(r.reports, serial.reports);
    EXPECT_EQ(r.totalEnabled, serial.totalEnabled);
}

TEST(StreamingGuard, StoppedSessionRefusesFeedUntilReset)
{
    Automaton a = guardAutomaton();
    const std::vector<uint8_t> in = guardInput(4096);

    RunGuard guard;
    guard.setSymbolBudget(1000);
    StreamingSession sess(a);
    sess.options.guard = &guard;
    EXPECT_LT(sess.feed(in), in.size());
    ASSERT_TRUE(sess.stopped());
    const uint64_t symbolsAtStop = sess.results().symbols;

    // Further feeds consume nothing and change nothing.
    EXPECT_EQ(sess.feed(in), 0u);
    EXPECT_EQ(sess.results().symbols, symbolsAtStop);

    // reset() clears the stop; with the guard removed the stream
    // runs to completion.
    sess.reset();
    EXPECT_FALSE(sess.stopped());
    sess.options.guard = nullptr;
    EXPECT_EQ(sess.feed(in), in.size());
    EXPECT_FALSE(sess.results().truncated());
    EXPECT_EQ(sess.results().symbols, in.size());
}

TEST(StreamingGuard, CancelledGuardStopsAtFirstPoll)
{
    Automaton a = guardAutomaton();
    const std::vector<uint8_t> in = guardInput(2048);

    RunGuard guard;
    guard.cancel(); // already raised before the first check
    StreamingSession sess(a);
    sess.options.guard = &guard;
    EXPECT_EQ(sess.feed(in), 0u); // poll at t=0 fires before any byte
    EXPECT_TRUE(sess.stopped());
    EXPECT_EQ(sess.results().guardStatus.code(),
              ErrorCode::kCancelled);
    EXPECT_EQ(sess.results().symbols, 0u);
    EXPECT_EQ(sess.results().reportCount, 0u);
}

TEST(StreamingGuard, InjectedExpiryTruncatesAtPollBoundary)
{
    struct FaultScope {
        ~FaultScope() { fault::disarmAll(); }
    } scope;

    Automaton a = guardAutomaton();
    const std::vector<uint8_t> in = guardInput(8192);

    RunGuard guard; // no limits: only the injected fault can fire
    StreamingSession sess(a);
    sess.options.guard = &guard;
    // Skip the t=0 poll, fire on the second check (t=1024).
    fault::armAfter(fault::Point::kGuardExpiry, 1);
    const size_t got = sess.feed(in);
    EXPECT_EQ(got, kGuardCheckIntervalSymbols);
    EXPECT_TRUE(sess.stopped());
    const SimResult &r = sess.results();
    EXPECT_EQ(r.guardStatus.code(), ErrorCode::kDeadlineExceeded);
    EXPECT_EQ(r.symbols, kGuardCheckIntervalSymbols);
    // Results cover exactly the consumed prefix: one 'z' per 7 bytes.
    EXPECT_EQ(r.reportCount, (kGuardCheckIntervalSymbols + 6) / 7);
}

// ---------------------------------------------------------------
// Session reuse. azoo_serve pools engine sessions across protocol
// sessions, so reset() must restore *every* piece of state a feed can
// dirty — match state, counters, stream offset, guard status — or a
// reused session leaks one client's progress into the next. The
// regression cycles dirty->reset->rerun across the whole zoo and
// demands bit-identical results to a fresh session, including the
// nastiest path: reset after a mid-stream guard stop.

/** Canonicalized copy (sorted reports) for order-independent
 *  comparison. */
SimResult
canon(SimResult r)
{
    canonicalizeReports(r);
    return r;
}

template <typename Session>
void
expectSameAsFresh(const Automaton &a, Session &reused,
                  const std::vector<uint8_t> &in, const char *what)
{
    Session fresh(a);
    size_t pos = 0;
    // Uneven chunking on the reused session, monolithic on the fresh
    // one: reset must also clear chunk-boundary carry state.
    const size_t kChunks[] = {1, 777, 64, 4096};
    size_t ci = 0;
    while (pos < in.size()) {
        const size_t n = std::min(kChunks[ci++ % 4], in.size() - pos);
        reused.feed(in.data() + pos, n);
        pos += n;
    }
    fresh.feed(in.data(), in.size());
    const SimResult got = canon(reused.results());
    const SimResult want = canon(fresh.results());
    EXPECT_EQ(got.symbols, want.symbols) << what;
    EXPECT_EQ(got.reportCount, want.reportCount) << what;
    EXPECT_EQ(got.reports, want.reports) << what;
    EXPECT_EQ(reused.offset(), in.size()) << what;
}

template <typename Session>
void
cycleResetAcrossZoo()
{
    zoo::ZooConfig cfg;
    cfg.scale = 0.01;
    cfg.inputBytes = 8192;
    for (const auto &info : zoo::allBenchmarks()) {
        SCOPED_TRACE(info.name);
        zoo::Benchmark b = info.make(cfg);
        const std::vector<uint8_t> &in = b.input;
        Session sess(b.automaton);

        // Cycle 1: dirty the session with a different slice, reset.
        sess.feed(in.data(), in.size() / 2);
        sess.reset();
        expectSameAsFresh(b.automaton, sess, in, "after plain reset");

        // Cycle 2: stop it mid-stream with a guard, reset. A stopped
        // session refuses feeds, so this is the path a pooled serve
        // session takes after a truncated reply.
        sess.reset();
        RunGuard guard;
        guard.setSymbolBudget(2048);
        sess.options.guard = &guard;
        sess.feed(in.data(), in.size());
        EXPECT_TRUE(sess.stopped());
        sess.reset();
        sess.options.guard = nullptr;
        expectSameAsFresh(b.automaton, sess, in, "after guard stop");
    }
}

TEST(SessionReuse, StreamingResetIsBitIdenticalAcrossZoo)
{
    cycleResetAcrossZoo<StreamingSession>();
}

TEST(SessionReuse, PlannedResetIsBitIdenticalAcrossZoo)
{
    cycleResetAcrossZoo<PlannedSession>();
}

// ---------------------------------------------------------------
// Compile once, execute many times. Sessions hold only per-stream
// state over one shared NfaEngine or CompiledPlan, so the compiled
// form must be safe to share across threads and a session's results
// must not depend on who else runs over it. Four threads stream the
// same inputs through sessions over one engine and one plan, at
// random chunk splits (many of them single bytes), reusing each
// session via reset() between streams; every result must equal the
// serial NfaEngine's.

/** Semantic fields of @p got equal @p want's (both canonical). */
void
expectSameResult(const SimResult &got, const SimResult &want,
                 bool sameActiveSet, const std::string &what)
{
    EXPECT_EQ(got.symbols, want.symbols) << what;
    EXPECT_EQ(got.reportCount, want.reportCount) << what;
    EXPECT_EQ(got.reportingCycles, want.reportingCycles) << what;
    EXPECT_EQ(got.byCode, want.byCode) << what;
    EXPECT_EQ(got.reports, want.reports) << what;
    if (sameActiveSet) {
        EXPECT_EQ(got.totalEnabled, want.totalEnabled) << what;
    }
}

TEST(SharedCompile, SessionsOnFourThreadsMatchSerial)
{
    constexpr size_t kThreads = 4;
    constexpr size_t kStreams = 6;
    constexpr size_t kStreamBytes = 4096;
    SimOptions opts;
    opts.countByCode = true;

    // Scales picked so every stream carries reports: Snort's rules
    // thin out below 0.05, and Seq. Match's support counters (latched,
    // so they carry state across chunk boundaries) need a low
    // threshold to fire inside one short stream.
    zoo::ZooConfig cfg;
    cfg.inputBytes = kStreams * kStreamBytes;
    std::vector<zoo::Benchmark> zooBenchmarks;
    cfg.scale = 0.05;
    zooBenchmarks.push_back(zoo::makeBenchmark("Snort", cfg));
    cfg.scale = 0.01;
    zooBenchmarks.push_back(zoo::makeBenchmark("ClamAV", cfg));
    cfg.scale = 0.002;
    zoo::SeqMatchParams counters;
    counters.withCounters = true;
    counters.supportThreshold = 2;
    zooBenchmarks.push_back(zoo::makeSeqMatchBenchmark(cfg, counters));

    for (const zoo::Benchmark &b : zooBenchmarks) {
        SCOPED_TRACE(b.name);
        std::vector<std::vector<uint8_t>> streams;
        std::vector<SimResult> want;
        const NfaEngine serial(b.automaton);
        uint64_t reports = 0;
        for (size_t k = 0; k < kStreams; ++k) {
            const auto *p = b.input.data() + k * kStreamBytes;
            streams.emplace_back(p, p + kStreamBytes);
            want.push_back(canon(serial.simulate(streams.back(), opts)));
            reports += want.back().reportCount;
        }
        ASSERT_GT(reports, 0u) << "inputs too sparse to compare";

        const auto engine = std::make_shared<const NfaEngine>(b.automaton);
        const auto plan = std::make_shared<const CompiledPlan>(
            b.automaton, analysis::inferProfiles(b.automaton));

        // got[thread][i]: the NFA and planned results of the i-th
        // stream that thread ran.
        struct Got {
            size_t stream;
            SimResult nfa, planned;
        };
        std::vector<std::vector<Got>> got(kThreads);
        std::vector<std::thread> workers;
        for (size_t t = 0; t < kThreads; ++t) {
            workers.emplace_back([&, t] {
                Rng rng(4200 + t);
                StreamingSession nfa(engine);
                PlannedSession planned(plan);
                nfa.options = opts;
                planned.options = opts;
                for (size_t i = 0; i < kStreams; ++i) {
                    const size_t k = (i + t) % kStreams;
                    const std::vector<uint8_t> &in = streams[k];
                    nfa.reset();
                    planned.reset();
                    for (size_t pos = 0; pos < in.size();) {
                        const size_t n = std::min<size_t>(
                            rng.nextBool(0.3) ? 1
                                              : 1 + rng.nextBelow(700),
                            in.size() - pos);
                        nfa.feed(in.data() + pos, n);
                        planned.feed(in.data() + pos, n);
                        pos += n;
                    }
                    got[t].push_back(
                        {k, canon(nfa.results()), planned.results()});
                }
            });
        }
        for (std::thread &w : workers)
            w.join();

        for (size_t t = 0; t < kThreads; ++t) {
            ASSERT_EQ(got[t].size(), kStreams);
            for (const Got &g : got[t]) {
                const std::string what = "thread " + std::to_string(t) +
                    ", stream " + std::to_string(g.stream);
                expectSameResult(g.nfa, want[g.stream], true,
                                 what + " (nfa)");
                // The planned active set is engine-defined.
                expectSameResult(g.planned, want[g.stream], false,
                                 what + " (planned)");
            }
        }
        // The sessions are gone, and with them their pins.
        EXPECT_EQ(engine.use_count(), 1);
        EXPECT_EQ(plan.use_count(), 1);
    }
}

// ---------------------------------------------------------------
// Lent lazy caches. A serve worker lends its one LazyDfaCache to every
// session it feeds, so between two feeds a session's lazy DFA may move
// to another worker's cache, and the cache it left may have been
// flushed by other streams. The session keeps only its cursor's
// state-set; every reported field must stay bit-identical to serial
// NfaEngine whatever caches ran it.

TEST(LentLazyCache, StreamsMigrateAcrossCachesBitIdentically)
{
    constexpr size_t kStreamBytes = 16 * 1024;
    zoo::ZooConfig cfg;
    cfg.scale = 0.05;
    cfg.inputBytes = 2 * kStreamBytes;
    const zoo::Benchmark b = zoo::makeBenchmark("Snort", cfg);
    SimOptions opts;
    opts.countByCode = true;
    const NfaEngine serial(b.automaton);
    std::vector<uint8_t> streams[2];
    SimResult want[2];
    for (size_t k = 0; k < 2; ++k) {
        const uint8_t *p = b.input.data() + k * kStreamBytes;
        streams[k].assign(p, p + kStreamBytes);
        want[k] = canon(serial.simulate(streams[k], opts));
    }
    ASSERT_GT(want[0].reportCount + want[1].reportCount, 0u);

    const std::vector<analysis::ComponentProfile> profiles =
        analysis::inferProfiles(b.automaton);
    PlanOptions flushing;
    flushing.lazyCacheBytes = 4096;
    // The profiled plan (lazy lane beside the others) and the lazydfa
    // routing (Snort has no counters: the lazy DFA is the sole lane),
    // each with the default budget and one that flushes between feeds.
    for (EngineKind kind : {EngineKind::kPlanned, EngineKind::kLazyDfa}) {
        for (const PlanOptions &popts : {PlanOptions(), flushing}) {
            const auto plan =
                compilePlan(b.automaton, kind, popts, &profiles);
            ASSERT_NE(plan->lazy(), nullptr);
            for (size_t caches : {size_t(2), size_t(3)}) {
                const std::string label =
                    cat(kind == EngineKind::kPlanned ? "auto" : "lazydfa",
                        ", cache ", popts.lazyCacheBytes, " B, ", caches,
                        " caches");
                std::vector<std::unique_ptr<LazyDfaCache>> lent;
                for (size_t c = 0; c < caches; ++c) {
                    lent.push_back(std::make_unique<LazyDfaCache>(
                        *plan->lazy(), popts.lazyCacheBytes));
                }
                // Two sessions fed in turn, chunk j on cache j % caches,
                // chunks of 1 byte 30% of the time.
                PlannedSession sess[2] = {PlannedSession(plan),
                                          PlannedSession(plan)};
                size_t pos[2] = {0, 0};
                Rng rng(77 + caches);
                for (size_t j = 0; pos[0] < kStreamBytes ||
                     pos[1] < kStreamBytes;
                     ++j) {
                    const size_t k = pos[j % 2] < kStreamBytes ? j % 2
                                                              : 1 - j % 2;
                    sess[k].options = opts;
                    const size_t n = std::min<size_t>(
                        rng.nextBool(0.3) ? 1 : 1 + rng.nextBelow(3000),
                        kStreamBytes - pos[k]);
                    ASSERT_EQ(sess[k].feed(streams[k].data() + pos[k], n,
                                           lent[j % caches].get()),
                              n);
                    pos[k] += n;
                }
                uint64_t flushes = 0;
                for (const auto &c : lent)
                    flushes += c->flushes();
                if (popts.lazyCacheBytes == flushing.lazyCacheBytes) {
                    EXPECT_GT(flushes, 0u)
                        << label << ": the small budget no longer flushes";
                }
                for (size_t k = 0; k < 2; ++k) {
                    const std::string what = cat(label, ", stream ", k);
                    expectSameResult(canon(sess[k].results()), want[k],
                                     false, what);
                    // Every feed was lent a cache.
                    EXPECT_EQ(sess[k].lazyCache(), nullptr) << what;
                }
            }
        }
    }
}

TEST(LentLazyCache, FlushKeepsRowCapacityAndBudget)
{
    // The cache reserves its rows once, to the budget: flush cycles
    // never grow them, and what footprintBytes() reports (the
    // accounted high-water mark plus scratch) stays within the budget
    // plus one state's slack.
    zoo::ZooConfig cfg;
    cfg.scale = 0.05;
    cfg.inputBytes = 64 * 1024;
    const zoo::Benchmark b = zoo::makeBenchmark("Snort", cfg);
    constexpr size_t kBudget = 64 * 1024;
    PlanOptions popts;
    popts.lazyCacheBytes = kBudget;
    const auto plan = compilePlan(b.automaton, EngineKind::kLazyDfa, popts);
    const LazyDfaTables &tables = *plan->lazy();
    LazyDfaCache cache(tables, kBudget);
    const size_t rows = cache.rowCapacity();
    ASSERT_GE(rows * sizeof(uint32_t), kBudget / 2);
    const size_t slack = sizeof(LazyDfaCache) + 32 * tables.elements() +
        4 * tables.numClasses + 64;

    SimResult res;
    uint64_t flushes = 0;
    for (int round = 0; round < 4; ++round) {
        cache.seek(tables.start0);
        cache.resume(0, b.input.size(), b.input.data(), SimOptions(), res);
        EXPECT_GT(cache.flushes(), flushes) << "round " << round;
        flushes = cache.flushes();
        EXPECT_EQ(cache.rowCapacity(), rows) << "round " << round;
        EXPECT_LE(cache.bytesUsed(), kBudget) << "round " << round;
        EXPECT_LE(cache.footprintBytes(), kBudget + slack)
            << "round " << round;
    }

    // Seeks of sets new to the cache with no feed between them (other
    // streams' cursors, empty feeds on a lent cache) flush rather than
    // grow the rows.
    const uint32_t sets = std::min<uint32_t>(tables.elements(), 1000);
    ASSERT_GT(sets * sizeof(uint32_t) * tables.numClasses, 2 * kBudget);
    for (uint32_t i = 0; i < sets; ++i)
        cache.seek({i});
    EXPECT_GT(cache.flushes(), flushes);
    EXPECT_EQ(cache.rowCapacity(), rows);
    EXPECT_LE(cache.footprintBytes(), kBudget + slack);
}

} // namespace
} // namespace azoo
