/**
 * @file
 * Literal prefilter + engine planner tests.
 *
 * The contract under test is exactness: prefiltered / planned
 * execution must be bit-identical (symbols, reports in canonical
 * order, reportCount, reportingCycles, byCode, guardStatus) to the
 * unfiltered serial NfaEngine on every zoo benchmark, in block mode,
 * under chunked streaming (including literals straddling chunk
 * boundaries and zero-length feeds), through ParallelRunner, and
 * under RunGuard truncation. totalEnabled is engine-defined (skipped
 * regions contribute nothing) and is deliberately not compared on
 * planned runs. Runs in the ASan+UBSan and TSan CI legs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

#include "analysis/profile.hh"
#include "core/builder.hh"
#include "engine/multidfa_engine.hh"
#include "engine/nfa_engine.hh"
#include "engine/parallel_runner.hh"
#include "engine/planner.hh"
#include "engine/prefilter.hh"
#include "engine/run_guard.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "zoo/registry.hh"

namespace azoo {
namespace {

zoo::ZooConfig
tinyConfig()
{
    zoo::ZooConfig cfg;
    cfg.scale = 0.01;
    cfg.inputBytes = 32 * 1024;
    return cfg;
}

/** All (end, pattern) occurrences with end >= from, by brute force. */
std::vector<std::pair<uint64_t, uint32_t>>
bruteScan(const std::vector<std::string> &pats, const uint8_t *buf,
          size_t len, size_t from)
{
    std::vector<std::pair<uint64_t, uint32_t>> out;
    for (uint32_t pi = 0; pi < pats.size(); ++pi) {
        const std::string &p = pats[pi];
        if (p.size() > len)
            continue;
        for (size_t s = 0; s + p.size() <= len; ++s) {
            if (std::memcmp(buf + s, p.data(), p.size()) != 0)
                continue;
            const size_t end = s + p.size() - 1;
            if (end >= from)
                out.emplace_back(end, pi);
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<std::pair<uint64_t, uint32_t>>
scannerScan(const LiteralScanner &sc, const uint8_t *buf, size_t len,
            size_t from)
{
    std::vector<std::pair<uint64_t, uint32_t>> out;
    sc.scan(buf, len, from,
            [&](size_t end, uint32_t pi) { out.emplace_back(end, pi); });
    std::sort(out.begin(), out.end());
    return out;
}

TEST(LiteralScanner, MatchesBruteForceOnRandomText)
{
    Rng rng(1234);
    // Skewed alphabet so literals actually occur.
    auto randomText = [&](size_t n) {
        std::vector<uint8_t> t(n);
        for (auto &c : t)
            c = static_cast<uint8_t>('a' + rng.nextBelow(4));
        return t;
    };
    for (int round = 0; round < 40; ++round) {
        const size_t npat = 1 + rng.nextBelow(6);
        std::vector<std::string> pats;
        for (size_t i = 0; i < npat; ++i) {
            std::string p;
            const size_t plen = 2 + rng.nextBelow(7);
            for (size_t j = 0; j < plen; ++j)
                p += static_cast<char>('a' + rng.nextBelow(4));
            // The scanner tolerates duplicate patterns; keep them.
            pats.push_back(p);
        }
        const std::vector<uint8_t> text =
            randomText(64 + rng.nextBelow(2000));
        LiteralScanner sc(pats);
        for (size_t from :
             {size_t(0), size_t(1), text.size() / 2, text.size()}) {
            EXPECT_EQ(
                scannerScan(sc, text.data(), text.size(), from),
                bruteScan(pats, text.data(), text.size(), from))
                << "round " << round << " from " << from;
        }
    }
}

TEST(LiteralScanner, OverlappingOccurrences)
{
    // "aaaa" occurs 5 times in "aaaaaaaa" (ends 3..7): both the
    // single-pattern sweep and the Wu-Manber path must find all.
    const std::vector<uint8_t> text(8, 'a');
    for (auto pats : {std::vector<std::string>{"aaaa"},
                      std::vector<std::string>{"aaaa", "bbbb"}}) {
        LiteralScanner sc(pats);
        auto got = scannerScan(sc, text.data(), text.size(), 0);
        ASSERT_EQ(got.size(), 5u);
        for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].first, 3 + i);
            EXPECT_EQ(got[i].second, 0u);
        }
    }
}

TEST(LiteralScanner, FromSkipsContainedButNotStraddling)
{
    // Rolling-buffer contract: re-scanning with from = old length
    // reports occurrences that END at or past `from` even when they
    // START before it, and nothing already wholly contained.
    const std::string text = "xxhelloxx";
    LiteralScanner sc({"hello", "lox"});
    const auto *buf = reinterpret_cast<const uint8_t *>(text.data());
    auto got = scannerScan(sc, buf, text.size(), 7);
    // "hello" ends at 6 < 7 (already seen); "lox" ends at 7.
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].first, 7u);
    EXPECT_EQ(got[0].second, 1u);
}

/** A counter-free all-input automaton with one component per literal,
 *  reporting codes 1, 2, ... in pattern order. */
Automaton
literalAutomaton(const std::vector<std::string> &lits)
{
    Automaton a("pf-test");
    for (size_t i = 0; i < lits.size(); ++i) {
        addLiteral(a, lits[i], StartType::kAllInput, true,
                   static_cast<uint32_t>(i + 1));
    }
    return a;
}

std::vector<PrefilterPattern>
patternsFor(const std::vector<std::string> &lits)
{
    std::vector<PrefilterPattern> pats;
    for (const std::string &l : lits) {
        pats.push_back(
            {l, static_cast<uint32_t>(l.size()) + 2});
    }
    return pats;
}

std::vector<ElementId>
identityMap(const Automaton &a)
{
    std::vector<ElementId> ids(a.size());
    for (ElementId i = 0; i < a.size(); ++i)
        ids[i] = i;
    return ids;
}

/** Random text over a small alphabet with the literals planted at
 *  random positions so the windows actually engage. */
std::vector<uint8_t>
plantedInput(Rng &rng, const std::vector<std::string> &lits, size_t n)
{
    std::vector<uint8_t> in(n);
    for (auto &c : in)
        c = static_cast<uint8_t>('a' + rng.nextBelow(6));
    for (int k = 0; k < 20; ++k) {
        const std::string &l = lits[rng.nextBelow(lits.size())];
        if (l.size() >= n)
            continue;
        const size_t at = rng.nextBelow(n - l.size());
        std::copy(l.begin(), l.end(), in.begin() + at);
    }
    return in;
}

const std::vector<std::string> kLits = {"wombat", "womb", "attack",
                                        "cacc", "baobab"};

TEST(PrefilteredNfa, MatchesUnfilteredEngine)
{
    Automaton a = literalAutomaton(kLits);
    NfaEngine plain(a);
    PrefilteredNfa pf(a, identityMap(a), patternsFor(kLits));

    Rng rng(99);
    PrefilteredNfa::Session sess(pf);
    for (int round = 0; round < 10; ++round) {
        std::vector<uint8_t> in =
            plantedInput(rng, kLits, 4096 + rng.nextBelow(4096));
        SimResult want = plain.simulate(in);
        canonicalizeReports(want);

        // A block run is a session fed once.
        sess.reset();
        sess.feed(in.data(), in.size());
        std::vector<Report> got = sess.reports();
        std::sort(got.begin(), got.end());
        EXPECT_EQ(sess.offset(), want.symbols);
        EXPECT_EQ(got, want.reports) << "round " << round;
        EXPECT_EQ(sess.stats().windowBytes + sess.stats().skippedBytes,
                  sess.offset());
    }
}

TEST(PrefilteredNfa, OverlappingCandidatesCoalesceExactly)
{
    // Dense overlapping hits: every position is a candidate, windows
    // must coalesce into one continuous engagement with no duplicate
    // or missing reports.
    const std::vector<std::string> lits = {"aaaa"};
    Automaton a = literalAutomaton(lits);
    NfaEngine plain(a);
    PrefilteredNfa pf(a, identityMap(a), patternsFor(lits));

    std::vector<uint8_t> in(512, 'a');
    SimResult want = plain.simulate(in);
    canonicalizeReports(want);

    PrefilteredNfa::Session sess(pf);
    sess.feed(in.data(), in.size());
    std::vector<Report> got = sess.reports();
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want.reports);
    EXPECT_EQ(sess.stats().skippedBytes, 0u);
}

/** The planned executor over @p a, asserting that every component
 *  is planned onto the prefilter. The guard belongs to the planned
 *  executor (prefilter sessions are guard-free). */
PlannedEngine
prefilterOnly(const Automaton &a)
{
    PlannedEngine e(a);
    EXPECT_EQ(e.plan().backendCount[static_cast<size_t>(
                  PlanBackend::kPrefilter)],
              e.plan().decisions.size());
    return e;
}

TEST(PrefilteredNfa, GuardBudgetTruncatesLikeSerial)
{
    Automaton a = literalAutomaton(kLits);
    NfaEngine plain(a);
    PlannedEngine pf = prefilterOnly(a);

    Rng rng(7);
    std::vector<uint8_t> in = plantedInput(rng, kLits, 10000);

    RunGuard sg;
    sg.setSymbolBudget(3000);
    SimOptions sopts;
    sopts.guard = &sg;
    SimResult want = plain.simulate(in.data(), in.size(), sopts);
    canonicalizeReports(want);
    ASSERT_TRUE(want.truncated());
    ASSERT_EQ(want.symbols, 3072u);

    RunGuard pg;
    pg.setSymbolBudget(3000);
    SimOptions popts;
    popts.guard = &pg;
    SimResult got = pf.simulate(in.data(), in.size(), popts);
    std::sort(got.reports.begin(), got.reports.end());
    EXPECT_EQ(got.symbols, want.symbols);
    EXPECT_EQ(got.guardStatus.code(), want.guardStatus.code());
    EXPECT_EQ(got.reports, want.reports);
}

TEST(PrefilteredNfa, PreCancelledGuardConsumesNothing)
{
    Automaton a = literalAutomaton(kLits);
    PlannedEngine pf = prefilterOnly(a);
    std::vector<uint8_t> in(2048, 'a');

    RunGuard guard;
    guard.cancel();
    SimOptions opts;
    opts.guard = &guard;
    SimResult got = pf.simulate(in.data(), in.size(), opts);
    EXPECT_EQ(got.symbols, 0u);
    EXPECT_EQ(got.guardStatus.code(), ErrorCode::kCancelled);
    EXPECT_TRUE(got.reports.empty());
}

TEST(PrefilteredNfa, SessionStraddlesChunkBoundaries)
{
    Automaton a = literalAutomaton(kLits);
    NfaEngine plain(a);
    PrefilteredNfa pf(a, identityMap(a), patternsFor(kLits));

    Rng rng(42);
    std::vector<uint8_t> in = plantedInput(rng, kLits, 6000);
    // Guarantee a literal crossing every tested chunk boundary size.
    std::copy(kLits[0].begin(), kLits[0].end(), in.begin() + 1022);
    std::copy(kLits[2].begin(), kLits[2].end(), in.begin() + 4095);

    SimResult want = plain.simulate(in);
    canonicalizeReports(want);

    for (size_t chunk : {size_t(1), size_t(3), size_t(1024),
                         size_t(4097), in.size()}) {
        PrefilteredNfa::Session sess(pf);
        sess.feed(nullptr, 0); // zero-length feed is a no-op
        for (size_t pos = 0; pos < in.size();) {
            const size_t n = std::min(chunk, in.size() - pos);
            sess.feed(in.data() + pos, n);
            pos += n;
        }
        sess.feed(nullptr, 0);
        std::vector<Report> got = sess.reports();
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, want.reports) << "chunk " << chunk;
        EXPECT_EQ(sess.offset(), in.size());

        // reset() rewinds to a fresh stream.
        sess.reset();
        EXPECT_EQ(sess.offset(), 0u);
        sess.feed(in.data(), in.size());
        got = sess.reports();
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, want.reports) << "after reset";
    }
}

/** Compare a planned result against a canonicalized serial result on
 *  the semantic fields (totalEnabled is engine-defined). */
void
expectSemanticallyEqual(const SimResult &got, const SimResult &want,
                        const std::string &label)
{
    EXPECT_EQ(got.symbols, want.symbols) << label;
    EXPECT_EQ(got.reportCount, want.reportCount) << label;
    EXPECT_EQ(got.reportingCycles, want.reportingCycles) << label;
    EXPECT_EQ(got.byCode, want.byCode) << label;
    EXPECT_EQ(got.reports, want.reports) << label;
    EXPECT_EQ(got.guardStatus.code(), want.guardStatus.code()) << label;
}

class PlannedVsSerial : public testing::TestWithParam<std::string>
{
};

TEST_P(PlannedVsSerial, BlockModeBitIdentical)
{
    zoo::Benchmark b = zoo::makeBenchmark(GetParam(), tinyConfig());
    const size_t simLen = std::min<size_t>(b.input.size(), 16 * 1024);

    SimOptions sim;
    sim.countByCode = true;
    NfaEngine serial(b.automaton);
    SimResult want = serial.simulate(b.input.data(), simLen, sim);
    canonicalizeReports(want);

    PlannedEngine on(b.automaton);
    expectSemanticallyEqual(on.simulate(b.input.data(), simLen, sim),
                            want, "prefilter on");

    PlanOptions off;
    off.enablePrefilter = false;
    PlannedEngine noPf(b.automaton, off);
    EXPECT_EQ(noPf.prefilterPatterns(), 0u);
    expectSemanticallyEqual(noPf.simulate(b.input.data(), simLen, sim),
                            want, "prefilter off");
}

TEST_P(PlannedVsSerial, ChunkedSessionBitIdentical)
{
    zoo::Benchmark b = zoo::makeBenchmark(GetParam(), tinyConfig());
    const size_t simLen = std::min<size_t>(b.input.size(), 16 * 1024);

    SimOptions sim;
    sim.countByCode = true;
    NfaEngine serial(b.automaton);
    SimResult want = serial.simulate(b.input.data(), simLen, sim);
    canonicalizeReports(want);

    const std::vector<analysis::ComponentProfile> profiles =
        analysis::inferProfiles(b.automaton);
    // The default plan, and one whose lazy caches are small enough to
    // flush: the lazy DFA resumes at every feed boundary, so neither
    // its reports nor its flush/state trajectory may depend on the
    // chunking.
    PlanOptions flushing;
    flushing.lazyCacheBytes = 4096;
    for (const PlanOptions &popts : {PlanOptions(), flushing}) {
        const bool small = popts.lazyCacheBytes == flushing.lazyCacheBytes;
        const auto plan = std::make_shared<const CompiledPlan>(
            b.automaton, profiles, popts);
        if (small && !plan->lazy()) {
            // No lazy group, so the budget changes nothing; Snort's
            // dot-star rules must have one.
            EXPECT_NE(GetParam(), "Snort");
            continue;
        }
        const std::string budget =
            cat("cache ", popts.lazyCacheBytes, " B");
        PlannedEngine block(plan);
        const SimResult whole = block.simulate(b.input.data(), simLen, sim);
        expectSemanticallyEqual(whole, want, budget + ", block");
        if (GetParam() == "Snort" && small) {
            EXPECT_GT(whole.lazyFlushes, 0u)
                << "the small budget no longer forces a flush";
        }
        for (size_t chunk :
             {size_t(1), size_t(7), size_t(1024), size_t(4097)}) {
            const std::string label = cat(budget, ", chunk ", chunk);
            PlannedSession sess(plan);
            sess.options = sim;
            for (size_t pos = 0; pos < simLen;) {
                const size_t n = std::min(chunk, simLen - pos);
                ASSERT_EQ(sess.feed(b.input.data() + pos, n), n);
                pos += n;
            }
            const SimResult got = sess.results();
            expectSemanticallyEqual(got, want, label);
            EXPECT_EQ(got.lazyFlushes, whole.lazyFlushes) << label;
            EXPECT_EQ(got.lazyStates, whole.lazyStates) << label;
        }
    }
}

TEST_P(PlannedVsSerial, GuardBudgetBitIdentical)
{
    zoo::Benchmark b = zoo::makeBenchmark(GetParam(), tinyConfig());
    const size_t simLen = std::min<size_t>(b.input.size(), 16 * 1024);

    RunGuard sg;
    sg.setSymbolBudget(3000);
    SimOptions sim;
    sim.countByCode = true;
    sim.guard = &sg;
    NfaEngine serial(b.automaton);
    SimResult want = serial.simulate(b.input.data(), simLen, sim);
    canonicalizeReports(want);
    ASSERT_TRUE(want.truncated());

    RunGuard pg;
    pg.setSymbolBudget(3000);
    SimOptions psim = sim;
    psim.guard = &pg;
    PlannedEngine planned(b.automaton);
    expectSemanticallyEqual(
        planned.simulate(b.input.data(), simLen, psim), want, "block");

    // Same budget through the chunked session: the poll clock runs on
    // stream offsets, so truncation lands on the same prefix.
    RunGuard cg;
    cg.setSymbolBudget(3000);
    const std::vector<analysis::ComponentProfile> profiles =
        analysis::inferProfiles(b.automaton);
    PlannedSession sess(b.automaton, profiles);
    sess.options = sim;
    sess.options.guard = &cg;
    for (size_t pos = 0; pos < simLen;) {
        const size_t n = std::min<size_t>(777, simLen - pos);
        const size_t got = sess.feed(b.input.data() + pos, n);
        pos += got;
        if (got < n)
            break;
    }
    EXPECT_TRUE(sess.stopped());
    expectSemanticallyEqual(sess.results(), want, "chunked");
}

INSTANTIATE_TEST_SUITE_P(AllZoo, PlannedVsSerial,
                         testing::ValuesIn([] {
                             std::vector<std::string> names;
                             for (const auto &info :
                                  zoo::allBenchmarks())
                                 names.push_back(info.name);
                             return names;
                         }()),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (char &c : n) {
                                 if (!isalnum(
                                         static_cast<unsigned char>(c)))
                                     c = '_';
                             }
                             return n;
                         });

TEST(PlannedEngine, LiteralZooBenchmarksActuallyPrefilter)
{
    // The planner must route the literal-dominated DPI benchmarks to
    // the prefilter backend — otherwise the perf story silently
    // degrades to the interpreter while all equivalence tests pass.
    for (const char *name : {"ClamAV", "YARA"}) {
        zoo::Benchmark b = zoo::makeBenchmark(name, tinyConfig());
        PlannedEngine e(b.automaton);
        EXPECT_GT(e.prefilterPatterns(), 0u) << name;
        const auto &counts = e.plan().backendCount;
        EXPECT_EQ(counts[static_cast<size_t>(PlanBackend::kPrefilter)],
                  e.plan().decisions.size())
            << name << ": expected every component on the prefilter";
        const size_t simLen = std::min<size_t>(b.input.size(), 16 * 1024);
        e.simulate(b.input.data(), simLen);
        EXPECT_GT(e.lastPrefilterStats().skippedBytes, simLen / 2)
            << name;
    }
    // Counter-coupled components must stay on the exact interpreter.
    zoo::Benchmark wc =
        zoo::makeBenchmark("Seq. Match 6w 6p wC", tinyConfig());
    PlannedEngine e(wc.automaton);
    EXPECT_GT(
        e.plan()
            .backendCount[static_cast<size_t>(PlanBackend::kInterpreter)],
        0u);
}

TEST(PlannedSession, ZeroLengthStream)
{
    zoo::Benchmark b = zoo::makeBenchmark("ClamAV", tinyConfig());
    PlannedSession sess(b.automaton);
    EXPECT_EQ(sess.feed(nullptr, 0), 0u);
    SimResult r = sess.results();
    EXPECT_EQ(r.symbols, 0u);
    EXPECT_EQ(r.reportCount, 0u);
    EXPECT_TRUE(r.guardStatus.ok());
}

TEST(ParallelPlanned, BatchShardedAndChunkedMatchSerial)
{
    for (const char *name : {"ClamAV", "Seq. Match 6w 6p wC"}) {
        zoo::Benchmark b = zoo::makeBenchmark(name, tinyConfig());
        const size_t simLen =
            std::min<size_t>(b.input.size(), 16 * 1024);

        SimOptions sim;
        sim.countByCode = true;
        NfaEngine serial(b.automaton);
        SimResult want = serial.simulate(b.input.data(), simLen, sim);
        canonicalizeReports(want);

        ParallelOptions popts;
        popts.threads = 4;
        popts.engine = EngineKind::kPlanned;
        popts.sim = sim;
        ParallelRunner runner(b.automaton, popts);

        SimResult sharded =
            runner.simulateSharded(b.input.data(), simLen);
        expectSemanticallyEqual(sharded, want, cat(name, " sharded"));

        std::vector<std::vector<uint8_t>> streams;
        const size_t cuts[] = {0, 1000, 1100, 5000, 13000, simLen};
        for (size_t i = 0; i + 1 < std::size(cuts); ++i) {
            streams.emplace_back(b.input.begin() + cuts[i],
                                 b.input.begin() + cuts[i + 1]);
        }
        BatchResult mono = runner.runBatch(streams);

        ParallelOptions chunked = popts;
        chunked.chunkBytes = 37;
        ParallelRunner chunkedRunner(b.automaton, chunked);
        BatchResult chk = chunkedRunner.runBatch(streams);

        ASSERT_TRUE(mono.allOk());
        ASSERT_TRUE(chk.allOk());
        for (size_t i = 0; i < streams.size(); ++i) {
            SimResult w = serial.simulate(streams[i], sim);
            canonicalizeReports(w);
            expectSemanticallyEqual(mono.perStream[i], w,
                                    cat(name, " stream ", i));
            expectSemanticallyEqual(chk.perStream[i], w,
                                    cat(name, " chunked stream ", i));
        }
    }
}

TEST(MultiDfaProfiles, ProfileHintsPreserveResults)
{
    zoo::Benchmark b = zoo::makeBenchmark("Snort", tinyConfig());
    const size_t simLen = std::min<size_t>(b.input.size(), 16 * 1024);

    SimOptions sim;
    sim.countByCode = true;
    MultiDfaEngine plainEngine(b.automaton);
    SimResult want =
        plainEngine.simulate(b.input.data(), simLen, sim);

    const std::vector<analysis::ComponentProfile> profiles =
        analysis::inferProfiles(b.automaton);
    MultiDfaOptions mo;
    mo.profiles = &profiles;
    MultiDfaEngine hinted(b.automaton, mo);
    SimResult got = hinted.simulate(b.input.data(), simLen, sim);

    // The hint can move a component between the eager-DFA and
    // fallback executors, which changes same-cycle emission order;
    // compare canonically.
    canonicalizeReports(want);
    canonicalizeReports(got);
    EXPECT_EQ(got.reportCount, want.reportCount);
    EXPECT_EQ(got.byCode, want.byCode);
    EXPECT_EQ(got.reports, want.reports);
    // The hint only redirects components; every component still runs.
    EXPECT_EQ(hinted.compiledComponents() + hinted.fallbackComponents(),
              plainEngine.compiledComponents() +
                  plainEngine.fallbackComponents());
}

} // namespace
} // namespace azoo
