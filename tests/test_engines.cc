/**
 * @file
 * Engine tests: homogeneous-automata semantics of the NFA
 * interpreter, AP counter behaviour (latch/pulse/rollover, resets),
 * NFA vs multi-DFA report equivalence on random automata, DFA
 * compilation bounds and fallback, and the analytic spatial model.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/builder.hh"
#include "engine/lazy_dfa_engine.hh"
#include "engine/multidfa_engine.hh"
#include "engine/nfa_engine.hh"
#include "engine/spatial_model.hh"
#include "util/rng.hh"

namespace azoo {
namespace {

std::vector<uint8_t>
bytes(const std::string &s)
{
    return {s.begin(), s.end()};
}

std::vector<Report>
sortedReports(SimResult r)
{
    std::sort(r.reports.begin(), r.reports.end());
    return r.reports;
}

/** Assert @p got is bit-identical to the interpreter result @p ref on
 *  every semantic field (reports compared in canonical order). */
void
expectSameSemantics(const SimResult &ref, const SimResult &got)
{
    SimResult canon = ref;
    std::sort(canon.reports.begin(), canon.reports.end());
    EXPECT_EQ(canon.reports, got.reports);
    EXPECT_EQ(canon.reportCount, got.reportCount);
    EXPECT_EQ(canon.totalEnabled, got.totalEnabled);
    EXPECT_EQ(canon.reportingCycles, got.reportingCycles);
    EXPECT_EQ(canon.byCode, got.byCode);
}

SimOptions
fullOptions()
{
    SimOptions opts;
    opts.countByCode = true;
    return opts;
}

TEST(NfaEngine, StartOfDataFiresOnlyAtOffsetZero)
{
    Automaton a("t");
    addLiteral(a, "ab", StartType::kStartOfData, true, 1);
    NfaEngine e(a);
    auto r1 = e.simulate(bytes("abab"));
    ASSERT_EQ(r1.reportCount, 1u);
    EXPECT_EQ(r1.reports[0].offset, 1u);
    auto r2 = e.simulate(bytes("xab"));
    EXPECT_EQ(r2.reportCount, 0u);
}

TEST(NfaEngine, AllInputFiresAtEveryOffset)
{
    Automaton a("t");
    addLiteral(a, "ab", StartType::kAllInput, true, 1);
    NfaEngine e(a);
    auto r = e.simulate(bytes("abxab"));
    ASSERT_EQ(r.reportCount, 2u);
    EXPECT_EQ(r.reports[0].offset, 1u);
    EXPECT_EQ(r.reports[1].offset, 4u);
}

TEST(NfaEngine, SelfLoopStaysActive)
{
    Automaton a("t");
    ElementId star = addStarState(a, CharSet::single('a'));
    ElementId end = a.addSte(CharSet::single('b'), StartType::kNone,
                             true, 1);
    a.addEdge(star, end);
    NfaEngine e(a);
    EXPECT_EQ(e.simulate(bytes("aaab")).reportCount, 1u);
    EXPECT_EQ(e.simulate(bytes("b")).reportCount, 0u);
}

TEST(NfaEngine, ActiveSetExcludesAlwaysOnStarts)
{
    Automaton a("t");
    // One all-input state enabling a successor on 'a'.
    ElementId s = a.addSte(CharSet::single('a'), StartType::kAllInput);
    ElementId t = a.addSte(CharSet::single('b'));
    a.addEdge(s, t);
    NfaEngine e(a);
    auto r = e.simulate(bytes("aaaa"));
    // 's' is never counted; 't' is enabled for offsets 1..4 (3 of
    // them within the input window).
    EXPECT_EQ(r.totalEnabled, 3u);
}

TEST(NfaEngine, ReportRecordLimitCapsVectorNotCount)
{
    Automaton a("t");
    addLiteral(a, "a", StartType::kAllInput, true, 1);
    NfaEngine e(a);
    SimOptions opts;
    opts.reportRecordLimit = 3;
    auto r = e.simulate(bytes("aaaaaaaa"), opts);
    EXPECT_EQ(r.reportCount, 8u);
    EXPECT_EQ(r.reports.size(), 3u);
}

TEST(NfaEngine, ReportingCyclesCountCyclesNotReports)
{
    Automaton a("t");
    // Two rules that both fire on 'a'.
    addLiteral(a, "a", StartType::kAllInput, true, 1);
    addLiteral(a, "a", StartType::kAllInput, true, 2);
    NfaEngine e(a);
    auto r = e.simulate(bytes("aaxa"));
    EXPECT_EQ(r.reportCount, 6u);
    EXPECT_EQ(r.reportingCycles, 3u);
    EXPECT_DOUBLE_EQ(r.reportingCycleFraction(), 0.75);
}

TEST(NfaEngine, CountByCode)
{
    Automaton a("t");
    addLiteral(a, "a", StartType::kAllInput, true, 10);
    addLiteral(a, "b", StartType::kAllInput, true, 20);
    NfaEngine e(a);
    SimOptions opts;
    opts.countByCode = true;
    auto r = e.simulate(bytes("aabbb"), opts);
    EXPECT_EQ(r.byCode[10], 2u);
    EXPECT_EQ(r.byCode[20], 3u);
}

/** Build: 'a' matcher -> counter(target, mode); counter reports. */
Automaton
counterAutomaton(uint32_t target, CounterMode mode, bool with_reset)
{
    Automaton a("c");
    ElementId s = a.addSte(CharSet::single('a'), StartType::kAllInput,
                           false, 0);
    ElementId c = a.addCounter(target, mode, true, 99);
    a.addEdge(s, c);
    if (with_reset) {
        ElementId r = a.addSte(CharSet::single('r'),
                               StartType::kAllInput);
        a.addResetEdge(r, c);
    }
    return a;
}

TEST(Counters, FiresAtTarget)
{
    Automaton a = counterAutomaton(3, CounterMode::kLatch, false);
    NfaEngine e(a);
    auto r = e.simulate(bytes("aabxa"));
    ASSERT_EQ(r.reportCount, 1u);
    EXPECT_EQ(r.reports[0].offset, 4u); // third 'a'
    EXPECT_EQ(r.reports[0].code, 99u);
}

TEST(Counters, LatchFiresOnce)
{
    Automaton a = counterAutomaton(2, CounterMode::kLatch, false);
    NfaEngine e(a);
    EXPECT_EQ(e.simulate(bytes("aaaaaa")).reportCount, 1u);
}

TEST(Counters, RolloverFiresPeriodically)
{
    Automaton a = counterAutomaton(2, CounterMode::kRollover, false);
    NfaEngine e(a);
    EXPECT_EQ(e.simulate(bytes("aaaaaa")).reportCount, 3u);
}

TEST(Counters, PulseFiresOnceUntilReset)
{
    Automaton a = counterAutomaton(2, CounterMode::kPulse, true);
    NfaEngine e(a);
    EXPECT_EQ(e.simulate(bytes("aaaa")).reportCount, 1u);
    // Reset re-arms the count.
    EXPECT_EQ(e.simulate(bytes("aaraa")).reportCount, 2u);
}

TEST(Counters, ResetClearsProgress)
{
    Automaton a = counterAutomaton(3, CounterMode::kLatch, true);
    NfaEngine e(a);
    // Two a's, reset, two a's: never reaches 3.
    EXPECT_EQ(e.simulate(bytes("aaraa")).reportCount, 0u);
    EXPECT_EQ(e.simulate(bytes("aararaaa")).reportCount, 1u);
}

TEST(Counters, LatchKeepsSuccessorsEnabled)
{
    // counter(target 2, latch) -> 'z' matcher that reports.
    Automaton a("c");
    ElementId s = a.addSte(CharSet::single('a'), StartType::kAllInput);
    ElementId c = a.addCounter(2, CounterMode::kLatch);
    ElementId z = a.addSte(CharSet::single('z'), StartType::kNone,
                           true, 5);
    a.addEdge(s, c);
    a.addEdge(c, z);
    NfaEngine e(a);
    // After two a's, z stays armed: both later z's report.
    EXPECT_EQ(e.simulate(bytes("aaxzxz")).reportCount, 2u);
    // Pulse mode would arm z for one cycle only.
    a.element(c).mode = CounterMode::kPulse;
    NfaEngine e2(a);
    EXPECT_EQ(e2.simulate(bytes("aaxzxz")).reportCount, 0u);
    EXPECT_EQ(e2.simulate(bytes("aazxz")).reportCount, 1u);
}

TEST(MultiDfa, MatchesNfaOnLiterals)
{
    Automaton a("t");
    addLiteral(a, "abc", StartType::kAllInput, true, 1);
    addLiteral(a, "bc", StartType::kAllInput, true, 2);
    NfaEngine nfa(a);
    MultiDfaEngine dfa(a);
    EXPECT_EQ(dfa.fallbackComponents(), 0u);
    auto in = bytes("xxabcxbcabc");
    EXPECT_EQ(sortedReports(nfa.simulate(in)),
              sortedReports(dfa.simulate(in)));
}

TEST(MultiDfa, CounterComponentsFallBackToNfa)
{
    Automaton a = counterAutomaton(3, CounterMode::kRollover, true);
    addLiteral(a, "xy", StartType::kAllInput, true, 7);
    MultiDfaEngine dfa(a);
    EXPECT_EQ(dfa.fallbackComponents(), 1u);
    EXPECT_EQ(dfa.compiledComponents(), 1u);
    NfaEngine nfa(a);
    auto in = bytes("aaxyaraaaxy");
    EXPECT_EQ(sortedReports(nfa.simulate(in)),
              sortedReports(dfa.simulate(in)));
}

TEST(MultiDfa, StateBudgetForcesFallback)
{
    // A component whose subset construction needs more states than
    // the budget: parallel counters of 'a' runs... use a long
    // bounded-repeat-like chain fed by a self loop, which blows up
    // the reachable subset count.
    Automaton a("big");
    ElementId star = addStarState(a, CharSet::all());
    ElementId prev = star;
    for (int i = 0; i < 24; ++i) {
        ElementId s = a.addSte(CharSet::single('a'));
        a.addEdge(prev, s);
        prev = s;
    }
    a.element(prev).reporting = true;

    MultiDfaOptions opts;
    opts.maxDfaStatesPerComponent = 16;
    MultiDfaEngine dfa(a, opts);
    EXPECT_EQ(dfa.fallbackComponents(), 1u);

    NfaEngine nfa(a);
    Rng rng(3);
    std::vector<uint8_t> in;
    for (int i = 0; i < 200; ++i)
        in.push_back(rng.nextBool(0.7) ? 'a' : 'b');
    EXPECT_EQ(sortedReports(nfa.simulate(in)),
              sortedReports(dfa.simulate(in)));
}

TEST(LazyDfa, MatchesNfaOnLiterals)
{
    Automaton a("t");
    addLiteral(a, "abc", StartType::kAllInput, true, 1);
    addLiteral(a, "bc", StartType::kAllInput, true, 2);
    NfaEngine nfa(a);
    LazyDfaEngine lazy(a);
    EXPECT_EQ(lazy.fallbackComponents(), 0u);
    auto in = bytes("xxabcxbcabc");
    auto r = lazy.simulate(in, fullOptions());
    expectSameSemantics(nfa.simulate(in, fullOptions()), r);
    EXPECT_GT(lazy.cachedStates(), 0u);
    EXPECT_EQ(r.lazyFlushes, 0u);
    EXPECT_EQ(r.lazyFallbackComponents, 0u);
}

TEST(LazyDfa, CounterComponentsRunOnFallback)
{
    Automaton a = counterAutomaton(3, CounterMode::kRollover, true);
    addLiteral(a, "xy", StartType::kAllInput, true, 7);
    NfaEngine nfa(a);
    LazyDfaEngine lazy(a);
    EXPECT_EQ(lazy.fallbackComponents(), 1u);
    auto in = bytes("aaxyaraaaxy");
    auto r = lazy.simulate(in, fullOptions());
    expectSameSemantics(nfa.simulate(in, fullOptions()), r);
    EXPECT_EQ(r.lazyFallbackComponents, 1u);
}

TEST(LazyDfa, PureCounterAutomatonHasNoLazyPart)
{
    for (auto mode : {CounterMode::kLatch, CounterMode::kPulse,
                      CounterMode::kRollover}) {
        Automaton a = counterAutomaton(2, mode, true);
        NfaEngine nfa(a);
        LazyDfaEngine lazy(a);
        EXPECT_EQ(lazy.lazyElements(), 0u);
        EXPECT_EQ(lazy.fallbackComponents(), 1u);
        auto in = bytes("aararaaaa");
        expectSameSemantics(nfa.simulate(in, fullOptions()),
                            lazy.simulate(in, fullOptions()));
    }
}

TEST(LazyDfa, LatchedCounterSuccessorsMatchInterpreter)
{
    Automaton a("c");
    ElementId s = a.addSte(CharSet::single('a'), StartType::kAllInput);
    ElementId c = a.addCounter(2, CounterMode::kLatch);
    ElementId z = a.addSte(CharSet::single('z'), StartType::kNone,
                           true, 5);
    a.addEdge(s, c);
    a.addEdge(c, z);
    NfaEngine nfa(a);
    LazyDfaEngine lazy(a);
    auto in = bytes("aaxzxz");
    expectSameSemantics(nfa.simulate(in, fullOptions()),
                        lazy.simulate(in, fullOptions()));
}

/** The over-budget shape for MultiDfa: star -> long 'a' chain. Its
 *  subset space is far too large to enumerate eagerly, but skewed
 *  input keeps the *visited* state-set small: the lazy engine's
 *  target workload. */
Automaton
boundedRepeatAutomaton(int depth)
{
    Automaton a("big");
    ElementId star = addStarState(a, CharSet::all());
    ElementId prev = star;
    for (int i = 0; i < depth; ++i) {
        ElementId s = a.addSte(CharSet::single('a'));
        a.addEdge(prev, s);
        prev = s;
    }
    a.element(prev).reporting = true;
    a.element(prev).reportCode = 3;
    return a;
}

TEST(LazyDfa, TinyBudgetFlushesMidStreamAndStaysExact)
{
    Automaton a = boundedRepeatAutomaton(24);
    NfaEngine nfa(a);
    LazyDfaOptions lopts;
    // Absurdly small: the ~25 state-sets this input visits take
    // about 1.9 KB at 4 B per class, so this forces eviction.
    lopts.cacheBytes = 1024;
    LazyDfaEngine lazy(a, lopts);

    Rng rng(3);
    std::vector<uint8_t> in;
    for (int i = 0; i < 4000; ++i)
        in.push_back(rng.nextBool(0.7) ? 'a' : 'b');

    auto r = lazy.simulate(in, fullOptions());
    expectSameSemantics(nfa.simulate(in.data(), in.size(),
                                     fullOptions()), r);
    EXPECT_GT(r.lazyFlushes, 0u);
    EXPECT_EQ(r.lazyFlushes, lazy.cacheFlushes());
}

TEST(LazyDfa, WarmCacheSecondRunIsIdentical)
{
    Automaton a = boundedRepeatAutomaton(12);
    LazyDfaEngine lazy(a);
    Rng rng(9);
    std::vector<uint8_t> in;
    for (int i = 0; i < 2000; ++i)
        in.push_back(rng.nextBool(0.8) ? 'a' : 'x');

    auto r1 = lazy.simulate(in, fullOptions());
    const uint64_t states = lazy.cachedStates();
    const uint64_t cells = lazy.cachedTransitions();
    auto r2 = lazy.simulate(in, fullOptions());
    // Second pass replays entirely from the warm cache: no growth,
    // same answer.
    EXPECT_EQ(lazy.cachedStates(), states);
    EXPECT_EQ(lazy.cachedTransitions(), cells);
    EXPECT_EQ(r1.reports, r2.reports);
    EXPECT_EQ(r1.totalEnabled, r2.totalEnabled);
}

TEST(LazyDfa, ReportRecordLimitCapsVectorNotCount)
{
    Automaton a("t");
    addLiteral(a, "a", StartType::kAllInput, true, 1);
    LazyDfaEngine lazy(a);
    SimOptions opts;
    opts.reportRecordLimit = 3;
    auto r = lazy.simulate(bytes("aaaaaaaa"), opts);
    EXPECT_EQ(r.reportCount, 8u);
    EXPECT_EQ(r.reports.size(), 3u);
}

/** Random small automata: NFA and DFA engines report identically. */
class EngineEquivalence : public testing::TestWithParam<int>
{
};

TEST_P(EngineEquivalence, RandomAutomata)
{
    Rng rng(7000 + GetParam());
    Automaton a("rand");
    const int n = 3 + static_cast<int>(rng.nextBelow(14));
    for (int i = 0; i < n; ++i) {
        CharSet cs;
        const int syms = 1 + static_cast<int>(rng.nextBelow(4));
        for (int k = 0; k < syms; ++k)
            cs.set(static_cast<uint8_t>('a' + rng.nextBelow(4)));
        a.addSte(cs, static_cast<StartType>(rng.nextBelow(3)),
                 rng.nextBool(0.3),
                 static_cast<uint32_t>(rng.nextBelow(8)));
    }
    const int edges = static_cast<int>(rng.nextBelow(3 * n));
    for (int e = 0; e < edges; ++e) {
        a.addEdge(static_cast<ElementId>(rng.nextBelow(n)),
                  static_cast<ElementId>(rng.nextBelow(n)));
    }

    NfaEngine nfa(a);
    MultiDfaEngine dfa(a);
    LazyDfaEngine lazy(a);
    LazyDfaOptions tiny_opts;
    tiny_opts.cacheBytes = 1; // every insertion over budget
    LazyDfaEngine tiny(a, tiny_opts);
    for (int trial = 0; trial < 5; ++trial) {
        std::string text = rng.randomString(1 + rng.nextBelow(80),
                                            "abcd");
        auto in = bytes(text);
        auto ref = nfa.simulate(in, fullOptions());
        ASSERT_EQ(sortedReports(ref),
                  sortedReports(dfa.simulate(in)))
            << "input '" << text << "'";
        expectSameSemantics(ref, lazy.simulate(in, fullOptions()));
        expectSameSemantics(ref, tiny.simulate(in, fullOptions()));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineEquivalence,
                         testing::Range(0, 40));

TEST(SpatialModel, PassesAndUtilization)
{
    SpatialArch arch;
    arch.name = "toy";
    arch.steCapacity = 100;
    arch.clockHz = 1e6;
    SpatialModel m(arch);
    EXPECT_EQ(m.passes(0), 1u);
    EXPECT_EQ(m.passes(100), 1u);
    EXPECT_EQ(m.passes(101), 2u);
    EXPECT_EQ(m.passes(1000), 10u);
    EXPECT_DOUBLE_EQ(m.utilization(100), 1.0);
    EXPECT_DOUBLE_EQ(m.utilization(150), 0.5);
}

TEST(SpatialModel, ThroughputScalesWithPassesAndReports)
{
    SpatialArch arch;
    arch.steCapacity = 100;
    arch.clockHz = 1e6;
    arch.reportStallCycles = 4;
    SpatialModel m(arch);
    EXPECT_DOUBLE_EQ(m.symbolsPerSecond(100, 0.0), 1e6);
    EXPECT_DOUBLE_EQ(m.symbolsPerSecond(200, 0.0), 0.5e6);
    // 0.25 reports/symbol * 4 stall cycles = 2 cycles/symbol.
    EXPECT_DOUBLE_EQ(m.symbolsPerSecond(100, 0.25), 0.5e6);
    EXPECT_DOUBLE_EQ(m.itemsPerSecond(100, 0.0, 100), 1e4);
}

TEST(SpatialModel, PresetsAreOrdered)
{
    // The FPGA preset outruns the AP on the same automaton, as in
    // the paper's narrative about modern baselines.
    SpatialModel ap(SpatialArch::apD480());
    SpatialModel fpga(SpatialArch::reaprKintex());
    EXPECT_GT(fpga.symbolsPerSecond(40000, 0.001),
              ap.symbolsPerSecond(40000, 0.001));
}

} // namespace
} // namespace azoo
