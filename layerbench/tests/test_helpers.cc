/**
 * @file
 * Unit tests of layerbench's own helpers: the tail-percentile rule,
 * the match planter, and span self time.
 *
 *   python3 layerbench/run.py --self-test
 */

#include <gtest/gtest.h>

#include <numeric>

#include "engine/nfa_engine.hh"
#include "planter.hh"
#include "stats.hh"
#include "trace.hh"
#include "zoo/registry.hh"

using namespace layerbench;
using namespace azoo;

namespace {

std::vector<double>
oneTo(size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

} // namespace

TEST(Stats, MedianOddAndEven)
{
    std::vector<double> odd = {5, 1, 3};
    EXPECT_DOUBLE_EQ(median(odd), 3);
    std::vector<double> even = {4, 1, 3, 2};
    EXPECT_DOUBLE_EQ(median(even), 2.5);
    std::vector<double> none;
    EXPECT_DOUBLE_EQ(median(none), 0);
}

TEST(Stats, TailLeavesExactlyTenSamplesBeyond)
{
    // 1000 samples: p99 is the 990th value, with 10 above it.
    const Summary s = summarize(oneTo(1000));
    EXPECT_EQ(s.count, 1000u);
    EXPECT_DOUBLE_EQ(s.tail, 990);
    EXPECT_DOUBLE_EQ(s.tailPct, 99.0);
    EXPECT_EQ(s.tailBeyond, 10u);

    // 100 samples: p90.
    const Summary h = summarize(oneTo(100));
    EXPECT_DOUBLE_EQ(h.tail, 90);
    EXPECT_DOUBLE_EQ(h.tailPct, 90.0);

    // 11 samples: the smallest count with a defined tail.
    const Summary e = summarize(oneTo(11));
    EXPECT_DOUBLE_EQ(e.tail, 1);
    EXPECT_EQ(e.tailBeyond, 10u);
}

TEST(Stats, TailUndefinedAtTenOrFewer)
{
    const Summary s = summarize(oneTo(10));
    EXPECT_EQ(s.tailBeyond, 0u);
    EXPECT_DOUBLE_EQ(s.tail, 10); // the maximum, flagged
    EXPECT_DOUBLE_EQ(s.tailPct, 100.0);
}

TEST(Stats, LowDecileIsTheMinimumUpToTenSamples)
{
    EXPECT_DOUBLE_EQ(summarize(oneTo(1)).low, 1);
    EXPECT_DOUBLE_EQ(summarize(oneTo(10)).low, 1);
    EXPECT_DOUBLE_EQ(summarize(oneTo(11)).low, 2);
    EXPECT_DOUBLE_EQ(summarize(oneTo(101)).low, 11);
    EXPECT_DOUBLE_EQ(summarize(oneTo(1000)).low, 100);
}

TEST(Stats, SummarizeIgnoresInputOrder)
{
    std::vector<double> v = oneTo(200);
    std::reverse(v.begin(), v.end());
    const Summary s = summarize(v);
    EXPECT_DOUBLE_EQ(s.median, 100.5);
    EXPECT_DOUBLE_EQ(s.low, 20);
    EXPECT_DOUBLE_EQ(s.tail, 190);
}

TEST(Trace, SelfTimeSubtractsUnionOfChildren)
{
    std::vector<Span> spans = {
        {"parent", 100, 200, 1, 0, 7},
        {"a", 110, 130, 2, 1, 7},
        {"b", 120, 150, 3, 1, 7}, // overlaps a: union 110..150
        {"c", 190, 250, 4, 1, 7}, // clipped to the parent: 190..200
        {"grandchild", 111, 112, 5, 2, 7}, // not a direct child
        {"other", 100, 200, 6, 0, 7},      // a sibling, not a child
    };
    EXPECT_EQ(selfTimeNs(spans[0], spans), 100u - 40u - 10u);
    EXPECT_EQ(selfTimeNs(spans[1], spans), 20u - 1u);
    EXPECT_EQ(selfTimeNs(spans[5], spans), 100u);

    // The all-spans form agrees span by span.
    const std::vector<uint64_t> all = selfTimesNs(spans);
    ASSERT_EQ(all.size(), spans.size());
    for (size_t i = 0; i < spans.size(); ++i)
        EXPECT_EQ(all[i], selfTimeNs(spans[i], spans)) << spans[i].name;
}

TEST(Trace, ScopeRecordsParentAndSessionOnlyWhenEnabled)
{
    Tracer on(true);
    {
        Scope outer(on, "outer", 0, 42);
        Scope inner(on, "inner", outer.id(), 42);
        EXPECT_GE(inner.stop(), 0.0);
    }
    const std::vector<Span> spans = on.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].name, "inner");
    EXPECT_EQ(spans[0].parent, spans[1].id);
    EXPECT_EQ(spans[0].session, 42u);
    EXPECT_LE(spans[1].startNs, spans[0].startNs);
    EXPECT_GE(spans[1].endNs, spans[0].endNs);

    Tracer off(false);
    {
        Scope s(off, "x");
        EXPECT_GT(s.stop(), 0.0); // still a stopwatch
    }
    EXPECT_TRUE(off.spans().empty());
}

TEST(Planter, WalksAreAcceptedByNfaEngine)
{
    zoo::ZooConfig zc;
    zc.scale = 0.01;
    zc.inputBytes = 1 << 18;
    zc.seed = 5;
    const zoo::Benchmark b = zoo::makeBenchmark("ClamAV", zc);
    const std::vector<uint32_t> dist = distanceToReport(b.automaton);
    const NfaEngine engine(b.automaton);
    EngineScratch scratch;
    Rng rng(9);
    for (int i = 0; i < 50; ++i) {
        const Walk w = randomWalk(b.automaton, dist, rng, 512);
        ASSERT_FALSE(w.bytes.empty());
        EXPECT_TRUE(b.automaton.element(w.reporter).reporting);
        EXPECT_TRUE(walkAccepted(engine, scratch, w));
    }
}

TEST(Planter, PlantsAtTheStatedDensityAndIsSeeded)
{
    zoo::ZooConfig zc;
    zc.scale = 0.01;
    zc.inputBytes = 1 << 20;
    zc.seed = 3;
    const zoo::Benchmark b = zoo::makeBenchmark("ClamAV", zc);
    PlantOptions po;
    po.seed = 11;
    po.spacing = 64 << 10;
    std::vector<uint8_t> x = b.input, y = b.input;
    const PlantResult rx = plantMatches(b.automaton, x, po);
    const PlantResult ry = plantMatches(b.automaton, y, po);
    EXPECT_EQ(rx.planted, (1u << 20) / (64u << 10));
    EXPECT_EQ(rx.rejected, 0u);
    EXPECT_EQ(ry.planted, rx.planted);
    EXPECT_EQ(x, y);
    EXPECT_NE(x, b.input);

    // Every planted walk shows up in a whole-input NfaEngine run.
    const SimResult before = NfaEngine(b.automaton).simulate(b.input);
    const SimResult after = NfaEngine(b.automaton).simulate(x);
    EXPECT_GE(after.reportCount, before.reportCount + rx.planted);
}

TEST(Planter, NothingToWalkPlantsNothing)
{
    Automaton a("no-starts");
    const ElementId s = a.addSte(CharSet::single('a'));
    const ElementId r = a.addSte(CharSet::single('b'), StartType::kNone,
                                 true, 1);
    a.addEdge(s, r);
    std::vector<uint8_t> in(1 << 17, 'x');
    const PlantResult res = plantMatches(a, in, PlantOptions());
    EXPECT_EQ(res.planted, 0u);
    EXPECT_EQ(in, std::vector<uint8_t>(1 << 17, 'x'));
}
