/**
 * @file
 * Zoo integration tests: every benchmark builds, validates, and
 * simulates; domain-specific correctness (Random Forest automata
 * votes equal native inference; Seq Match counters implement support
 * thresholds; YARA nibble conversion; Snort rule populations and
 * planted positives; ClamAV and PROSITE dialect conversions; entity
 * resolution fuzzy matching; AP PRNG report statistics).
 */

#include <gtest/gtest.h>

#include <cctype>
#include <set>

#include "core/stats.hh"
#include "engine/lazy_dfa_engine.hh"
#include "engine/multidfa_engine.hh"
#include "engine/nfa_engine.hh"
#include "regex/glushkov.hh"
#include "regex/parser.hh"
#include "zoo/clamav.hh"
#include "zoo/entity.hh"
#include "zoo/protomata.hh"
#include "zoo/randomforest.hh"
#include "zoo/registry.hh"
#include "zoo/seqmatch.hh"
#include "zoo/snort.hh"
#include "zoo/yara.hh"

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

TEST(Registry, HasTwentyFourBenchmarks)
{
    EXPECT_EQ(zoo::allBenchmarks().size(), 25u)
        << "Table I lists 25 rows (24 benchmarks; Seq Match wC rows "
           "are counted as variants)";
}

TEST(Registry, NamesAreUniqueAndResolvable)
{
    std::set<std::string> names;
    for (const auto &info : zoo::allBenchmarks())
        EXPECT_TRUE(names.insert(info.name).second) << info.name;
    EXPECT_EQ(names.size(), zoo::allBenchmarks().size());
}

TEST(Registry, UnknownNameIsFatal)
{
    EXPECT_EXIT(zoo::makeBenchmark("nope", tinyConfig()),
                testing::ExitedWithCode(1), "unknown benchmark");
}

/** Every benchmark builds, validates, and produces sane stats. */
class ZooIntegration
    : public testing::TestWithParam<std::string>
{
};

TEST_P(ZooIntegration, BuildsAndSimulates)
{
    zoo::ZooConfig cfg = tinyConfig();
    zoo::Benchmark b = zoo::makeBenchmark(GetParam(), cfg);
    b.automaton.validate();
    EXPECT_FALSE(b.automaton.empty());
    EXPECT_EQ(b.input.size(), cfg.inputBytes);

    GraphStats s = computeStats(b.automaton);
    EXPECT_GT(s.subgraphs, 0u);
    EXPECT_GT(s.reporting, 0u);
    EXPECT_GT(s.startStates, 0u);

    NfaEngine e(b.automaton);
    SimOptions opts;
    opts.recordReports = false;
    auto r = e.simulate(b.input, opts);
    EXPECT_EQ(r.symbols, cfg.inputBytes);
    // Determinism: regenerating yields the same automaton size and
    // report count.
    zoo::Benchmark b2 = zoo::makeBenchmark(GetParam(), cfg);
    EXPECT_EQ(b2.automaton.size(), b.automaton.size());
    NfaEngine e2(b2.automaton);
    EXPECT_EQ(e2.simulate(b2.input, opts).reportCount, r.reportCount);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, ZooIntegration, [] {
        std::vector<std::string> names;
        for (const auto &info : zoo::allBenchmarks())
            names.push_back(info.name);
        return testing::ValuesIn(names);
    }(),
    [](const testing::TestParamInfo<std::string> &info) {
        std::string id = info.param;
        for (char &c : id) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return id;
    });

/** Both CPU engines agree on every benchmark (report-for-report). */
class ZooEngineEquivalence
    : public testing::TestWithParam<std::string>
{
};

TEST_P(ZooEngineEquivalence, NfaAndDfaReportIdentically)
{
    zoo::ZooConfig cfg;
    cfg.scale = 0.01;
    cfg.inputBytes = 16 * 1024;
    zoo::Benchmark b = zoo::makeBenchmark(GetParam(), cfg);

    NfaEngine nfa(b.automaton);
    MultiDfaEngine dfa(b.automaton);
    auto sorted = [](SimResult r) {
        std::sort(r.reports.begin(), r.reports.end());
        return r.reports;
    };
    EXPECT_EQ(sorted(nfa.simulate(b.input)),
              sorted(dfa.simulate(b.input)));

    // The tallies agree too, with and without a lazy-DFA fallback.
    SimOptions opts;
    opts.countByCode = true;
    const SimResult want = nfa.simulate(b.input, opts);
    const SimResult got = dfa.simulate(b.input, opts);
    EXPECT_EQ(want.reportCount, got.reportCount);
    EXPECT_EQ(want.reportingCycles, got.reportingCycles);
    EXPECT_EQ(want.byCode, got.byCode);
}

/** The lazy-DFA hybrid is bit-identical to the interpreter on every
 *  benchmark -- at the default budget and at a deliberately tiny one
 *  that forces whole-cache flushes mid-stream. */
TEST_P(ZooEngineEquivalence, LazyDfaIsBitIdenticalToNfa)
{
    zoo::ZooConfig cfg;
    cfg.scale = 0.01;
    cfg.inputBytes = 16 * 1024;
    zoo::Benchmark b = zoo::makeBenchmark(GetParam(), cfg);

    SimOptions opts;
    opts.countByCode = true;
    NfaEngine nfa(b.automaton);
    SimResult ref = nfa.simulate(b.input, opts);
    std::sort(ref.reports.begin(), ref.reports.end());

    LazyDfaOptions tiny;
    tiny.cacheBytes = 2048;
    for (const auto &lopts : {LazyDfaOptions(), tiny}) {
        LazyDfaEngine lazy(b.automaton, lopts);
        SimResult got = lazy.simulate(b.input, opts);
        EXPECT_EQ(ref.reports, got.reports);
        EXPECT_EQ(ref.reportCount, got.reportCount);
        EXPECT_EQ(ref.totalEnabled, got.totalEnabled);
        EXPECT_EQ(ref.reportingCycles, got.reportingCycles);
        EXPECT_EQ(ref.byCode, got.byCode);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, ZooEngineEquivalence, [] {
        std::vector<std::string> names;
        for (const auto &info : zoo::allBenchmarks())
            names.push_back(info.name);
        return testing::ValuesIn(names);
    }(),
    [](const testing::TestParamInfo<std::string> &info) {
        std::string id = info.param;
        for (char &c : id) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return id;
    });

TEST(Snort, PopulationsScaleAndOutlierExists)
{
    zoo::ZooConfig cfg = tinyConfig();
    cfg.scale = 0.05;
    auto rules = zoo::makeSnortRules(cfg);
    size_t clean = 0, mod = 0, isd = 0;
    for (const auto &r : rules) {
        clean += !r.pcreModifier && !r.isdataat;
        mod += r.pcreModifier;
        isd += r.isdataat;
    }
    EXPECT_EQ(clean, cfg.scaled(2486));
    EXPECT_EQ(mod, cfg.scaled(2856));
    EXPECT_EQ(isd, cfg.scaled(182));
}

TEST(Snort, ExclusionsReduceReportRate)
{
    zoo::ZooConfig cfg = tinyConfig();
    cfg.scale = 0.05;
    cfg.inputBytes = 64 * 1024;
    auto rules = zoo::makeSnortRules(cfg);
    auto input = zoo::snortInput(cfg, rules);

    SimOptions opts;
    opts.recordReports = false;
    auto rate = [&](bool with_mod, bool with_isd) {
        Automaton a = zoo::compileSnortRules(rules, with_mod,
                                             with_isd);
        NfaEngine e(a);
        return e.simulate(input, opts).reportRate();
    };
    const double all = rate(true, true);
    const double no_mod = rate(false, true);
    const double clean = rate(false, false);
    // Section V: each exclusion step reduces reporting substantially.
    EXPECT_GT(all, 2 * no_mod);
    EXPECT_GT(no_mod, 1.5 * clean);
}

TEST(Snort, PlantedAttacksDetected)
{
    zoo::ZooConfig cfg = tinyConfig();
    cfg.inputBytes = 128 * 1024;
    auto b = zoo::makeSnortBenchmark(cfg);
    NfaEngine e(b.automaton);
    EXPECT_GT(e.simulate(b.input).reportCount, 0u);
}

TEST(ClamAv, HexDialectConversion)
{
    EXPECT_EQ(zoo::clamHexToRegex("4d5a"), "\\x4d\\x5a");
    EXPECT_EQ(zoo::clamHexToRegex("4d??5a"), "\\x4d.\\x5a");
    EXPECT_EQ(zoo::clamHexToRegex("4d{2-4}5a"),
              "\\x4d.{2,4}\\x5a");
    EXPECT_EQ(zoo::clamHexToRegex("4d{3}5a"), "\\x4d.{3}\\x5a");
}

TEST(ClamAv, SignatureInstancesMatchTheirPattern)
{
    zoo::ZooConfig cfg = tinyConfig();
    auto sigs = zoo::makeClamSignatures(cfg);
    ASSERT_GT(sigs.size(), 10u);
    for (size_t i = 0; i < 10; ++i) {
        RegexFlags flags;
        flags.dotall = true;
        Regex rx = parseRegexOrDie(zoo::clamHexToRegex(sigs[i].hex), flags);
        Automaton a = compileRegex(rx, 1);
        NfaEngine e(a);
        std::vector<uint8_t> in(sigs[i].instance.begin(),
                                sigs[i].instance.end());
        EXPECT_GT(e.simulate(in).reportCount, 0u) << sigs[i].hex;
    }
}

TEST(ClamAv, DetectsBothPlantedViruses)
{
    zoo::ZooConfig cfg = tinyConfig();
    cfg.inputBytes = 256 * 1024;
    auto b = zoo::makeClamAvBenchmark(cfg);
    NfaEngine e(b.automaton);
    SimOptions opts;
    opts.countByCode = true;
    auto r = e.simulate(b.input, opts);
    EXPECT_GE(r.byCode.size(), 2u)
        << "expected two distinct signatures to fire";
}

TEST(Protomata, PrositeConversion)
{
    EXPECT_EQ(zoo::prositeToRegex("A-x-[DE]-{P}-C"),
              "A.[DE][^P]C");
    EXPECT_EQ(zoo::prositeToRegex("A-x(2,3)-C"), "A.{2,3}C");
    EXPECT_EQ(zoo::prositeToRegex("x(4)"), ".{4}");
}

TEST(Protomata, InstancesMatchTheirPattern)
{
    zoo::ZooConfig cfg = tinyConfig();
    auto pats = zoo::makePrositePatterns(cfg);
    for (size_t i = 0; i < std::min<size_t>(10, pats.size()); ++i) {
        Regex rx = parseRegexOrDie(zoo::prositeToRegex(pats[i].prosite));
        Automaton a = compileRegex(rx, 1);
        NfaEngine e(a);
        std::vector<uint8_t> in(pats[i].instance.begin(),
                                pats[i].instance.end());
        EXPECT_GT(e.simulate(in).reportCount, 0u) << pats[i].prosite;
    }
}

TEST(RandomForest, AutomataVotesEqualNativeInference)
{
    zoo::ZooConfig cfg = tinyConfig();
    cfg.scale = 0.05;
    cfg.inputBytes = 40000;
    auto bundle = zoo::makeRandomForestBundle(cfg, 'B');

    NfaEngine e(bundle.benchmark.automaton);
    auto r = e.simulate(bundle.benchmark.input);

    const int features = bundle.forest.params().features;
    auto votes = zoo::rfDecodeVotes(r.reports, bundle.numItems,
                                    features, 10);

    // Native inference on the same items.
    size_t agree = 0;
    for (size_t i = 0; i < bundle.numItems; ++i) {
        const auto &row =
            bundle.test.x[i % bundle.test.size()];
        agree += votes[i] == bundle.forest.predict(row);
    }
    // Votes must be exact: one report per tree per item.
    EXPECT_EQ(r.reportCount,
              bundle.numItems *
                  static_cast<uint64_t>(
                      bundle.forest.params().numTrees));
    EXPECT_EQ(agree, bundle.numItems)
        << "automata voting diverged from native inference";
}

TEST(RandomForest, VariantShapesMatchTableTwo)
{
    zoo::ZooConfig cfg = tinyConfig();
    cfg.scale = 0.05;
    cfg.inputBytes = 20000;
    auto b_b = zoo::makeRandomForestBundle(cfg, 'B');
    auto b_c = zoo::makeRandomForestBundle(cfg, 'C');
    // C has ~4x the states of B (2x leaves, 2x chain size).
    const double ratio =
        static_cast<double>(b_c.benchmark.automaton.size()) /
        static_cast<double>(b_b.benchmark.automaton.size());
    EXPECT_GT(ratio, 3.0);
    EXPECT_LT(ratio, 5.0);
    // All subgraphs are uniform chains (std dev 0, Table I).
    GraphStats s = computeStats(b_b.benchmark.automaton);
    EXPECT_DOUBLE_EQ(s.stdSubgraph, 0.0);
}

TEST(SeqMatch, FilterMatchesOrderedItemset)
{
    Automaton a("s");
    zoo::SeqMatchParams p;
    p.itemsetSize = 3;
    p.filterWidth = 3;
    zoo::appendSeqFilter(a, {5, 9, 20}, p, 1);
    NfaEngine e(a);

    auto txn = [](const std::vector<uint8_t> &items) {
        std::vector<uint8_t> v;
        v.reserve(items.size() + 2);
        v.push_back(zoo::kSeqSeparator);
        v.insert(v.end(), items.begin(), items.end());
        v.push_back(zoo::kSeqSeparator);
        return v;
    };
    // Exact, with gaps, and missing-item transactions.
    EXPECT_EQ(e.simulate(txn({5, 9, 20})).reportCount, 1u);
    EXPECT_EQ(e.simulate(txn({2, 5, 7, 9, 12, 20, 30})).reportCount,
              1u);
    EXPECT_EQ(e.simulate(txn({5, 9})).reportCount, 0u);
    EXPECT_EQ(e.simulate(txn({5, 20})).reportCount, 0u);
    // Items cannot be skipped across a transaction boundary.
    std::vector<uint8_t> split = {zoo::kSeqSeparator, 5, 9,
                                  zoo::kSeqSeparator, 20};
    EXPECT_EQ(e.simulate(split).reportCount, 0u);
}

TEST(SeqMatch, CounterVariantImplementsSupportThreshold)
{
    Automaton a("s");
    zoo::SeqMatchParams p;
    p.itemsetSize = 2;
    p.filterWidth = 2;
    p.withCounters = true;
    p.supportThreshold = 3;
    zoo::appendSeqFilter(a, {4, 8}, p, 1);
    NfaEngine e(a);

    auto stream = [](int occurrences) {
        std::vector<uint8_t> v;
        for (int i = 0; i < occurrences; ++i) {
            v.push_back(zoo::kSeqSeparator);
            v.push_back(4);
            v.push_back(8);
        }
        v.push_back(zoo::kSeqSeparator);
        return v;
    };
    EXPECT_EQ(e.simulate(stream(2)).reportCount, 0u);
    EXPECT_EQ(e.simulate(stream(3)).reportCount, 1u);
    // Latch: exactly one report no matter how much more support.
    EXPECT_EQ(e.simulate(stream(10)).reportCount, 1u);
}

TEST(SeqMatch, PaddedVariantSameLanguageMoreStates)
{
    zoo::ZooConfig cfg = tinyConfig();
    zoo::SeqMatchParams exact;
    zoo::SeqMatchParams padded;
    padded.filterWidth = 10;
    auto b_e = zoo::makeSeqMatchBenchmark(cfg, exact);
    auto b_p = zoo::makeSeqMatchBenchmark(cfg, padded);
    EXPECT_GT(b_p.automaton.size(), b_e.automaton.size());

    NfaEngine e1(b_e.automaton), e2(b_p.automaton);
    auto r1 = e1.simulate(b_e.input);
    auto r2 = e2.simulate(b_e.input);
    EXPECT_EQ(r1.reportCount, r2.reportCount);
    // The padding states do attempt matches: more enabled work.
    EXPECT_GT(r2.totalEnabled, r1.totalEnabled);
}

TEST(SeqMatch, NativeSupportEqualsAutomataCounts)
{
    zoo::ZooConfig cfg = tinyConfig();
    cfg.scale = 0.02;
    zoo::SeqMatchParams p;
    auto b = zoo::makeSeqMatchBenchmark(cfg, p);
    auto itemsets = zoo::seqMatchItemsets(cfg, p);

    NfaEngine e(b.automaton);
    SimOptions opts;
    opts.recordReports = false;
    opts.countByCode = true;
    auto r = e.simulate(b.input, opts);
    auto native = zoo::nativeSupportCounts(itemsets, b.input);

    uint64_t total = 0;
    for (size_t f = 0; f < itemsets.size(); ++f) {
        auto it = r.byCode.find(static_cast<uint32_t>(f));
        const uint64_t automata =
            it == r.byCode.end() ? 0 : it->second;
        ASSERT_EQ(automata, native[f]) << "itemset " << f;
        total += native[f];
    }
    EXPECT_GT(total, 0u);
}

TEST(Yara, HexDialectConversion)
{
    EXPECT_EQ(zoo::yaraHexToRegex("9c 50"), "\\x9c\\x50");
    EXPECT_EQ(zoo::yaraHexToRegex("??"), ".");
    EXPECT_EQ(zoo::yaraHexToRegex("d?"), "[\\xd0-\\xdf]");
    EXPECT_EQ(zoo::yaraHexToRegex("[4-6]"), ".{4,6}");
    EXPECT_EQ(zoo::yaraHexToRegex("( aa | bb )"), "(\\xaa|\\xbb)");
    // Low-nibble wildcard expands to a 16-byte class.
    std::string low = zoo::yaraHexToRegex("?a");
    EXPECT_EQ(low.front(), '[');
    EXPECT_NE(low.find("\\x0a"), std::string::npos);
    EXPECT_NE(low.find("\\xfa"), std::string::npos);
}

TEST(Yara, NibbleWildcardSemantics)
{
    // "?A" matches any byte whose low nibble is A.
    Regex rx = parseRegexOrDie(zoo::yaraHexToRegex("?a"));
    Automaton a = compileRegex(rx, 1);
    NfaEngine e(a);
    for (int v : {0x0a, 0x3a, 0xfa}) {
        std::vector<uint8_t> in = {static_cast<uint8_t>(v)};
        EXPECT_EQ(e.simulate(in).reportCount, 1u) << v;
    }
    for (int v : {0x0b, 0xa0, 0xff}) {
        std::vector<uint8_t> in = {static_cast<uint8_t>(v)};
        EXPECT_EQ(e.simulate(in).reportCount, 0u) << v;
    }
}

TEST(Yara, RuleInstancesMatch)
{
    zoo::ZooConfig cfg = tinyConfig();
    auto rules = zoo::makeYaraRules(cfg, false);
    for (size_t i = 0; i < std::min<size_t>(10, rules.size()); ++i) {
        RegexFlags flags;
        flags.dotall = true;
        Regex rx = parseRegexOrDie(zoo::yaraHexToRegex(rules[i].hex), flags);
        Automaton a = compileRegex(rx, 1);
        NfaEngine e(a);
        std::vector<uint8_t> in(rules[i].instance.begin(),
                                rules[i].instance.end());
        EXPECT_GT(e.simulate(in).reportCount, 0u) << rules[i].hex;
    }
}

TEST(Entity, MatchesFormatVariantsAndTypos)
{
    Automaton a("e");
    input::Name n{"Maria", "Lindberg"};
    zoo::appendNameMatcher(a, n, 1);
    NfaEngine e(a);

    auto count = [&](const std::string &s) {
        std::vector<uint8_t> in(s.begin(), s.end());
        return e.simulate(in).reportCount;
    };
    EXPECT_GT(count("Maria Lindberg"), 0u);
    EXPECT_GT(count("Lindberg, Maria"), 0u);
    EXPECT_GT(count("M. Lindberg"), 0u);
    // One substitution in the surname.
    EXPECT_GT(count("Maria Lindbarg"), 0u);
    // Two substitutions: no match.
    EXPECT_EQ(count("Maria Lyndbarg"), 0u);
    // Unrelated name: no match.
    EXPECT_EQ(count("Peter Svensson"), 0u);
}

TEST(Entity, NativeResolutionsEqualAutomataOffsets)
{
    // Full-kernel property #3: the native fuzzy matcher implements
    // exactly the automata matchers' language, so per-name distinct
    // report offsets must equal native resolution counts.
    zoo::ZooConfig cfg = tinyConfig();
    cfg.scale = 0.003; // 30 names
    cfg.inputBytes = 16 * 1024;
    auto b = zoo::makeEntityBenchmark(cfg);
    auto names = zoo::entityNames(cfg);

    NfaEngine e(b.automaton);
    auto r = e.simulate(b.input);
    std::vector<std::set<uint64_t>> offsets(names.size());
    for (const auto &rep : r.reports)
        offsets[rep.code].insert(rep.offset);

    auto native = zoo::nativeResolutionCounts(names, b.input);
    uint64_t total = 0;
    for (size_t i = 0; i < names.size(); ++i) {
        ASSERT_EQ(offsets[i].size(), native[i])
            << names[i].first << " " << names[i].last;
        total += native[i];
    }
    EXPECT_GT(total, 0u);
}

TEST(ApPrng, ReportRateApproximatesDieProbability)
{
    zoo::ZooConfig cfg = tinyConfig();
    cfg.scale = 0.02; // 20 chains
    cfg.inputBytes = 100000;
    auto b = zoo::makeBenchmark("AP PRNG 4-sided", cfg);
    NfaEngine e(b.automaton);
    SimOptions opts;
    opts.recordReports = false;
    auto r = e.simulate(b.input, opts);
    // Each 4-sided chain's tap fires with P = 1/4 each 5-cycle lap:
    // rate = chains / sides / groups... the tap is one of 4 faces of
    // one of 5 groups: P(active at tap group with tap face) = 1/(4*5)
    // per symbol? The ring passes the tap group once per 5 symbols,
    // landing on the tap face 1/4 of the time: 20 chains * (1/20)
    // = 1 report/symbol.
    EXPECT_NEAR(r.reportRate(), 1.0, 0.1);
}

} // namespace
} // namespace azoo
