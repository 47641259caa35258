/**
 * @file
 * Regex pipeline tests: parser units, Glushkov compilation, and the
 * differential property suite -- random patterns on random inputs,
 * comparing the NFA interpreter and the compiled multi-DFA engine
 * against the independent AST backtracking oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "engine/multidfa_engine.hh"
#include "engine/nfa_engine.hh"
#include "regex/backtrack.hh"
#include "regex/glushkov.hh"
#include "regex/parser.hh"
#include "util/rng.hh"

namespace azoo {
namespace {

/** Offsets reported by an engine on an input. */
std::vector<uint64_t>
engineOffsets(const Automaton &a, const std::vector<uint8_t> &in,
              bool use_dfa)
{
    SimResult r;
    if (use_dfa) {
        MultiDfaEngine e(a);
        r = e.simulate(in);
    } else {
        NfaEngine e(a);
        r = e.simulate(in);
    }
    std::vector<uint64_t> offs;
    offs.reserve(r.reports.size());
    for (const auto &rep : r.reports)
        offs.push_back(rep.offset);
    std::sort(offs.begin(), offs.end());
    offs.erase(std::unique(offs.begin(), offs.end()), offs.end());
    return offs;
}

void
expectAgreesWithOracle(const std::string &pattern,
                       const std::string &text,
                       RegexFlags flags = RegexFlags())
{
    Regex rx = parseRegexOrDie(pattern, flags);
    Automaton a = compileRegex(rx, 1);
    a.validate();
    std::vector<uint8_t> in(text.begin(), text.end());
    auto expected = referenceMatchEnds(rx, in);
    EXPECT_EQ(engineOffsets(a, in, false), expected)
        << "NFA vs oracle for /" << pattern << "/ on '" << text << "'";
    EXPECT_EQ(engineOffsets(a, in, true), expected)
        << "DFA vs oracle for /" << pattern << "/ on '" << text << "'";
}

TEST(RegexParser, RejectsInvalidPatterns)
{
    Regex rx;
    std::string err;
    EXPECT_FALSE(tryParseRegex("a(b", RegexFlags(), rx, err));
    EXPECT_FALSE(tryParseRegex("*a", RegexFlags(), rx, err));
    EXPECT_FALSE(tryParseRegex("a[b", RegexFlags(), rx, err));
    EXPECT_FALSE(tryParseRegex("a{3,1}", RegexFlags(), rx, err));
    EXPECT_FALSE(tryParseRegex("a**", RegexFlags(), rx, err)); // a* ok,
    // second star applies to star -- actually (a*)* is nullable:
    EXPECT_NE(err, "");
}

TEST(RegexParser, RejectsEmptyMatchingPatterns)
{
    Regex rx;
    std::string err;
    EXPECT_FALSE(tryParseRegex("a*", RegexFlags(), rx, err));
    EXPECT_NE(err.find("pattern matches the empty string"),
              std::string::npos)
        << err;
    EXPECT_FALSE(tryParseRegex("(a|)", RegexFlags(), rx, err));
    EXPECT_FALSE(tryParseRegex("a?b*", RegexFlags(), rx, err));
}

TEST(RegexParser, RejectsBackreferencesAndLookaround)
{
    Regex rx;
    std::string err;
    EXPECT_FALSE(tryParseRegex("(a)\\1", RegexFlags(), rx, err));
    EXPECT_NE(err.find("backreference"), std::string::npos);
    EXPECT_FALSE(tryParseRegex("(?=a)b", RegexFlags(), rx, err));
}

TEST(RegexParser, AnchorsRecorded)
{
    Regex rx = parseRegexOrDie("^abc");
    EXPECT_TRUE(rx.anchoredStart);
    EXPECT_FALSE(rx.anchoredEnd);
    rx = parseRegexOrDie("abc$");
    EXPECT_FALSE(rx.anchoredStart);
    EXPECT_TRUE(rx.anchoredEnd);
}

TEST(RegexParser, LiteralBraceWhenNotABound)
{
    // PCRE treats '{' literally when it is not a valid quantifier.
    expectAgreesWithOracle("a{x}", "xa{x}y");
}

TEST(RegexParser, EscapesAndClasses)
{
    expectAgreesWithOracle("\\x41\\d\\w", "A1_ A9z B2x");
    expectAgreesWithOracle("[^a-y]", "xyz");
    expectAgreesWithOracle("[]a]", "]a");     // leading ] is literal
    expectAgreesWithOracle("[a\\-c]", "a-c"); // escaped dash
}

TEST(RegexGlushkov, LiteralChainShape)
{
    Automaton a = compileRegex(parseRegexOrDie("abc"), 9);
    EXPECT_EQ(a.size(), 3u);
    EXPECT_EQ(a.edgeCount(), 2u);
    EXPECT_EQ(a.element(0).start, StartType::kAllInput);
    EXPECT_TRUE(a.element(2).reporting);
    EXPECT_EQ(a.element(2).reportCode, 9u);
}

TEST(RegexGlushkov, AnchoredUsesStartOfData)
{
    Automaton a = compileRegex(parseRegexOrDie("^ab"), 0);
    EXPECT_EQ(a.element(0).start, StartType::kStartOfData);
}

TEST(RegexGlushkov, PositionCountMatchesClassOccurrences)
{
    // (ab|cd)e has 5 positions.
    Automaton a = compileRegex(parseRegexOrDie("(ab|cd)e"), 0);
    EXPECT_EQ(a.size(), 5u);
}

TEST(RegexSemantics, HandPickedCases)
{
    expectAgreesWithOracle("abc", "zabcabcz");
    expectAgreesWithOracle("a.c", "abc axc a\nc");
    expectAgreesWithOracle("ab|cd", "abcd");
    expectAgreesWithOracle("a(b|c)*d", "abcbcd ad abd");
    expectAgreesWithOracle("a+b+", "aaabbb ab b a");
    expectAgreesWithOracle("(ab)+", "ababab");
    expectAgreesWithOracle("a{3}", "aaaa");
    expectAgreesWithOracle("a{2,4}", "aaaaaa");
    expectAgreesWithOracle("a{2,}", "aaaaa");
    expectAgreesWithOracle("ab{0,2}c", "ac abc abbc abbbc");
    expectAgreesWithOracle("^ab", "abab");
    expectAgreesWithOracle("x.*y", "xzzy xy yx");
    expectAgreesWithOracle("(a|ab)(c|bcd)", "abcd acd");
}

TEST(RegexSemantics, NocaseFlag)
{
    RegexFlags f;
    f.nocase = true;
    expectAgreesWithOracle("aBc", "abc ABC aBC xbc", f);
    expectAgreesWithOracle("[a-c]x", "AX bx CX dx", f);
}

TEST(RegexSemantics, DotallFlag)
{
    RegexFlags f;
    f.dotall = true;
    expectAgreesWithOracle("a.b", "a\nb", f);
}

TEST(RegexSemantics, OverlappingMatchesAllReported)
{
    // Streaming automata report every match end.
    expectAgreesWithOracle("aa", "aaaa");
    expectAgreesWithOracle("aba", "ababa");
}

/** Random pattern generator over a small alphabet (so matches are
 *  likely). Never generates nullable patterns at top level; the
 *  parser itself rejects those. */
std::string
randomPattern(Rng &rng, int depth)
{
    auto atom = [&]() -> std::string {
        switch (rng.nextBelow(6)) {
          case 0: return std::string(1, 'a' + rng.nextBelow(3));
          case 1: return ".";
          case 2: return "[ab]";
          case 3: return "[^a]";
          case 4: return std::string(1, 'a' + rng.nextBelow(3));
          default: return std::string(1, 'a' + rng.nextBelow(3));
        }
    };
    std::string p;
    const int terms = 1 + static_cast<int>(rng.nextBelow(4));
    for (int t = 0; t < terms; ++t) {
        std::string piece;
        if (depth > 0 && rng.nextBool(0.3)) {
            piece = "(";
            piece += randomPattern(rng, depth - 1);
            if (rng.nextBool(0.5)) {
                piece += "|";
                piece += randomPattern(rng, depth - 1);
            }
            piece += ")";
        } else {
            piece = atom();
        }
        switch (rng.nextBelow(8)) {
          case 0: piece += "*"; break;
          case 1: piece += "+"; break;
          case 2: piece += "?"; break;
          case 3: {
            // The upper bound is drawn first: the order GCC gave the
            // draws when they shared one expression, which fixed
            // each seed's pattern.
            const std::string hi = std::to_string(2 + rng.nextBelow(3));
            piece += "{";
            piece += std::to_string(1 + rng.nextBelow(3));
            piece += ",";
            piece += hi;
            piece += "}";
            break;
          }
          default: break;
        }
        p += piece;
    }
    return p;
}

class RegexDifferential : public testing::TestWithParam<int>
{
};

/**
 * The core differential property: both engines agree with the oracle
 * on random patterns x random inputs. 40 seeds x 8 inputs each.
 */
TEST_P(RegexDifferential, EnginesAgreeWithOracle)
{
    Rng rng(1000 + GetParam());
    std::string pattern = randomPattern(rng, 2);
    Regex rx;
    std::string err;
    if (!tryParseRegex(pattern, RegexFlags(), rx, err))
        GTEST_SKIP() << "nullable pattern " << pattern;

    Automaton a = compileRegex(rx, 0);
    for (int i = 0; i < 8; ++i) {
        const size_t len = 1 + rng.nextBelow(60);
        std::string text = rng.randomString(len, "abcd");
        std::vector<uint8_t> in(text.begin(), text.end());
        auto expected = referenceMatchEnds(rx, in);
        ASSERT_EQ(engineOffsets(a, in, false), expected)
            << "NFA /" << pattern << "/ on '" << text << "'";
        ASSERT_EQ(engineOffsets(a, in, true), expected)
            << "DFA /" << pattern << "/ on '" << text << "'";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegexDifferential,
                         testing::Range(0, 40));

/** Anchored differential sweep. */
class RegexAnchoredDifferential : public testing::TestWithParam<int>
{
};

TEST_P(RegexAnchoredDifferential, AnchoredEnginesAgree)
{
    Rng rng(5000 + GetParam());
    std::string pattern = "^";
    pattern += randomPattern(rng, 1);
    Regex rx;
    std::string err;
    if (!tryParseRegex(pattern, RegexFlags(), rx, err))
        GTEST_SKIP();
    Automaton a = compileRegex(rx, 0);
    for (int i = 0; i < 8; ++i) {
        std::string text = rng.randomString(1 + rng.nextBelow(30),
                                            "abc");
        std::vector<uint8_t> in(text.begin(), text.end());
        auto expected = referenceMatchEnds(rx, in);
        ASSERT_EQ(engineOffsets(a, in, false), expected)
            << "/" << pattern << "/ on '" << text << "'";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegexAnchoredDifferential,
                         testing::Range(0, 20));

/** Flagged differential sweep: nocase and dotall change the charset
 *  construction, so they get their own randomized pass. */
class RegexFlaggedDifferential : public testing::TestWithParam<int>
{
};

TEST_P(RegexFlaggedDifferential, FlaggedEnginesAgree)
{
    Rng rng(8000 + GetParam());
    RegexFlags flags;
    flags.nocase = rng.nextBool();
    flags.dotall = rng.nextBool();
    std::string pattern = randomPattern(rng, 2);
    Regex rx;
    std::string err;
    if (!tryParseRegex(pattern, flags, rx, err))
        GTEST_SKIP();
    Automaton a = compileRegex(rx, 0);
    for (int i = 0; i < 6; ++i) {
        // Mixed-case alphabet with newlines so both flags matter.
        std::string text = rng.randomString(1 + rng.nextBelow(50),
                                            "aAbBcC\n");
        std::vector<uint8_t> in(text.begin(), text.end());
        auto expected = referenceMatchEnds(rx, in);
        ASSERT_EQ(engineOffsets(a, in, false), expected)
            << "NFA /" << pattern << "/ nocase=" << flags.nocase
            << " dotall=" << flags.dotall << " on '" << text << "'";
        ASSERT_EQ(engineOffsets(a, in, true), expected)
            << "DFA /" << pattern << "/";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegexFlaggedDifferential,
                         testing::Range(0, 25));

} // namespace
} // namespace azoo
