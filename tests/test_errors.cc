/**
 * @file
 * Recoverable-error-layer tests: the bad-input corpus parses to
 * structured Status values (never aborts), parse errors carry
 * line:column locations and the offending token, ParseLimits and
 * RunGuard bound resources, fault injection exercises the recovery
 * paths (truncated read, allocation failure, forced guard expiry),
 * and ParallelRunner survives worker failures with healthy streams
 * bit-identical to a serial run.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/anml.hh"
#include "core/automaton.hh"
#include "core/mnrl.hh"
#include "core/serialize.hh"
#include "engine/nfa_engine.hh"
#include "engine/parallel_runner.hh"
#include "tool_common.hh"
#include "engine/run_guard.hh"
#include "regex/parser.hh"
#include "util/fault.hh"
#include "util/io.hh"
#include "util/thread_pool.hh"

namespace azoo {
namespace {

std::string
badPath(const std::string &name)
{
    return std::string(AZOO_TEST_DATA_DIR) + "/bad/" + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    EXPECT_TRUE(f.is_open()) << path;
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
}

/** Every armed point must be disarmed even when a test fails. */
struct FaultScope {
    ~FaultScope() { fault::disarmAll(); }
};

// ---------------------------------------------------------------
// Bad-input corpus: structured errors through the library API, with
// a usable source location. None of these may abort the process.
// ---------------------------------------------------------------

TEST(BadCorpus, TruncatedMnrl)
{
    Expected<Automaton> got = loadMnrl(badPath("truncated.mnrl"));
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), ErrorCode::kParseError);
    EXPECT_TRUE(got.status().loc().known()) << got.status().str();
    EXPECT_NE(got.status().message().find("unterminated"),
              std::string::npos)
        << got.status().str();
}

TEST(BadCorpus, DanglingEdgeMnrl)
{
    // Well-formed JSON, broken graph: the semantic error must still
    // point at the offending node.
    Expected<Automaton> got = loadMnrl(badPath("dangling_edge.mnrl"));
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), ErrorCode::kParseError);
    EXPECT_TRUE(got.status().loc().known()) << got.status().str();
    EXPECT_NE(got.status().message().find("_9"), std::string::npos)
        << got.status().str();
}

TEST(BadCorpus, UnterminatedAnml)
{
    Expected<Automaton> got = loadAnml(badPath("unterminated.anml"));
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), ErrorCode::kParseError);
    EXPECT_TRUE(got.status().loc().known()) << got.status().str();
}

TEST(BadCorpus, BadEntityAnml)
{
    Expected<Automaton> got = loadAnml(badPath("bad_entity.anml"));
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), ErrorCode::kParseError);
    EXPECT_TRUE(got.status().loc().known()) << got.status().str();
}

TEST(BadCorpus, BitFlippedAzml)
{
    Expected<Automaton> got = loadAzml(badPath("bitflip.azml"));
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), ErrorCode::kParseError);
    // azml errors are line-addressed; the flipped record is line 3.
    EXPECT_EQ(got.status().loc().line, 3u) << got.status().str();
}

TEST(BadCorpus, DeeplyNestedRegex)
{
    const std::string pattern = slurp(badPath("deep_nesting.regex"));
    Expected<Regex> got = parseRegex(pattern);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), ErrorCode::kLimitExceeded);
    EXPECT_NE(got.status().message().find("nest"), std::string::npos)
        << got.status().str();
}

// ---------------------------------------------------------------
// Satellite 2: line:column and offending-token format.
// ---------------------------------------------------------------

TEST(ErrorFormat, MnrlReportsLineColumnAndToken)
{
    const std::string doc = "{\n  \"id\": \"x\",\n  \"nodes\": oops\n}";
    std::istringstream is(doc);
    Expected<Automaton> got = readMnrl(is);
    ASSERT_FALSE(got.ok());
    // "oops" starts at line 3, column 12 (1-based).
    EXPECT_EQ(got.status().loc().line, 3u) << got.status().str();
    EXPECT_EQ(got.status().loc().column, 12u) << got.status().str();
    EXPECT_NE(got.status().message().find("oops"), std::string::npos)
        << got.status().str();
    EXPECT_NE(got.status().str().find("3:12"), std::string::npos)
        << got.status().str();
}

TEST(ErrorFormat, AnmlReportsLineColumnAndToken)
{
    const std::string doc =
        "<anml version=\"1.0\">\n"
        "  <automata-network id=\"t\">\n"
        "    <state-transition-element id=\"_0\" symbol-set=\"[a]\" "
        "start=\"bogus\">\n"
        "    </state-transition-element>\n"
        "  </automata-network>\n"
        "</anml>\n";
    std::istringstream is(doc);
    Expected<Automaton> got = readAnml(is);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().loc().line, 3u) << got.status().str();
    EXPECT_NE(got.status().message().find("bogus"), std::string::npos)
        << got.status().str();
}

TEST(ErrorFormat, RegexReportsOffset)
{
    Expected<Regex> got = parseRegex("ab[c");
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), ErrorCode::kParseError);
    EXPECT_TRUE(got.status().loc().known()) << got.status().str();
    // Single-line input: column == byte offset + 1.
    EXPECT_EQ(got.status().loc().line, 1u);
}

TEST(ErrorFormat, OrDieWrappersAcceptValidInput)
{
    // The compat wrappers must still hand back a working automaton.
    const std::string azml =
        "automaton t\nste 0 start=all report=1 symbols=[a]\nend\n";
    std::istringstream is(azml);
    Automaton a = readAzmlOrDie(is);
    EXPECT_EQ(a.size(), 1u);
}

// ---------------------------------------------------------------
// ParseLimits: hostile sizes are refused, not honoured.
// ---------------------------------------------------------------

TEST(ParseLimits, MaxStatesEnforcedAcrossFormats)
{
    const std::string azml =
        "automaton t\n"
        "ste 0 start=all report=- symbols=[a]\n"
        "ste 1 start=none report=1 symbols=[b]\n"
        "edge 0 1\nend\n";
    ParseLimits limits;
    limits.maxStates = 1;
    std::istringstream is(azml);
    Expected<Automaton> got = readAzml(is, limits);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), ErrorCode::kLimitExceeded);
}

TEST(ParseLimits, MaxInputBytesEnforced)
{
    ParseLimits limits;
    limits.maxInputBytes = 16;
    std::istringstream is(std::string(64, '{'));
    Expected<Automaton> got = readMnrl(is, limits);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), ErrorCode::kLimitExceeded);
}

TEST(ParseLimits, JsonNestingDepthBounded)
{
    ParseLimits limits;
    limits.maxNestingDepth = 8;
    std::istringstream is(std::string(32, '[') + std::string(32, ']'));
    Expected<Automaton> got = readMnrl(is, limits);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), ErrorCode::kLimitExceeded);
}

// ---------------------------------------------------------------
// Fault injection: the recovery paths actually run.
// ---------------------------------------------------------------

TEST(FaultInjection, TruncatedReadSurfacesAsParseError)
{
    FaultScope scope;
    // readMnrl slurps through readStream, which hosts the
    // truncated-read point (losing the tail half of valid JSON is
    // guaranteed to break it).
    const std::string doc =
        "{\"id\": \"t\", \"nodes\": [{\"id\": \"_0\", \"type\": "
        "\"hState\", \"enable\": \"always\", \"report\": true, "
        "\"attributes\": {\"symbolSet\": \"[a]\"}, "
        "\"outputConnections\": []}]}";
    fault::armAfter(fault::Point::kTruncatedRead, 0);
    std::istringstream is(doc);
    Expected<Automaton> got = readMnrl(is);
    ASSERT_FALSE(got.ok()) << "truncated read must not parse clean";
    EXPECT_EQ(got.status().code(), ErrorCode::kParseError);
    // The same document parses once the fault is disarmed.
    fault::disarmAll();
    std::istringstream again(doc);
    EXPECT_TRUE(readMnrl(again).ok());
}

TEST(FaultInjection, ParserAllocFailureIsResourceExhausted)
{
    FaultScope scope;
    const std::string azml =
        "automaton t\nste 0 start=all report=1 symbols=[a]\nend\n";
    fault::armAfter(fault::Point::kAllocFail, 0);
    std::istringstream is(azml);
    Expected<Automaton> got = readAzml(is);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), ErrorCode::kResourceExhausted);
}

TEST(FaultInjection, GuardExpiryTruncatesRun)
{
    FaultScope scope;
    Automaton a("t");
    ElementId s = a.addSte(CharSet::single('a'), StartType::kAllInput,
                           true, 1);
    a.addEdge(s, s);
    NfaEngine eng(a);
    RunGuard guard;
    SimOptions opts;
    opts.guard = &guard;
    const std::vector<uint8_t> input(4096, 'a');

    // Fire on the second poll so a non-empty prefix completes first.
    fault::armAfter(fault::Point::kGuardExpiry, 1);
    SimResult r = eng.simulate(input, opts);
    ASSERT_TRUE(r.truncated());
    EXPECT_EQ(r.guardStatus.code(), ErrorCode::kDeadlineExceeded);
    EXPECT_LT(r.symbols, input.size());
    EXPECT_EQ(r.reportCount, r.symbols); // prefix answer is exact
}

// ---------------------------------------------------------------
// AZOO_FAULT_SPEC grammar. The spec parser runs on attacker-ish input
// (an env var crossing a fork boundary), so every malformed form must
// come back kInvalidArgument naming the offending entry — and a bad
// spec must arm *nothing*, not the valid prefix before the error.
// ---------------------------------------------------------------

TEST(FaultSpec, ParsesEveryScheduleForm)
{
    auto entries = fault::parseSpec(
        "alloc-fail:after:3;session-drop:random:42:150;"
        "slow-consumer:off;accept-fail:after:0");
    ASSERT_TRUE(entries.ok()) << entries.status().str();
    ASSERT_EQ(entries->size(), 4u);
    EXPECT_EQ((*entries)[0].point, fault::Point::kAllocFail);
    EXPECT_EQ((*entries)[0].mode, fault::SpecEntry::Mode::kAfter);
    EXPECT_EQ((*entries)[0].skip, 3u);
    EXPECT_EQ((*entries)[1].point, fault::Point::kSessionDrop);
    EXPECT_EQ((*entries)[1].mode, fault::SpecEntry::Mode::kRandom);
    EXPECT_EQ((*entries)[1].seed, 42u);
    EXPECT_EQ((*entries)[1].perMille, 150u);
    EXPECT_EQ((*entries)[2].mode, fault::SpecEntry::Mode::kOff);
    EXPECT_EQ((*entries)[3].point, fault::Point::kAcceptFail);
}

TEST(FaultSpec, EmptySpecIsNoEntries)
{
    auto entries = fault::parseSpec("");
    ASSERT_TRUE(entries.ok());
    EXPECT_TRUE(entries->empty());
}

TEST(FaultSpec, MalformedSpecsAreInvalidArgument)
{
    const char *bad[] = {
        "bogus-point:after:1",         // unknown point name
        "alloc-fail",                  // missing schedule
        "alloc-fail:",                 // empty schedule
        "alloc-fail:maybe:1",          // unknown schedule kind
        "alloc-fail:after",            // after without a count
        "alloc-fail:after:",           // empty count
        "alloc-fail:after:12x",        // trailing junk in number
        "alloc-fail:after:-1",         // negative
        "alloc-fail:random:7",         // random missing per-mille
        "alloc-fail:random:7:1001",    // per-mille over 1000
        "alloc-fail:random:7:150:9",   // excess field
        ";alloc-fail:after:1",         // empty leading entry
        "alloc-fail:after:1;;",        // empty middle entry
        "alloc-fail:after :1",         // interior whitespace
    };
    for (const char *spec : bad) {
        auto entries = fault::parseSpec(spec);
        ASSERT_FALSE(entries.ok()) << "accepted: " << spec;
        EXPECT_EQ(entries.status().code(), ErrorCode::kInvalidArgument)
            << spec;
    }
}

#if AZOO_FAULT_INJECTION
TEST(FaultSpec, BadSpecArmsNothing)
{
    FaultScope scope;
    // The first entry is valid; the second is garbage. applySpec must
    // reject the whole spec without arming the valid prefix.
    Status st = fault::applySpec("alloc-fail:after:0;nope:off");
    ASSERT_FALSE(st.ok());
    EXPECT_FALSE(fault::shouldFail(fault::Point::kAllocFail));
}

TEST(FaultSpec, AppliedSpecFiresLikeDirectArming)
{
    FaultScope scope;
    ASSERT_TRUE(fault::applySpec("session-drop:after:2").ok());
    EXPECT_FALSE(fault::shouldFail(fault::Point::kSessionDrop));
    EXPECT_FALSE(fault::shouldFail(fault::Point::kSessionDrop));
    EXPECT_TRUE(fault::shouldFail(fault::Point::kSessionDrop));
    // armAfter() is one-shot: disarmed after firing.
    EXPECT_FALSE(fault::shouldFail(fault::Point::kSessionDrop));
}
#endif // AZOO_FAULT_INJECTION

// ---------------------------------------------------------------
// RunGuard semantics on the real stop conditions.
// ---------------------------------------------------------------

TEST(RunGuard, SymbolBudgetYieldsExactPrefix)
{
    Automaton a("t");
    ElementId s = a.addSte(CharSet::single('a'), StartType::kAllInput,
                           true, 1);
    a.addEdge(s, s);
    NfaEngine eng(a);
    RunGuard guard;
    guard.setSymbolBudget(2048);
    SimOptions opts;
    opts.guard = &guard;
    const std::vector<uint8_t> input(100000, 'a');

    SimResult r = eng.simulate(input, opts);
    ASSERT_TRUE(r.truncated());
    EXPECT_EQ(r.guardStatus.code(), ErrorCode::kLimitExceeded);
    EXPECT_GE(r.symbols, 2048u);
    // Polls are coarse: overshoot is bounded by one interval.
    EXPECT_LE(r.symbols, 2048u + kGuardCheckIntervalSymbols);
    EXPECT_EQ(r.reportCount, r.symbols);
    for (const Report &rep : r.reports)
        EXPECT_LT(rep.offset, r.symbols);
}

TEST(RunGuard, CancelStopsImmediately)
{
    Automaton a("t");
    a.addSte(CharSet::all(), StartType::kAllInput, true, 1);
    NfaEngine eng(a);
    RunGuard guard;
    guard.cancel();
    SimOptions opts;
    opts.guard = &guard;
    const std::vector<uint8_t> input(8192, 'x');

    SimResult r = eng.simulate(input, opts);
    ASSERT_TRUE(r.truncated());
    EXPECT_EQ(r.guardStatus.code(), ErrorCode::kCancelled);
    EXPECT_EQ(r.symbols, 0u);
}

TEST(RunGuard, UnguardedRunIsComplete)
{
    Automaton a("t");
    a.addSte(CharSet::all(), StartType::kAllInput, true, 1);
    NfaEngine eng(a);
    const std::vector<uint8_t> input(4096, 'x');
    SimResult r = eng.simulate(input);
    EXPECT_FALSE(r.truncated());
    EXPECT_EQ(r.symbols, input.size());
}

// ---------------------------------------------------------------
// Satellite 1: ThreadPool::parallelFor rethrows worker exceptions.
// ---------------------------------------------------------------

TEST(ThreadPoolErrors, ParallelForRethrowsFirstException)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(64,
                         [](size_t i) {
                             if (i == 17)
                                 throw std::runtime_error("worker 17");
                         }),
        std::runtime_error);
    // The pool survives and keeps scheduling work.
    std::atomic<uint64_t> sum{0};
    pool.parallelFor(100, [&](size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 4950u);
}

// ---------------------------------------------------------------
// ParallelRunner failure capture.
// ---------------------------------------------------------------

/** A small automaton with two components so sharding is non-trivial. */
Automaton
twoComponentAutomaton()
{
    Automaton a("t");
    ElementId s0 = a.addSte(CharSet::single('a'),
                            StartType::kAllInput, true, 1);
    a.addEdge(s0, s0);
    ElementId s1 = a.addSte(CharSet::single('b'),
                            StartType::kAllInput, true, 2);
    a.addEdge(s1, s1);
    return a;
}

std::vector<std::vector<uint8_t>>
makeStreams(size_t n)
{
    std::vector<std::vector<uint8_t>> streams(n);
    for (size_t i = 0; i < n; ++i)
        streams[i].assign(64 + 8 * i, i % 2 ? 'b' : 'a');
    return streams;
}

TEST(ParallelErrors, BatchSurvivesWorkerFailure)
{
    FaultScope scope;
    Automaton a = twoComponentAutomaton();
    ParallelOptions popts;
    popts.threads = 4;
    ParallelRunner runner(a, popts);
    const auto streams = makeStreams(8);

    // Serial reference results for every stream.
    NfaEngine serial(a);
    std::vector<SimResult> ref(streams.size());
    for (size_t i = 0; i < streams.size(); ++i) {
        ref[i] = serial.simulate(streams[i]);
        canonicalizeReports(ref[i]);
    }

    fault::armAfter(fault::Point::kAllocFail, 0);
    BatchResult br = runner.runBatch(streams);
    fault::disarmAll();

    EXPECT_FALSE(br.allOk());
    EXPECT_EQ(br.failedStreams, 1u);
    size_t failed = 0;
    for (size_t i = 0; i < streams.size(); ++i) {
        if (!br.perStreamStatus[i].ok()) {
            ++failed;
            EXPECT_EQ(br.perStreamStatus[i].code(),
                      ErrorCode::kResourceExhausted);
            EXPECT_EQ(br.perStream[i].symbols, 0u);
            continue;
        }
        // Healthy streams are bit-identical to the serial run.
        EXPECT_EQ(br.perStream[i].symbols, ref[i].symbols) << i;
        EXPECT_EQ(br.perStream[i].reportCount, ref[i].reportCount)
            << i;
        EXPECT_EQ(br.perStream[i].reports, ref[i].reports) << i;
    }
    EXPECT_EQ(failed, 1u);

    // The runner is reusable after a failure; all streams succeed.
    BatchResult clean = runner.runBatch(streams);
    EXPECT_TRUE(clean.allOk());
    for (size_t i = 0; i < streams.size(); ++i)
        EXPECT_EQ(clean.perStream[i].reports, ref[i].reports) << i;
}

TEST(ParallelErrors, ShardedRunCarriesGuardTruncation)
{
    Automaton a = twoComponentAutomaton();
    ParallelOptions popts;
    popts.threads = 2;
    RunGuard guard;
    guard.setSymbolBudget(2048);
    popts.sim.guard = &guard;
    ParallelRunner runner(a, popts);

    std::vector<uint8_t> input(100000, 'a');
    SimResult r = runner.simulateSharded(input);
    ASSERT_TRUE(r.truncated());
    EXPECT_EQ(r.guardStatus.code(), ErrorCode::kLimitExceeded);
    EXPECT_LT(r.symbols, input.size());
    for (const Report &rep : r.reports)
        EXPECT_LT(rep.offset, r.symbols);
}

TEST(ParallelErrors, ShardedRunReportsWorkerFailure)
{
    FaultScope scope;
    Automaton a = twoComponentAutomaton();
    ParallelOptions popts;
    popts.threads = 2;
    ParallelRunner runner(a, popts);

    std::vector<uint8_t> input(4096, 'a');
    fault::armAfter(fault::Point::kAllocFail, 0);
    SimResult r = runner.simulateSharded(input);
    fault::disarmAll();
    ASSERT_TRUE(r.truncated());
    EXPECT_EQ(r.guardStatus.code(), ErrorCode::kResourceExhausted);
    // A failed shard invalidates the merge: empty, not silently wrong.
    EXPECT_EQ(r.symbols, 0u);
    EXPECT_TRUE(r.reports.empty());

    // And the runner recovers on the next call.
    SimResult clean = runner.simulateSharded(input);
    EXPECT_FALSE(clean.truncated());
    EXPECT_EQ(clean.symbols, input.size());
}

/** Input alternating 'a'/'b' so both components report every cycle. */
std::vector<uint8_t>
alternatingInput(size_t n)
{
    std::vector<uint8_t> in(n);
    for (size_t i = 0; i < n; ++i)
        in[i] = i % 2 ? 'b' : 'a';
    return in;
}

/** A chunked, guarded batch under @p engine stops every stream where
 *  the serial guarded run stops, with the serial prefix's results. */
void
expectChunkedBatchHonoursGuardBudget(EngineKind engine)
{
    Automaton a = twoComponentAutomaton();
    ParallelOptions popts;
    popts.threads = 2;
    popts.chunkBytes = 512;
    popts.engine = engine;
    RunGuard guard;
    guard.setSymbolBudget(2048);
    popts.sim.guard = &guard;
    ParallelRunner runner(a, popts);

    std::vector<std::vector<uint8_t>> streams(3,
                                              alternatingInput(10000));
    BatchResult br = runner.runBatch(streams);
    EXPECT_TRUE(br.allOk());

    // Serial guarded reference over one stream (all are identical).
    RunGuard serialGuard;
    serialGuard.setSymbolBudget(2048);
    SimOptions sopts;
    sopts.guard = &serialGuard;
    NfaEngine serial(a);
    SimResult ref =
        serial.simulate(streams[0].data(), streams[0].size(), sopts);
    canonicalizeReports(ref);
    ASSERT_TRUE(ref.truncated());

    for (size_t i = 0; i < streams.size(); ++i) {
        const SimResult &r = br.perStream[i];
        ASSERT_TRUE(r.truncated()) << i;
        EXPECT_EQ(r.guardStatus.code(), ErrorCode::kLimitExceeded)
            << i;
        EXPECT_EQ(r.symbols, ref.symbols) << i;
        EXPECT_EQ(r.reportCount, ref.reportCount) << i;
        EXPECT_EQ(r.reports, ref.reports) << i;
        EXPECT_EQ(r.totalEnabled, ref.totalEnabled) << i;
    }
}

TEST(ParallelErrors, ChunkedBatchHonoursGuardBudget)
{
    expectChunkedBatchHonoursGuardBudget(EngineKind::kNfa);
}

TEST(ParallelErrors, ChunkedLazyBatchHonoursGuardBudget)
{
    // Counter-free, so the lazy DFA is the plan's only lane: it runs
    // under the session's poll clock with no merge.
    expectChunkedBatchHonoursGuardBudget(EngineKind::kLazyDfa);
}

TEST(ParallelErrors, ShardedTruncationCountersMatchSerialPrefix)
{
    Automaton a = twoComponentAutomaton();
    ParallelOptions popts;
    popts.threads = 2;
    RunGuard guard;
    guard.setSymbolBudget(3000);
    popts.sim.guard = &guard;
    ParallelRunner runner(a, popts);

    const std::vector<uint8_t> input = alternatingInput(100000);
    SimResult r = runner.simulateSharded(input);
    ASSERT_TRUE(r.truncated());
    EXPECT_EQ(r.guardStatus.code(), ErrorCode::kLimitExceeded);
    ASSERT_LT(r.symbols, input.size());

    // The truncated result must be *exact* for the consumed prefix:
    // identical to an unguarded serial run over exactly r.symbols
    // bytes — counters included, not just the report stream.
    NfaEngine serial(a);
    SimResult ref = serial.simulate(
        input.data(), static_cast<size_t>(r.symbols), SimOptions{});
    canonicalizeReports(ref);
    EXPECT_EQ(r.reportCount, ref.reportCount);
    EXPECT_EQ(r.reports, ref.reports);
    EXPECT_EQ(r.totalEnabled, ref.totalEnabled);
    EXPECT_EQ(r.reportingCycles, ref.reportingCycles);
}

TEST(ParallelErrors, ShardedInjectedExpiryIsExactForCommonPrefix)
{
    FaultScope scope;
    Automaton a = twoComponentAutomaton();
    ParallelOptions popts;
    popts.threads = 2;
    RunGuard guard; // no limits: only the injected fault can fire
    popts.sim.guard = &guard;
    ParallelRunner runner(a, popts);

    const std::vector<uint8_t> input = alternatingInput(100000);
    // One poll (from whichever shard gets there first) is skipped,
    // the next fires: exactly one shard truncates while the other
    // keeps going, so the shards consume *different* prefixes and the
    // merge must reconcile down to the common one.
    fault::armAfter(fault::Point::kGuardExpiry, 1);
    SimResult r = runner.simulateSharded(input);
    fault::disarmAll();

    ASSERT_TRUE(r.truncated());
    EXPECT_EQ(r.guardStatus.code(), ErrorCode::kDeadlineExceeded);
    EXPECT_LT(r.symbols, input.size());
    EXPECT_EQ(r.symbols % kGuardCheckIntervalSymbols, 0u);

    NfaEngine serial(a);
    SimResult ref = serial.simulate(
        input.data(), static_cast<size_t>(r.symbols), SimOptions{});
    canonicalizeReports(ref);
    EXPECT_EQ(r.reportCount, ref.reportCount);
    EXPECT_EQ(r.reports, ref.reports);
    EXPECT_EQ(r.totalEnabled, ref.totalEnabled);
    EXPECT_EQ(r.reportingCycles, ref.reportingCycles);
}

TEST(ParallelErrors, ShardedLazyTruncationMatchesSerialPrefix)
{
    Automaton a = twoComponentAutomaton();
    ParallelOptions popts;
    popts.threads = 2;
    popts.engine = EngineKind::kLazyDfa;
    RunGuard guard;
    guard.setSymbolBudget(3000);
    popts.sim.guard = &guard;
    ParallelRunner runner(a, popts);

    const std::vector<uint8_t> input = alternatingInput(100000);
    SimResult r = runner.simulateSharded(input);
    ASSERT_TRUE(r.truncated());
    ASSERT_LT(r.symbols, input.size());

    NfaEngine serial(a);
    SimResult ref = serial.simulate(
        input.data(), static_cast<size_t>(r.symbols), SimOptions{});
    canonicalizeReports(ref);
    EXPECT_EQ(r.reportCount, ref.reportCount);
    EXPECT_EQ(r.reports, ref.reports);
    EXPECT_EQ(r.reportingCycles, ref.reportingCycles);
}

// ---------------------------------------------------------------
// azoo_run's --load flag-conflict contract (issue 6 satellite):
// combining --load with a parse-path flag is a usage error, exit 64.
// ---------------------------------------------------------------

TEST(ToolErrors, LoadFlagConflictCoversEveryParseFlag)
{
    // Each conflicting flag yields a non-empty usage message that
    // names the flag; unrelated flags pass through silently.
    for (const char *flag : tool::kLoadConflictFlags) {
        const std::string msg = tool::loadFlagConflict({flag});
        EXPECT_FALSE(msg.empty()) << flag;
        EXPECT_NE(msg.find(std::string("--") + flag),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("--load"), std::string::npos) << msg;
    }
    EXPECT_TRUE(tool::loadFlagConflict({}).empty());
    EXPECT_TRUE(
        tool::loadFlagConflict({"input", "engine", "by-code", "load"})
            .empty());
    // Mixed: one conflicting flag among benign ones still trips.
    EXPECT_FALSE(
        tool::loadFlagConflict({"input", "save", "engine"}).empty());
}

using ToolErrorsDeath = ::testing::Test;

TEST(ToolErrorsDeath, UsageErrorExits64)
{
    EXPECT_EXIT(tool::usageError(tool::loadFlagConflict({"automaton"})),
                ::testing::ExitedWithCode(tool::kExitUsage),
                "conflicts with --load");
}

} // namespace
} // namespace azoo
