#include "workloads.hh"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "analysis/analysis.hh"
#include "analysis/profile.hh"
#include "artifact/artifact.hh"
#include "core/mnrl.hh"
#include "engine/nfa_engine.hh"
#include "engine/parallel_runner.hh"
#include "engine/planner.hh"
#include "engine/streaming.hh"
#include "obs/obs.hh"
#include "planter.hh"
#include "serve/client.hh"
#include "serve/ruleset.hh"
#include "serve/server.hh"
#include "serve/session_manager.hh"
#include "stats.hh"
#include "util/rng.hh"
#include "zoo/registry.hh"

namespace layerbench {

using namespace azoo;

namespace {

/** Zoo generation scale of every workload. */
constexpr double kScale = 0.05;
/** One serve session: a slice of the workload input this long... */
constexpr size_t kSessionBytes = 64 << 10;
/** ...sent in DATA frames of this size (the serve chunk size). */
constexpr size_t kChunkBytes = 4 << 10;
/** Distinct session slices (each has its own NfaEngine reference). */
constexpr size_t kSlices = 16;
/** Closed-loop client connections and server engine workers: together
 *  they stay within a 4-core host. */
constexpr size_t kClients = 2;
constexpr size_t kServerWorkers = 2;
/** Repetitions of compile and set-up (medians reported). The traced
 *  run repeats each at least kMinReps times, then more while they
 *  have taken under kRepSeconds in all, up to kMaxReps. */
constexpr size_t kMinReps = 3;
constexpr size_t kMaxReps = 201;
constexpr double kRepSeconds = 1.0;
/** The end-to-end run: kRounds rounds of an equal share of the run's
 *  seconds; in each, compile repeats (at least once) while the round's
 *  compiles total under kCompileShare of the round, set-up likewise
 *  under kSetupShare, and the operations get the rest of the round
 *  (at least kMinOpShare of it). */
constexpr int kRounds = 10;
constexpr double kCompileShare = 0.2;
constexpr double kSetupShare = 0.1;
constexpr double kMinOpShare = 0.25;
/** The traced run's reload phase: one RELOAD of the same .azoox this
 *  often. */
constexpr int64_t kReloadIntervalMs = 500;
/** Serial NfaEngine prefix timed for engine.nfa.* (traced run). */
constexpr size_t kNfaProbeBytes = 8u << 20;

/** zoo::makeBenchmark seed of every ruleset and corpus (the paper-table
 *  benches' default). The run's --seed draws the inputs from the
 *  corpus, so runs with different seeds measure the same ruleset on
 *  statistically alike inputs. */
constexpr uint64_t kCorpusSeed = 42;

struct WorkloadSpec {
    const char *name;
    const char *zooName;
    /** Standard input bytes makeBenchmark generates (the corpus)... */
    size_t corpusBytes;
    /** ...from which the run's seed draws this many windows... */
    size_t streams;
    /** ...of this many bytes, each scanned as its own stream. */
    size_t streamBytes;
    /** Planted walk spacing (0 = nothing planted). */
    size_t plantSpacing;
    bool serve;
};

const WorkloadSpec kWorkloads[] = {
    {"snort-serve", "Snort", 4u << 20, 4, 1u << 20, 0, true},
    {"clamav-scan", "ClamAV", 32u << 20, 16, 16u << 20, 64 << 10, false},
    {"seqmatch-scan", "Seq. Match 6w 6p wC", 2u << 20, 8, 128 << 10, 0,
     false},
};

std::string
fmt(double v, int prec = 3)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", prec, v);
    return buf;
}

double
mbps(double bytes, double seconds)
{
    return seconds > 0 ? bytes / seconds / 1e6 : 0;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/** Semantic equality with a canonical reference (reports in
 *  (offset, element, code) order). */
bool
sameResult(SimResult got, const SimResult &ref)
{
    canonicalizeReports(got);
    return got.symbols == ref.symbols &&
        got.reportCount == ref.reportCount && got.reports == ref.reports;
}

/** A serve REPLY agrees with serial NfaEngine on its slice: complete,
 *  same report count, and the recorded (capped) report prefix. */
bool
replyMatches(const serve::Reply &r, const SimResult &ref, size_t len)
{
    if (r.status != serve::ReplyStatus::kOk || r.symbols != len ||
        r.reportCount != ref.reportCount ||
        r.reports.size() > ref.reports.size())
        return false;
    const size_t expect = std::min<size_t>(
        ref.reports.size(), serve::ServeLimits().maxReportRecords);
    return r.reports.size() == expect &&
        std::equal(r.reports.begin(), r.reports.end(),
                   ref.reports.begin());
}

/**
 * Serial NfaEngine over each stream of @p in (@p streamBytes each),
 * the canonical references every scan is checked against. Streams are
 * independent, so up to 4 run at once; each is one serial run.
 */
std::vector<SimResult>
referenceScans(const Automaton &a, const std::vector<uint8_t> &in,
               size_t streamBytes)
{
    const NfaEngine eng(a);
    const size_t n = in.size() / streamBytes;
    std::vector<SimResult> refs(n);
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < std::min<size_t>(n, 4); ++t) {
        threads.emplace_back([&] {
            SimOptions so;
            so.computeActiveSet = false;
            EngineScratch scratch;
            for (size_t k; (k = next.fetch_add(1)) < n;) {
                refs[k] = eng.simulate(in.data() + k * streamBytes,
                                       streamBytes, scratch, so);
                canonicalizeReports(refs[k]);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    return refs;
}

/** Everything made before timing starts (untimed preparation). */
struct Prepared {
    const WorkloadSpec *spec = nullptr;
    std::string mnrlPath, azooxPath;
    /** `streams` streams of `streamBytes` each, back to back. */
    std::vector<uint8_t> input;
    size_t streamBytes = 0;
    size_t streams = 0;
    std::vector<SimResult> refs; ///< per stream
    uint64_t refReports = 0;     ///< over all streams
    std::vector<size_t> sliceOff;
    std::vector<SimResult> sliceRef;
    PlantResult plant;
    double matchDensity = 0; ///< reference reports per MiB of input
};

Prepared
prepare(const WorkloadSpec &spec, const RunConfig &cfg, bool slices)
{
    Prepared p;
    p.spec = &spec;
    p.mnrlPath = cfg.workDir + "/ruleset.mnrl";
    p.azooxPath = cfg.workDir + "/ruleset.azoox";
    zoo::ZooConfig zc;
    zc.seed = kCorpusSeed;
    zc.scale = kScale;
    zc.inputBytes = spec.corpusBytes;
    zoo::Benchmark b = zoo::makeBenchmark(spec.zooName, zc);
    p.streamBytes = spec.streamBytes;
    p.streams = spec.streams;
    p.input.reserve(spec.streamBytes * spec.streams);
    Rng rng(cfg.seed);
    for (size_t t = 0; t < spec.streams; ++t) {
        const auto from = b.input.begin() +
            static_cast<std::ptrdiff_t>(rng.nextBelow(
                b.input.size() - spec.streamBytes + 1));
        p.input.insert(p.input.end(), from,
                       from + static_cast<std::ptrdiff_t>(spec.streamBytes));
    }
    b.input = {};
    PlantOptions po;
    po.seed = cfg.seed * 0x9E3779B97F4A7C15ULL + 1;
    po.spacing = spec.plantSpacing;
    p.plant = plantMatches(b.automaton, p.input, po);
    saveMnrl(p.mnrlPath, b.automaton);
    p.refs = referenceScans(b.automaton, p.input, p.streamBytes);
    for (const SimResult &r : p.refs)
        p.refReports += r.reportCount;
    p.matchDensity = static_cast<double>(p.refReports) /
        (static_cast<double>(p.input.size()) / (1 << 20));
    if (slices) {
        const NfaEngine eng(b.automaton);
        SimOptions so;
        so.computeActiveSet = false;
        for (size_t i = 0; i < kSlices; ++i) {
            const size_t off =
                rng.nextBelow(p.input.size() - kSessionBytes + 1);
            p.sliceOff.push_back(off);
            SimResult r =
                eng.simulate(p.input.data() + off, kSessionBytes, so);
            canonicalizeReports(r);
            p.sliceRef.push_back(std::move(r));
        }
    }
    return p;
}

/** Reset the peak-RSS high-water mark to the current RSS, after
 *  returning freed preparation memory to the system. */
void
resetPeakRss()
{
    ::malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

double
peakRssMB()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0;
}

/** Counts shared by every phase of a run. */
struct Tally {
    std::atomic<uint64_t> attempted{0};
    std::atomic<uint64_t> failed{0};

    void
    note(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }
};

// ---- compile: MNRL text -> verified .azoox (the azoo_compile path) --

struct CompileOut {
    double seconds = 0;
    uint64_t artifactBytes = 0;
};

CompileOut
compileOnce(const Prepared &p, Tracer &tr, Tally &tally)
{
    CompileOut out;
    Scope whole(tr, "compile");
    bool ok = false;
    Expected<Automaton> a = Status(ErrorCode::kIoError, "unread");
    {
        Scope s(tr, "core.mnrl_read", whole.id());
        a = loadMnrl(p.mnrlPath);
    }
    if (a.ok()) {
        artifact::WriteOptions wo;
        wo.componentProfiles = true;
        Expected<artifact::ArtifactInfo> info =
            Status(ErrorCode::kIoError, "unwritten");
        {
            Scope s(tr, "artifact.write", whole.id());
            info = artifact::saveArtifact(p.azooxPath, *a, wo);
        }
        if (info.ok()) {
            out.artifactBytes = info->fileBytes;
            Scope check(tr, "compile.reload_check", whole.id());
            Expected<artifact::LoadedArtifact> la =
                artifact::loadArtifact(p.azooxPath);
            Expected<Automaton> m = la.ok()
                ? la->materialize()
                : Expected<Automaton>(la.status());
            if (m.ok() && artifact::automataIdentical(*a, *m)) {
                check.stop();
                std::vector<analysis::ComponentProfile> prof;
                {
                    Scope s(tr, "analysis.infer", whole.id());
                    prof = analysis::inferProfiles(*m);
                }
                bool clean = false;
                {
                    Scope s(tr, "analysis.verify", whole.id());
                    clean = analysis::verify(*m).clean();
                }
                ok = clean && la->hasProfiles() &&
                    la->componentProfiles() == prof;
            }
        }
    }
    out.seconds = whole.stop();
    tally.note(ok);
    return out;
}

// ---- set-up: .azoox on disk -> ready to match --------------------------

/** Block-scan set-up: artifact load + planner build. */
struct ScanSetup {
    std::unique_ptr<Automaton> automaton;
    std::vector<analysis::ComponentProfile> profiles;
    std::unique_ptr<PlannedEngine> engine;
};

bool
setupScan(const Prepared &p, Tracer &tr, uint64_t parent, ScanSetup &out)
{
    Expected<Automaton> m = Status(ErrorCode::kIoError, "unloaded");
    {
        Scope s(tr, "artifact.load", parent);
        Expected<artifact::LoadedArtifact> la =
            artifact::loadArtifact(p.azooxPath);
        if (!la.ok())
            return false;
        m = la->materialize();
        out.profiles = la->componentProfiles();
    }
    if (!m.ok() || out.profiles.empty())
        return false;
    out.automaton = std::make_unique<Automaton>(std::move(*m));
    Scope s(tr, "engine.planner.build", parent);
    out.engine =
        std::make_unique<PlannedEngine>(*out.automaton, out.profiles);
    return true;
}

/** An in-process serve::Server and the thread running its loop.
 *  Holds a thread and the server it uses: not copyable or movable. */
class ServerHandle
{
  public:
    ServerHandle() = default;
    ~ServerHandle()
    {
        drain();
        server_.reset(); // joins the engine workers
        if (!sock_.empty())
            std::filesystem::remove(sock_);
    }
    ServerHandle(const ServerHandle &) = delete;
    ServerHandle &operator=(const ServerHandle &) = delete;

    /** Construct and bind (no loop yet). @p transport: tcp / unix. */
    bool
    start(serve::RulesetGeneration gen, const std::string &transport,
          const std::string &workDir, Tracer &tr, uint64_t parent)
    {
        serve::ServerOptions o;
        o.engine = serve::ServeEngine::kPlanned;
        o.workers = kServerWorkers;
        if (transport == "unix") {
            sock_ = workDir + "/serve.sock";
            std::filesystem::remove(sock_);
            o.addr = "unix:" + sock_;
        } else {
            o.addr = "tcp:0";
        }
        Scope s(tr, "serve.server.start", parent);
        server_ = std::make_unique<serve::Server>(std::move(gen), o);
        if (!server_->start().ok())
            return false;
        addr_ = sock_.empty() ? "tcp:" + std::to_string(server_->port())
                              : o.addr;
        return true;
    }

    void
    run()
    {
        thread_ = std::thread([this] { server_->run(); });
    }

    /** Drain the running loop and join it (idempotent); the
     *  server's stats() are final afterwards. */
    void
    drain()
    {
        if (thread_.joinable()) {
            server_->requestShutdown();
            thread_.join();
        }
    }

    serve::Server &server() { return *server_; }
    const std::string &addr() const { return addr_; }

  private:
    std::unique_ptr<serve::Server> server_;
    std::string addr_;
    std::string sock_;
    std::thread thread_;
};

/** Serve set-up: ruleset load (+ verify, profiles) + Server start. */
bool
setupServe(const Prepared &p, const std::string &transport,
           const std::string &workDir, Tracer &tr, uint64_t parent,
           serve::RulesetGeneration &gen, ServerHandle &server)
{
    {
        Scope s(tr, "serve.ruleset.compile", parent);
        serve::RulesetSpec spec;
        spec.engine = serve::ServeEngine::kPlanned;
        Expected<serve::RulesetGeneration> g =
            serve::loadRulesetFile(p.azooxPath, spec, 1);
        if (!g.ok())
            return false;
        gen = *g;
    }
    return server.start(gen, transport, workDir, tr, parent);
}

// ---- operations -------------------------------------------------------

struct ScanLoad {
    std::vector<double> secs; ///< one per stream scanned
    uint64_t lazyFlushes = 0;
    /** Prefilter stats of the latest scan of each stream. */
    std::vector<PrefilterStats> prefilter;
};

/** Block scans of the input's streams in turn until @p deadlineNs (and
 *  at least one of every stream, and 3 in all). Every result is
 *  checked against the stream's reference. */
ScanLoad
scanLoop(PlannedEngine &engine, const Prepared &p, uint64_t deadlineNs,
         Tracer &tr, Tally &tally)
{
    ScanLoad out;
    out.prefilter.resize(p.streams);
    const size_t minScans = std::max<size_t>(3, p.streams);
    for (size_t i = 0; i < minScans || nowNs() < deadlineNs; ++i) {
        const size_t k = i % p.streams;
        Scope s(tr, "engine.planned.simulate");
        SimResult r = engine.simulate(
            p.input.data() + k * p.streamBytes, p.streamBytes);
        out.secs.push_back(s.stop());
        out.lazyFlushes += r.lazyFlushes;
        out.prefilter[k] = engine.lastPrefilterStats();
        tally.note(sameResult(std::move(r), p.refs[k]));
    }
    return out;
}

struct ServeLoad {
    std::vector<double> latMs;
    uint64_t bytes = 0;
    double wallS = 0;
};

/** One closed-loop client: sessions until @p deadlineNs. */
void
clientLoop(const std::string &addr, const Prepared &p, size_t first,
           uint64_t deadlineNs, Tracer &tr, Tally &tally,
           ServeLoad &out)
{
    for (size_t i = first; nowNs() < deadlineNs; i += kClients) {
        const size_t slice = i % kSlices;
        const uint8_t *data = p.input.data() + p.sliceOff[slice];
        const uint64_t sid = tr.enabled() ? tr.nextId() : 0;
        Scope sess(tr, "client.session", 0, sid);
        serve::Client c;
        bool ok = false;
        Expected<serve::Reply> r = Status(ErrorCode::kIoError, "unsent");
        {
            Scope s(tr, "client.connect", sess.id(), sid);
            ok = c.connect(addr).ok();
        }
        if (ok) {
            Scope s(tr, "client.open", sess.id(), sid);
            ok = c.open(100).ok() && c.admitted();
        }
        if (ok) {
            Scope s(tr, "client.send", sess.id(), sid);
            for (size_t off = 0; ok && off < kSessionBytes;
                 off += kChunkBytes)
                ok = c.send(data + off, kChunkBytes).ok();
        }
        if (ok) {
            Scope s(tr, "client.finish", sess.id(), sid);
            r = c.finish();
        }
        const double ms = sess.stop() * 1e3;
        ok = ok && r.ok() &&
            replyMatches(*r, p.sliceRef[slice], kSessionBytes);
        tally.note(ok);
        if (ok) {
            out.latMs.push_back(ms);
            out.bytes += kSessionBytes;
        }
    }
}

/** kClients closed-loop clients against @p addr for @p seconds. */
ServeLoad
serveLoad(const std::string &addr, const Prepared &p, double seconds,
          Tracer &tr, Tally &tally)
{
    std::vector<ServeLoad> per(kClients);
    const uint64_t t0 = nowNs();
    const uint64_t deadline = t0 + static_cast<uint64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (size_t k = 0; k < kClients; ++k) {
        threads.emplace_back([&, k] {
            clientLoop(addr, p, k, deadline, tr, tally, per[k]);
        });
    }
    for (std::thread &t : threads)
        t.join();
    ServeLoad all;
    all.wallS = static_cast<double>(nowNs() - t0) * 1e-9;
    for (ServeLoad &l : per) {
        all.latMs.insert(all.latMs.end(), l.latMs.begin(), l.latMs.end());
        all.bytes += l.bytes;
    }
    return all;
}

struct ReloadLoad {
    std::vector<double> ms;
    size_t liveMax = 0;
};

/** RELOAD the same .azoox every kReloadIntervalMs until
 *  @p deadlineNs, on the calling thread. */
ReloadLoad
reloadLoop(ServerHandle &server, const Prepared &p, uint64_t deadlineNs,
           Tracer &tr, Tally &tally)
{
    ReloadLoad out;
    const uint64_t interval = kReloadIntervalMs * 1000000ull;
    for (uint64_t next = nowNs() + interval; next < deadlineNs;
         next += interval) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(next - std::min(next, nowNs())));
        Scope s(tr, "client.reload");
        serve::Client c;
        bool ok = c.connect(server.addr()).ok();
        Expected<serve::Reply> r = Status(ErrorCode::kIoError, "unsent");
        if (ok)
            r = c.reload(p.azooxPath);
        const double ms = s.stop() * 1e3;
        ok = ok && r.ok() && r->status == serve::ReplyStatus::kOk;
        tally.note(ok);
        if (ok)
            out.ms.push_back(ms);
        out.liveMax =
            std::max(out.liveMax, server.server().liveGenerations());
    }
    return out;
}

std::string
timingLine(const std::string &name, const Summary &s,
           const std::string &unit)
{
    return name + " = " + fmt(s.median, 4) + " " + unit + " (median), " +
        fmt(s.low, 4) + " " + unit + " (low decile), p" +
        fmt(s.tailPct, 1) + " " + fmt(s.tail, 4) + " " + unit +
        " (n=" + std::to_string(s.count) + ")";
}

// ---- the two run modes ------------------------------------------------

struct Common {
    std::vector<double> compileS;
    uint64_t artifactBytes = 0;
};

double
sum(const std::vector<double> &v)
{
    double t = 0;
    for (double x : v)
        t += x;
    return t;
}

/** Traced run: true while a repeated step (times so far in @p secs)
 *  should run again. */
bool
repeatAgain(const std::vector<double> &secs)
{
    return secs.size() < kMinReps ||
        (sum(secs) < kRepSeconds && secs.size() < kMaxReps);
}

void
compileReps(const Prepared &p, Tracer &tr, Tally &tally, Common &c)
{
    while (repeatAgain(c.compileS)) {
        const CompileOut o = compileOnce(p, tr, tally);
        c.compileS.push_back(o.seconds);
        c.artifactBytes = o.artifactBytes;
    }
}

/**
 * The end-to-end run, as kRounds rounds of the same steps — compile,
 * set-up, block scans, and (serve workloads) serving from the round's
 * freshly set-up server — so that every metric's samples spread over
 * the whole run and a slow stretch of a shared host moves all of them
 * a little instead of one of them a lot. The rounds together take the
 * run's seconds.
 */
void
endToEnd(const Prepared &p, const RunConfig &cfg, Tracer &tr,
         Tally &tally, RunResult &res)
{
    const WorkloadSpec &spec = *p.spec;
    const double roundS = cfg.seconds / kRounds;
    // Of a round's operation time, scan workloads scan all of it;
    // serve workloads spend this share on ladder rung 0.
    const double scanShare = spec.serve ? 0.2 : 1.0;
    std::vector<double> compileS, setupS, scanS;
    ServeLoad load;
    for (int round = 0; round < kRounds; ++round) {
        const uint64_t roundEnd =
            nowNs() + static_cast<uint64_t>(roundS * 1e9);
        for (double local = 0;
             local == 0 || local < kCompileShare * roundS;) {
            compileS.push_back(compileOnce(p, tr, tally).seconds);
            local += compileS.back();
        }

        ScanSetup scan;
        serve::RulesetGeneration gen;
        std::unique_ptr<ServerHandle> server;
        for (double local = 0; local == 0 || local < kSetupShare * roundS;) {
            Scope s(tr, "setup");
            bool ok;
            if (spec.serve) {
                server.reset(); // the previous rep's server, never run
                server = std::make_unique<ServerHandle>();
                ok = setupServe(p, cfg.transport, cfg.workDir, tr, s.id(), gen,
                                *server);
            } else {
                ok = setupScan(p, tr, s.id(), scan);
            }
            setupS.push_back(s.stop());
            local += setupS.back();
            tally.note(ok);
            if (!ok)
                return;
        }

        const uint64_t now = nowNs();
        const double opS = std::max(
            kMinOpShare * roundS,
            roundEnd > now ? static_cast<double>(roundEnd - now) * 1e-9 : 0);
        std::unique_ptr<PlannedEngine> serveBlock;
        if (spec.serve)
            serveBlock = std::make_unique<PlannedEngine>(gen->automaton,
                                                         gen->profiles);
        PlannedEngine &engine = spec.serve ? *serveBlock : *scan.engine;
        const ScanLoad sl = scanLoop(
            engine, p, nowNs() + static_cast<uint64_t>(opS * scanShare * 1e9),
            tr, tally);
        scanS.insert(scanS.end(), sl.secs.begin(), sl.secs.end());

        if (spec.serve) {
            server->run();
            const ServeLoad l = serveLoad(server->addr(), p,
                                          opS * (1 - scanShare), tr, tally);
            server->drain();
            load.latMs.insert(load.latMs.end(), l.latMs.begin(),
                              l.latMs.end());
            load.bytes += l.bytes;
            load.wallS += l.wallS;
        }
    }

    Summary op;
    std::vector<std::string> serveLines;
    if (spec.serve) {
        op = summarize(load.latMs);
        serveLines.push_back("session_p50_ms = " + fmt(op.median, 4) +
                             " ms over " + cfg.transport);
        serveLines.push_back("session_p99_ms = " + fmt(op.tail, 4) +
                             " ms (tail rule: p" + fmt(op.tailPct, 1) +
                             " of " + std::to_string(op.count) +
                             " sessions)");
        serveLines.push_back(
            "sessions_per_s = " +
            fmt(static_cast<double>(load.latMs.size()) / load.wallS, 2) +
            " 1/s");
        serveLines.push_back("serve_MBps = " +
                             fmt(mbps(static_cast<double>(load.bytes),
                                      load.wallS)) +
                             " MB/s");
    } else {
        std::vector<double> ms;
        for (double s : scanS)
            ms.push_back(s * 1e3);
        op = summarize(ms);
    }

    const Summary setupSum = summarize(setupS);
    const Summary compileSum = summarize(compileS);
    const Summary scanSum = summarize(scanS);
    const double scanMBps =
        mbps(static_cast<double>(p.streamBytes), scanSum.low);
    const double rss = peakRssMB();
    res.metrics = {
        {"setup_s", setupSum.median, "s"},
        {"compile_s", compileSum.low, "s"},
        {"op_p10_ms", op.low, "ms"},
        {"peak_rss_MB", rss, "MB"},
    };
    res.lines.push_back(timingLine("setup_s", setupSum, "s"));
    res.lines.push_back(timingLine("compile_s", compileSum, "s"));
    res.lines.push_back("scan_MBps = " + fmt(scanMBps) + " MB/s (" +
                        std::to_string(p.streamBytes) +
                        "-byte streams at the low-decile scan time, " +
                        fmt(mbps(static_cast<double>(p.streamBytes),
                                 scanSum.median)) +
                        " MB/s at the median, " +
                        std::to_string(scanS.size()) + " scans)");
    res.lines.push_back(timingLine("op_ms", op, "ms"));
    res.lines.insert(res.lines.end(), serveLines.begin(),
                     serveLines.end());
    res.lines.push_back("peak_rss_MB = " + fmt(rss, 1) + " MB");
}

/** Per-layer metrics: compile, set-up, then the serve ladder. */
void
traced(const Prepared &p, const RunConfig &cfg, Tracer &tr, Tally &tally,
       RunResult &res)
{
    auto &M = res.metrics;
    Common c;
    compileReps(p, tr, tally, c);

    // Both set-ups on every workload: the block planner and the serve
    // ruleset + pool + server.
    ScanSetup scan;
    serve::RulesetGeneration gen;
    for (std::vector<double> setupS; repeatAgain(setupS);) {
        Scope s(tr, "setup");
        ServerHandle server;
        const bool ok = setupScan(p, tr, s.id(), scan) &&
            setupServe(p, "tcp", cfg.workDir, tr, s.id(), gen, server);
        tally.note(ok);
        if (!ok)
            return;
        {
            Scope pool(tr, "serve.pool.build", s.id());
            const serve::MatchSessionPool built(gen);
        }
        setupS.push_back(s.stop());
    }
    auto med = [&](const char *name) {
        std::vector<double> v = tr.seconds(name);
        return median(v);
    };
    M.push_back({"core.mnrl_read_s", med("core.mnrl_read"), "s"});
    M.push_back({"analysis.verify_s", med("analysis.verify"), "s"});
    M.push_back({"analysis.infer_s", med("analysis.infer"), "s"});
    M.push_back({"artifact.write_s", med("artifact.write"), "s"});
    M.push_back({"artifact.bytes", static_cast<double>(c.artifactBytes),
                 "bytes"});
    M.push_back({"artifact.load_s", med("artifact.load"), "s"});
    M.push_back({"engine.planner.build_s", med("engine.planner.build"),
                 "s"});
    M.push_back({"serve.ruleset.compile_s", med("serve.ruleset.compile"),
                 "s"});
    M.push_back({"serve.pool.build_s", med("serve.pool.build"), "s"});
    const EnginePlan &plan = scan.engine->plan();
    for (size_t b = 0; b < kPlanBackends; ++b) {
        M.push_back({std::string("engine.planner.components.") +
                         planBackendName(static_cast<PlanBackend>(b)),
                     static_cast<double>(plan.backendCount[b]), "count"});
    }
    res.lines.push_back("plan census: " + plan.census());

    // Budget shares of the ladder phases.
    const double T = cfg.seconds;
    auto deadline = [](double s) {
        return nowNs() + static_cast<uint64_t>(s * 1e9);
    };

    // Rung 0: block engines.
    {
        const size_t n = std::min(p.streamBytes, kNfaProbeBytes);
        const NfaEngine nfa(*scan.automaton);
        Scope s(tr, "engine.nfa.simulate");
        const SimResult r = nfa.simulate(p.input.data(), n);
        const double secs = s.stop();
        M.push_back({"engine.nfa.MBps",
                     mbps(static_cast<double>(n), secs), "MB/s"});
        M.push_back({"engine.nfa.active_avg", r.avgActiveSet(), "count"});
    }
    obs::Registry &reg = obs::Registry::global();
    const uint64_t hits0 = reg.counter("engine.lazy.cache_hits").value();
    const uint64_t miss0 = reg.counter("engine.lazy.cache_misses").value();
    const ScanLoad block =
        scanLoop(*scan.engine, p, deadline(T * 0.15), tr, tally);
    const double hits =
        static_cast<double>(reg.counter("engine.lazy.cache_hits").value() -
                            hits0);
    const double misses = static_cast<double>(
        reg.counter("engine.lazy.cache_misses").value() - miss0);
    PrefilterStats pf; // over one scan of every stream
    for (const PrefilterStats &k : block.prefilter) {
        pf.candidates += k.candidates;
        pf.windowBytes += k.windowBytes;
        pf.skippedBytes += k.skippedBytes;
    }
    std::vector<double> blockS = block.secs;
    const double blockMBps =
        mbps(static_cast<double>(p.streamBytes), median(blockS));
    M.push_back({"engine.prefilter.candidates",
                 static_cast<double>(pf.candidates), "count"});
    M.push_back({"engine.prefilter.skip_frac",
                 ratio(static_cast<double>(pf.skippedBytes),
                       static_cast<double>(pf.skippedBytes +
                                           pf.windowBytes)),
                 "fraction"});
    // Reference reports of the components planned onto the prefilter,
    // per candidate the scanner found.
    uint32_t components = 0;
    const std::vector<uint32_t> comp =
        scan.automaton->connectedComponents(components);
    std::vector<uint8_t> onPrefilter(components, 0);
    for (const ComponentDecision &d : plan.decisions)
        if (d.backend == PlanBackend::kPrefilter)
            onPrefilter[d.componentId] = 1;
    uint64_t prefilterReports = 0;
    for (const SimResult &r : p.refs)
        for (const Report &rep : r.reports)
            prefilterReports += onPrefilter[comp[rep.element]];
    M.push_back({"engine.prefilter.confirm_frac",
                 ratio(static_cast<double>(prefilterReports),
                       static_cast<double>(pf.candidates)),
                 "reports/cand"});
    M.push_back({"engine.planned.MBps", blockMBps, "MB/s"});
    M.push_back({"engine.lazy.hit_frac", ratio(hits, hits + misses),
                 "fraction"});
    M.push_back({"engine.lazy.flushes",
                 static_cast<double>(block.lazyFlushes) /
                     static_cast<double>(blockS.size()),
                 "count/scan"});

    // Rung 1: streaming sessions at the serve chunk size.
    auto streamPhase = [&](const char *span, auto &session,
                           double share) {
        uint64_t bytes = 0;
        double busy = 0;
        const uint64_t until = deadline(T * share);
        for (size_t i = 0; i == 0 || nowNs() < until; ++i) {
            const size_t slice = i % kSlices;
            const uint8_t *data = p.input.data() + p.sliceOff[slice];
            session.reset();
            Scope s(tr, span);
            for (size_t off = 0; off < kSessionBytes; off += kChunkBytes)
                session.feed(data + off, kChunkBytes);
            SimResult r = session.results();
            busy += s.stop();
            bytes += kSessionBytes;
            tally.note(sameResult(std::move(r), p.sliceRef[slice]));
        }
        return mbps(static_cast<double>(bytes), busy);
    };
    StreamingSession nfaSession(*scan.automaton);
    const double streamNfa =
        streamPhase("engine.stream.nfa.session", nfaSession, 0.05);
    PlannedSession plannedSession(*scan.automaton, scan.profiles);
    const double streamPlanned = streamPhase(
        "engine.stream.planned.session", plannedSession, 0.1);
    const bool censusOk = plannedSession.plan().census() == plan.census();
    tally.note(censusOk);
    res.lines.push_back("streaming plan census: " +
                        plannedSession.plan().census() +
                        (censusOk ? " (equals block)" : " (DIFFERS)"));
    M.push_back({"engine.stream.nfa.MBps", streamNfa, "MB/s"});
    M.push_back({"engine.stream.planned.MBps", streamPlanned, "MB/s"});
    M.push_back({"engine.stream.block_ratio",
                 ratio(streamPlanned, blockMBps), "ratio"});
    M.push_back({"engine.stream.footprint_bytes",
                 static_cast<double>(plannedSession.footprintBytes()),
                 "bytes"});

    // Rung 2: the session pool (single caller, as the loop uses it).
    double poolMBps = 0;
    {
        serve::MatchSessionPool pool(gen);
        std::vector<double> acquireUs;
        uint64_t bytes = 0;
        double busy = 0;
        const uint64_t until = deadline(T * 0.1);
        for (size_t i = 0; i == 0 || nowNs() < until; ++i) {
            const size_t slice = i % kSlices;
            const uint8_t *data = p.input.data() + p.sliceOff[slice];
            Scope s(tr, "serve.pool.session");
            Scope a(tr, "serve.pool.acquire", s.id());
            std::unique_ptr<serve::MatchSession> m = pool.acquire();
            acquireUs.push_back(a.stop() * 1e6);
            for (size_t off = 0; off < kSessionBytes; off += kChunkBytes)
                m->feed(data + off, kChunkBytes);
            SimResult r = m->results();
            pool.release(std::move(m));
            busy += s.stop();
            bytes += kSessionBytes;
            tally.note(sameResult(std::move(r), p.sliceRef[slice]));
        }
        poolMBps = mbps(static_cast<double>(bytes), busy);
        M.push_back({"serve.pool.MBps", poolMBps, "MB/s"});
        M.push_back({"serve.pool.rung_ratio", ratio(poolMBps, streamPlanned),
                     "ratio"});
        M.push_back({"serve.pool.acquire_us", median(acquireUs), "us"});
        M.push_back({"serve.pool.created",
                     static_cast<double>(pool.created()), "count"});
    }

    // Rungs 3 and 4: the in-process server over a unix socket, then
    // over TCP loopback; then TCP again with RELOADs beside the
    // traffic. kClients closed-loop clients; MB/s is their aggregate.
    auto servePhase = [&](const char *transport, double share,
                          bool reloads, serve::ServerStats &stats,
                          ReloadLoad &rl) {
        ServerHandle server;
        ServeLoad load;
        if (!server.start(gen, transport, cfg.workDir, tr, 0)) {
            tally.note(false);
            return load;
        }
        server.run();
        if (reloads) {
            std::thread clients([&] {
                load = serveLoad(server.addr(), p, T * share, tr, tally);
            });
            rl = reloadLoop(server, p, deadline(T * share), tr, tally);
            clients.join();
        } else {
            load = serveLoad(server.addr(), p, T * share, tr, tally);
        }
        server.drain();
        stats = server.server().stats();
        return load;
    };
    serve::ServerStats unixStats, tcpStats, reloadStats;
    ReloadLoad noReloads, rl;
    const ServeLoad unixLoad =
        servePhase("unix", 0.2, false, unixStats, noReloads);
    const double unixMBps =
        mbps(static_cast<double>(unixLoad.bytes), unixLoad.wallS);
    const Summary unixLat = summarize(unixLoad.latMs);
    M.push_back({"serve.unix.session_p50_ms", unixLat.median, "ms"});
    M.push_back({"serve.unix.MBps", unixMBps, "MB/s"});
    M.push_back({"serve.unix.rung_ratio", ratio(unixMBps, poolMBps),
                 "ratio"});
    M.push_back({"serve.admitted", static_cast<double>(unixStats.admitted),
                 "count"});
    M.push_back({"serve.shed", static_cast<double>(unixStats.shed),
                 "count"});
    M.push_back({"serve.rejected",
                 static_cast<double>(unixStats.rejected), "count"});
    M.push_back({"serve.peak_queue_bytes",
                 static_cast<double>(unixStats.peakQueueBytes), "bytes"});
    res.lines.push_back(timingLine("serve.unix.session_ms", unixLat, "ms"));

    const size_t tcpSpansFrom = tr.spans().size();
    const ServeLoad tcpLoad =
        servePhase("tcp", 0.25, false, tcpStats, noReloads);
    const double tcpMBps =
        mbps(static_cast<double>(tcpLoad.bytes), tcpLoad.wallS);
    const Summary tcpLat = summarize(tcpLoad.latMs);
    res.lines.push_back(timingLine("net.tcp.session_ms", tcpLat, "ms"));
    M.push_back({"net.tcp.session_p50_ms", tcpLat.median, "ms"});
    M.push_back({"net.tcp.MBps", tcpMBps, "MB/s"});
    M.push_back({"net.tcp.rung_ratio", ratio(tcpMBps, unixMBps), "ratio"});

    // Client spans of the TCP rung: per-call medians, and how much of
    // each session the four calls cover (the minimum over sessions).
    const std::vector<Span> all = tr.spans();
    const std::vector<uint64_t> self = selfTimesNs(all);
    std::map<std::string, std::vector<double>> byName;
    double coverMin = 1;
    bool anySession = false;
    for (size_t i = tcpSpansFrom; i < all.size(); ++i) {
        const Span &s = all[i];
        byName[s.name].push_back(static_cast<double>(s.durationNs()));
        if (s.name == "client.session") {
            anySession = true;
            coverMin = std::min(
                coverMin, 1.0 - static_cast<double>(self[i]) /
                                    static_cast<double>(s.durationNs()));
        }
    }
    M.push_back({"client.connect_us", median(byName["client.connect"]) / 1e3,
                 "us"});
    M.push_back({"client.open_us", median(byName["client.open"]) / 1e3,
                 "us"});
    M.push_back({"client.send_ms", median(byName["client.send"]) / 1e6,
                 "ms"});
    M.push_back({"client.finish_ms", median(byName["client.finish"]) / 1e6,
                 "ms"});
    M.push_back({"client.span_cover_frac", anySession ? coverMin : 0,
                 "fraction"});

    // Reload: the TCP rung's traffic again, now beside a RELOAD of the
    // same .azoox every kReloadIntervalMs; its session tail over the
    // TCP rung's.
    const ServeLoad reloadLoad =
        servePhase("tcp", 0.15, true, reloadStats, rl);
    const double duringOverBase =
        ratio(summarize(reloadLoad.latMs).tail, tcpLat.tail);
    const obs::HistogramSnapshot reloadNs =
        reg.histogram("serve.reload.ns").snapshot();
    std::vector<double> reloadMs = rl.ms;
    M.push_back({"serve.reload.load_s", reloadNs.mean() * 1e-9, "s"});
    M.push_back({"serve.reload.swap_ms", median(reloadMs), "ms"});
    M.push_back({"serve.reload.generations_live_max",
                 static_cast<double>(rl.liveMax), "count"});
    M.push_back({"serve.reload.during_tail_over_base", duringOverBase,
                 "ratio"});
    res.lines.push_back(timingLine("reload_ms", summarize(rl.ms), "ms") +
                        ", " + std::to_string(reloadStats.reloads) +
                        " generations published");
}

} // namespace

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> out;
    for (const WorkloadSpec &w : kWorkloads)
        out.push_back(w.name);
    return out;
}

RunResult
runWorkload(const RunConfig &cfg, Tracer &tracer, bool &known)
{
    RunResult res;
    const WorkloadSpec *spec = nullptr;
    for (const WorkloadSpec &w : kWorkloads)
        if (cfg.workload == w.name)
            spec = &w;
    known = spec != nullptr;
    if (!spec)
        return res;
    std::filesystem::create_directories(cfg.workDir);
    const Prepared p = prepare(*spec, cfg, spec->serve || cfg.trace);
    resetPeakRss();
    res.lines.push_back("input: " + std::to_string(p.streams) +
                        " stream(s) of " + std::to_string(p.streamBytes) +
                        " bytes, " + std::to_string(p.plant.planted) +
                        " planted walks (" +
                        std::to_string(p.plant.distinct) + " distinct, " +
                        std::to_string(p.plant.rejected) +
                        " rejected by NfaEngine)");
    res.lines.push_back("match_density = " + fmt(p.matchDensity) +
                        " reports/MiB (" +
                        std::to_string(p.refReports) +
                        " reference reports)");
    Tally tally;
    if (cfg.trace)
        traced(p, cfg, tracer, tally, res);
    else
        endToEnd(p, cfg, tracer, tally, res);
    if (cfg.trace)
        res.metrics.push_back({"match_density", p.matchDensity,
                               "reports/MiB"});
    res.attempted = tally.attempted.load();
    res.failed = tally.failed.load();
    res.lines.push_back(
        "failed_frac = " +
        fmt(ratio(static_cast<double>(res.failed),
                  static_cast<double>(res.attempted)),
            6) +
        " (" + std::to_string(res.failed) + " of " +
        std::to_string(res.attempted) + " operations)");
    std::filesystem::remove_all(cfg.workDir);
    return res;
}

} // namespace layerbench
