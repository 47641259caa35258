#include "engine/nfa_engine.hh"

#include "engine/interpreter.hh"
#include "obs/obs.hh"
#include "util/logging.hh"

namespace azoo {

namespace {

/** Per-run metrics flush (never per symbol); references are cached
 *  after the first run so the steady-state cost is a few relaxed
 *  fetch_adds per simulate() call. */
void
noteNfaRun(const SimResult &res, bool activeSet)
{
    if (!obs::kEnabled)
        return;
    obs::Registry &reg = obs::Registry::global();
    static obs::Counter &runs = reg.counter("engine.nfa.runs");
    static obs::Counter &symbols = reg.counter("engine.nfa.symbols");
    static obs::Counter &reports = reg.counter("engine.nfa.reports");
    static obs::Histogram &active =
        reg.histogram("engine.nfa.active_avg");
    runs.inc();
    symbols.add(res.symbols);
    reports.add(res.reportCount);
    if (activeSet && res.symbols)
        active.record(res.totalEnabled / res.symbols);
}

void
noteConstruction(const char *name)
{
    if (!obs::kEnabled)
        return;
    obs::Registry::global().counter(name).inc();
}

} // namespace

NfaEngine::NfaEngine(const Automaton &a)
    : owned_(std::make_unique<NfaExecTables>(NfaExecTables::compile(a)))
    , t_(owned_->view())
{
    noteConstruction("engine.nfa.compiles");
}

NfaEngine::NfaEngine(const NfaExecImage &image)
    : t_(image)
{
    // Zero-copy adoption: no per-element work happens here — the
    // image is used as-is, which is the artifact layer's mmap
    // cold-start contract (docs/ARTIFACT_FORMAT.md).
    noteConstruction("engine.nfa.image_adoptions");
}

size_t
NfaEngine::footprintBytes() const
{
    if (!owned_)
        return sizeof(*this); // the image belongs to its artifact
    const NfaExecTables &t = *owned_;
    size_t n = sizeof(*this) + sizeof(t);
    n += (t.edgeBegin.capacity() + t.resetBegin.capacity() +
          t.reportCode.capacity() + t.counterTarget.capacity() +
          t.maiBegin.capacity()) * sizeof(uint32_t);
    n += (t.edgeTarget.capacity() + t.resetTarget.capacity() +
          t.allInput.capacity() + t.startOfData.capacity() +
          t.counters.capacity() + t.maiTarget.capacity()) *
        sizeof(ElementId);
    n += t.label.capacity() * sizeof(LabelWords);
    n += t.reporting.capacity() + t.isCounter.capacity() +
        t.isAllInput.capacity() + t.counterMode.capacity();
    return n;
}

uint64_t
NfaEngine::resume(EngineScratch &scratch, uint64_t from, uint64_t to,
                  const uint8_t *bytes, const SimOptions &opts,
                  SimResult &res, uint64_t &lastReportAt) const
{
    return interpret(
        t_, scratch, 0, from, to, bytes, from,
        opts.computeActiveSet ? &res.totalEnabled : nullptr, opts.guard,
        res.guardStatus, [&](uint64_t at, ElementId id, uint32_t code) {
            ++res.reportCount;
            if (at != lastReportAt) {
                lastReportAt = at;
                ++res.reportingCycles;
            }
            if (opts.recordReports &&
                res.reports.size() < opts.reportRecordLimit)
                res.reports.push_back({at, id, code});
            if (opts.countByCode)
                ++res.byCode[code];
        });
}

SimResult
NfaEngine::simulate(const uint8_t *input, size_t len,
                    EngineScratch &scratch, const SimOptions &opts) const
{
    SimResult res;
    startRun(t_, scratch);
    uint64_t lastReportAt = ~uint64_t(0);
    res.symbols = resume(scratch, 0, len, input, opts, res, lastReportAt);
    scratch.endRun(len);
    // A guard stop leaves a partial result covering exactly the first
    // res.symbols symbols.
    if (!res.guardStatus.ok())
        obs::noteGuardStop("engine.nfa", res.guardStatus.code());
    noteNfaRun(res, opts.computeActiveSet);
    return res;
}

} // namespace azoo
