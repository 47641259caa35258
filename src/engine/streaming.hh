/**
 * @file
 * StreamingSession: chunked simulation with persistent automaton
 * state.
 *
 * Real deployments of the paper's applications (intrusion detection,
 * virus scanning) process unbounded streams in buffers; matches may
 * straddle buffer boundaries. A StreamingSession keeps the enabled
 * set, counter values, and stream offset alive across feed() calls,
 * so feeding one byte at a time, or any chunking, produces exactly
 * the reports of a single monolithic simulate() call (a property the
 * test suite checks).
 *
 * A session holds only per-stream state (an EngineScratch and its
 * results). The compiled tables belong to an NfaEngine the session
 * borrows and pins, so any number of sessions — on any threads — can
 * run over one engine, and feed() resumes the same interpreter kernel
 * NfaEngine::simulate() runs (engine/interpreter.hh).
 *
 * Sessions honour SimOptions::guard exactly like the monolithic
 * engines: the guard is polled every kGuardCheckIntervalSymbols
 * symbols of *stream* position (so chunking does not change poll
 * points), feed() returns how many bytes it consumed, and once the
 * guard fires the session is stopped — results() covers exactly the
 * consumed prefix, guardStatus says why, and further feed() calls
 * consume nothing until reset().
 */

#ifndef AZOO_ENGINE_STREAMING_HH
#define AZOO_ENGINE_STREAMING_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/automaton.hh"
#include "engine/engine_scratch.hh"
#include "engine/nfa_engine.hh"
#include "engine/report.hh"

namespace azoo {

/** Incremental homogeneous-automata simulation. */
class StreamingSession
{
  public:
    /** Compile @p a into an engine of this session's own (the
     *  automaton is not referenced afterwards). Sessions that share a
     *  ruleset should share one engine instead. */
    explicit StreamingSession(const Automaton &a);

    /** Run over a shared compiled engine, pinned for the session's
     *  lifetime. Never null. */
    explicit StreamingSession(std::shared_ptr<const NfaEngine> engine);

    /**
     * Process a chunk; reports accumulate in results(). Returns the
     * number of bytes consumed: less than @p len exactly when
     * options.guard stopped the session mid-chunk (results() then
     * carries the non-OK guardStatus and covers exactly the consumed
     * prefix; chunk loops stop on a short return).
     */
    size_t feed(const uint8_t *data, size_t len);

    size_t
    feed(const std::vector<uint8_t> &data)
    {
        return feed(data.data(), data.size());
    }

    /** True once options.guard has stopped this session (cleared by
     *  reset()). */
    bool stopped() const { return !result_.guardStatus.ok(); }

    /** Results so far (offsets are absolute stream offsets). */
    const SimResult &results() const { return result_; }

    /** Move the results out; the session must be reset() before it
     *  is fed again. */
    SimResult takeResults() { return std::move(result_); }

    /** Total symbols consumed. */
    uint64_t offset() const { return t_; }

    /** Reset to the start-of-stream state (results cleared).
     *  O(counters + start-of-data states): the scratch epoch advance
     *  retires every stamp the previous stream wrote. */
    void reset();

    /** Resident bytes of this session's own state: scratch and
     *  report storage. The engine's tables are shared and counted
     *  once, by NfaEngine::footprintBytes(). */
    size_t footprintBytes() const;

    /** Simulation options (reports are always recorded unless
     *  changed here before feeding). */
    SimOptions options;

  private:
    std::shared_ptr<const NfaEngine> engine_;
    SimResult result_;
    uint64_t t_ = 0;
    /** Offset of the latest report (reporting-cycle tally). */
    uint64_t lastReportAt_ = ~uint64_t(0);
    /** Enable stamps, worklists and counter values, epoch-offset so
     *  reset() never walks all n elements. */
    EngineScratch scratch_;
};

} // namespace azoo

#endif // AZOO_ENGINE_STREAMING_HH
