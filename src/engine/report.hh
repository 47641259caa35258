/**
 * @file
 * Report records and simulation options/results shared by all
 * automata-processing engines.
 */

#ifndef AZOO_ENGINE_REPORT_HH
#define AZOO_ENGINE_REPORT_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "core/automaton.hh"
#include "util/status.hh"

namespace azoo {

class RunGuard;

/** One pattern-match event: element @p element with user code @p code
 *  matched at input offset @p offset (0-based symbol index). */
struct Report {
    uint64_t offset = 0;
    ElementId element = kNoElement;
    uint32_t code = 0;

    bool
    operator==(const Report &o) const
    {
        return offset == o.offset && element == o.element &&
            code == o.code;
    }
    bool
    operator<(const Report &o) const
    {
        if (offset != o.offset)
            return offset < o.offset;
        if (element != o.element)
            return element < o.element;
        return code < o.code;
    }
};

/** Knobs controlling what a simulation records. */
struct SimOptions {
    /** Keep the full report vector (offset/element/code). */
    bool recordReports = true;
    /** Tally reports per report code (rule) into SimResult::byCode. */
    bool countByCode = false;
    /** Track enabled-state counts to compute the active set. */
    bool computeActiveSet = true;
    /** Stop recording (not counting) reports past this many. */
    uint64_t reportRecordLimit = ~uint64_t(0);
    /** Optional stop-conditions (deadline / symbol budget /
     *  cancellation), polled coarsely by NfaEngine and PlannedSession;
     *  see run_guard.hh. The guard must outlive the run; one guard
     *  may be shared across concurrent runs. */
    const RunGuard *guard = nullptr;
};

/** Outcome of simulating an automaton over an input stream. */
struct SimResult {
    uint64_t symbols = 0;        ///< input symbols consumed
    uint64_t reportCount = 0;    ///< total reports (even if unrecorded)
    std::vector<Report> reports; ///< recorded reports (may be capped)
    std::map<uint32_t, uint64_t> byCode; ///< reports per report code
    uint64_t totalEnabled = 0;   ///< sum of enabled STEs over cycles
    /** Cycles in which at least one report fired: the output-
     *  reporting pressure metric behind the D480's report-vector
     *  bottleneck (Wadden et al., HPCA 2018), which SpatialModel's
     *  stall penalty models. */
    uint64_t reportingCycles = 0;

    /** Non-OK when a RunGuard stopped the run early. The result then
     *  covers exactly the first `symbols` input symbols (a correct
     *  answer for that prefix), and guardStatus says why it stopped
     *  (kDeadlineExceeded / kCancelled / kLimitExceeded). */
    Status guardStatus;

    /** True when a RunGuard truncated this run. */
    bool truncated() const { return !guardStatus.ok(); }

    // Lazy-DFA engine statistics; zero for every other engine. These
    // are *not* part of the semantic result (two engines producing
    // identical reports may differ here), so equivalence checks must
    // compare the fields above, never the whole struct.
    /** Whole-cache flushes the transition cache took during this run. */
    uint64_t lazyFlushes = 0;
    /** Interned state-sets resident in the cache after this run. */
    uint64_t lazyStates = 0;
    /** Connected components simulated on the interpreter fallback
     *  (counter components) instead of the lazy-DFA path. */
    uint64_t lazyFallbackComponents = 0;

    /** Average active set: enabled STEs per input symbol. */
    double
    avgActiveSet() const
    {
        return symbols ? static_cast<double>(totalEnabled) / symbols
                       : 0.0;
    }

    /** Reports per input symbol. */
    double
    reportRate() const
    {
        return symbols ? static_cast<double>(reportCount) / symbols
                       : 0.0;
    }

    /** Fraction of cycles that produced any report. */
    double
    reportingCycleFraction() const
    {
        return symbols
            ? static_cast<double>(reportingCycles) / symbols : 0.0;
    }
};

/** Sort recorded reports into the canonical (offset, element, code)
 *  order every multi-part path emits. Apply to a serial SimResult
 *  before comparing it against ParallelRunner or planned output. */
inline void
canonicalizeReports(SimResult &r)
{
    std::sort(r.reports.begin(), r.reports.end());
}

} // namespace azoo

#endif // AZOO_ENGINE_REPORT_HH
