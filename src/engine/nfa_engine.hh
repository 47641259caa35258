/**
 * @file
 * NfaEngine: the enabled-set homogeneous-automata interpreter.
 *
 * This is our reimplementation of the VASim simulation semantics the
 * paper uses for all dynamic measurements (active set, report rates,
 * CPU runtime of the "VASim" rows of Table III). Per input symbol it
 * visits every *enabled* STE, tests its character set, and propagates
 * activations, so its runtime is proportional to the active set --
 * exactly the behaviour the paper's CPU discussion assumes.
 */

#ifndef AZOO_ENGINE_NFA_ENGINE_HH
#define AZOO_ENGINE_NFA_ENGINE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/automaton.hh"
#include "engine/engine_scratch.hh"
#include "engine/exec_image.hh"
#include "engine/report.hh"

namespace azoo {

/**
 * Interpreter over compiled flat tables (an NfaExecImage).
 *
 * Two ways to build one:
 *
 *  - `NfaEngine(const Automaton &)` compiles the automaton into owned
 *    tables (CSR adjacency, hot-field copies, the per-byte all-input
 *    index). The automaton itself is not referenced after
 *    construction.
 *  - `NfaEngine(const NfaExecImage &)` *adopts* an already-compiled
 *    image — e.g. the `EXEC` section of an mmap-ed `.azoox` artifact
 *    (src/artifact/) — in O(1) with no per-element work or
 *    allocation. The storage behind the image must outlive the
 *    engine.
 *
 * Either way, simulate() can be called repeatedly and is internally
 * stateless between calls; it runs the shared interpreter kernel
 * (engine/interpreter.hh) once over the whole input. Per-run state
 * lives in an EngineScratch — pass one in to amortize its O(n)
 * arrays across calls, or use the convenience overloads, which
 * allocate a fresh scratch per call.
 * The engine is never mutated after construction, so one engine may
 * be shared by any number of threads simulating concurrently as long
 * as each thread uses its own scratch (ParallelRunner's batch mode
 * relies on this).
 */
class NfaEngine
{
  public:
    explicit NfaEngine(const Automaton &a);

    /** Adopt a precompiled execution image (zero-copy; O(1)). */
    explicit NfaEngine(const NfaExecImage &image);

    /** Run the automaton over @p input reusing @p scratch (the
     *  allocation-free hot path; see EngineScratch). */
    SimResult simulate(const uint8_t *input, size_t len,
                       EngineScratch &scratch,
                       const SimOptions &opts = SimOptions()) const;

    /** Convenience: run with a private, freshly allocated scratch. */
    SimResult
    simulate(const uint8_t *input, size_t len,
             const SimOptions &opts = SimOptions()) const
    {
        EngineScratch scratch;
        return simulate(input, len, scratch, opts);
    }

    SimResult
    simulate(const std::vector<uint8_t> &input,
             const SimOptions &opts = SimOptions()) const
    {
        return simulate(input.data(), input.size(), opts);
    }

    SimResult
    simulate(const std::vector<uint8_t> &input, EngineScratch &scratch,
             const SimOptions &opts = SimOptions()) const
    {
        return simulate(input.data(), input.size(), scratch, opts);
    }

    /**
     * Resume a run opened with startRun() (engine/interpreter.hh) on
     * @p scratch: simulate stream offsets [from, to), where bytes[0]
     * is offset @p from, tallying reports and the active set into
     * @p res under @p opts (@p lastReportAt carries the
     * reporting-cycle state between calls). Returns the offset
     * reached: @p to, or the poll point where opts.guard stopped the
     * run (res.guardStatus then says why). simulate() is one resume
     * over the whole input; StreamingSession resumes once per chunk.
     */
    uint64_t resume(EngineScratch &scratch, uint64_t from, uint64_t to,
                    const uint8_t *bytes, const SimOptions &opts,
                    SimResult &res, uint64_t &lastReportAt) const;

    /** The compiled tables. */
    const NfaExecImage &image() const { return t_; }

    /** Resident bytes of the compiled tables (just the object when
     *  the image is borrowed from an artifact). */
    size_t footprintBytes() const;

  private:
    /** Owned tables when compiled from an Automaton; null when the
     *  image is borrowed (artifact adoption). */
    std::unique_ptr<NfaExecTables> owned_;
    /** The tables simulate() reads — views into owned_ or into
     *  caller-owned (typically mmap-ed) storage. */
    NfaExecImage t_;
};

} // namespace azoo

#endif // AZOO_ENGINE_NFA_ENGINE_HH
