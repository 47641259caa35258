/**
 * @file
 * Provenance header for every layerbench result: which machine,
 * compiler, flags and build produced the numbers, and from which
 * source and seed.
 */

#ifndef LAYERBENCH_PROVENANCE_HH
#define LAYERBENCH_PROVENANCE_HH

#include <cstdint>
#include <string>

namespace layerbench {

struct Provenance {
    std::string host;
    unsigned nproc = 0;
    std::string cpuModel;
    std::string compiler;
    std::string flags;
    std::string buildType;
    /** True when the compiler optimised this build (__OPTIMIZE__). */
    bool optimised = false;
    bool obs = false;
    /** Source revision as given by the caller ("unknown" outside a
     *  git checkout) and whether the tree had uncommitted changes. */
    std::string gitSha = "unknown";
    bool gitDirty = false;
    std::string workload;
    uint64_t seed = 0;
};

/** Fill everything the process can see itself; the caller sets the
 *  git fields, workload and seed. */
Provenance collectProvenance();

/** One JSON object with every field. */
std::string provenanceJson(const Provenance &p);

} // namespace layerbench

#endif // LAYERBENCH_PROVENANCE_HH
