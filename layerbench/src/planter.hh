/**
 * @file
 * Seeded match planter: give a generated input a stated match density.
 *
 * A zoo input can carry almost no matches (the ClamAV disk image has
 * none), which makes every prefilter look free. The planter builds
 * strings the automaton accepts by random walks over its public
 * Automaton API — from an all-input start STE along `out` edges to a
 * reporting STE, one random symbol from each STE's character set —
 * confirms each walk with serial NfaEngine (the walk alone must report
 * at its last symbol from the walk's final element), and overwrites the
 * input with accepted walks, one per `spacing` bytes at a seeded
 * offset inside each stride. Counters are never walked through, so a
 * walk's acceptance does not depend on the bytes around it: an
 * all-input start is enabled on every symbol and STEs are never
 * disabled by context.
 */

#ifndef LAYERBENCH_PLANTER_HH
#define LAYERBENCH_PLANTER_HH

#include <cstdint>
#include <vector>

#include "core/automaton.hh"
#include "engine/nfa_engine.hh"
#include "util/rng.hh"

namespace layerbench {

/** Unreachable marker of distanceToReport(). */
inline constexpr uint32_t kNoPath = ~uint32_t(0);

/** Per element: fewest STE-to-STE edges to a reporting STE (0 for a
 *  reporting STE, kNoPath when none is reachable or the element is a
 *  counter). */
std::vector<uint32_t> distanceToReport(const azoo::Automaton &a);

/** One accepted string and the reporting element it ends on. */
struct Walk {
    std::vector<uint8_t> bytes;
    azoo::ElementId reporter = azoo::kNoElement;
};

/**
 * A random walk from a random all-input start to a reporting STE, at
 * most @p maxLen symbols long. Each step moves to a successor strictly
 * closer to a reporter, so the walk always ends. Empty `bytes` when
 * the automaton has no all-input start that reaches a reporter within
 * @p maxLen.
 */
Walk randomWalk(const azoo::Automaton &a,
                const std::vector<uint32_t> &dist, azoo::Rng &rng,
                uint32_t maxLen);

/** Serial NfaEngine (built from the walked automaton) run on the walk
 *  alone reports @p w.reporter at its last symbol. */
bool walkAccepted(const azoo::NfaEngine &engine,
                  azoo::EngineScratch &scratch, const Walk &w);

struct PlantOptions {
    uint64_t seed = 1;
    /** One walk per this many input bytes (0 plants nothing). */
    size_t spacing = 64 << 10;
    /** Distinct walks to draw; planted round-robin. */
    size_t distinctWalks = 256;
    uint32_t maxWalkLen = 512;
};

struct PlantResult {
    size_t planted = 0;     ///< walks written into the input
    size_t distinct = 0;    ///< distinct accepted walks used
    size_t rejected = 0;    ///< walks NfaEngine did not accept
};

/** Plant accepted walks into @p input (see file comment). */
PlantResult plantMatches(const azoo::Automaton &a,
                         std::vector<uint8_t> &input,
                         const PlantOptions &opts);

} // namespace layerbench

#endif // LAYERBENCH_PLANTER_HH
