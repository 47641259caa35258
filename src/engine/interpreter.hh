/**
 * @file
 * The enabled-set interpreter kernel: VASim's per-symbol step,
 * written once.
 *
 * Every interpreting path in the engine layer drives this one loop:
 * NfaEngine::simulate() runs it over a whole buffer, StreamingSession
 * resumes it chunk by chunk, and PrefilteredNfa opens and closes runs
 * of it around literal candidates. The kernel is resumable: it works
 * in absolute stream offsets, and everything a run needs between two
 * calls (enable stamps, worklists, counter values) lives in the
 * caller's EngineScratch, so a run may stop after any symbol and pick
 * up again later with identical results.
 *
 * A run starts at absolute offset `runStart` (its cycle 0). Enable
 * stamps are offset by the scratch epoch (EngineScratch::base), so
 * the caller opens a run with startRun() and retires it with
 * EngineScratch::endRun(symbols the run covered).
 */

#ifndef AZOO_ENGINE_INTERPRETER_HH
#define AZOO_ENGINE_INTERPRETER_HH

#include <algorithm>
#include <cstdint>

#include "engine/engine_scratch.hh"
#include "engine/exec_image.hh"
#include "engine/run_guard.hh"

namespace azoo {

/** Open a run over @p img in @p s: reset the scratch for it and
 *  enable the start-of-data states for cycle 0. O(counters +
 *  start-of-data states) once the scratch is sized. */
inline void
startRun(const NfaExecImage &img, EngineScratch &s)
{
    s.beginRun(img.elementCount, img.counters);
    for (ElementId id : img.startOfData) {
        s.stamp[id] = s.base + 1;
        s.next.push_back(id);
    }
}

/**
 * Simulate absolute offsets [from, to) of a run that began at
 * @p runStart. `bytes[i]` is the symbol at absolute offset
 * `bytesBase + i`. Each report goes to `sink(offset, element, code)`
 * in emission order (same-cycle reports in propagation order).
 * @p enabled, when non-null, accumulates the edge-enabled set size
 * per cycle (VASim's active set: all-input starts excluded).
 *
 * @p guard (may be null) is polled before every cycle whose run
 * position `offset - runStart` is a multiple of
 * kGuardCheckIntervalSymbols — the serial engines' poll clock, so any
 * chunking of a stream polls at the same symbols. On a stop the
 * reason lands in @p stop and the return value is the offset reached;
 * otherwise it returns @p to.
 */
template <typename Sink>
uint64_t
interpret(const NfaExecImage &img, EngineScratch &s, uint64_t runStart,
          uint64_t from, uint64_t to, const uint8_t *bytes,
          uint64_t bytesBase, uint64_t *enabled, const RunGuard *guard,
          Status &stop, Sink &&sink)
{
    constexpr uint64_t kPollMask = kGuardCheckIntervalSymbols - 1;
    const bool hasCounters = !img.counters.empty();
    const bool hasResets = !img.resetTarget.empty();
    const uint64_t base = s.base - runStart;

    uint64_t abs = from;
    while (abs < to) {
        uint64_t segEnd = to;
        if (guard) {
            const uint64_t t = abs - runStart;
            if ((t & kPollMask) == 0) {
                Status st = guard->check(t);
                if (!st.ok()) {
                    stop = std::move(st);
                    return abs;
                }
            }
            segEnd = std::min(to, abs + kGuardCheckIntervalSymbols -
                                  (t & kPollMask));
        }
        for (; abs < segEnd; ++abs) {
            // Stamp values of this cycle: enabled for the next cycle,
            // counted / reset in this one.
            const uint64_t en = base + abs + 2;
            const uint64_t cn = en - 1;
            std::swap(s.cur, s.next);
            s.next.clear();
            if (enabled)
                *enabled += s.cur.size();

            const uint8_t sym = bytes[abs - bytesBase];
            const uint32_t word = sym >> 6;
            const uint64_t bit = uint64_t(1) << (sym & 63);

            // All-input targets are permanently enabled and enter
            // through the per-byte index, never the worklist.
            auto enable = [&](ElementId tgt) {
                if (!img.isAllInput[tgt] && s.stamp[tgt] != en) {
                    s.stamp[tgt] = en;
                    s.next.push_back(tgt);
                }
            };
            auto onMatch = [&](ElementId id) {
                if (img.reporting[id])
                    sink(abs, id, img.reportCode[id]);
                const uint32_t eend = img.edgeBegin[id + 1];
                if (!hasCounters) {
                    for (uint32_t k = img.edgeBegin[id]; k < eend; ++k)
                        enable(img.edgeTarget[k]);
                    return;
                }
                for (uint32_t k = img.edgeBegin[id]; k < eend; ++k) {
                    const ElementId tgt = img.edgeTarget[k];
                    if (!img.isCounter[tgt]) {
                        enable(tgt);
                    } else if (s.countStamp[tgt] != cn) {
                        s.countStamp[tgt] = cn;
                        s.counted.push_back(tgt);
                    }
                }
                if (!hasResets)
                    return;
                for (uint32_t k = img.resetBegin[id];
                     k < img.resetBegin[id + 1]; ++k) {
                    const ElementId tgt = img.resetTarget[k];
                    if (s.resetStamp[tgt] != cn) {
                        s.resetStamp[tgt] = cn;
                        s.resets.push_back(tgt);
                    }
                }
            };

            for (ElementId id : s.cur) {
                if (img.label[id][word] & bit)
                    onMatch(id);
            }
            for (uint32_t k = img.maiBegin[sym]; k < img.maiBegin[sym + 1];
                 ++k)
                onMatch(img.maiTarget[k]);

            if (!hasCounters)
                continue;

            // Counter settle phase: resets first, then counts.
            for (ElementId c : s.resets) {
                s.value[c] = 0;
                if (s.latched[c]) {
                    s.latched[c] = 0;
                    std::erase(s.latchedList, c);
                }
            }
            s.resets.clear();
            for (ElementId c : s.counted) {
                if (++s.value[c] != img.counterTarget[c])
                    continue;
                // Fire.
                if (img.reporting[c])
                    sink(abs, c, img.reportCode[c]);
                for (uint32_t k = img.edgeBegin[c];
                     k < img.edgeBegin[c + 1]; ++k)
                    enable(img.edgeTarget[k]);
                if (img.counterMode[c] == kExecModeLatch &&
                    !s.latched[c]) {
                    s.latched[c] = 1;
                    s.latchedList.push_back(c);
                } else if (img.counterMode[c] == kExecModeRollover) {
                    s.value[c] = 0;
                }
            }
            s.counted.clear();
            // Latched counters keep their successors enabled.
            for (ElementId c : s.latchedList) {
                for (uint32_t k = img.edgeBegin[c];
                     k < img.edgeBegin[c + 1]; ++k)
                    enable(img.edgeTarget[k]);
            }
        }
    }
    return to;
}

} // namespace azoo

#endif // AZOO_ENGINE_INTERPRETER_HH
