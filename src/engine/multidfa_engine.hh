/**
 * @file
 * MultiDfaEngine: a compiled CPU automata engine in the spirit of
 * Intel Hyperscan, the paper's fast CPU baseline.
 *
 * Each connected component of the benchmark automaton is determinized
 * (subset construction) into its own small DFA with per-component
 * input-symbol equivalence classes. At runtime every component costs
 * one table lookup per input symbol, independent of how many NFA
 * states are enabled -- which is precisely why AP-specific padding
 * states are nearly free on this engine (Table III) while they
 * directly slow down the enabled-set interpreter.
 *
 * Components that contain counter elements or whose determinization
 * exceeds a state budget fall back to a LazyDfaEngine, mirroring how
 * hybrid engines mix DFA and NFA subsystems: counter-free over-budget
 * components still get DFA-speed execution on hot input regions
 * (subset construction runs lazily under a byte budget), and only
 * counter components drop all the way to the enabled-set interpreter.
 *
 * Because the lazy fallback's transition cache warms up across
 * simulate() calls, an engine with fallbackComponents() > 0 must not
 * be shared by concurrently simulating threads (a fully compiled
 * engine remains freely shareable).
 */

#ifndef AZOO_ENGINE_MULTIDFA_ENGINE_HH
#define AZOO_ENGINE_MULTIDFA_ENGINE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/automaton.hh"
#include "engine/lazy_dfa_engine.hh"
#include "engine/report.hh"

namespace azoo {

namespace analysis {
struct ComponentProfile;
}

/** Compilation limits for MultiDfaEngine. */
struct MultiDfaOptions {
    /** Determinization budget per component; beyond it the component
     *  is simulated by the lazy-DFA fallback instead. */
    uint32_t maxDfaStatesPerComponent = 4096;
    /** Transition-cache byte budget of the lazy-DFA fallback. */
    size_t lazyCacheBytes = 8u << 20;
    /** Optional analysis facts (inferProfiles() on the same
     *  automaton). When set, components whose blowupLog2 estimate
     *  already exceeds the state budget skip the doomed eager subset
     *  construction and go straight to the fallback — a construction-
     *  time-only optimization; results are unchanged. */
    const std::vector<analysis::ComponentProfile> *profiles = nullptr;
};

/** Compiled multi-DFA engine (the automaton is not referenced after
 *  construction). */
class MultiDfaEngine
{
  public:
    explicit MultiDfaEngine(const Automaton &a,
                            const MultiDfaOptions &opts =
                                MultiDfaOptions());

    /** Run over @p input. Report element ids refer to the original
     *  automaton, and reportCount, reportingCycles and byCode equal
     *  NfaEngine's. With a fallback, the DFA and fallback halves are
     *  merged canonically, so the reports come out in canonical
     *  order and a record cap keeps the canonical prefix. */
    SimResult simulate(const uint8_t *input, size_t len,
                       const SimOptions &opts = SimOptions()) const;

    SimResult
    simulate(const std::vector<uint8_t> &input,
             const SimOptions &opts = SimOptions()) const
    {
        return simulate(input.data(), input.size(), opts);
    }

    /** Number of components compiled to DFAs. */
    size_t compiledComponents() const { return dfas_.size(); }

    /** Number of components running on the lazy-DFA fallback path. */
    size_t fallbackComponents() const { return fallbackComponentCount_; }

    /** Total DFA states across all compiled components. */
    uint64_t totalDfaStates() const;

  private:
    /** One report event attached to a (state, class) DFA cell. */
    struct CellReport {
        ElementId element; ///< original automaton element id
        uint32_t code;
    };

    /** One compiled component. */
    struct Dfa {
        uint32_t numStates = 0;
        uint32_t numClasses = 0;
        uint32_t start = 0;
        /** classOf[byte] -> symbol class. */
        std::array<uint8_t, 256> classOf{};
        /** next[state * numClasses + cls] -> state. */
        std::vector<uint32_t> next;
        /** reportIdx[state * numClasses + cls] -> pool index (0=none). */
        std::vector<uint32_t> reportIdx;
        /** Pool of report lists; index 0 is the empty list. */
        std::vector<std::vector<CellReport>> pool;
    };

    /** Attempt subset construction of one component.
     *  @return true on success (dfa filled in). */
    bool buildDfa(const Automaton &a, const std::vector<ElementId> &members,
                  Dfa &dfa) const;

    MultiDfaOptions opts_;
    std::vector<Dfa> dfas_;

    /** Lazy DFA over all fallback components. */
    std::unique_ptr<LazyDfaEngine> fallbackEngine_;
    /** fallback-local element id -> original element id. */
    std::vector<ElementId> fallbackToGlobal_;
    size_t fallbackComponentCount_ = 0;
};

} // namespace azoo

#endif // AZOO_ENGINE_MULTIDFA_ENGINE_HH
