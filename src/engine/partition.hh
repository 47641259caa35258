/**
 * @file
 * ComponentPartition and the canonical report merge: the one place
 * an automaton is cut into sub-automata, and the one place their
 * report streams are put back together.
 *
 * Connected components (over activation *and* reset edges, so a
 * counter never leaves the elements that count or reset it) are the
 * unit every multi-engine path works in: the planner routes each
 * component to a backend, the lazy-DFA and multi-DFA engines send
 * counter or over-budget components to a fallback, and the parallel
 * runner packs components into shards. Each of those copies a set of
 * components into a sub-automaton, runs it, and maps report element
 * ids back through a `toGlobal` table. split() is that copy;
 * mergeCanonical() is the way back.
 */

#ifndef AZOO_ENGINE_PARTITION_HH
#define AZOO_ENGINE_PARTITION_HH

#include <cstdint>
#include <span>
#include <vector>

#include "core/automaton.hh"
#include "engine/report.hh"

namespace azoo {

/** An automaton's connected components, and sub-automata cut from
 *  them. Borrows the automaton for its own lifetime. */
class ComponentPartition
{
  public:
    /** Group id of components split() leaves out. */
    static constexpr uint32_t kNoGroup = ~uint32_t(0);

    /** Components numbered as Automaton::connectedComponents() does
     *  (first-occurrence order), which is also the componentId of
     *  analysis profiles. */
    explicit ComponentPartition(const Automaton &a);

    uint32_t count() const { return count_; }

    /** Component of element @p id. */
    uint32_t of(ElementId id) const { return label_[id]; }

    /** Element count of every component. */
    std::vector<uint64_t> sizes() const;

    /** One sub-automaton and its local-to-global element map. */
    struct Group {
        Automaton sub;
        /** Local id -> id in the partitioned automaton; ascending, so
         *  canonical report order survives the remap. */
        std::vector<ElementId> toGlobal;
    };

    /**
     * Copy every component c with groupOf[c] != kNoGroup into group
     * groupOf[c] (one of @p groups), elements in original-id order.
     * Groups no component went to come back empty.
     */
    std::vector<Group> split(const std::vector<uint32_t> &groupOf,
                             size_t groups) const;

  private:
    const Automaton &a_;
    std::vector<uint32_t> label_;
    uint32_t count_ = 0;
};

/** Append @p part to @p out with element ids mapped through
 *  @p toGlobal. */
void appendGlobal(std::vector<Report> &out, const std::vector<Report> &part,
                  std::span<const ElementId> toGlobal);

/**
 * The canonical merge. Given the full report streams of every part of
 * one run (global ids, any order) and @p out with its symbols field
 * set to the consumed prefix: drop reports at or past that prefix,
 * sort into canonical (offset, element, code) order, and fill
 * reportCount, reportingCycles, byCode (opts.countByCode) and the
 * recorded reports (opts.recordReports, capped at
 * opts.reportRecordLimit). Every other field of @p out is left alone.
 */
void mergeCanonical(std::vector<Report> reports, const SimOptions &opts,
                    SimResult &out);

/** Options for the parts of a merged run: record every report,
 *  tally nothing by code, otherwise as @p opts. */
SimOptions recordAllOptions(const SimOptions &opts);

} // namespace azoo

#endif // AZOO_ENGINE_PARTITION_HH
