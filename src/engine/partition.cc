#include "engine/partition.hh"

#include <algorithm>

namespace azoo {

ComponentPartition::ComponentPartition(const Automaton &a)
    : a_(a)
{
    label_ = a.connectedComponents(count_);
}

std::vector<uint64_t>
ComponentPartition::sizes() const
{
    std::vector<uint64_t> n(count_, 0);
    for (uint32_t c : label_)
        ++n[c];
    return n;
}

std::vector<ComponentPartition::Group>
ComponentPartition::split(const std::vector<uint32_t> &groupOf,
                          size_t groups) const
{
    std::vector<Group> out(groups);
    for (Group &g : out)
        g.sub.setName(a_.name());
    std::vector<ElementId> local(a_.size(), kNoElement);
    for (ElementId i = 0; i < a_.size(); ++i) {
        const uint32_t g = groupOf[label_[i]];
        if (g == kNoGroup)
            continue;
        Group &grp = out[g];
        const Element &e = a_.element(i);
        local[i] = e.kind == ElementKind::kCounter
            ? grp.sub.addCounter(e.target, e.mode, e.reporting,
                                 e.reportCode)
            : grp.sub.addSte(e.symbols, e.start, e.reporting,
                             e.reportCode);
        grp.toGlobal.push_back(i);
    }
    for (ElementId i = 0; i < a_.size(); ++i) {
        if (local[i] == kNoElement)
            continue;
        Automaton &sub = out[groupOf[label_[i]]].sub;
        for (ElementId t : a_.element(i).out)
            sub.addEdge(local[i], local[t]);
        for (ElementId t : a_.element(i).resetOut)
            sub.addResetEdge(local[i], local[t]);
    }
    return out;
}

void
appendGlobal(std::vector<Report> &out, const std::vector<Report> &part,
             std::span<const ElementId> toGlobal)
{
    out.reserve(out.size() + part.size());
    for (const Report &r : part)
        out.push_back({r.offset, toGlobal[r.element], r.code});
}

void
mergeCanonical(std::vector<Report> reports, const SimOptions &opts,
               SimResult &out)
{
    // Every part's stream is complete over [0, out.symbols) (each ran
    // at least that far), so clipping + sorting is exact.
    const uint64_t consumed = out.symbols;
    std::erase_if(reports,
                  [consumed](const Report &r) { return r.offset >= consumed; });
    std::sort(reports.begin(), reports.end());
    out.reportCount = reports.size();
    out.reportingCycles = 0;
    out.byCode.clear();
    uint64_t lastOffset = ~uint64_t(0);
    for (const Report &r : reports) {
        if (r.offset != lastOffset) {
            ++out.reportingCycles;
            lastOffset = r.offset;
        }
        if (opts.countByCode)
            ++out.byCode[r.code];
    }
    if (reports.size() > opts.reportRecordLimit)
        reports.resize(static_cast<size_t>(opts.reportRecordLimit));
    out.reports.clear();
    if (opts.recordReports)
        out.reports = std::move(reports);
}

SimOptions
recordAllOptions(const SimOptions &opts)
{
    SimOptions inner = opts;
    inner.recordReports = true;
    inner.reportRecordLimit = ~uint64_t(0);
    inner.countByCode = false;
    return inner;
}

} // namespace azoo
