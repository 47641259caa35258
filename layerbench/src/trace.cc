#include "trace.hh"

#include <algorithm>
#include <fstream>
#include <map>
#include <unordered_map>

namespace layerbench {

uint64_t
nowNs()
{
    static const Clock::time_point t0 = Clock::now();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - t0)
            .count());
}

uint64_t
selfTimeNs(const Span &span, const std::vector<Span> &spans)
{
    std::vector<std::pair<uint64_t, uint64_t>> iv;
    for (const Span &c : spans) {
        if (c.parent != span.id || c.id == span.id)
            continue;
        const uint64_t lo = std::max(c.startNs, span.startNs);
        const uint64_t hi = std::min(c.endNs, span.endNs);
        if (lo < hi)
            iv.emplace_back(lo, hi);
    }
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0, curLo = 0, curHi = 0;
    bool open = false;
    for (const auto &[lo, hi] : iv) {
        if (open && lo <= curHi) {
            curHi = std::max(curHi, hi);
            continue;
        }
        if (open)
            covered += curHi - curLo;
        curLo = lo;
        curHi = hi;
        open = true;
    }
    if (open)
        covered += curHi - curLo;
    return span.durationNs() - covered;
}

std::vector<uint64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::unordered_map<uint64_t, std::vector<Span>> children;
    for (const Span &s : spans)
        if (s.parent != 0)
            children[s.parent].push_back(s);
    static const std::vector<Span> kNone;
    std::vector<uint64_t> out;
    out.reserve(spans.size());
    for (const Span &s : spans) {
        const auto it = children.find(s.id);
        out.push_back(
            selfTimeNs(s, it == children.end() ? kNone : it->second));
    }
    return out;
}

void
Tracer::record(Span s)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(s));
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::vector<double>
Tracer::seconds(const std::string &name) const
{
    std::vector<double> out;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Span &s : spans_) {
        if (s.name == name)
            out.push_back(static_cast<double>(s.durationNs()) * 1e-9);
    }
    return out;
}

bool
Tracer::writeJson(const std::string &path,
                  const std::string &provenanceJson) const
{
    const std::vector<Span> all = spans();
    std::ofstream f(path);
    f << "{\"provenance\": " << provenanceJson << ",\n\"spans\": [";
    for (size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        f << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
          << "\", \"id\": " << s.id << ", \"parent\": " << s.parent
          << ", \"session\": " << s.session
          << ", \"start_ns\": " << s.startNs
          << ", \"end_ns\": " << s.endNs << "}";
    }
    struct Agg {
        uint64_t count = 0, totalNs = 0, selfNs = 0;
    };
    std::map<std::string, Agg> byName;
    const std::vector<uint64_t> self = selfTimesNs(all);
    for (size_t i = 0; i < all.size(); ++i) {
        Agg &a = byName[all[i].name];
        ++a.count;
        a.totalNs += all[i].durationNs();
        a.selfNs += self[i];
    }
    f << "\n],\n\"summary\": [";
    bool first = true;
    for (const auto &[name, a] : byName) {
        f << (first ? "\n" : ",\n") << "{\"name\": \"" << name
          << "\", \"count\": " << a.count
          << ", \"total_ns\": " << a.totalNs
          << ", \"self_ns\": " << a.selfNs << "}";
        first = false;
    }
    f << "\n]}\n";
    return static_cast<bool>(f);
}

Scope::Scope(Tracer &t, const char *name, uint64_t parent,
             uint64_t session)
    : t_(t), name_(name), id_(t.enabled() ? t.nextId() : 0),
      parent_(parent), session_(session), startNs_(nowNs())
{
}

double
Scope::stop()
{
    if (endNs_ == 0) {
        endNs_ = std::max(nowNs(), startNs_ + 1);
        if (t_.enabled()) {
            t_.record(Span{name_, startNs_, endNs_, id_, parent_,
                           session_});
        }
    }
    return static_cast<double>(endNs_ - startNs_) * 1e-9;
}

} // namespace layerbench
