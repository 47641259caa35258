#include "planter.hh"

#include <algorithm>
#include <deque>

namespace layerbench {

using namespace azoo;

std::vector<uint32_t>
distanceToReport(const Automaton &a)
{
    const size_t n = a.size();
    std::vector<uint32_t> dist(n, kNoPath);
    const std::vector<std::vector<ElementId>> rev = a.reverseAdjacency();
    std::deque<ElementId> q;
    for (ElementId e = 0; e < n; ++e) {
        const Element &el = a.element(e);
        if (el.kind == ElementKind::kSte && el.reporting) {
            dist[e] = 0;
            q.push_back(e);
        }
    }
    while (!q.empty()) {
        const ElementId e = q.front();
        q.pop_front();
        for (ElementId p : rev[e]) {
            if (dist[p] != kNoPath ||
                a.element(p).kind != ElementKind::kSte)
                continue;
            dist[p] = dist[e] + 1;
            q.push_back(p);
        }
    }
    return dist;
}

namespace {

uint8_t
randomSymbol(const CharSet &cs, Rng &rng)
{
    const int k = static_cast<int>(rng.nextBelow(
        static_cast<uint64_t>(cs.count())));
    int seen = 0;
    for (int c = 0; c < 256; ++c) {
        if (cs.test(static_cast<uint8_t>(c)) && seen++ == k)
            return static_cast<uint8_t>(c);
    }
    return static_cast<uint8_t>(cs.lowest());
}

} // namespace

Walk
randomWalk(const Automaton &a, const std::vector<uint32_t> &dist,
           Rng &rng, uint32_t maxLen)
{
    std::vector<ElementId> starts;
    for (ElementId e = 0; e < a.size(); ++e) {
        const Element &el = a.element(e);
        if (el.kind == ElementKind::kSte &&
            el.start == StartType::kAllInput && dist[e] < maxLen &&
            !el.symbols.empty())
            starts.push_back(e);
    }
    Walk w;
    if (starts.empty())
        return w;
    ElementId cur = rng.pick(starts);
    std::vector<ElementId> next;
    for (;;) {
        const Element &el = a.element(cur);
        w.bytes.push_back(randomSymbol(el.symbols, rng));
        if (dist[cur] == 0) {
            w.reporter = cur;
            return w;
        }
        next.clear();
        for (ElementId o : el.out) {
            if (dist[o] != kNoPath && dist[o] < dist[cur] &&
                !a.element(o).symbols.empty())
                next.push_back(o);
        }
        if (next.empty()) { // cannot happen for a BFS distance
            w.bytes.clear();
            return w;
        }
        cur = rng.pick(next);
    }
}

bool
walkAccepted(const NfaEngine &engine, EngineScratch &scratch,
             const Walk &w)
{
    if (w.bytes.empty())
        return false;
    SimOptions so;
    so.computeActiveSet = false;
    const SimResult r =
        engine.simulate(w.bytes.data(), w.bytes.size(), scratch, so);
    const uint64_t last = w.bytes.size() - 1;
    return std::any_of(r.reports.begin(), r.reports.end(),
                       [&](const Report &rep) {
                           return rep.offset == last &&
                               rep.element == w.reporter;
                       });
}

PlantResult
plantMatches(const Automaton &a, std::vector<uint8_t> &input,
             const PlantOptions &opts)
{
    PlantResult res;
    if (opts.spacing == 0 || input.size() < opts.spacing)
        return res;
    Rng rng(opts.seed);
    const std::vector<uint32_t> dist = distanceToReport(a);
    const NfaEngine engine(a);
    EngineScratch scratch;
    std::vector<Walk> walks;
    // Bounded attempts: an automaton whose walks all fail acceptance
    // (or that has no walkable start) plants nothing rather than spin.
    for (size_t attempt = 0;
         walks.size() < opts.distinctWalks &&
         attempt < 4 * opts.distinctWalks;
         ++attempt) {
        Walk w = randomWalk(a, dist, rng,
                            std::min<uint32_t>(
                                opts.maxWalkLen,
                                static_cast<uint32_t>(opts.spacing / 2)));
        if (w.bytes.empty())
            break;
        if (walkAccepted(engine, scratch, w))
            walks.push_back(std::move(w));
        else
            ++res.rejected;
    }
    res.distinct = walks.size();
    if (walks.empty())
        return res;
    for (size_t base = 0; base + opts.spacing <= input.size();
         base += opts.spacing) {
        const Walk &w = walks[res.planted % walks.size()];
        const size_t off =
            base + rng.nextBelow(opts.spacing - w.bytes.size() + 1);
        std::copy(w.bytes.begin(), w.bytes.end(), input.begin() + off);
        ++res.planted;
    }
    return res;
}

} // namespace layerbench
