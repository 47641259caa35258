/**
 * @file
 * In-memory span recorder for layerbench's traced run.
 *
 * A span is one call into a layer's public function, timed from the
 * benchmark's own code: name, start, end, the span that caused it,
 * and the session it belongs to (0 = none). Spans are kept in memory
 * and written once, when the run ends (Tracer::writeJson), so
 * recording costs one clock read and one locked push.
 *
 * Scope is also the benchmark's only stopwatch: with tracing off it
 * still measures its own duration (the end-to-end numbers come from
 * there) but records nothing.
 */

#ifndef LAYERBENCH_TRACE_HH
#define LAYERBENCH_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace layerbench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds since the first call in this process (monotonic). */
uint64_t nowNs();

struct Span {
    std::string name;
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    uint64_t id = 0;
    uint64_t parent = 0;  ///< 0 = root
    uint64_t session = 0; ///< 0 = not part of a session

    uint64_t durationNs() const { return endNs - startNs; }
};

/**
 * @p span's duration minus the part of its interval that @p spans
 * whose parent is @p span.id cover (overlapping children count once;
 * child time outside the parent's interval is ignored).
 */
uint64_t selfTimeNs(const Span &span, const std::vector<Span> &spans);

/** selfTimeNs() of every span in @p spans, index-aligned (children
 *  grouped by parent first, so this is linear in the span count up to
 *  sorting). */
std::vector<uint64_t> selfTimesNs(const std::vector<Span> &spans);

/** Thread-safe span store. */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool enabled() const { return enabled_; }

    /** A fresh id for a span about to start (also usable as a
     *  session id). Ids start at 1. */
    uint64_t nextId() { return nextId_.fetch_add(1); }

    void record(Span s);

    /** Snapshot of every span recorded so far. */
    std::vector<Span> spans() const;

    /** Durations in seconds of every span named @p name. */
    std::vector<double> seconds(const std::string &name) const;

    /** Write {"provenance": ..., "spans": [...], "summary": [...]}:
     *  every span, then per name the count, total and self time.
     *  @p provenanceJson is a JSON object. Returns false on I/O
     *  failure. */
    bool writeJson(const std::string &path,
                   const std::string &provenanceJson) const;

  private:
    const bool enabled_;
    std::atomic<uint64_t> nextId_{1};
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/**
 * RAII span + stopwatch. stop() ends it early and returns seconds;
 * the destructor stops it if stop() was not called.
 */
class Scope
{
  public:
    Scope(Tracer &t, const char *name, uint64_t parent = 0,
          uint64_t session = 0);
    ~Scope() { stop(); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** Id children pass as their parent. */
    uint64_t id() const { return id_; }

    /** End the span (idempotent); returns its duration in seconds. */
    double stop();

  private:
    Tracer &t_;
    const char *name_;
    uint64_t id_;
    uint64_t parent_;
    uint64_t session_;
    uint64_t startNs_;
    uint64_t endNs_ = 0;
};

} // namespace layerbench

#endif // LAYERBENCH_TRACE_HH
