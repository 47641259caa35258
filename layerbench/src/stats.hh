/**
 * @file
 * Sample summaries for layerbench: the median and the tail percentile.
 *
 * Every timing layerbench reports is a median plus "the highest
 * percentile that has at least 10 samples beyond it", with the sample
 * count. With n samples sorted ascending that is the sample at index
 * n - 11 (exactly 10 samples lie above it), i.e. percentile
 * 100 * (n - 10) / n: p99 needs 1000 samples, p90 needs 100. With 10
 * or fewer samples no such percentile exists and the tail is the
 * maximum, flagged by tailBeyond < 10.
 *
 * The low decile (the sample at index (n - 1) / 10; the minimum for
 * 10 or fewer samples) is the operation's cost in the stretches where
 * the shared host does not slow it down. On a host whose speed flips
 * between two states the median flips with it from run to run; the
 * low decile stays put while the fast state holds a tenth of the run.
 */

#ifndef LAYERBENCH_STATS_HH
#define LAYERBENCH_STATS_HH

#include <algorithm>
#include <cstddef>
#include <vector>

namespace layerbench {

/** Samples beyond the reported tail percentile. */
inline constexpr size_t kTailBeyond = 10;

struct Summary {
    size_t count = 0;
    double median = 0;
    /** Low decile (see file comment). */
    double low = 0;
    /** Value at the tail percentile (see file comment). */
    double tail = 0;
    /** The tail's percentile, 0..100. */
    double tailPct = 0;
    /** Samples strictly beyond the tail sample (10 when defined). */
    size_t tailBeyond = 0;
};

/** Median of @p v (mean of the middle two for even counts; 0 when
 *  empty). Sorts @p v. */
inline double
median(std::vector<double> &v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Median and tail of @p samples (copied; the caller's order is
 *  kept). */
inline Summary
summarize(std::vector<double> samples)
{
    Summary s;
    s.count = samples.size();
    if (samples.empty())
        return s;
    s.median = median(samples); // sorts
    const size_t n = samples.size();
    s.low = samples[(n - 1) / 10];
    if (n > kTailBeyond) {
        const size_t idx = n - kTailBeyond - 1;
        s.tail = samples[idx];
        s.tailBeyond = kTailBeyond;
        s.tailPct = 100.0 * static_cast<double>(n - kTailBeyond) /
            static_cast<double>(n);
    } else {
        s.tail = samples.back();
        s.tailBeyond = 0;
        s.tailPct = 100.0;
    }
    return s;
}

} // namespace layerbench

#endif // LAYERBENCH_STATS_HH
