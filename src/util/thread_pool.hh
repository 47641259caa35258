/**
 * @file
 * Work-stealing thread pool backing the parallel execution layer.
 *
 * Each worker owns a deque: post() distributes tasks round-robin,
 * workers pop their own queue LIFO (cache locality) and steal FIFO
 * from siblings when empty, so a batch of unequal-length streams
 * balances itself without a central queue bottleneck. parallelFor()
 * layers self-scheduling (a shared atomic index) on top, which is the
 * right grain for the runner's per-stream / per-shard tasks.
 *
 * The pool deliberately has no futures or task graph: the callers in
 * this codebase (ParallelRunner, zoo::buildSuite) always fan out a
 * fixed set of independent jobs and barrier on all of them, which
 * parallelFor expresses directly.
 */

#ifndef AZOO_UTIL_THREAD_POOL_HH
#define AZOO_UTIL_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace azoo {

/**
 * Fixed-size work-stealing pool.
 *
 * Worker count is fixed at construction; "N threads" in any
 * measurement means exactly N workers compute while the submitting
 * thread blocks. Tasks posted directly via post() must not throw
 * (nothing could catch them); parallelFor() bodies MAY throw — the
 * first exception is captured and rethrown on the calling thread
 * after the barrier (remaining un-started iterations are abandoned).
 * Tasks must not call back into parallelFor() on the same pool (no
 * nesting).
 */
class ThreadPool
{
  public:
    /** @p threads workers; 0 means hardwareThreads(). */
    explicit ThreadPool(size_t threads = 0);

    /** Joins all workers after draining queued tasks. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Worker count. */
    size_t size() const { return workers_.size(); }

    /** Enqueue a task (round-robin across worker deques). */
    void post(std::function<void()> task);

    /**
     * Run body(i) for every i in [0, n) on the workers and block
     * until all calls finished. Iteration order across workers is
     * unspecified; callers own any determinism (e.g. by writing
     * results to slot i). If any body throws, the first captured
     * exception is rethrown here after all in-flight bodies drain;
     * iterations not yet claimed at that point never run.
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &body);

    /**
     * parallelFor with a worker-slot id: runs body(slot, i) where
     * @p slot is owned exclusively by one helper task for the whole
     * call (slot in [0, min(size(), n))). Callers use the slot to
     * index per-worker mutable state — engine scratches, lazy-DFA
     * caches — without locks. Which indices a slot processes is
     * unspecified (self-scheduling), only slot exclusivity is
     * guaranteed.
     */
    void parallelFor(size_t n,
                     const std::function<void(size_t, size_t)> &body);

    /** std::thread::hardware_concurrency with a floor of 1. */
    static size_t hardwareThreads();

    /** currentWorker() off every pool's worker threads. */
    static constexpr size_t kNoWorker = ~size_t(0);

    /**
     * The calling thread's index among its pool's workers, in
     * [0, size()), or kNoWorker when it is no pool's worker. A task
     * posted to one pool uses it to index per-worker mutable state —
     * the serve pool's lazy-DFA caches — without locks: a worker runs
     * one task at a time.
     */
    static size_t currentWorker();

  private:
    struct WorkerQueue {
        std::mutex mutex;
        std::deque<std::function<void()>> tasks;
    };

    void workerLoop(size_t self);
    bool tryPopOwn(size_t self, std::function<void()> &out);
    bool trySteal(size_t self, std::function<void()> &out);

    std::vector<std::unique_ptr<WorkerQueue>> queues_;
    std::vector<std::thread> workers_;

    std::mutex sleepMutex_;
    std::condition_variable wake_;
    std::atomic<uint64_t> pending_{0}; ///< queued, not yet popped
    std::atomic<uint64_t> nextQueue_{0};
    std::atomic<bool> stop_{false};
};

} // namespace azoo

#endif // AZOO_UTIL_THREAD_POOL_HH
