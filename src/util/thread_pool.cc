#include "util/thread_pool.hh"

#include <chrono>
#include <latch>

#include "obs/obs.hh"

namespace azoo {

namespace {

/** This thread's worker index (ThreadPool::currentWorker()). */
thread_local size_t tlsWorker = ThreadPool::kNoWorker;

} // namespace

size_t
ThreadPool::currentWorker()
{
    return tlsWorker;
}

size_t
ThreadPool::hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

ThreadPool::ThreadPool(size_t threads)
{
    if (threads == 0)
        threads = hardwareThreads();
    queues_.reserve(threads);
    for (size_t i = 0; i < threads; ++i)
        queues_.push_back(std::make_unique<WorkerQueue>());
    workers_.reserve(threads);
    for (size_t i = 0; i < threads; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(sleepMutex_);
        stop_.store(true);
    }
    wake_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::post(std::function<void()> task)
{
    const size_t q =
        nextQueue_.fetch_add(1, std::memory_order_relaxed) %
        queues_.size();
    {
        std::lock_guard<std::mutex> lk(queues_[q]->mutex);
        queues_[q]->tasks.push_back(std::move(task));
    }
    pending_.fetch_add(1);
    wake_.notify_one();
}

bool
ThreadPool::tryPopOwn(size_t self, std::function<void()> &out)
{
    WorkerQueue &q = *queues_[self];
    std::lock_guard<std::mutex> lk(q.mutex);
    if (q.tasks.empty())
        return false;
    out = std::move(q.tasks.back());
    q.tasks.pop_back();
    pending_.fetch_sub(1);
    return true;
}

bool
ThreadPool::trySteal(size_t self, std::function<void()> &out)
{
    const size_t n = queues_.size();
    for (size_t d = 1; d < n; ++d) {
        WorkerQueue &q = *queues_[(self + d) % n];
        std::lock_guard<std::mutex> lk(q.mutex);
        if (q.tasks.empty())
            continue;
        // Steal the oldest task: it is the least likely to be hot in
        // the victim's cache.
        out = std::move(q.tasks.front());
        q.tasks.pop_front();
        pending_.fetch_sub(1);
        return true;
    }
    return false;
}

void
ThreadPool::workerLoop(size_t self)
{
    tlsWorker = self;
    std::function<void()> task;
    for (;;) {
        if (tryPopOwn(self, task) || trySteal(self, task)) {
            task();
            task = nullptr;
            continue;
        }
        std::unique_lock<std::mutex> lk(sleepMutex_);
        wake_.wait(lk, [this] {
            return stop_.load() || pending_.load() > 0;
        });
        if (stop_.load() && pending_.load() == 0)
            return;
    }
}

void
ThreadPool::parallelFor(size_t n,
                        const std::function<void(size_t)> &body)
{
    parallelFor(n, [&body](size_t, size_t i) { body(i); });
}

void
ThreadPool::parallelFor(size_t n,
                        const std::function<void(size_t, size_t)> &body)
{
    if (n == 0)
        return;
    if (size() == 1 || n == 1) {
        // One worker computes exactly like N=1 measurement semantics
        // demand, but going through the queue for a single-item loop
        // would only add latency. Exceptions propagate directly.
        for (size_t i = 0; i < n; ++i)
            body(0, i);
        return;
    }
    const size_t helpers = std::min(size(), n);
    std::atomic<size_t> index{0};
    // A body exception must not escape a pool thread (std::terminate):
    // the first one is captured here and rethrown on the calling
    // thread after the barrier; remaining iterations are abandoned
    // (helpers stop claiming indices), already-running ones finish.
    std::atomic<bool> failed{false};
    std::exception_ptr firstError;
    std::mutex errorMutex;
    std::latch done(static_cast<ptrdiff_t>(helpers));
    // Scheduling delay between posting a helper and it starting: a
    // saturated pool shows up here before it shows up in wall time.
    obs::Histogram *queueWait = nullptr;
    std::chrono::steady_clock::time_point posted{};
    if (obs::kEnabled) {
        static obs::Histogram &h =
            obs::Registry::global().histogram("pool.queue_wait_us");
        queueWait = &h;
        posted = std::chrono::steady_clock::now();
    }
    for (size_t h = 0; h < helpers; ++h) {
        post([&, h] {
            if (queueWait) {
                const auto d =
                    std::chrono::steady_clock::now() - posted;
                queueWait->record(static_cast<uint64_t>(
                    std::chrono::duration_cast<
                        std::chrono::microseconds>(d)
                        .count()));
            }
            for (;;) {
                if (failed.load(std::memory_order_relaxed))
                    break;
                const size_t i = index.fetch_add(1);
                if (i >= n)
                    break;
                try {
                    body(h, i);
                } catch (...) {
                    std::lock_guard<std::mutex> lk(errorMutex);
                    if (!firstError)
                        firstError = std::current_exception();
                    failed.store(true);
                }
            }
            done.count_down();
        });
    }
    done.wait();
    if (failed.load())
        std::rethrow_exception(firstError);
}

} // namespace azoo
