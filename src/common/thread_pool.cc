#include "common/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

#include "common/logging.hh"
#include "common/parse.hh"

namespace thermostat
{

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0) {
        threads = defaultJobs();
    }
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) {
        workers_.emplace_back([this] { workerLoop(); });
    }
}

ThreadPool::~ThreadPool()
{
    // Drain without rethrowing: a job exception nobody waited for
    // must not escape a destructor.
    drain();
    {
        MutexLock lock(&mutex_);
        stopping_ = true;
    }
    workReady_.notify_all();
    for (std::thread &w : workers_) {
        w.join();
    }
}

void
ThreadPool::submit(std::function<void()> job)
{
    {
        MutexLock lock(&mutex_);
        queue_.push_back(std::move(job));
        ++inFlight_;
    }
    workReady_.notify_one();
}

void
ThreadPool::drain()
{
    MutexLock lock(&mutex_);
    allDone_.wait(mutex_, [this] {
        mutex_.assertHeld(); // predicate runs under the cv's lock
        return inFlight_ == 0;
    });
}

void
ThreadPool::wait()
{
    std::exception_ptr error;
    {
        MutexLock lock(&mutex_);
        allDone_.wait(mutex_, [this] {
            mutex_.assertHeld();
            return inFlight_ == 0;
        });
        std::swap(error, firstError_);
    }
    if (error) {
        std::rethrow_exception(error);
    }
}

void
ThreadPool::parallelFor(std::size_t begin, std::size_t end,
                        std::size_t grainsize,
                        const std::function<void(std::size_t)> &fn)
{
    if (begin >= end) {
        return;
    }
    if (grainsize == 0) {
        grainsize = 1;
    }
    Batch batch;
    batch.begin = begin;
    batch.end = end;
    batch.grainsize = grainsize;
    batch.chunks = (end - begin + grainsize - 1) / grainsize;
    batch.fn = &fn;
    if (batch.chunks > 1) {
        {
            MutexLock lock(&mutex_);
            batches_.push_back(&batch);
        }
        // The caller runs the first chunk itself; wake only as many
        // workers as there are chunks left for them.
        if (batch.chunks - 1 >= workers_.size()) {
            workReady_.notify_all();
        } else {
            for (std::size_t i = 1; i < batch.chunks; ++i) {
                workReady_.notify_one();
            }
        }
    }
    runChunk(batch, 0);
    runChunks(batch);
    std::exception_ptr error;
    {
        // Every chunk is claimed; wait for the workers still running
        // one, so none touches the batch after it goes out of scope.
        MutexLock lock(&mutex_);
        retire(&batch);
        batchLeft_.wait(mutex_, [this, &batch] {
            mutex_.assertHeld();
            return batch.joined == 0;
        });
        std::swap(error, batch.error);
    }
    if (error) {
        std::rethrow_exception(error);
    }
}

void
ThreadPool::runChunks(Batch &batch)
{
    for (;;) {
        const std::size_t chunk =
            batch.next.fetch_add(1, std::memory_order_relaxed);
        if (chunk >= batch.chunks) {
            return;
        }
        runChunk(batch, chunk);
    }
}

void
ThreadPool::runChunk(Batch &batch, std::size_t chunk)
{
    const std::size_t lo = batch.begin + chunk * batch.grainsize;
    const std::size_t hi = std::min(batch.end, lo + batch.grainsize);
    try {
        for (std::size_t i = lo; i < hi; ++i) {
            (*batch.fn)(i);
        }
    } catch (...) {
        MutexLock lock(&mutex_);
        if (!batch.error) {
            batch.error = std::current_exception();
        }
    }
}

void
ThreadPool::retire(Batch *batch)
{
    const auto it = std::find(batches_.begin(), batches_.end(), batch);
    if (it != batches_.end()) {
        batches_.erase(it);
    }
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        Batch *batch = nullptr;
        {
            MutexLock lock(&mutex_);
            workReady_.wait(mutex_, [this] {
                mutex_.assertHeld();
                return stopping_ || !queue_.empty() ||
                       !batches_.empty();
            });
            if (!batches_.empty()) {
                batch = batches_.front();
                ++batch->joined;
            } else if (queue_.empty()) {
                return; // stopping_ and drained
            } else {
                job = std::move(queue_.front());
                queue_.pop_front();
            }
        }
        if (batch != nullptr) {
            runChunks(*batch);
            MutexLock lock(&mutex_);
            // Claims are exhausted: no later worker need join.
            retire(batch);
            if (--batch->joined == 0) {
                batchLeft_.notify_all();
            }
            continue;
        }
        try {
            job();
        } catch (...) {
            MutexLock lock(&mutex_);
            if (!firstError_) {
                firstError_ = std::current_exception();
            }
        }
        {
            MutexLock lock(&mutex_);
            --inFlight_;
            if (inFlight_ == 0) {
                allDone_.notify_all();
            }
        }
    }
}

unsigned
ThreadPool::defaultJobs()
{
    if (const char *env = std::getenv("THERMOSTAT_JOBS")) {
        const std::optional<std::uint64_t> n = parseCount(env);
        if (n && *n >= 1 && *n <= kMaxJobs) {
            return static_cast<unsigned>(*n);
        }
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true)) {
            TSTAT_WARN("THERMOSTAT_JOBS='%s' is not an integer in "
                       "[1, %u]; using the hardware concurrency",
                       env, kMaxJobs);
        }
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

} // namespace thermostat
