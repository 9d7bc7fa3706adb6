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
    for (std::size_t lo = begin; lo < end; lo += grainsize) {
        const std::size_t hi = std::min(end, lo + grainsize);
        submit([lo, hi, &fn] {
            for (std::size_t i = lo; i < hi; ++i) {
                fn(i);
            }
        });
    }
    wait();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            MutexLock lock(&mutex_);
            workReady_.wait(mutex_, [this] {
                mutex_.assertHeld();
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty()) {
                return; // stopping_ and drained
            }
            job = std::move(queue_.front());
            queue_.pop_front();
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
