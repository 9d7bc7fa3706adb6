/**
 * @file
 * ThreadPool tests: reusable wait(), THERMOSTAT_JOBS sizing,
 * exception propagation, the parallelFor batch contract (every index
 * once, in order within a chunk, first chunk on the caller, no
 * deadlock when nested), and a contention workout that gives TSan
 * (the tsan-determinism CI job) something to chew on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace thermostat
{
namespace
{

TEST(ThreadPool, RunsAllJobs)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i) {
        pool.submit([&count] { ++count; });
    }
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int round = 1; round <= 3; ++round) {
        for (int i = 0; i < 10; ++i) {
            pool.submit([&count] { ++count; });
        }
        pool.wait();
        EXPECT_EQ(count.load(), round * 10);
    }
    // wait() with nothing queued returns immediately.
    pool.wait();
    EXPECT_EQ(count.load(), 30);
}

TEST(ThreadPool, DestructorDrainsQueuedJobs)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i) {
            pool.submit([&count] { ++count; });
        }
        // No wait(): the destructor must drain before joining.
    }
    EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, SingleWorkerRunsInSubmissionOrder)
{
    ThreadPool pool(1);
    std::vector<int> order;
    for (int i = 0; i < 32; ++i) {
        pool.submit([&order, i] { order.push_back(i); });
    }
    pool.wait();
    ASSERT_EQ(order.size(), 32u);
    for (int i = 0; i < 32; ++i) {
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
    }
}

TEST(ThreadPool, DefaultJobsHonorsEnvironment)
{
    ::setenv("THERMOSTAT_JOBS", "3", 1);
    EXPECT_EQ(ThreadPool::defaultJobs(), 3u);
    {
        ThreadPool pool; // threads = 0 resolves via defaultJobs()
        EXPECT_EQ(pool.threadCount(), 3u);
    }
    ::setenv("THERMOSTAT_JOBS", "1024", 1); // kMaxJobs itself
    EXPECT_EQ(ThreadPool::defaultJobs(), ThreadPool::kMaxJobs);

    // Malformed or out-of-range values fall back to the hardware
    // concurrency and warn once per process.  Only defaultJobs() is
    // called here: no pool is ever sized from these values.
    const unsigned hw = std::thread::hardware_concurrency();
    const unsigned fallback = hw > 0 ? hw : 1;
    ScopedLogCapture capture;
    for (const char *bad : {"0", "banana", "3abc", " 3", "+3", "-1",
                            "99999999", "1025",
                            "18446744073709551616"}) {
        ::setenv("THERMOSTAT_JOBS", bad, 1);
        EXPECT_EQ(ThreadPool::defaultJobs(), fallback) << bad;
    }
    EXPECT_EQ(capture.count(LogKind::Warn), 1u);
    EXPECT_TRUE(capture.contains("THERMOSTAT_JOBS='0'"));
    ::unsetenv("THERMOSTAT_JOBS");
    EXPECT_EQ(ThreadPool::defaultJobs(), fallback);
}

TEST(ThreadPool, WaitRethrowsFirstJobException)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([] { throw std::runtime_error("job failed"); });
    for (int i = 0; i < 10; ++i) {
        pool.submit([&count] { ++count; });
    }
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The failure did not take down the workers or lose jobs.
    EXPECT_EQ(count.load(), 10);
    // The pool stays usable, and the error was consumed.
    pool.submit([&count] { ++count; });
    EXPECT_NO_THROW(pool.wait());
    EXPECT_EQ(count.load(), 11);
}

TEST(ThreadPool, OnlyFirstOfManyExceptionsSurfaces)
{
    ThreadPool pool(4);
    for (int i = 0; i < 8; ++i) {
        pool.submit([] { throw std::runtime_error("boom"); });
    }
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_NO_THROW(pool.wait());
}

TEST(ThreadPool, UnwaitedExceptionDoesNotEscapeDestructor)
{
    // A throwing job whose error nobody collects must be swallowed
    // by the destructor, not std::terminate the process.
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("ignored"); });
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(4);
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    pool.parallelFor(0, kN, 7, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < kN; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, ParallelForHandlesEmptyAndTinyRanges)
{
    ThreadPool pool(2);
    int calls = 0;
    // Empty range: fn never runs.
    pool.parallelFor(5, 5, 4, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    // Single index; grainsize 0 is treated as 1.
    std::atomic<int> one{0};
    pool.parallelFor(9, 10, 0, [&](std::size_t i) {
        EXPECT_EQ(i, 9u);
        ++one;
    });
    EXPECT_EQ(one.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesException)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    EXPECT_THROW(
        pool.parallelFor(0, 64, 1,
                         [&](std::size_t i) {
                             ++ran;
                             if (i == 13) {
                                 throw std::runtime_error("pf");
                             }
                         }),
        std::runtime_error);
    // The error was consumed; the pool stays usable.
    std::atomic<int> after{0};
    pool.parallelFor(0, 8, 2, [&](std::size_t) { ++after; });
    EXPECT_EQ(after.load(), 8);
    EXPECT_GE(ran.load(), 1);
}

TEST(ThreadPool, ParallelForRunsEachChunkInOrderOnce)
{
    ThreadPool pool(3);
    for (const std::size_t n : {std::size_t{300}, std::size_t{1000}}) {
        constexpr std::size_t kGrain = 5;
        std::vector<std::vector<std::size_t>> seen(n / kGrain);
        for (int round = 0; round < 20; ++round) {
            for (std::vector<std::size_t> &chunk : seen) {
                chunk.clear();
            }
            pool.parallelFor(0, n, kGrain, [&](std::size_t i) {
                seen[i / kGrain].push_back(i);
            });
            for (std::size_t c = 0; c < seen.size(); ++c) {
                ASSERT_EQ(seen[c].size(), kGrain) << "n " << n;
                for (std::size_t k = 0; k < kGrain; ++k) {
                    ASSERT_EQ(seen[c][k], c * kGrain + k) << "n " << n;
                }
            }
        }
    }
}

TEST(ThreadPool, ParallelForRunsTheFirstChunkOnTheCaller)
{
    ThreadPool pool(4);
    const std::thread::id caller = std::this_thread::get_id();
    for (int round = 0; round < 50; ++round) {
        std::thread::id first;
        pool.parallelFor(0, 9, 1, [&](std::size_t i) {
            if (i == 0) {
                first = std::this_thread::get_id();
            }
        });
        ASSERT_EQ(first, caller);
    }
}

// A parallelFor issued from inside a pool job (or a batch) finishes:
// its caller claims whatever no worker takes.
TEST(ThreadPool, NestedParallelForCompletes)
{
    ThreadPool pool(2);
    std::atomic<int> inner{0};
    for (int job = 0; job < 4; ++job) {
        pool.submit([&] {
            pool.parallelFor(0, 16, 1, [&](std::size_t) { ++inner; });
        });
    }
    pool.wait();
    EXPECT_EQ(inner.load(), 64);
    std::atomic<int> nested{0};
    pool.parallelFor(0, 4, 1, [&](std::size_t) {
        pool.parallelFor(0, 8, 2, [&](std::size_t) { ++nested; });
    });
    EXPECT_EQ(nested.load(), 32);
}

TEST(ThreadPool, ContendedCountersStayExact)
{
    // Many tiny jobs hammering shared state from every worker; run
    // under TSan this doubles as a lock-discipline check.
    ThreadPool pool(8);
    std::atomic<std::uint64_t> sum{0};
    std::uint64_t guarded = 0;
    std::mutex guard;
    constexpr int kJobs = 2000;
    for (int i = 1; i <= kJobs; ++i) {
        pool.submit([&, i] {
            sum += static_cast<std::uint64_t>(i);
            std::lock_guard<std::mutex> lock(guard);
            guarded += static_cast<std::uint64_t>(i);
        });
    }
    pool.wait();
    const std::uint64_t expect =
        static_cast<std::uint64_t>(kJobs) * (kJobs + 1) / 2;
    EXPECT_EQ(sum.load(), expect);
    EXPECT_EQ(guarded, expect);
}

} // namespace
} // namespace thermostat
