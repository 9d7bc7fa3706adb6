/**
 * @file
 * Determinism tests for the parallel sweep runner: a sweep executed
 * on N workers must be bit-identical to the same sweep executed
 * serially -- same scalar results, same counter snapshots, same
 * time series, same exported CSV bytes -- because every run's
 * randomness derives only from its own seed.  Also exercises the
 * ThreadPool primitive directly.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <atomic>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/thread_pool.hh"
#include "sim/csv_export.hh"
#include "sweep_runner.hh"

namespace thermostat
{
namespace
{

using bench::SweepJob;
using bench::runSweep;

std::vector<SweepJob>
smallSweep()
{
    // Two applications x two seeds, short runs: enough structure to
    // catch cross-run interference without slowing the suite.
    std::vector<SweepJob> jobs;
    for (const char *workload : {"redis", "web-search"}) {
        for (const std::uint64_t seed : {7ULL, 21ULL}) {
            jobs.push_back(
                {workload, 3.0, 30 * kNsPerSec, seed, 0});
        }
    }
    return jobs;
}

void
expectSeriesIdentical(const TimeSeries &a, const TimeSeries &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.at(i).time, b.at(i).time);
        EXPECT_EQ(a.at(i).value, b.at(i).value); // exact, not near
    }
}

void
expectResultsIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.duration, b.duration);
    EXPECT_EQ(a.slowdown, b.slowdown);
    EXPECT_EQ(a.actualSeconds, b.actualSeconds);
    EXPECT_EQ(a.baselineSeconds, b.baselineSeconds);
    EXPECT_EQ(a.avgColdFraction, b.avgColdFraction);
    EXPECT_EQ(a.finalColdFraction, b.finalColdFraction);
    EXPECT_EQ(a.finalRssBytes, b.finalRssBytes);
    EXPECT_EQ(a.demotionBytesPerSec, b.demotionBytesPerSec);
    EXPECT_EQ(a.promotionBytesPerSec, b.promotionBytesPerSec);
    EXPECT_EQ(a.monitorOverheadFraction, b.monitorOverheadFraction);
    EXPECT_EQ(a.auditViolations, b.auditViolations);

    expectSeriesIdentical(a.hot2M, b.hot2M);
    expectSeriesIdentical(a.hot4K, b.hot4K);
    expectSeriesIdentical(a.cold2M, b.cold2M);
    expectSeriesIdentical(a.cold4K, b.cold4K);
    expectSeriesIdentical(a.engineSlowRate, b.engineSlowRate);
    expectSeriesIdentical(a.deviceSlowRate, b.deviceSlowRate);

    // Machine-level counter snapshots.
    EXPECT_EQ(a.l1Tlb.hits, b.l1Tlb.hits);
    EXPECT_EQ(a.l1Tlb.misses, b.l1Tlb.misses);
    EXPECT_EQ(a.l2Tlb.hits, b.l2Tlb.hits);
    EXPECT_EQ(a.l2Tlb.misses, b.l2Tlb.misses);
    EXPECT_EQ(a.llc.hits, b.llc.hits);
    EXPECT_EQ(a.llc.misses, b.llc.misses);
    EXPECT_EQ(a.llc.writebacks, b.llc.writebacks);
    EXPECT_EQ(a.walker.walks4K, b.walker.walks4K);
    EXPECT_EQ(a.walker.walks2M, b.walker.walks2M);
    EXPECT_EQ(a.walker.totalWalkTime, b.walker.totalWalkTime);
    EXPECT_EQ(a.trap.faults, b.trap.faults);
    EXPECT_EQ(a.trap.weightedFaults, b.trap.weightedFaults);
    EXPECT_EQ(a.machineStats.accesses, b.machineStats.accesses);
    EXPECT_EQ(a.machineStats.actualTime, b.machineStats.actualTime);
    EXPECT_EQ(a.machineStats.baselineTime,
              b.machineStats.baselineTime);
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Export @p r and return the concatenated CSV bytes. */
std::string
csvBytes(const SimResult &r, const std::string &tag)
{
    const std::string dir = ::testing::TempDir() + "sweep_" + tag;
    (void)mkdir(dir.c_str(), 0755);
    EXPECT_TRUE(writeSimResultCsv(r, dir));
    return slurp(dir + "/footprint.csv") +
           slurp(dir + "/slow_rate.csv") +
           slurp(dir + "/summary.csv");
}

TEST(ThreadPool, RunsEverySubmittedJob)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i) {
        pool.submit([&count] { ++count; });
    }
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusableAcrossBatches)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
    for (int i = 0; i < 10; ++i) {
        pool.submit([&count] { ++count; });
    }
    pool.wait();
    EXPECT_EQ(count.load(), 11);
}

TEST(SweepRunner, EmptySweepReturnsNothing)
{
    EXPECT_TRUE(runSweep({}, 4).empty());
}

TEST(SweepRunner, ParallelSweepMatchesSerialBitForBit)
{
    const std::vector<SweepJob> jobs = smallSweep();
    const std::vector<SimResult> serial = runSweep(jobs, 1);
    const std::vector<SimResult> parallel = runSweep(jobs, 4);

    ASSERT_EQ(serial.size(), jobs.size());
    ASSERT_EQ(parallel.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(jobs[i].workload + "/seed " +
                     std::to_string(jobs[i].seed));
        expectResultsIdentical(serial[i], parallel[i]);
    }

    // The exported CSV artifacts must also match byte for byte.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const std::string tag = std::to_string(i);
        EXPECT_EQ(csvBytes(serial[i], "serial_" + tag),
                  csvBytes(parallel[i], "parallel_" + tag));
    }
}

TEST(SweepRunner, RepeatedParallelSweepsAreIdentical)
{
    std::vector<SweepJob> jobs;
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        jobs.push_back({"redis", 3.0, 15 * kNsPerSec, seed, 0});
    }
    const std::vector<SimResult> first = runSweep(jobs, 3);
    const std::vector<SimResult> second = runSweep(jobs, 3);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        expectResultsIdentical(first[i], second[i]);
    }
    // Distinct seeds must actually produce distinct streams.
    EXPECT_NE(first[0].llc.hits, first[1].llc.hits);
}

} // namespace
} // namespace thermostat
