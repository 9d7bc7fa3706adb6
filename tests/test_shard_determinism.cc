/**
 * @file
 * Shard-count invariance matrix: the sharded epoch pipeline must
 * produce byte-identical results for every worker count.
 *
 * The lane split (kMachineLanes, laneOf) is fixed and the merge
 * points are all commutative, so SimConfig.shards only chooses how
 * many threads execute the lanes -- never what they compute.  This
 * suite proves it empirically: for a matrix of seeds x workload
 * configurations (including a fault-plan run), the full flight-
 * recorder CSV, the metrics dump and the headline SimResult fields
 * at --shards {2,4,8} must equal the --shards 1 reference exactly.
 *
 * The same binary runs under TSan in the shard-determinism CI job,
 * which additionally proves the lane workers share no unsynchronized
 * state.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "harness.hh"

namespace thermostat
{
namespace
{

using test::halfColdWorkload;
using test::tinySimConfig;

/** One workload/config cell of the matrix. */
struct Cell
{
    const char *name;
    SimConfig config;
};

/** Everything we compare between two runs of the same cell. */
struct RunFingerprint
{
    std::string flightCsv;
    std::string metricsJson;
    double slowdown = 0.0;
    double actualSeconds = 0.0;
    Count trapFaults = 0;
    Count slowAccesses = 0;
    Count llcMisses = 0;
    Count tlbMisses = 0;
    std::uint64_t samplerDigest = 0;
};

/** Cheap config: ~20 simulated seconds keeps TSan runs affordable. */
SimConfig
matrixConfig(std::uint64_t seed)
{
    SimConfig config = tinySimConfig(seed);
    config.samplesPerEpoch = 2000;
    config.duration = 20 * kNsPerSec;
    config.sampler.keepRecords = true;
    config.sampler.maxRecords = 256;
    return config;
}

std::vector<Cell>
matrixCells(std::uint64_t seed)
{
    std::vector<Cell> cells;
    cells.push_back({"emu-badgertrap", matrixConfig(seed)});

    Cell device{"device-cmbit", matrixConfig(seed)};
    device.config.machine.slowMode = SlowEmuMode::Device;
    device.config.machine.countingMode = CountingMode::CmBit;
    cells.push_back(std::move(device));

    Cell faulty{"device-faultplan", matrixConfig(seed)};
    faulty.config.machine.slowMode = SlowEmuMode::Device;
    std::string error;
    EXPECT_TRUE(FaultPlan::parse(
        "slow-latency:from=5,until=12,factor=3;"
        "wear-retire:at=12,count=2",
        faulty.config.faultPlan, error))
        << error;
    cells.push_back(std::move(faulty));

    // PEBS counting and the feedback engines drive state from the
    // profiling stream's lanes; the PEBS modulo counter and nomad's
    // transaction dirty marks are replayed in draw order after each
    // lane batch.
    Cell pebs{"emu-pebs", matrixConfig(seed)};
    pebs.config.machine.countingMode = CountingMode::Pebs;
    cells.push_back(std::move(pebs));

    Cell hotness{"emu-hotness", matrixConfig(seed)};
    hotness.config.policy = "hotness";
    hotness.config.policyParams.coldFraction = 0.5;
    cells.push_back(std::move(hotness));

    Cell nomad{"emu-nomad", matrixConfig(seed)};
    nomad.config.policy = "nomad";
    nomad.config.policyParams.coldFraction = 0.5;
    cells.push_back(std::move(nomad));
    return cells;
}

RunFingerprint
runCell(const Cell &cell, unsigned shards)
{
    SimConfig config = cell.config;
    config.shards = shards;
    Simulation sim(halfColdWorkload(), config);
    const SimResult result = sim.run();

    RunFingerprint fp;
    fp.flightCsv = sim.flightRecorder().toCsv();
    fp.metricsJson = sim.metricsJson();
    fp.slowdown = result.slowdown;
    fp.actualSeconds = result.actualSeconds;
    fp.trapFaults = result.trap.faults;
    fp.slowAccesses = result.machineStats.weightedSlowAccesses;
    fp.llcMisses = result.llc.misses;
    fp.tlbMisses = result.l2Tlb.misses;
    if (sim.accessSampler() != nullptr) {
        fp.samplerDigest = sim.accessSampler()->streamDigest();
    }
    return fp;
}

void
expectIdentical(const RunFingerprint &ref, const RunFingerprint &got,
                const char *cell, std::uint64_t seed, unsigned shards)
{
    const std::string where = std::string(cell) + " seed=" +
                              std::to_string(seed) + " shards=" +
                              std::to_string(shards);
    // Exact equality throughout: the pipeline promises byte
    // identity, not tolerance-level agreement.
    EXPECT_EQ(ref.flightCsv, got.flightCsv) << where;
    EXPECT_EQ(ref.metricsJson, got.metricsJson) << where;
    EXPECT_EQ(ref.slowdown, got.slowdown) << where;
    EXPECT_EQ(ref.actualSeconds, got.actualSeconds) << where;
    EXPECT_EQ(ref.trapFaults, got.trapFaults) << where;
    EXPECT_EQ(ref.slowAccesses, got.slowAccesses) << where;
    EXPECT_EQ(ref.llcMisses, got.llcMisses) << where;
    EXPECT_EQ(ref.tlbMisses, got.tlbMisses) << where;
    EXPECT_EQ(ref.samplerDigest, got.samplerDigest) << where;
}

TEST(ShardDeterminism, MatrixMatchesSerialReference)
{
    // 20 seeds x 6 workload configs x shards {2,4,8} against the
    // shards=1 reference.  Any divergence names its exact cell.
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        for (const Cell &cell : matrixCells(seed)) {
            const RunFingerprint ref = runCell(cell, 1);
            ASSERT_FALSE(ref.flightCsv.empty());
            for (const unsigned shards : {2u, 4u, 8u}) {
                expectIdentical(ref, runCell(cell, shards),
                                cell.name, seed, shards);
                if (::testing::Test::HasFailure()) {
                    // One cell's dump is enough; stop early.
                    return;
                }
            }
        }
    }
}

TEST(ShardDeterminism, AutoShardsNeverExceedLanes)
{
    SimConfig config = matrixConfig(4);
    config.shards = 0;
    Simulation sim(halfColdWorkload(), config);
    EXPECT_GE(sim.shards(), 1u);
    EXPECT_LE(sim.shards(), kMachineLanes);
}

} // namespace
} // namespace thermostat
