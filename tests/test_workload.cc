/**
 * @file
 * Tests for ComposedWorkload and the six cloud application models
 * (footprints must match Table 2).
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <vector>

#include "workload/cloud_apps.hh"
#include "workload/trace.hh"

namespace thermostat
{
namespace
{

TieredMemory
bigMemory()
{
    return TieredMemory(TierConfig::dram(24ULL << 30),
                        TierConfig::slow(4ULL << 30));
}

std::unique_ptr<ComposedWorkload>
tinyWorkload()
{
    auto w = std::make_unique<ComposedWorkload>("tiny", 1.0e6, 0.5,
                                                60 * kNsPerSec);
    w->addRegion({"a", 4_MiB, 0, true, false});
    w->addRegion({"b", 2_MiB, 8_MiB, true, true});
    w->addGrowth({"b", 1.0e6}); // 1MB/s
    TrafficComponent hot;
    hot.region = "a";
    hot.weight = 0.9;
    hot.writeFraction = 0.0;
    hot.burstLines = 2;
    hot.pattern = std::make_unique<UniformPattern>(4_MiB);
    w->addComponent(std::move(hot));
    TrafficComponent grow;
    grow.region = "b";
    grow.weight = 0.1;
    grow.writeFraction = 1.0;
    grow.burstLines = 4;
    grow.pattern = std::make_unique<UniformPattern>(2_MiB);
    grow.trackGrowth = true;
    w->addComponent(std::move(grow));
    return w;
}

TEST(ComposedWorkload, SetupCreatesRegions)
{
    TieredMemory mem(TierConfig::dram(64_MiB),
                     TierConfig::slow(64_MiB));
    AddressSpace space(mem);
    auto w = tinyWorkload();
    w->setup(space);
    EXPECT_NE(space.findRegion("a"), nullptr);
    EXPECT_NE(space.findRegion("b"), nullptr);
    EXPECT_EQ(space.rssBytes(), 6_MiB);
    EXPECT_EQ(space.fileBackedBytes(), 2_MiB);
}

TEST(ComposedWorkload, SamplesLandInRegions)
{
    TieredMemory mem(TierConfig::dram(64_MiB),
                     TierConfig::slow(64_MiB));
    AddressSpace space(mem);
    auto w = tinyWorkload();
    w->setup(space);
    Rng rng(1);
    const Region *a = space.findRegion("a");
    const Region *b = space.findRegion("b");
    int in_a = 0;
    int in_b = 0;
    for (int i = 0; i < 10000; ++i) {
        const MemRef ref = w->sample(rng);
        if (ref.addr >= a->base && ref.addr < a->end()) {
            ++in_a;
            EXPECT_EQ(ref.burstLines, 2u);
            EXPECT_EQ(ref.type, AccessType::Read);
        } else if (ref.addr >= b->base && ref.addr < b->end()) {
            ++in_b;
            EXPECT_EQ(ref.burstLines, 4u);
            EXPECT_EQ(ref.type, AccessType::Write);
        } else {
            FAIL() << "sample outside any region";
        }
    }
    EXPECT_NEAR(in_a, 9000, 300);
    EXPECT_NEAR(in_b, 1000, 300);
}

TEST(ComposedWorkload, SamplesAreLineAligned)
{
    TieredMemory mem(TierConfig::dram(64_MiB),
                     TierConfig::slow(64_MiB));
    AddressSpace space(mem);
    auto w = tinyWorkload();
    w->setup(space);
    Rng rng(2);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(w->sample(rng).addr % 64, 0u);
    }
}

TEST(ComposedWorkload, GrowthFollowsRate)
{
    TieredMemory mem(TierConfig::dram(64_MiB),
                     TierConfig::slow(64_MiB));
    AddressSpace space(mem);
    auto w = tinyWorkload();
    w->setup(space);
    // 5s at 1.0e6 bytes/s = 5.0e6 bytes, quantized to 2MB chunks
    // for a THP region: exactly two chunks mapped.
    w->advance(5 * kNsPerSec, space);
    EXPECT_EQ(space.findRegion("b")->mappedBytes, 2_MiB + 4_MiB);
}

TEST(ComposedWorkload, GrowthStopsAtReservation)
{
    TieredMemory mem(TierConfig::dram(64_MiB),
                     TierConfig::slow(64_MiB));
    AddressSpace space(mem);
    auto w = tinyWorkload();
    w->setup(space);
    w->advance(60 * kNsPerSec, space); // would be 60MB; capped at 8
    EXPECT_EQ(space.findRegion("b")->mappedBytes, 8_MiB);
    // Further advances must not die.
    w->advance(120 * kNsPerSec, space);
    EXPECT_EQ(space.findRegion("b")->mappedBytes, 8_MiB);
}

TEST(ComposedWorkload, TrackGrowthSamplesReachNewPages)
{
    TieredMemory mem(TierConfig::dram(64_MiB),
                     TierConfig::slow(64_MiB));
    AddressSpace space(mem);
    auto w = tinyWorkload();
    w->setup(space);
    w->advance(6 * kNsPerSec, space);
    const Region *b = space.findRegion("b");
    Rng rng(3);
    bool reached_growth = false;
    for (int i = 0; i < 20000; ++i) {
        const MemRef ref = w->sample(rng);
        if (ref.addr >= b->base + 2_MiB && ref.addr < b->end()) {
            reached_growth = true;
            break;
        }
    }
    EXPECT_TRUE(reached_growth);
}

TEST(ComposedWorkload, InitialFootprintHelpers)
{
    auto w = tinyWorkload();
    EXPECT_EQ(w->initialRssBytes(), 6_MiB);
    EXPECT_EQ(w->initialFileBytes(), 2_MiB);
}

/** Table 2 footprints for all six applications. */
struct FootprintCase
{
    const char *name;
    double rss_gb;       // paper Table 2
    double file_mb;
};

class CloudAppFootprint
    : public ::testing::TestWithParam<FootprintCase>
{
};

TEST_P(CloudAppFootprint, MatchesTable2)
{
    const FootprintCase &c = GetParam();
    auto w = makeWorkload(c.name);
    const double rss_gb =
        static_cast<double>(w->initialRssBytes()) / (1ULL << 30);
    EXPECT_NEAR(rss_gb, c.rss_gb, c.rss_gb * 0.12)
        << c.name << " RSS off Table 2";
    const double file_mb =
        static_cast<double>(w->initialFileBytes()) / (1ULL << 20);
    EXPECT_NEAR(file_mb, c.file_mb, c.file_mb * 0.15 + 2.0)
        << c.name << " file-mapped off Table 2";
}

INSTANTIATE_TEST_SUITE_P(
    Table2, CloudAppFootprint,
    ::testing::Values(
        FootprintCase{"aerospike", 12.3, 5.0},
        FootprintCase{"cassandra", 8.0, 4096.0},
        FootprintCase{"mysql-tpcc", 6.0, 3584.0},
        FootprintCase{"redis", 17.2, 1.0},
        FootprintCase{"in-memory-analytics", 4.3, 1.0},
        FootprintCase{"web-search", 2.28, 86.0}));

TEST(CloudApps, AllNamesConstruct)
{
    for (const std::string &name : allWorkloadNames()) {
        auto w = makeWorkload(name);
        ASSERT_NE(w, nullptr);
        EXPECT_EQ(w->name(), name);
        EXPECT_GT(w->memRefRate(), 0.0);
        EXPECT_GT(w->cpuWorkFraction(), 0.0);
        EXPECT_LT(w->cpuWorkFraction(), 1.0);
        EXPECT_GT(w->naturalDuration(), 0u);
    }
}

TEST(CloudApps, UnknownNameIsFatal)
{
    EXPECT_EXIT((void)makeWorkload("nosuchapp"),
                ::testing::ExitedWithCode(1), "unknown workload");
}

TEST(CloudApps, RedisSamplesStayInHeap)
{
    TieredMemory mem = bigMemory();
    AddressSpace space(mem);
    auto w = makeRedis();
    w->setup(space);
    Rng rng(4);
    for (int i = 0; i < 5000; ++i) {
        const MemRef ref = w->sample(rng);
        bool inside = false;
        for (const Region &region : space.regions()) {
            inside |= ref.addr >= region.base &&
                      ref.addr < region.end();
        }
        EXPECT_TRUE(inside);
    }
}

TEST(CloudApps, YcsbMixChangesWriteFraction)
{
    TieredMemory mem = bigMemory();
    AddressSpace space(mem);
    auto reads = makeAerospike(YcsbMix::ReadHeavy, 1);
    reads->setup(space);
    Rng rng(5);
    int writes = 0;
    for (int i = 0; i < 5000; ++i) {
        writes +=
            reads->sample(rng).type == AccessType::Write ? 1 : 0;
    }
    EXPECT_LT(writes, 1000); // ~5% writes on the main zones
}

TEST(CloudApps, AnalyticsGrowsOverRun)
{
    TieredMemory mem = bigMemory();
    AddressSpace space(mem);
    auto w = makeInMemAnalytics();
    w->setup(space);
    const std::uint64_t start = space.rssBytes();
    w->advance(300 * kNsPerSec, space);
    const std::uint64_t end = space.rssBytes();
    EXPECT_GT(end, start + 1'000_MiB);
    // Peak heap ~6.2GB per Table 2.
    EXPECT_NEAR(static_cast<double>(end) / (1ULL << 30), 6.1, 0.4);
}

/**
 * Draw @p blocks blocks of @p block references through the staged
 * pair -- Workload::draw for the whole block, then resolve() on each
 * -- and as many through sample() on a twin built the same way,
 * advancing both by @p step before each block.  Every reference
 * must match exactly and both Rng streams must end aligned: staging
 * may not change a bit of the reference stream.  Returns the number
 * of references compared.
 */
std::uint64_t
expectStagedMatchesSample(
    const std::function<std::unique_ptr<Workload>()> &make, int blocks,
    std::size_t block, Ns step)
{
    TieredMemory mem_staged = bigMemory();
    TieredMemory mem_twin = bigMemory();
    AddressSpace space_staged(mem_staged);
    AddressSpace space_twin(mem_twin);
    const std::unique_ptr<Workload> staged = make();
    const std::unique_ptr<Workload> twin = make();
    staged->setup(space_staged);
    twin->setup(space_twin);
    Rng rng_staged(11);
    Rng rng_twin(11);
    std::vector<StagedRef> drawn(block);
    std::vector<MemRef> resolved(block);
    std::uint64_t compared = 0;
    for (int b = 0; b < blocks; ++b) {
        const Ns now = static_cast<Ns>(b) * step;
        staged->advance(now, space_staged);
        twin->advance(now, space_twin);
        staged->draw(rng_staged, drawn.data(), block);
        staged->resolve(drawn.data(), resolved.data(), block);
        for (std::size_t i = 0; i < block; ++i) {
            const MemRef want = twin->sample(rng_twin);
            const MemRef &got = resolved[i];
            EXPECT_EQ(got.addr, want.addr)
                << staged->name() << " block " << b << " ref " << i;
            EXPECT_EQ(got.type, want.type)
                << staged->name() << " block " << b << " ref " << i;
            EXPECT_EQ(got.burstLines, want.burstLines)
                << staged->name() << " block " << b << " ref " << i;
            if (::testing::Test::HasFailure()) {
                return compared;
            }
            ++compared;
        }
    }
    EXPECT_EQ(rng_staged.next(), rng_twin.next()) << staged->name();
    return compared;
}

// Every application (and the bursty Redis variant), 204,800
// references each over 240 simulated seconds:
// Cassandra's memtable and the analytics heap grow, and Redis's
// rotating zone changes phase eight times.
TEST(StagedDraw, MatchesSampleForEveryApp)
{
    std::vector<std::function<std::unique_ptr<Workload>()>> apps;
    for (const std::string &name : allWorkloadNames()) {
        apps.emplace_back([name] { return makeWorkload(name, 3); });
    }
    apps.emplace_back([] { return makeRedisBursty(3); });
    for (const auto &make : apps) {
        EXPECT_EQ(expectStagedMatchesSample(make, 25, 8192,
                                            10 * kNsPerSec),
                  25u * 8192u);
    }
}

/** One component per pattern kind, sized so the scan wraps often,
 *  the window tracks growth and the phase shift turns over. */
std::unique_ptr<Workload>
everyPatternWorkload()
{
    auto w = std::make_unique<ComposedWorkload>("every-pattern", 1.0e6,
                                                0.5, 60 * kNsPerSec);
    w->addRegion({"flat", 64_MiB, 0, true, false});
    w->addRegion({"log", 8_MiB, 64_MiB, true, false});
    w->addGrowth({"log", 2.0e6});
    const auto add = [&w](const char *region, double weight,
                          std::unique_ptr<AccessPattern> pattern,
                          bool track_growth = false) {
        TrafficComponent c;
        c.region = region;
        c.weight = weight;
        c.writeFraction = 0.4;
        c.burstLines = 2;
        c.pattern = std::move(pattern);
        c.trackGrowth = track_growth;
        w->addComponent(std::move(c));
    };
    add("flat", 1.0, std::make_unique<UniformPattern>(3_MiB + 12345));
    // 192-byte objects: a non-power-of-two line bound.
    add("flat", 1.0,
        std::make_unique<ZipfianPattern>(8_MiB, 192, 0.8, true, 5));
    add("flat", 1.0,
        std::make_unique<ZipfianPattern>(8_MiB, 4096, 0.6, false, 6));
    add("flat", 1.0,
        std::make_unique<OffsetPattern>(
            16_MiB, std::make_unique<HotspotPattern>(
                        6_MiB + 320, 320, 0.01, 0.9, true, 7)));
    add("flat", 0.5,
        std::make_unique<SequentialScanPattern>(256_KiB, 4096));
    add("flat", 1.0,
        std::make_unique<PhaseShiftPattern>(
            std::make_unique<ZipfianPattern>(4_MiB, 1024, 0.7, true, 8),
            5 * kNsPerSec, 1_MiB, 16_MiB));
    add("log", 1.0,
        std::make_unique<RecentWindowPattern>(8_MiB, 2_MiB), true);
    return w;
}

TEST(StagedDraw, MatchesSampleForEveryPatternKind)
{
    const std::uint64_t compared = expectStagedMatchesSample(
        everyPatternWorkload, 25, 8192, 3 * kNsPerSec);
    EXPECT_EQ(compared, 25u * 8192u);
}

// A workload that overrides only sample() keeps its serial draw: the
// default serial stage runs sample() and resolve() copies it out.
TEST(StagedDraw, SampleOnlyWorkloadsUseTheDefaultPair)
{
    const std::uint64_t compared = expectStagedMatchesSample(
        [] {
            return std::make_unique<RecordingWorkload>(
                makeWorkload("redis", 4));
        },
        4, 4096, 30 * kNsPerSec);
    EXPECT_EQ(compared, 4u * 4096u);
}

} // namespace
} // namespace thermostat
