/**
 * @file
 * Tests for reference-trace capture and replay.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>

#include "sim/simulation.hh"
#include "workload/trace.hh"

namespace thermostat
{
namespace
{

std::unique_ptr<ComposedWorkload>
smallWorkload()
{
    auto w = std::make_unique<ComposedWorkload>("small", 100.0e3,
                                                0.6,
                                                120 * kNsPerSec);
    w->addRegion({"heap", 8_MiB, 0, true, false});
    w->addRegion({"cache", 2_MiB, 0, false, true});
    TrafficComponent c;
    c.region = "heap";
    c.weight = 0.8;
    c.writeFraction = 0.25;
    c.burstLines = 4;
    c.pattern = std::make_unique<UniformPattern>(8_MiB);
    w->addComponent(std::move(c));
    TrafficComponent d;
    d.region = "cache";
    d.weight = 0.2;
    d.writeFraction = 0.0;
    d.burstLines = 2;
    d.pattern = std::make_unique<UniformPattern>(2_MiB);
    w->addComponent(std::move(d));
    return w;
}

std::string
tracePath(const char *name)
{
    return ::testing::TempDir() + name;
}

class TraceTest : public ::testing::Test
{
  protected:
    TraceTest()
        : memory_(TierConfig::dram(64_MiB),
                  TierConfig::slow(64_MiB)),
          space_(memory_)
    {
    }

    TieredMemory memory_;
    AddressSpace space_;
};

TEST_F(TraceTest, RecordPassesThroughUnchanged)
{
    RecordingWorkload recorder(smallWorkload());
    auto reference = smallWorkload();
    TieredMemory mem2(TierConfig::dram(64_MiB),
                      TierConfig::slow(64_MiB));
    AddressSpace space2(mem2);
    recorder.setup(space_);
    reference->setup(space2);
    Rng a(5);
    Rng b(5);
    for (int i = 0; i < 500; ++i) {
        const MemRef x = recorder.sample(a);
        const MemRef y = reference->sample(b);
        ASSERT_EQ(x.addr, y.addr);
        ASSERT_EQ(x.type, y.type);
        ASSERT_EQ(x.burstLines, y.burstLines);
    }
    EXPECT_EQ(recorder.recordedCount(), 500u);
    EXPECT_EQ(recorder.name(), "small");
    EXPECT_DOUBLE_EQ(recorder.memRefRate(), 100.0e3);
}

TEST_F(TraceTest, SaveLoadRoundTrip)
{
    RecordingWorkload recorder(smallWorkload());
    recorder.setup(space_);
    Rng rng(7);
    std::vector<MemRef> originals;
    for (int i = 0; i < 300; ++i) {
        originals.push_back(recorder.sample(rng));
    }
    const std::string path = tracePath("roundtrip.trace");
    ASSERT_TRUE(recorder.save(path));

    auto replay = TraceWorkload::load(path);
    ASSERT_NE(replay, nullptr);
    EXPECT_EQ(replay->name(), "small");
    EXPECT_EQ(replay->entryCount(), 300u);
    EXPECT_DOUBLE_EQ(replay->memRefRate(), 100.0e3);
    EXPECT_DOUBLE_EQ(replay->cpuWorkFraction(), 0.6);
    EXPECT_EQ(replay->naturalDuration(), 120 * kNsPerSec);
    ASSERT_EQ(replay->regions().size(), 2u);
    EXPECT_EQ(replay->regions()[0].name, "heap");
    EXPECT_EQ(replay->regions()[1].fileBacked, true);

    // Replay in a fresh address space: identical layout, identical
    // reference stream.
    TieredMemory mem2(TierConfig::dram(64_MiB),
                      TierConfig::slow(64_MiB));
    AddressSpace space2(mem2);
    replay->setup(space2);
    EXPECT_EQ(space2.rssBytes(), space_.rssBytes());
    Rng unused(1);
    for (int i = 0; i < 300; ++i) {
        const MemRef ref = replay->sample(unused);
        EXPECT_EQ(ref.addr, originals[static_cast<std::size_t>(i)]
                                .addr);
        EXPECT_EQ(ref.type, originals[static_cast<std::size_t>(i)]
                                .type);
    }
}

TEST_F(TraceTest, ReplayWrapsAround)
{
    RecordingWorkload recorder(smallWorkload());
    recorder.setup(space_);
    Rng rng(9);
    const MemRef first = recorder.sample(rng);
    (void)recorder.sample(rng);
    const std::string path = tracePath("wrap.trace");
    ASSERT_TRUE(recorder.save(path));
    auto replay = TraceWorkload::load(path);
    ASSERT_NE(replay, nullptr);
    Rng unused(1);
    (void)replay->sample(unused);
    (void)replay->sample(unused);
    EXPECT_EQ(replay->sample(unused).addr, first.addr);
}

TEST_F(TraceTest, ReplayedAddressesAreMapped)
{
    RecordingWorkload recorder(smallWorkload());
    recorder.setup(space_);
    Rng rng(11);
    for (int i = 0; i < 200; ++i) {
        (void)recorder.sample(rng);
    }
    const std::string path = tracePath("mapped.trace");
    ASSERT_TRUE(recorder.save(path));
    auto replay = TraceWorkload::load(path);
    ASSERT_NE(replay, nullptr);
    TieredMemory mem2(TierConfig::dram(64_MiB),
                      TierConfig::slow(64_MiB));
    AddressSpace space2(mem2);
    replay->setup(space2);
    Rng unused(1);
    for (int i = 0; i < 200; ++i) {
        EXPECT_TRUE(
            space2.pageTable().walk(replay->sample(unused).addr)
                .mapped());
    }
}

TEST_F(TraceTest, ReplayRelocatesToTheSpaceBase)
{
    // A host tenant's address window starts above the default base;
    // the replayed references must follow the regions there.
    RecordingWorkload recorder(smallWorkload());
    recorder.setup(space_);
    Rng rng(17);
    std::vector<Addr> recorded;
    for (int i = 0; i < 200; ++i) {
        recorded.push_back(recorder.sample(rng).addr);
    }
    const std::string path = tracePath("relocated.trace");
    ASSERT_TRUE(recorder.save(path));
    auto replay = TraceWorkload::load(path);
    ASSERT_NE(replay, nullptr);
    TieredMemory mem2(TierConfig::dram(64_MiB),
                      TierConfig::slow(64_MiB));
    const Addr window = Addr{1} << 40;
    AddressSpace space2(mem2, true, window);
    replay->setup(space2);
    Rng unused(1);
    for (const Addr addr : recorded) {
        const Addr replayed = replay->sample(unused).addr;
        EXPECT_EQ(replayed, addr - kFirstRegionBase + window);
        EXPECT_TRUE(space2.pageTable().walk(replayed).mapped());
    }
}

TEST(TraceSimulation, ReplayDrivesThermostat)
{
    // Record a half-cold stream, then run Thermostat over the
    // replay: the cold half must still be found.
    auto w = std::make_unique<ComposedWorkload>(
        "half-cold-trace", 150.0e3, 0.7, 200 * kNsPerSec);
    w->addRegion({"data", 32_MiB, 0, true, false});
    TrafficComponent hot;
    hot.region = "data";
    hot.weight = 1.0;
    hot.burstLines = 4;
    hot.pattern = std::make_unique<UniformPattern>(16_MiB);
    w->addComponent(std::move(hot));

    TieredMemory mem(TierConfig::dram(128_MiB),
                     TierConfig::slow(128_MiB));
    AddressSpace space(mem);
    RecordingWorkload recorder(std::move(w));
    recorder.setup(space);
    Rng rng(3);
    for (int i = 0; i < 50000; ++i) {
        (void)recorder.sample(rng);
    }
    const std::string path =
        ::testing::TempDir() + "halfcold.trace";
    ASSERT_TRUE(recorder.save(path));

    auto replay = TraceWorkload::load(path);
    ASSERT_NE(replay, nullptr);
    SimConfig config;
    config.samplesPerEpoch = 2000;
    config.profileWeight = 5;
    config.machine.fastTier = TierConfig::dram(128_MiB);
    config.machine.slowTier = TierConfig::slow(128_MiB);
    config.machine.llc.sizeBytes = 1_MiB;
    config.params.sampleFraction = 0.25;
    config.duration = 150 * kNsPerSec;
    Simulation sim(std::move(replay), config);
    const SimResult r = sim.run();
    EXPECT_GT(r.finalColdFraction, 0.3);
    EXPECT_LT(r.slowdown, 0.02);
}

TEST(TraceIo, LoadMissingFileFails)
{
    std::string error;
    EXPECT_EQ(TraceWorkload::load("/nonexistent.trace", &error),
              nullptr);
    // The diagnostic names the path and carries the errno text.
    EXPECT_NE(error.find("/nonexistent.trace"), std::string::npos)
        << error;
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(TraceIo, LoadGarbageFails)
{
    const std::string path =
        ::testing::TempDir() + "garbage.trace";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a trace", f);
    std::fclose(f);
    std::string error;
    EXPECT_EQ(TraceWorkload::load(path, &error), nullptr);
    EXPECT_NE(error.find(path), std::string::npos) << error;
}

// ---------------------------------------------------------------
// Untrusted trace files: every malformation is a load error (a
// diagnostic and nullptr), never an allocation failure or a panic.
// ---------------------------------------------------------------

/** On-disk header offsets (TraceHeader in src/workload/trace.cc). */
constexpr std::size_t kRegionCountAt = 8;
constexpr std::size_t kNameLengthAt = 12;
constexpr std::size_t kEntryCountAt = 16;
constexpr std::size_t kRateAt = 24;
constexpr std::size_t kCpuFractionAt = 32;
constexpr std::size_t kHeaderBytes = 48;
/** First region record: bytes, reserve, name length (u32). */
constexpr std::size_t kRegionBytesAt = kHeaderBytes + 5;
constexpr std::size_t kRegionNameLengthAt = kRegionBytesAt + 16;

/** The bytes of a valid trace of smallWorkload() ("small"). */
std::string
validTraceBytes()
{
    TieredMemory memory(TierConfig::dram(64_MiB),
                        TierConfig::slow(64_MiB));
    AddressSpace space(memory);
    RecordingWorkload recorder(smallWorkload());
    recorder.setup(space);
    Rng rng(13);
    for (int i = 0; i < 50; ++i) {
        (void)recorder.sample(rng);
    }
    const std::string path = tracePath("valid.trace");
    EXPECT_TRUE(recorder.save(path));
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

template <typename T>
void
patch(std::string &bytes, std::size_t offset, T value)
{
    ASSERT_LE(offset + sizeof(T), bytes.size());
    std::memcpy(&bytes[offset], &value, sizeof(T));
}

/** Load @p bytes from a file; the load must fail.  Returns why. */
std::string
loadFailure(const std::string &bytes)
{
    const std::string path = tracePath("malformed.trace");
    {
        std::ofstream out(path, std::ios::binary);
        out << bytes;
    }
    std::string error;
    EXPECT_EQ(TraceWorkload::load(path, &error), nullptr);
    EXPECT_NE(error.find(path), std::string::npos) << error;
    return error;
}

TEST(TraceIo, ValidTraceBytesLoad)
{
    const std::string path = tracePath("valid-reload.trace");
    {
        std::ofstream out(path, std::ios::binary);
        out << validTraceBytes();
    }
    auto trace = TraceWorkload::load(path);
    ASSERT_NE(trace, nullptr);
    EXPECT_EQ(trace->entryCount(), 50u);
}

TEST(TraceIo, HugeEntryCountIsTruncationNotAllocation)
{
    // A bare header claiming 2^44 entries.
    std::string bytes = validTraceBytes().substr(0, kHeaderBytes);
    patch<std::uint32_t>(bytes, kRegionCountAt, 0);
    patch<std::uint32_t>(bytes, kNameLengthAt, 0);
    patch<std::uint64_t>(bytes, kEntryCountAt, std::uint64_t{1} << 44);
    EXPECT_NE(loadFailure(bytes).find("truncated entries"),
              std::string::npos);
}

TEST(TraceIo, HugeLengthsAndCountsAreBoundedByFileSize)
{
    std::string name = validTraceBytes();
    patch<std::uint32_t>(name, kNameLengthAt, 0xffffffffu);
    EXPECT_NE(loadFailure(name).find("truncated workload name"),
              std::string::npos);

    std::string regions = validTraceBytes();
    patch<std::uint32_t>(regions, kRegionCountAt, 0xffffffffu);
    EXPECT_NE(loadFailure(regions).find("truncated region"),
              std::string::npos);

    std::string region_name = validTraceBytes();
    patch<std::uint32_t>(region_name, kRegionNameLengthAt,
                         0xffffffffu);
    EXPECT_NE(loadFailure(region_name).find("truncated region"),
              std::string::npos);

    std::string entries = validTraceBytes();
    patch<std::uint64_t>(entries, kEntryCountAt, 51);
    EXPECT_NE(loadFailure(entries).find("truncated entries"),
              std::string::npos);
}

TEST(TraceIo, ZeroEntryCountRejected)
{
    std::string bytes = validTraceBytes();
    patch<std::uint64_t>(bytes, kEntryCountAt, 0);
    EXPECT_NE(loadFailure(bytes).find("no entries"),
              std::string::npos);
}

TEST(TraceIo, NonPositiveOrNonFiniteRateRejected)
{
    for (const double rate :
         {0.0, -5.0, std::nan(""),
          std::numeric_limits<double>::infinity()}) {
        std::string bytes = validTraceBytes();
        patch<double>(bytes, kRateAt, rate);
        EXPECT_NE(loadFailure(bytes).find("reference rate"),
                  std::string::npos)
            << rate;
    }
}

TEST(TraceIo, CpuFractionOutsideUnitIntervalRejected)
{
    for (const double fraction : {-0.1, 1.5, std::nan("")}) {
        std::string bytes = validTraceBytes();
        patch<double>(bytes, kCpuFractionAt, fraction);
        EXPECT_NE(loadFailure(bytes).find("cpu work fraction"),
                  std::string::npos)
            << fraction;
    }
}

TEST(TraceIo, OversizedRegionRejected)
{
    std::string bytes = validTraceBytes();
    patch<std::uint64_t>(bytes, kRegionBytesAt, std::uint64_t{1} << 60);
    EXPECT_NE(loadFailure(bytes).find("address space"),
              std::string::npos);
}

TEST(TraceIo, EntryOutsideMappedRegionsRejected)
{
    const std::string valid = validTraceBytes();
    const std::size_t last = valid.size() - sizeof(TraceEntry);
    // Below the first region, in the guard gap past the 8MB heap,
    // and far above every region.
    for (const Addr addr : {Addr{0}, kFirstRegionBase + 8_MiB,
                            Addr{1} << 46}) {
        std::string bytes = valid;
        patch<Addr>(bytes, last, addr);
        EXPECT_NE(loadFailure(bytes).find("entry 49 outside"),
                  std::string::npos)
            << addr;
    }
}

} // namespace
} // namespace thermostat
