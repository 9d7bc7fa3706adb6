/**
 * @file
 * Tests for the last-level cache model.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/llc.hh"
#include "common/rng.hh"

namespace thermostat
{
namespace
{

LlcConfig
tinyConfig()
{
    LlcConfig config;
    config.sizeBytes = 64 * 1024; // 1024 lines
    config.lineSize = 64;
    config.ways = 4;
    return config;
}

TEST(Llc, MissThenHit)
{
    LastLevelCache llc(tinyConfig());
    EXPECT_FALSE(llc.access(0x1000, AccessType::Read));
    EXPECT_TRUE(llc.access(0x1000, AccessType::Read));
    EXPECT_EQ(llc.stats().hits, 1u);
    EXPECT_EQ(llc.stats().misses, 1u);
}

TEST(Llc, SameLineDifferentBytesHit)
{
    LastLevelCache llc(tinyConfig());
    (void)llc.access(0x1000, AccessType::Read);
    EXPECT_TRUE(llc.access(0x1030, AccessType::Read));
}

TEST(Llc, DifferentLinesMissIndependently)
{
    LastLevelCache llc(tinyConfig());
    (void)llc.access(0x1000, AccessType::Read);
    EXPECT_FALSE(llc.access(0x1040, AccessType::Read));
}

TEST(Llc, LruEvictionWithinSet)
{
    LlcConfig config = tinyConfig();
    LastLevelCache llc(config);
    const unsigned sets = static_cast<unsigned>(
        config.sizeBytes / config.lineSize / config.ways);
    const Addr stride = static_cast<Addr>(sets) * config.lineSize;
    // Fill one set (4 ways), then touch line 0 and insert a fifth.
    for (Addr i = 0; i < 4; ++i) {
        (void)llc.access(i * stride, AccessType::Read);
    }
    EXPECT_TRUE(llc.access(0, AccessType::Read));
    (void)llc.access(4 * stride, AccessType::Read);
    EXPECT_TRUE(llc.access(0, AccessType::Read));
    EXPECT_FALSE(llc.access(stride, AccessType::Read))
        << "LRU line should have been evicted";
}

TEST(Llc, DirtyEvictionCountsWriteback)
{
    LlcConfig config = tinyConfig();
    LastLevelCache llc(config);
    const unsigned sets = static_cast<unsigned>(
        config.sizeBytes / config.lineSize / config.ways);
    const Addr stride = static_cast<Addr>(sets) * config.lineSize;
    (void)llc.access(0, AccessType::Write);
    for (Addr i = 1; i <= 4; ++i) {
        (void)llc.access(i * stride, AccessType::Read);
    }
    EXPECT_EQ(llc.stats().writebacks, 1u);
}

TEST(Llc, FlushAllEmptiesCache)
{
    LastLevelCache llc(tinyConfig());
    (void)llc.access(0x2000, AccessType::Read);
    llc.flushAll();
    EXPECT_FALSE(llc.contains(0x2000));
    EXPECT_FALSE(llc.access(0x2000, AccessType::Read));
}

TEST(Llc, InvalidateFramesDropsOnlyThatFrame)
{
    LastLevelCache llc(tinyConfig());
    (void)llc.access(5 * kPageSize4K, AccessType::Read);
    (void)llc.access(6 * kPageSize4K, AccessType::Read);
    llc.invalidateFrames(5, 1);
    EXPECT_FALSE(llc.contains(5 * kPageSize4K));
    EXPECT_TRUE(llc.contains(6 * kPageSize4K));
}

/**
 * Property check of invalidateFrames against a per-line reference:
 * the lines of [first, first + count) frames that were resident are
 * gone, and every other line's residency is unchanged.  Physical
 * memory under test is the 2MB frames [kBaseHuge, kBaseHuge + 3).
 */
constexpr Pfn kBaseHuge = 4;
constexpr Pfn kWindowFirst = kBaseHuge * kSubpagesPerHuge;
constexpr Pfn kWindowFrames = 3 * kSubpagesPerHuge;

template <typename Cache>
std::vector<bool>
residency(const Cache &cache)
{
    std::vector<bool> resident;
    const Addr lo = kWindowFirst * kPageSize4K;
    const Addr hi = (kWindowFirst + kWindowFrames) * kPageSize4K;
    for (Addr paddr = lo; paddr < hi; paddr += 64) {
        resident.push_back(cache.contains(paddr));
    }
    return resident;
}

/** The fill filter never hides a resident line of the window. */
void
expectFilterCovers(const LastLevelCache &cache)
{
    const Addr lo = kWindowFirst * kPageSize4K;
    const Addr hi = (kWindowFirst + kWindowFrames) * kPageSize4K;
    for (Addr paddr = lo; paddr < hi; paddr += 64) {
        if (cache.contains(paddr)) {
            ASSERT_TRUE(cache.mayHoldFrame(paddr >> kPageShift4K))
                << "resident line " << paddr << " filtered out";
        }
    }
}

void
expectFilterCovers(const LlcShards &llc)
{
    for (unsigned lane = 0; lane < kMachineLanes; ++lane) {
        expectFilterCovers(llc.lane(lane));
    }
}

/**
 * Invalidate [first, first + count) in @p cache and compare with the
 * reference.  @return how many resident lines the range held.
 */
template <typename Cache>
unsigned
checkAgainstReference(Cache &cache, Pfn first, unsigned count)
{
    std::vector<bool> expected = residency(cache);
    const Addr lo = kWindowFirst * kPageSize4K;
    unsigned dropped = 0;
    for (Pfn pfn = first; pfn < first + count; ++pfn) {
        for (Addr paddr = pfn * kPageSize4K;
             paddr < (pfn + 1) * kPageSize4K; paddr += 64) {
            dropped += expected[(paddr - lo) / 64] ? 1 : 0;
            expected[(paddr - lo) / 64] = false;
        }
    }
    cache.invalidateFrames(first, count);
    EXPECT_EQ(residency(cache), expected)
        << "first " << first << " count " << count;
    expectFilterCovers(cache);
    return dropped;
}

/** Ranges: counts 1, 7 and 512 at random offsets, two that
 *  straddle the boundary between the first two 2MB frames, and one
 *  whole aligned 2MB frame. */
std::vector<std::pair<Pfn, unsigned>>
testRanges(Rng &rng)
{
    const Pfn boundary = kWindowFirst + kSubpagesPerHuge;
    std::vector<std::pair<Pfn, unsigned>> ranges;
    for (const unsigned count : {1u, 7u, 512u}) {
        ranges.emplace_back(
            kWindowFirst + rng.nextBounded(kWindowFrames - count + 1),
            count);
    }
    ranges.emplace_back(boundary - 3, 7);
    ranges.emplace_back(boundary - 200, 512);
    ranges.emplace_back(kWindowFirst + 2 * kSubpagesPerHuge, 512);
    return ranges;
}

/** A random line of the window; every other draw lands in the
 *  frames [first, first + count) about to be invalidated. */
Addr
randomLine(Rng &rng, Pfn first, unsigned count)
{
    if (rng.nextBounded(2) == 0) {
        return first * kPageSize4K +
               (rng.nextBounded(count * kPageSize4K) & ~Addr{63});
    }
    return kWindowFirst * kPageSize4K +
           (rng.nextBounded(kWindowFrames * kPageSize4K) & ~Addr{63});
}

TEST(LlcInvalidateFrames, MatchesPerLineReference)
{
    // 256 sets: count 1 (64 lines) takes the per-line probe, counts
    // 7 and 512 the tag-array pass.
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Rng rng(seed);
        LastLevelCache llc(tinyConfig());
        for (const auto &[first, count] : testRanges(rng)) {
            for (int i = 0; i < 3000; ++i) {
                (void)llc.access(randomLine(rng, first, count),
                                 (i & 3) == 0 ? AccessType::Write
                                              : AccessType::Read);
            }
            EXPECT_GT(checkAgainstReference(llc, first, count), 0u);
        }
    }
}

TEST(LlcInvalidateFrames, ShardsMatchPerLineReference)
{
    // 8MB over 8 lanes: 4096 sets per slice, so counts 1 and 7 probe
    // per line and 512 makes the pass.  Lines land in random lanes,
    // not only the lane a mapping would own.
    LlcConfig config = tinyConfig();
    config.sizeBytes = 8ULL << 20;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Rng rng(seed);
        LlcShards llc(config);
        for (const auto &[first, count] : testRanges(rng)) {
            for (int i = 0; i < 20000; ++i) {
                const auto lane = static_cast<unsigned>(
                    rng.nextBounded(kMachineLanes));
                (void)llc.access(lane, randomLine(rng, first, count),
                                 AccessType::Read);
            }
            EXPECT_GT(checkAgainstReference(llc, first, count), 0u);
        }
    }
}

TEST(LlcInvalidateFrames, NeverFilledFrameIsNoOp)
{
    LastLevelCache llc(tinyConfig());
    Rng rng(9);
    for (int i = 0; i < 3000; ++i) {
        (void)llc.access(randomLine(rng, kWindowFirst, 1),
                         AccessType::Write);
    }
    const std::vector<bool> before = residency(llc);
    const LlcStats stats = llc.stats();
    const Pfn elsewhere = 64 * kSubpagesPerHuge;
    EXPECT_FALSE(llc.mayHoldFrame(elsewhere));
    llc.invalidateFrames(elsewhere, kSubpagesPerHuge);
    llc.invalidateFrames(elsewhere + 3, 1);
    EXPECT_EQ(residency(llc), before);
    EXPECT_EQ(llc.stats().hits, stats.hits);
    EXPECT_EQ(llc.stats().misses, stats.misses);
    EXPECT_EQ(llc.stats().writebacks, stats.writebacks);
}

TEST(LlcInvalidateFrames, ClearsLineInNonOwningSlice)
{
    LlcShards llc(tinyConfig());
    const Addr vaddr = 0x7f0000000000;
    const unsigned owner = laneOf(vaddr);
    const unsigned other = (owner + 3) % kMachineLanes;
    const Pfn pfn = kWindowFirst + 17;
    (void)llc.access(owner, pfn * kPageSize4K, AccessType::Read);
    (void)llc.access(other, pfn * kPageSize4K + 128,
                     AccessType::Write);
    ASSERT_TRUE(llc.lane(other).contains(pfn * kPageSize4K + 128));
    llc.invalidateFrames(pfn, 1);
    EXPECT_FALSE(llc.contains(pfn * kPageSize4K));
    EXPECT_FALSE(llc.contains(pfn * kPageSize4K + 128));
}

TEST(LlcInvalidateFrames, FilterTracksWholeFrameDrops)
{
    LastLevelCache llc(tinyConfig());
    const Pfn huge = kWindowFirst;
    EXPECT_FALSE(llc.mayHoldFrame(huge));
    (void)llc.access((huge + 9) * kPageSize4K, AccessType::Read);
    EXPECT_TRUE(llc.mayHoldFrame(huge + 511));
    // A partial drop leaves the bit set (conservative) ...
    llc.invalidateFrames(huge, 7);
    EXPECT_TRUE(llc.mayHoldFrame(huge));
    // ... a whole aligned 2MB drop clears it.
    llc.invalidateFrames(huge, kSubpagesPerHuge);
    EXPECT_FALSE(llc.mayHoldFrame(huge));
    // Ranges straddling into the frame from either side do not
    // cover it.
    (void)llc.access(huge * kPageSize4K, AccessType::Read);
    (void)llc.access((huge + 511) * kPageSize4K, AccessType::Read);
    llc.invalidateFrames(huge - 1, kSubpagesPerHuge);
    EXPECT_TRUE(llc.mayHoldFrame(huge));
    EXPECT_TRUE(llc.contains((huge + 511) * kPageSize4K));
    (void)llc.access(huge * kPageSize4K, AccessType::Read);
    llc.invalidateFrames(huge + 1, kSubpagesPerHuge);
    EXPECT_TRUE(llc.mayHoldFrame(huge));
    EXPECT_TRUE(llc.contains(huge * kPageSize4K));
}

TEST(LlcInvalidateFrames, FlushAllResetsFilter)
{
    LastLevelCache llc(tinyConfig());
    (void)llc.access(kWindowFirst * kPageSize4K, AccessType::Read);
    (void)llc.access((kWindowFirst + kSubpagesPerHuge) * kPageSize4K,
                     AccessType::Read);
    llc.flushAll();
    EXPECT_FALSE(llc.mayHoldFrame(kWindowFirst));
    EXPECT_FALSE(llc.mayHoldFrame(kWindowFirst + kSubpagesPerHuge));
    // Refilling after the flush sets the bit again.
    (void)llc.access(kWindowFirst * kPageSize4K, AccessType::Read);
    EXPECT_TRUE(llc.mayHoldFrame(kWindowFirst));
    llc.invalidateFrames(kWindowFirst, 1);
    EXPECT_FALSE(llc.contains(kWindowFirst * kPageSize4K));
}

TEST(Llc, ContainsDoesNotPerturb)
{
    LastLevelCache llc(tinyConfig());
    (void)llc.access(0x3000, AccessType::Read);
    const auto hits = llc.stats().hits;
    EXPECT_TRUE(llc.contains(0x3000));
    EXPECT_FALSE(llc.contains(0x4000));
    EXPECT_EQ(llc.stats().hits, hits);
}

TEST(Llc, FrameMissTrackingWhenEnabled)
{
    LlcConfig config = tinyConfig();
    config.trackFrameMisses = true;
    LastLevelCache llc(config);
    // Two misses within the first 2MB region.
    (void)llc.access(0x0, AccessType::Read);
    (void)llc.access(kPageSize4K, AccessType::Read);
    // One miss in the second 2MB region.
    (void)llc.access(kPageSize2M, AccessType::Read);
    EXPECT_EQ(llc.frameMisses(0), 2u);
    EXPECT_EQ(llc.frameMisses(kSubpagesPerHuge), 1u);
    llc.clearFrameMisses();
    EXPECT_EQ(llc.frameMisses(0), 0u);
}

TEST(Llc, FrameMissTrackingDisabledByDefault)
{
    LastLevelCache llc(tinyConfig());
    (void)llc.access(0x0, AccessType::Read);
    EXPECT_EQ(llc.frameMisses(0), 0u);
}

TEST(Llc, ResetStats)
{
    LastLevelCache llc(tinyConfig());
    (void)llc.access(0x0, AccessType::Read);
    llc.resetStats();
    EXPECT_EQ(llc.stats().misses, 0u);
}

TEST(Llc, MissRatio)
{
    LastLevelCache llc(tinyConfig());
    (void)llc.access(0, AccessType::Read);
    (void)llc.access(0, AccessType::Read);
    (void)llc.access(0, AccessType::Read);
    EXPECT_NEAR(llc.stats().missRatio(), 1.0 / 3.0, 1e-12);
}

TEST(LlcDeath, BadGeometryPanics)
{
    LlcConfig config;
    config.sizeBytes = 1000;
    config.lineSize = 64;
    config.ways = 7;
    EXPECT_DEATH(LastLevelCache{config}, "");
}

TEST(LlcDeath, NonPowerOfTwoLinePanics)
{
    LlcConfig config = tinyConfig();
    config.lineSize = 48;
    config.sizeBytes = 48 * 1024;
    EXPECT_DEATH(LastLevelCache{config}, "power of two");
}

} // namespace
} // namespace thermostat
