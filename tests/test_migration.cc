/**
 * @file
 * Tests for tier-to-tier page migration (paper Sec 3.6, Table 3).
 */

#include <gtest/gtest.h>

#include "sys/migration.hh"

namespace thermostat
{
namespace
{

class MigrationTest : public ::testing::Test
{
  protected:
    MigrationTest()
        : memory_(TierConfig::dram(64_MiB), TierConfig::slow(64_MiB)),
          space_(memory_),
          tlb_({64, 4}, {1024, 8}),
          llc_({64 * 1024, 64, 4, 30, false}),
          migrator_(space_, tlb_, &llc_)
    {
        heap_ = space_.mapRegion("heap", 8_MiB);
        conf_ = space_.mapRegion("conf", 16_KiB, 0, false);
    }

    TieredMemory memory_;
    AddressSpace space_;
    TlbShards tlb_;
    LlcShards llc_;
    PageMigrator migrator_;
    Addr heap_ = 0;
    Addr conf_ = 0;
};

TEST_F(MigrationTest, DemoteHugePage)
{
    const MigrateResult res =
        migrator_.migrate(heap_, Tier::Slow, kNsPerSec);
    EXPECT_TRUE(res.moved);
    EXPECT_GT(res.cost, 0u);
    EXPECT_EQ(space_.tierOf(heap_), Tier::Slow);
    EXPECT_EQ(migrator_.stats().hugeDemotions, 1u);
    EXPECT_EQ(migrator_.stats().bytesDemoted, kPageSize2M);
    EXPECT_EQ(memory_.slow().usedBytes(), kPageSize2M);
    // The old fast frames were released.
    EXPECT_EQ(memory_.fast().usedBytes(), 8_MiB - kPageSize2M +
                                              16_KiB);
}

TEST_F(MigrationTest, PromoteBack)
{
    migrator_.migrate(heap_, Tier::Slow, 0);
    const MigrateResult res =
        migrator_.migrate(heap_, Tier::Fast, kNsPerSec);
    EXPECT_TRUE(res.moved);
    EXPECT_EQ(space_.tierOf(heap_), Tier::Fast);
    EXPECT_EQ(migrator_.stats().hugePromotions, 1u);
    EXPECT_EQ(migrator_.stats().bytesPromoted, kPageSize2M);
    EXPECT_EQ(memory_.slow().usedBytes(), 0u);
}

TEST_F(MigrationTest, MigrateBasePage)
{
    const MigrateResult res =
        migrator_.migrate(conf_, Tier::Slow, 0);
    EXPECT_TRUE(res.moved);
    EXPECT_EQ(migrator_.stats().baseDemotions, 1u);
    EXPECT_EQ(migrator_.stats().bytesDemoted, kPageSize4K);
    EXPECT_EQ(space_.tierOf(conf_), Tier::Slow);
}

TEST_F(MigrationTest, NoOpWhenAlreadyPlaced)
{
    const MigrateResult res =
        migrator_.migrate(heap_, Tier::Fast, 0);
    EXPECT_FALSE(res.moved);
    EXPECT_EQ(res.cost, 0u);
    EXPECT_EQ(migrator_.stats().bytesDemoted, 0u);
}

TEST_F(MigrationTest, PoisonSurvivesMigration)
{
    space_.pageTable().walk(heap_).pte->poison();
    migrator_.migrate(heap_, Tier::Slow, 0);
    EXPECT_TRUE(space_.pageTable().walk(heap_).pte->poisoned());
}

TEST_F(MigrationTest, TlbShootdownOnMigration)
{
    tlb_.insert(heap_, space_.pageTable().walk(heap_).pte->pfn(),
                true);
    migrator_.migrate(heap_, Tier::Slow, 0);
    EXPECT_EQ(tlb_.lookup(heap_), TlbHierarchy::HitLevel::Miss);
}

TEST_F(MigrationTest, LlcInvalidatedOnMigration)
{
    const Pfn pfn = space_.pageTable().walk(heap_).pte->pfn();
    (void)llc_.access(laneOf(heap_), pfn * kPageSize4K,
                      AccessType::Read);
    EXPECT_TRUE(llc_.contains(pfn * kPageSize4K));
    migrator_.migrate(heap_, Tier::Slow, 0);
    EXPECT_FALSE(llc_.contains(pfn * kPageSize4K));
}

TEST_F(MigrationTest, LlcInvalidatedOnHugeMigration)
{
    // Lines of all 512 old frames, spread over every slice: a line
    // cached outside the owning lane must be dropped too.
    const Pfn first = space_.pageTable().walk(heap_).pte->pfn();
    for (unsigned i = 0; i < kSubpagesPerHuge; ++i) {
        const Addr frame = (first + i) * kPageSize4K;
        (void)llc_.access(laneOf(heap_), frame, AccessType::Read);
        (void)llc_.access(i % kMachineLanes,
                          frame + (i % 64) * 64, AccessType::Write);
    }
    unsigned visible = 0;
    for (Addr paddr = first * kPageSize4K;
         paddr < first * kPageSize4K + kPageSize2M; paddr += 64) {
        visible += llc_.contains(paddr) ? 1 : 0;
    }
    ASSERT_GT(visible, 0u);
    migrator_.migrate(heap_, Tier::Slow, 0);
    for (Addr paddr = first * kPageSize4K;
         paddr < first * kPageSize4K + kPageSize2M; paddr += 64) {
        EXPECT_FALSE(llc_.contains(paddr)) << paddr;
    }
}

TEST_F(MigrationTest, FailsWhenTargetFull)
{
    // Fill the slow tier completely.
    while (memory_.allocHuge(Tier::Slow).has_value()) {
    }
    const MigrateResult res =
        migrator_.migrate(heap_, Tier::Slow, 0);
    EXPECT_FALSE(res.moved);
    EXPECT_EQ(migrator_.stats().failedAllocs, 1u);
    EXPECT_EQ(space_.tierOf(heap_), Tier::Fast);
}

TEST_F(MigrationTest, CopyCostScalesWithSize)
{
    const MigrateResult huge =
        migrator_.migrate(heap_, Tier::Slow, 0);
    const MigrateResult base =
        migrator_.migrate(conf_, Tier::Slow, 0);
    EXPECT_GT(huge.cost, base.cost);
}

TEST_F(MigrationTest, BandwidthMetersSeparateDirections)
{
    migrator_.migrate(heap_, Tier::Slow, 0);
    migrator_.migrate(heap_ + kPageSize2M, Tier::Slow,
                      kNsPerSec / 2);
    migrator_.migrate(heap_, Tier::Fast, kNsPerSec / 2);
    const double demote = migrator_.takeDemotionRate(kNsPerSec);
    const double promote = migrator_.takePromotionRate(kNsPerSec);
    EXPECT_GT(demote, 0.0);
    EXPECT_GT(promote, 0.0);
    EXPECT_EQ(migrator_.stats().bytesDemoted, 2 * kPageSize2M);
    EXPECT_EQ(migrator_.stats().bytesPromoted, kPageSize2M);
}

TEST_F(MigrationTest, WearChargedOnSlowTierFill)
{
    migrator_.migrate(heap_, Tier::Slow, 0);
    // 2MB copied in 64B lines.
    EXPECT_EQ(memory_.slow().totalWear(), kPageSize2M / 64);
}

TEST_F(MigrationTest, MigrateUnmappedPanics)
{
    EXPECT_DEATH(migrator_.migrate(Addr{1} << 40, Tier::Slow, 0),
                 "unmapped");
}

/** Admission gate that denies the first N offers, then admits. */
class DenyFirst : public MigrationAdmission
{
  public:
    explicit DenyFirst(unsigned denials) : left_(denials) {}

    bool
    admit(Addr, Tier, std::uint64_t, Ns) override
    {
        if (left_ > 0) {
            --left_;
            return false;
        }
        return true;
    }

  private:
    unsigned left_;
};

TEST_F(MigrationTest, DeniedThenRetriedBilledOnce)
{
    DenyFirst gate(1);
    migrator_.setAdmission(&gate);

    // First attempt: the arbiter refuses.  The page stays put, the
    // denial is billed as denied traffic, and nothing lands in the
    // moved-bytes meters.
    const MigrateResult denied =
        migrator_.migrate(heap_, Tier::Slow, 0);
    EXPECT_FALSE(denied.moved);
    EXPECT_TRUE(denied.denied);
    EXPECT_EQ(denied.cost, 0u);
    EXPECT_EQ(space_.tierOf(heap_), Tier::Fast);
    EXPECT_EQ(migrator_.stats().admissionDenials, 1u);
    EXPECT_EQ(migrator_.stats().bytesDenied, kPageSize2M);
    EXPECT_EQ(migrator_.stats().bytesDemoted, 0u);
    EXPECT_EQ(migrator_.stats().hugeDemotions, 0u);

    // Retry: admitted, and the move is billed exactly once -- the
    // earlier denial must not have left a partial charge behind.
    const MigrateResult retried =
        migrator_.migrate(heap_, Tier::Slow, kNsPerSec);
    EXPECT_TRUE(retried.moved);
    EXPECT_FALSE(retried.denied);
    EXPECT_EQ(space_.tierOf(heap_), Tier::Slow);
    EXPECT_EQ(migrator_.stats().admissionDenials, 1u);
    EXPECT_EQ(migrator_.stats().bytesDenied, kPageSize2M);
    EXPECT_EQ(migrator_.stats().bytesDemoted, kPageSize2M);
    EXPECT_EQ(migrator_.stats().hugeDemotions, 1u);
    EXPECT_EQ(memory_.slow().stats().migrationBytesIn, kPageSize2M);
}

} // namespace
} // namespace thermostat
