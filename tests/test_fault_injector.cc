/**
 * @file
 * Unit tests for the fault-injection subsystem: plan-spec parsing,
 * per-mode behaviour (Bernoulli, burst, scheduled, window) and the
 * determinism / stream-independence guarantees everything else
 * relies on, and the CLI contract that a bad --fault-plan exits 2.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/fault_injector.hh"
#include "harness.hh"
#include "obs/metrics.hh"

#ifndef THERMOSTAT_SIM_BIN
#error "tests/CMakeLists.txt must define THERMOSTAT_SIM_BIN"
#endif

namespace thermostat
{
namespace
{

FaultPlan
mustParse(const std::string &spec)
{
    FaultPlan plan;
    std::string error;
    EXPECT_TRUE(FaultPlan::parse(spec, plan, error)) << error;
    return plan;
}

TEST(FaultPlanParse, ExampleSpec)
{
    const FaultPlan plan =
        mustParse("migration-copy:p=0.05;wear-retire:at=60,count=4");
    EXPECT_TRUE(plan.enabled());
    const FaultSitePlan &copy = plan[FaultSite::MigrationCopy];
    EXPECT_TRUE(copy.configured);
    EXPECT_DOUBLE_EQ(copy.probability, 0.05);
    const FaultSitePlan &wear = plan[FaultSite::WearRetire];
    EXPECT_TRUE(wear.configured);
    EXPECT_TRUE(wear.hasAt);
    EXPECT_EQ(wear.at, 60 * kNsPerSec);
    EXPECT_EQ(wear.count, 4u);
    EXPECT_FALSE(plan[FaultSite::SlowLatency].configured);
}

TEST(FaultPlanParse, WindowAndFactor)
{
    const FaultPlan plan =
        mustParse("slow-latency:from=5,until=10,factor=3.5");
    const FaultSitePlan &site = plan[FaultSite::SlowLatency];
    EXPECT_TRUE(site.hasWindow);
    EXPECT_EQ(site.from, 5 * kNsPerSec);
    EXPECT_EQ(site.until, 10 * kNsPerSec);
    EXPECT_DOUBLE_EQ(site.factor, 3.5);
}

TEST(FaultPlanParse, OpenEndedWindow)
{
    const FaultPlan plan = mustParse("slow-bandwidth:from=7,factor=2");
    const FaultSitePlan &site = plan[FaultSite::SlowBandwidth];
    EXPECT_TRUE(site.hasWindow);
    EXPECT_EQ(site.from, 7 * kNsPerSec);
    EXPECT_GT(site.until, 1000000 * kNsPerSec);
}

TEST(FaultPlanParse, MigrationFailAlias)
{
    const FaultPlan plan = mustParse("migration-fail:p=1");
    EXPECT_TRUE(plan[FaultSite::MigrationCopy].configured);
}

TEST(FaultPlanParse, EmptySpecIsDisabled)
{
    const FaultPlan plan = mustParse("");
    EXPECT_FALSE(plan.enabled());
}

TEST(FaultPlanParse, Rejections)
{
    FaultPlan plan;
    std::string error;
    // Unknown site.
    EXPECT_FALSE(FaultPlan::parse("dimm-on-fire:p=1", plan, error));
    EXPECT_FALSE(error.empty());
    // Unknown key.
    EXPECT_FALSE(
        FaultPlan::parse("migration-copy:wat=1", plan, error));
    // Probability out of range.
    EXPECT_FALSE(
        FaultPlan::parse("migration-copy:p=1.5", plan, error));
    EXPECT_FALSE(
        FaultPlan::parse("migration-copy:p=-0.1", plan, error));
    // Severity below 1 would speed the device up.
    EXPECT_FALSE(
        FaultPlan::parse("slow-latency:from=1,until=2,factor=0.5",
                         plan, error));
    // Empty window.
    EXPECT_FALSE(
        FaultPlan::parse("slow-latency:from=9,until=9,factor=2",
                         plan, error));
    // Missing '=' and missing ':'.
    EXPECT_FALSE(FaultPlan::parse("migration-copy:p", plan, error));
    EXPECT_FALSE(FaultPlan::parse("migration-copy", plan, error));
    // Garbage number.
    EXPECT_FALSE(
        FaultPlan::parse("migration-copy:p=zero", plan, error));
}

TEST(FaultPlanParse, RejectsNonFiniteNegativeAndOutOfRange)
{
    const char *const bad[] = {
        "migration-copy:p=nan",
        "migration-copy:p=-nan",
        "slow-latency:from=1,until=2,factor=inf",
        "slow-latency:from=1,until=2,factor=nan",
        "slow-latency:from=1,until=2,factor=1e999",
        "wear-retire:at=-5,count=1",
        "wear-retire:at=inf,count=1",
        "wear-retire:at=1e300,count=1",
        "slow-latency:from=-1,until=2,factor=2",
        "slow-latency:from=1,until=nan,factor=2",
        "wear-retire:at=1,count=99999999999999999999",
        "wear-retire:at=1,count=-1",
        "wear-retire:at=1,count=1.5",
        "wear-retire:at=1,count=1e3",
        "wear-retire:at=1,count=",
        "migration-copy:at=1,burst=-1",
        "migration-copy:at=1,burst=+2",
        "migration-copy:at=1,burst= 2",
    };
    for (const char *spec : bad) {
        FaultPlan plan;
        std::string error;
        EXPECT_FALSE(FaultPlan::parse(spec, plan, error)) << spec;
        EXPECT_NE(error.find("bad value"), std::string::npos)
            << spec << ": " << error;
    }
}

TEST(FaultPlanParse, AcceptsRangeLimits)
{
    const FaultPlan plan = mustParse(
        "wear-retire:at=0,count=18446744073709551615;"
        "migration-copy:at=0.5,burst=0");
    EXPECT_EQ(plan[FaultSite::WearRetire].count,
              18446744073709551615ULL);
    EXPECT_EQ(plan[FaultSite::WearRetire].at, 0u);
    EXPECT_EQ(plan[FaultSite::MigrationCopy].at, kNsPerSec / 2);
    EXPECT_EQ(plan[FaultSite::MigrationCopy].burst, 0u);
}

TEST(FaultPlanCli, BadNumbersExitTwo)
{
    using test::runCommand;
    for (const char *spec :
         {"migration-copy:p=nan", "wear-retire:at=-5,count=1",
          "wear-retire:at=1,count=99999999999999999999",
          "migration-copy:at=1,burst=-1"}) {
        std::string output;
        const int status = runCommand(
            std::string(THERMOSTAT_SIM_BIN) +
                " --workload redis --duration 1 --fault-plan '" +
                spec + "'",
            &output);
        EXPECT_EQ(status, 2) << spec << "\n" << output;
        EXPECT_NE(output.find("bad --fault-plan"), std::string::npos)
            << output;
    }
}

TEST(FaultSiteNames, RoundTrip)
{
    EXPECT_STREQ(faultSiteName(FaultSite::MigrationCopy),
                 "migration-copy");
    EXPECT_STREQ(faultSiteName(FaultSite::WearRetire), "wear-retire");
    // Every spelled name parses back to a configured site.
    for (std::size_t i = 0; i < kFaultSiteCount; ++i) {
        const auto site = static_cast<FaultSite>(i);
        const FaultPlan plan =
            mustParse(std::string(faultSiteName(site)) + ":count=2");
        EXPECT_TRUE(plan[site].configured) << faultSiteName(site);
    }
}

TEST(FaultInjector, ProbabilityExtremes)
{
    FaultInjector always(mustParse("migration-copy:p=1"), 1);
    FaultInjector never(mustParse("migration-copy:p=0"), 1);
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(always.shouldFail(FaultSite::MigrationCopy, 0));
        EXPECT_FALSE(never.shouldFail(FaultSite::MigrationCopy, 0));
    }
    EXPECT_EQ(always.queries(FaultSite::MigrationCopy), 100u);
    EXPECT_EQ(always.injected(FaultSite::MigrationCopy), 100u);
    EXPECT_EQ(never.injected(FaultSite::MigrationCopy), 0u);
}

TEST(FaultInjector, DeterministicForSameSeed)
{
    const FaultPlan plan = mustParse("migration-copy:p=0.3");
    FaultInjector a(plan, 99);
    FaultInjector b(plan, 99);
    FaultInjector c(plan, 100);
    std::vector<bool> seq_a;
    std::vector<bool> seq_b;
    std::vector<bool> seq_c;
    for (int i = 0; i < 256; ++i) {
        seq_a.push_back(a.shouldFail(FaultSite::MigrationCopy, 0));
        seq_b.push_back(b.shouldFail(FaultSite::MigrationCopy, 0));
        seq_c.push_back(c.shouldFail(FaultSite::MigrationCopy, 0));
    }
    EXPECT_EQ(seq_a, seq_b);
    EXPECT_NE(seq_a, seq_c);
    // A 30% stream should actually fire sometimes, but not always.
    EXPECT_GT(a.injected(FaultSite::MigrationCopy), 0u);
    EXPECT_LT(a.injected(FaultSite::MigrationCopy), 256u);
}

TEST(FaultInjector, SiteStreamsAreIndependent)
{
    // Enabling an unrelated site must not shift another site's
    // schedule: each site draws from its own forked stream.
    FaultInjector lone(mustParse("migration-copy:p=0.3"), 7);
    FaultInjector both(
        mustParse("migration-copy:p=0.3;migration-alloc:p=0.5"), 7);
    for (int i = 0; i < 256; ++i) {
        // Interleave queries to the second site on one injector only.
        both.shouldFail(FaultSite::MigrationAlloc, 0);
        EXPECT_EQ(lone.shouldFail(FaultSite::MigrationCopy, 0),
                  both.shouldFail(FaultSite::MigrationCopy, 0))
            << "diverged at query " << i;
    }
}

TEST(FaultInjector, TimedBurst)
{
    FaultInjector inj(mustParse("migration-copy:at=10,burst=3"), 5);
    const Ns before = 9 * kNsPerSec;
    const Ns after = 10 * kNsPerSec;
    for (int i = 0; i < 8; ++i) {
        EXPECT_FALSE(inj.shouldFail(FaultSite::MigrationCopy, before));
    }
    // First three queries at/after the trigger fail, then clean
    // (p defaults to 0).
    EXPECT_TRUE(inj.shouldFail(FaultSite::MigrationCopy, after));
    EXPECT_TRUE(inj.shouldFail(FaultSite::MigrationCopy, after));
    EXPECT_TRUE(inj.shouldFail(FaultSite::MigrationCopy, after));
    for (int i = 0; i < 8; ++i) {
        EXPECT_FALSE(inj.shouldFail(FaultSite::MigrationCopy, after));
    }
    EXPECT_EQ(inj.injected(FaultSite::MigrationCopy), 3u);
}

TEST(FaultInjector, ImmediateBurst)
{
    // burst without `at` arms from the start.
    FaultInjector inj(mustParse("migration-alloc:burst=2"), 5);
    EXPECT_TRUE(inj.shouldFail(FaultSite::MigrationAlloc, 0));
    EXPECT_TRUE(inj.shouldFail(FaultSite::MigrationAlloc, 0));
    EXPECT_FALSE(inj.shouldFail(FaultSite::MigrationAlloc, 0));
}

TEST(FaultInjector, WindowGatesProbability)
{
    FaultInjector inj(
        mustParse("migration-copy:p=1,from=5,until=10"), 5);
    EXPECT_FALSE(
        inj.shouldFail(FaultSite::MigrationCopy, 4 * kNsPerSec));
    EXPECT_TRUE(
        inj.shouldFail(FaultSite::MigrationCopy, 5 * kNsPerSec));
    EXPECT_TRUE(
        inj.shouldFail(FaultSite::MigrationCopy, 9 * kNsPerSec));
    EXPECT_FALSE(
        inj.shouldFail(FaultSite::MigrationCopy, 10 * kNsPerSec));
}

TEST(FaultInjector, SeverityWindow)
{
    FaultInjector inj(
        mustParse("slow-latency:from=5,until=10,factor=3"), 5);
    EXPECT_DOUBLE_EQ(
        inj.severity(FaultSite::SlowLatency, 4 * kNsPerSec), 1.0);
    EXPECT_DOUBLE_EQ(
        inj.severity(FaultSite::SlowLatency, 5 * kNsPerSec), 3.0);
    EXPECT_DOUBLE_EQ(
        inj.severity(FaultSite::SlowLatency, 10 * kNsPerSec), 1.0);
    EXPECT_FALSE(
        inj.windowActive(FaultSite::SlowLatency, 4 * kNsPerSec));
    EXPECT_TRUE(
        inj.windowActive(FaultSite::SlowLatency, 7 * kNsPerSec));
}

TEST(FaultInjector, ScheduledOneShot)
{
    FaultInjector inj(mustParse("wear-retire:at=60,count=4"), 5);
    EXPECT_EQ(inj.takeScheduled(FaultSite::WearRetire,
                                59 * kNsPerSec),
              0u);
    EXPECT_EQ(inj.takeScheduled(FaultSite::WearRetire,
                                61 * kNsPerSec),
              4u);
    // One-shot: never again.
    EXPECT_EQ(inj.takeScheduled(FaultSite::WearRetire,
                                62 * kNsPerSec),
              0u);
}

TEST(FaultInjector, ScheduledRecurring)
{
    FaultInjector inj(mustParse("wear-retire:p=1,count=2"), 5);
    EXPECT_EQ(inj.takeScheduled(FaultSite::WearRetire, 0), 2u);
    EXPECT_EQ(inj.takeScheduled(FaultSite::WearRetire, kNsPerSec),
              2u);
}

TEST(FaultInjector, MetricsOnlyForConfiguredSites)
{
    MetricRegistry registry;
    FaultInjector inj(mustParse("migration-copy:p=1"), 5);
    inj.registerMetrics(registry, "faults");
    inj.shouldFail(FaultSite::MigrationCopy, 0);
    bool saw_queries = false;
    bool saw_other = false;
    for (const MetricSample &s : registry.snapshot()) {
        if (s.name == "faults.migration-copy.queries") {
            saw_queries = true;
            EXPECT_DOUBLE_EQ(s.value, 1.0);
        }
        if (s.name.find("wear-retire") != std::string::npos) {
            saw_other = true;
        }
    }
    EXPECT_TRUE(saw_queries);
    EXPECT_FALSE(saw_other);
}

} // namespace
} // namespace thermostat
