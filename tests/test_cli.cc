/**
 * @file
 * CLI operand contract: every malformed, non-finite or out-of-range
 * numeric operand of thermostat_sim (including --policy-param),
 * thermostat_trace, run_all and the examples, every malformed
 * --tenants line (its diagnostic printed once), every unloadable
 * trace tenant and
 * every trace too slow for the sampled timing stream exits 2 with a
 * diagnostic naming the bad input -- before any simulation starts
 * or any worker pool is built, so a probe can never run to its
 * natural duration.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness.hh"
#include "mem/tiered_memory.hh"
#include "vm/address_space.hh"
#include "workload/trace.hh"

#if !defined(THERMOSTAT_SIM_BIN) || !defined(THERMOSTAT_TRACE_BIN) || \
    !defined(THERMOSTAT_RUN_ALL_BIN)
#error "tests/CMakeLists.txt must define the CLI binary paths"
#endif

namespace thermostat
{
namespace
{

using test::TempDir;
using test::runCommand;
using test::spillFile;

/** Run thermostat_sim with @p args; returns {status, output}. */
std::pair<int, std::string>
runSim(const std::string &args)
{
    std::string output;
    const int status = runCommand(
        std::string(THERMOSTAT_SIM_BIN) + " " + args, &output);
    return {status, output};
}

/** Run any built tool (@p bin) with @p args; returns {status, output}. */
std::pair<int, std::string>
runTool(const char *bin, const std::string &args)
{
    std::string output;
    const int status =
        runCommand(std::string(bin) + " " + args, &output);
    return {status, output};
}

/**
 * Record a small, valid trace whose memRefRate is 1 access/s: far
 * below the 20,000/s a default SimConfig needs for one timing sample
 * to stand for at least one real access.
 */
bool
writeSlowTrace(const std::string &path)
{
    auto slow = std::make_unique<ComposedWorkload>("slow", 1.0, 0.5,
                                                   60 * kNsPerSec);
    slow->addRegion({"heap", 4_MiB, 0, false, false});
    TrafficComponent c;
    c.region = "heap";
    c.weight = 1.0;
    c.pattern = std::make_unique<UniformPattern>(4_MiB);
    slow->addComponent(std::move(c));
    RecordingWorkload recorder(std::move(slow));
    TieredMemory memory(TierConfig::dram(64_MiB),
                        TierConfig::slow(64_MiB));
    AddressSpace space(memory);
    recorder.setup(space);
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        (void)recorder.sample(rng);
    }
    return recorder.save(path);
}

TEST(SimCli, MalformedNumericOperandsExitTwo)
{
    const std::vector<std::pair<std::string, std::string>> probes = {
        {"--cold-fraction", "7"},
        {"--cold-fraction", "0.5x"},
        {"--target", "nan"},
        {"--target", "0"},
        {"--target", "inf"},
        {"--sample-period", "-1"},
        {"--shards", "abc"},
        {"--shards", "9"},
        {"--seed", "xyz"},
        {"--seed", "-3"},
        {"--duration", "-5"},
        {"--duration", "0"},
        {"--duration", "2.5"},
        {"--warmup", ""},
        {"--host-bw-mbps", "-3"},
        {"--host-fast-cap-mb", "1e3"},
        {"--tenant-fast-cap-mb", "-1"},
    };
    for (const auto &[flag, value] : probes) {
        const auto [status, output] = runSim(
            "--workload redis " + flag + " '" + value + "'");
        EXPECT_EQ(status, 2) << flag << " " << value << "\n"
                             << output;
        EXPECT_NE(output.find("bad " + flag + " '" + value + "'"),
                  std::string::npos)
            << output;
    }
}

TEST(SimCli, HostModeOperandsAreCheckedToo)
{
    TempDir dir;
    const std::string conf = dir.file("tenants.conf");
    ASSERT_TRUE(spillFile(conf, "id=a workload=redis\n"));
    const auto [status, output] =
        runSim("--tenants " + conf + " --host-bw-mbps nan");
    EXPECT_EQ(status, 2) << output;
    EXPECT_NE(output.find("bad --host-bw-mbps 'nan'"),
              std::string::npos)
        << output;
}

TEST(SimCli, TenantSpecErrorIsPrintedOnce)
{
    TempDir dir;
    const std::string conf = dir.file("tenants.conf");
    ASSERT_TRUE(spillFile(conf, "id=a workload=redis target=nan\n"));
    const auto [status, output] =
        runSim("--tenants " + conf + " --duration 5");
    EXPECT_EQ(status, 2) << output;
    EXPECT_EQ(output, "--tenants line 1: target 'nan' is not a "
                      "percentage in (0, 100]\n");
}

TEST(SimCli, UnloadableTraceTenantExitsTwo)
{
    TempDir dir;
    const std::string garbage = dir.file("garbage.trace");
    ASSERT_TRUE(spillFile(garbage, "this is not a trace"));
    for (const std::string &path :
         {garbage, dir.file("missing.trace")}) {
        const std::string conf = dir.file("tenants.conf");
        ASSERT_TRUE(spillFile(conf, "id=replay workload=trace:" +
                                        path + "\n"));
        const auto [status, output] =
            runSim("--tenants " + conf + " --duration 5");
        EXPECT_EQ(status, 2) << output;
        EXPECT_NE(output.find("tenant 'replay'"), std::string::npos)
            << output;
        EXPECT_NE(output.find(path), std::string::npos) << output;
    }
}

TEST(SimCli, MalformedPolicyParamsExitTwo)
{
    for (const char *spec :
         {"decision-period-sec=nan", "decision-period-sec=1e300",
          "promote-rate-threshold=nan", "idle-scans-to-demote=-1",
          "queue-capacity=-1", "promote-batch=+5"}) {
        const auto [status, output] =
            runSim(std::string("--workload redis --duration 1 "
                               "--policy-param '") +
                   spec + "'");
        EXPECT_EQ(status, 2) << spec << "\n" << output;
        EXPECT_NE(output.find(std::string("bad --policy-param '") +
                              spec + "'"),
                  std::string::npos)
            << output;
    }
}

// A trace whose rate gives every timing sample a weight of 0 is a
// usage error (exit 2 naming the trace and the minimum rate), not a
// "sample weight underflow" panic inside Simulation::startRun.
TEST(SimCli, TraceTooSlowForSamplingExitsTwo)
{
    TempDir dir;
    const std::string trace = dir.file("slow.trace");
    ASSERT_TRUE(writeSlowTrace(trace));
    const std::string conf = dir.file("tenants.conf");
    ASSERT_TRUE(
        spillFile(conf, "id=slow workload=trace:" + trace + "\n"));

    const auto [host_status, host_output] =
        runSim("--tenants " + conf + " --duration 5");
    const auto [replay_status, replay_output] = runTool(
        THERMOSTAT_TRACE_BIN, "replay --in " + trace + " --duration 5");
    for (const auto &[status, output] :
         {std::pair{host_status, host_output},
          std::pair{replay_status, replay_output}}) {
        EXPECT_EQ(status, 2) << output;
        EXPECT_NE(output.find(trace), std::string::npos) << output;
        EXPECT_NE(output.find("minimum 20000/s"), std::string::npos)
            << output;
    }
}

TEST(TraceCli, MalformedNumericOperandsExitTwo)
{
    TempDir dir;
    const std::string out = dir.file("probe.trace");
    const struct
    {
        std::string args;
        const char *needle;
    } probes[] = {
        {"record --workload redis --out " + out + " --refs abc",
         "bad --refs 'abc'"},
        {"record --workload redis --out " + out +
             " --refs 10 --seed -3",
         "bad --seed '-3'"},
        {"replay --in " + out + " --target nan", "bad --target 'nan'"},
        {"replay --in " + out + " --duration -5",
         "bad --duration '-5'"},
    };
    for (const auto &probe : probes) {
        const auto [status, output] =
            runTool(THERMOSTAT_TRACE_BIN, probe.args);
        EXPECT_EQ(status, 2) << probe.args << "\n" << output;
        EXPECT_NE(output.find(probe.needle), std::string::npos)
            << output;
    }
}

// --list makes run_all return before it builds its pool, so even
// the parent code's wrap-around of -1 to 2^32 - 1 workers could not
// start a thread here.
TEST(RunAllCli, MalformedJobsExitTwoBeforeAnyPool)
{
    for (const char *jobs : {"-1", "abc", "1025", "+4"}) {
        const auto [status, output] = runTool(
            THERMOSTAT_RUN_ALL_BIN,
            std::string("--list --jobs '") + jobs + "'");
        EXPECT_EQ(status, 2) << jobs << "\n" << output;
        EXPECT_NE(output.find(std::string("bad --jobs '") + jobs + "'"),
                  std::string::npos)
            << output;
    }
}

#ifdef THERMOSTAT_QUICKSTART_BIN
TEST(ExampleCli, MalformedPositionalOperandsExitTwo)
{
    const std::vector<std::pair<std::string, std::string>> probes = {
        {"redis nan 40", "bad tolerable_slowdown_pct 'nan'"},
        {"redis 0 40", "bad tolerable_slowdown_pct '0'"},
        {"redis 3 -4", "bad seconds '-4'"},
        {"redis 3 40s", "bad seconds '40s'"},
        {"nosuch 3 40", "unknown workload 'nosuch'"},
    };
    for (const auto &[args, diagnostic] : probes) {
        const auto [status, output] =
            runTool(THERMOSTAT_QUICKSTART_BIN, args);
        EXPECT_EQ(status, 2) << args << "\n" << output;
        EXPECT_NE(output.find(diagnostic), std::string::npos) << output;
    }
}
#endif

} // namespace
} // namespace thermostat
