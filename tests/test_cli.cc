/**
 * @file
 * thermostat_sim operand contract: every malformed, non-finite or
 * out-of-range numeric operand, and every unloadable trace tenant,
 * exits 2 with a diagnostic naming the bad input -- before any
 * simulation starts, so a probe can never run to its natural
 * duration.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "harness.hh"

#ifndef THERMOSTAT_SIM_BIN
#error "tests/CMakeLists.txt must define THERMOSTAT_SIM_BIN"
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

} // namespace
} // namespace thermostat
