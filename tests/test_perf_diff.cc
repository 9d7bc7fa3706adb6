/**
 * @file
 * End-to-end tests for tools/perf_diff: the gate passes on an
 * identical fresh run, exits non-zero on an injected regression,
 * treats over-threshold gains as improvements (exit 0), honours
 * per-scenario threshold overrides and the lower-is-better
 * direction, flags scenarios dropped from the fresh run, rejects
 * malformed input, and emits a machine-readable verdict whose JSON
 * parses.  Fixtures are generated into the test's temp directory;
 * the committed BENCH_hotpath.json baseline must also self-compare
 * clean.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>

#include "obs/json.hh"

#ifndef THERMOSTAT_PERF_DIFF_BIN
#error "build must define THERMOSTAT_PERF_DIFF_BIN"
#endif
#ifndef THERMOSTAT_REPO_ROOT
#error "build must define THERMOSTAT_REPO_ROOT"
#endif

namespace
{

struct DiffResult
{
    int exitCode = -1;
    std::string output;
};

/** Run perf_diff with @p args, capturing stdout+stderr. */
DiffResult
runDiff(const std::string &args)
{
    const std::string cmd = std::string("'") +
                            THERMOSTAT_PERF_DIFF_BIN + "' " + args +
                            " 2>&1";
    std::FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe) {
        ADD_FAILURE() << "popen failed for: " << cmd;
        return {};
    }
    DiffResult result;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
        result.output.append(buf, n);
    }
    const int status = pclose(pipe);
    result.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return result;
}

/** Bench-schema JSON with the given scenario rates. */
std::string
benchJson(double tlb_hit, double sim_epoch)
{
    thermostat::JsonWriter w;
    w.beginObject();
    w.key("bench");
    w.value("bench_hotpath");
    w.key("scenarios");
    w.beginArray();
    w.beginObject();
    w.key("name");
    w.value("tlb_hit");
    w.key("accesses_per_sec");
    w.value(tlb_hit);
    w.endObject();
    w.beginObject();
    w.key("name");
    w.value("sim_epoch");
    w.key("accesses_per_sec");
    w.value(sim_epoch);
    w.endObject();
    w.endArray();
    w.endObject();
    return w.str();
}

std::string
writeTemp(const std::string &name, const std::string &text)
{
    const char *dir = std::getenv("TMPDIR");
    const std::string path = std::string(dir != nullptr ? dir
                                                        : "/tmp") +
                             "/perf_diff_" + name;
    std::ofstream out(path, std::ios::binary);
    out << text;
    EXPECT_TRUE(out.good()) << path;
    return path;
}

std::string
quoted(const std::string &path)
{
    return "'" + path + "'";
}

} // namespace

TEST(PerfDiff, IdenticalRunsPass)
{
    const std::string base =
        writeTemp("base.json", benchJson(1.0e7, 8.0e5));
    const DiffResult r = runDiff("--baseline " + quoted(base) +
                                 " --fresh " + quoted(base));
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("verdict: pass"), std::string::npos);
}

TEST(PerfDiff, RegressionBeyondThresholdFails)
{
    const std::string base =
        writeTemp("rbase.json", benchJson(1.0e7, 8.0e5));
    const std::string fresh =
        writeTemp("rfresh.json", benchJson(1.0e7, 4.0e5));
    const DiffResult r = runDiff("--baseline " + quoted(base) +
                                 " --fresh " + quoted(fresh) +
                                 " --threshold 10");
    EXPECT_EQ(r.exitCode, 1) << r.output;
    EXPECT_NE(r.output.find("regress"), std::string::npos);
}

TEST(PerfDiff, SmallDriftWithinThresholdPasses)
{
    const std::string base =
        writeTemp("dbase.json", benchJson(1.0e7, 8.0e5));
    const std::string fresh =
        writeTemp("dfresh.json", benchJson(0.95e7, 7.8e5));
    const DiffResult r = runDiff("--baseline " + quoted(base) +
                                 " --fresh " + quoted(fresh) +
                                 " --threshold 10");
    EXPECT_EQ(r.exitCode, 0) << r.output;
}

TEST(PerfDiff, ImprovementPassesAndIsLabelled)
{
    const std::string base =
        writeTemp("ibase.json", benchJson(1.0e7, 8.0e5));
    const std::string fresh =
        writeTemp("ifresh.json", benchJson(2.0e7, 8.0e5));
    const DiffResult r = runDiff("--baseline " + quoted(base) +
                                 " --fresh " + quoted(fresh) +
                                 " --threshold 10");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("verdict: improve"),
              std::string::npos);
}

TEST(PerfDiff, PerScenarioOverrideWins)
{
    const std::string base =
        writeTemp("obase.json", benchJson(1.0e7, 8.0e5));
    // tlb_hit down 30%: fails the 10% default, passes a 50%
    // override.
    const std::string fresh =
        writeTemp("ofresh.json", benchJson(0.7e7, 8.0e5));
    EXPECT_EQ(runDiff("--baseline " + quoted(base) + " --fresh " +
                      quoted(fresh) + " --threshold 10")
                  .exitCode,
              1);
    EXPECT_EQ(runDiff("--baseline " + quoted(base) + " --fresh " +
                      quoted(fresh) +
                      " --threshold 10 --threshold-for tlb_hit=50")
                  .exitCode,
              0);
}

TEST(PerfDiff, LowerIsBetterInvertsTheGate)
{
    const std::string base =
        writeTemp("lbase.json", benchJson(100.0, 100.0));
    const std::string fresh =
        writeTemp("lfresh.json", benchJson(200.0, 100.0));
    // A 2x rise is an improvement for throughput...
    EXPECT_EQ(runDiff("--baseline " + quoted(base) + " --fresh " +
                      quoted(fresh) + " --threshold 10")
                  .exitCode,
              0);
    // ...and a regression for a latency-style metric.
    EXPECT_EQ(runDiff("--baseline " + quoted(base) + " --fresh " +
                      quoted(fresh) +
                      " --threshold 10 --direction lower")
                  .exitCode,
              1);
}

TEST(PerfDiff, MissingScenarioIsARegression)
{
    const std::string base =
        writeTemp("mbase.json", benchJson(1.0e7, 8.0e5));
    const std::string fresh = writeTemp(
        "mfresh.json",
        "{\"scenarios\":[{\"name\":\"tlb_hit\","
        "\"accesses_per_sec\":1.0e7}]}");
    const DiffResult r = runDiff("--baseline " + quoted(base) +
                                 " --fresh " + quoted(fresh));
    EXPECT_EQ(r.exitCode, 1) << r.output;
    EXPECT_NE(r.output.find("missing"), std::string::npos);
}

TEST(PerfDiff, NewScenarioDoesNotAffectTheVerdict)
{
    const std::string base = writeTemp(
        "nbase.json",
        "{\"scenarios\":[{\"name\":\"tlb_hit\","
        "\"accesses_per_sec\":1.0e7}]}");
    const std::string fresh =
        writeTemp("nfresh.json", benchJson(1.0e7, 8.0e5));
    const DiffResult r = runDiff("--baseline " + quoted(base) +
                                 " --fresh " + quoted(fresh));
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("new"), std::string::npos);
}

TEST(PerfDiff, MalformedInputExitsTwo)
{
    const std::string bad =
        writeTemp("bad.json", "{\"scenarios\": oops");
    const std::string good =
        writeTemp("good.json", benchJson(1.0, 1.0));
    EXPECT_EQ(runDiff("--baseline " + quoted(bad) + " --fresh " +
                      quoted(good))
                  .exitCode,
              2);
    EXPECT_EQ(runDiff("--baseline '/nonexistent/x.json' --fresh " +
                      quoted(good))
                  .exitCode,
              2);
    EXPECT_EQ(runDiff("").exitCode, 2);
}

TEST(PerfDiff, MalformedThresholdExitsTwo)
{
    const std::string good =
        writeTemp("good.json", benchJson(1.0, 1.0));
    const std::string files =
        "--baseline " + quoted(good) + " --fresh " + quoted(good);
    for (const char *bad :
         {"--threshold abc", "--threshold 5%", "--threshold nan",
          "--threshold inf", "--threshold -1",
          "--threshold-for sim_epoch=abc",
          "--threshold-for sim_epoch=-2",
          "--threshold-for sim_epoch="}) {
        const DiffResult r = runDiff(files + " " + std::string(bad));
        EXPECT_EQ(r.exitCode, 2) << bad << "\n" << r.output;
        EXPECT_NE(r.output.find("perf_diff: bad --threshold"),
                  std::string::npos)
            << r.output;
    }
}

TEST(PerfDiff, VerdictJsonIsMachineReadable)
{
    const std::string base =
        writeTemp("vbase.json", benchJson(1.0e7, 8.0e5));
    const std::string fresh =
        writeTemp("vfresh.json", benchJson(1.0e7, 4.0e5));
    const std::string verdict_path =
        writeTemp("verdict.json", "");
    const DiffResult r = runDiff(
        "--baseline " + quoted(base) + " --fresh " + quoted(fresh) +
        " --threshold 10 --json " + quoted(verdict_path));
    EXPECT_EQ(r.exitCode, 1) << r.output;

    std::ifstream in(verdict_path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    thermostat::JsonValue doc;
    std::string error;
    ASSERT_TRUE(thermostat::parseJson(os.str(), &doc, &error))
        << error;
    EXPECT_EQ(doc.member("verdict").asString(), "regress");
    ASSERT_EQ(doc.member("scenarios").elements().size(), 2u);
    bool saw_regress = false;
    for (const thermostat::JsonValue &s :
         doc.member("scenarios").elements()) {
        if (s.member("verdict").asString() == "regress") {
            saw_regress = true;
            EXPECT_EQ(s.member("name").asString(), "sim_epoch");
        }
    }
    EXPECT_TRUE(saw_regress);
}

TEST(PerfDiff, UpdateBaselineRewritesFileAndExitsZero)
{
    const std::string base =
        writeTemp("ubase.json", benchJson(1.0e7, 8.0e5));
    const std::string fresh_text = benchJson(1.0e7, 4.0e5);
    const std::string fresh =
        writeTemp("ufresh.json", fresh_text);
    // A 50% drop regresses, but --update-baseline still prints the
    // delta table, adopts the fresh run and exits 0.
    const DiffResult r = runDiff(
        "--baseline " + quoted(base) + " --fresh " + quoted(fresh) +
        " --threshold 10 --update-baseline");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("-50.00%"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("baseline updated"), std::string::npos)
        << r.output;

    std::ifstream in(base, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    EXPECT_EQ(os.str(), fresh_text);

    // The rewritten baseline self-compares clean.
    EXPECT_EQ(runDiff("--baseline " + quoted(base) + " --fresh " +
                      quoted(fresh) + " --threshold 0.01")
                  .exitCode,
              0);
}

TEST(PerfDiff, CommittedBaselineSelfComparesClean)
{
    const std::string baseline =
        std::string(THERMOSTAT_REPO_ROOT) + "/BENCH_hotpath.json";
    const DiffResult r =
        runDiff("--baseline " + quoted(baseline) + " --fresh " +
                quoted(baseline) + " --threshold 0.01");
    EXPECT_EQ(r.exitCode, 0) << r.output;
}
