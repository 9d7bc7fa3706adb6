/**
 * @file
 * thermostat_trace: record, inspect and replay reference traces.
 *
 *   thermostat_trace record --workload redis --refs 1000000 \
 *                           --out redis.trace [--seed 42]
 *   thermostat_trace info   --in redis.trace
 *   thermostat_trace replay --in redis.trace --target 3 \
 *                           [--duration SEC]
 *
 * `record` captures a reference stream from a built-in workload
 * model; `replay` runs Thermostat over the recorded stream.  The
 * binary format is documented in workload/trace.hh, so externally
 * generated traces can be imported by writing the same layout.
 * A malformed or out-of-range operand, or a trace too slow for the
 * sampled timing stream, exits 2 with a diagnostic.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>

#include "common/parse.hh"
#include "sim/reporter.hh"
#include "sim/simulation.hh"
#include "workload/cloud_apps.hh"
#include "workload/trace.hh"

using namespace thermostat;

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  %s record --workload NAME --refs N --out FILE [--seed S]\n"
        "  %s info   --in FILE\n"
        "  %s replay --in FILE [--target PCT] [--duration SEC]\n",
        argv0, argv0, argv0);
    std::exit(2);
}

const char *
nextArg(int argc, char **argv, int &i, const char *argv0)
{
    if (i + 1 >= argc) {
        usage(argv0);
    }
    return argv[++i];
}

/** Exit 2 naming the flag at argv[i - 1] unless its operand is @p ok. */
void
requireOperand(bool ok, char **argv, int i, const char *expected)
{
    if (!ok) {
        std::fprintf(stderr, "bad %s '%s': expected %s\n", argv[i - 1],
                     argv[i], expected);
        usage(argv[0]);
    }
}

int
doRecord(const std::string &workload, std::uint64_t refs,
         const std::string &out, std::uint64_t seed)
{
    if (!isWorkloadName(workload)) {
        std::fprintf(stderr, "unknown workload '%s'; known:\n",
                     workload.c_str());
        for (const std::string &name : allWorkloadNames()) {
            std::fprintf(stderr, "  %s\n", name.c_str());
        }
        std::fprintf(stderr, "  redis-bursty\n");
        return 2;
    }
    TieredMemory memory(TierConfig::dram(32ULL << 30),
                        TierConfig::slow(8ULL << 30));
    AddressSpace space(memory);
    RecordingWorkload recorder(workload == "redis-bursty"
                                   ? makeRedisBursty(seed)
                                   : makeWorkload(workload, seed));
    recorder.setup(space);
    Rng rng(seed);
    for (std::uint64_t i = 0; i < refs; ++i) {
        (void)recorder.sample(rng);
    }
    if (!recorder.save(out)) {
        std::fprintf(stderr, "failed to write %s\n", out.c_str());
        return 1;
    }
    std::printf("recorded %llu references of '%s' to %s\n",
                static_cast<unsigned long long>(refs),
                workload.c_str(), out.c_str());
    return 0;
}

int
doInfo(const std::string &in)
{
    std::string error;
    auto trace = TraceWorkload::load(in, &error);
    if (!trace) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
    }
    std::printf("trace: %s\n", in.c_str());
    std::printf("workload: %s\n", trace->name().c_str());
    std::printf("entries: %zu\n", trace->entryCount());
    std::printf("burst rate: %s/s\n",
                formatNumber(trace->memRefRate(), 0).c_str());
    std::printf("cpu fraction: %.3f\n", trace->cpuWorkFraction());
    std::printf("regions:\n");
    for (const RegionSpec &region : trace->regions()) {
        std::printf("  %-12s %10s%s%s\n", region.name.c_str(),
                    formatBytes(region.bytes).c_str(),
                    region.thp ? "  thp" : "",
                    region.fileBacked ? "  file-backed" : "");
    }
    return 0;
}

int
doReplay(const std::string &in, double target,
         std::uint64_t duration_sec)
{
    std::string error;
    auto trace = TraceWorkload::load(in, &error);
    if (!trace) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
    }
    SimConfig config;
    config.params.tolerableSlowdownPct = target;
    config.duration = static_cast<Ns>(duration_sec) * kNsPerSec;
    if (Simulation::sampleWeight(config, trace->memRefRate()) == 0) {
        std::fprintf(stderr,
                     "trace '%s': memRefRate %g/s is below the "
                     "minimum %g/s\n",
                     in.c_str(), trace->memRefRate(),
                     Simulation::minMemRefRate(config));
        return 2;
    }
    Simulation sim(std::move(trace), config);
    const SimResult r = sim.run();
    std::printf("replayed %s: cold %s of %s, slowdown %s "
                "(target %s)\n",
                in.c_str(), formatPct(r.finalColdFraction).c_str(),
                formatBytes(r.finalRssBytes).c_str(),
                formatPct(r.slowdown, 2).c_str(),
                formatPct(target / 100.0, 1).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage(argv[0]);
    }
    const std::string verb = argv[1];
    std::string workload;
    std::string in;
    std::string out;
    std::uint64_t refs = 1'000'000;
    std::uint64_t seed = 42;
    double target = 3.0;
    std::uint64_t duration_sec = 0; // 0 = the trace's natural length
    // Longest --duration whose nanosecond count fits in Ns.
    constexpr std::uint64_t kMaxSeconds =
        std::numeric_limits<Ns>::max() / kNsPerSec;

    for (int i = 2; i < argc; ++i) {
        const char *arg = argv[i];
        if (!std::strcmp(arg, "--workload")) {
            workload = nextArg(argc, argv, i, argv[0]);
        } else if (!std::strcmp(arg, "--refs")) {
            const std::optional<std::uint64_t> v =
                parseCount(nextArg(argc, argv, i, argv[0]));
            requireOperand(v && *v >= 1, argv, i, "a count >= 1");
            refs = *v;
        } else if (!std::strcmp(arg, "--out")) {
            out = nextArg(argc, argv, i, argv[0]);
        } else if (!std::strcmp(arg, "--in")) {
            in = nextArg(argc, argv, i, argv[0]);
        } else if (!std::strcmp(arg, "--seed")) {
            const std::optional<std::uint64_t> v =
                parseCount(nextArg(argc, argv, i, argv[0]));
            requireOperand(v.has_value(), argv, i,
                           "an unsigned 64-bit integer");
            seed = *v;
        } else if (!std::strcmp(arg, "--target")) {
            const std::optional<double> v =
                parseReal(nextArg(argc, argv, i, argv[0]));
            requireOperand(v && *v > 0.0 && *v <= 100.0, argv, i,
                           "a percentage in (0, 100]");
            target = *v;
        } else if (!std::strcmp(arg, "--duration")) {
            const std::optional<std::uint64_t> v =
                parseCount(nextArg(argc, argv, i, argv[0]));
            requireOperand(v && *v >= 1 && *v <= kMaxSeconds, argv,
                           i, "whole seconds >= 1");
            duration_sec = *v;
        } else {
            usage(argv[0]);
        }
    }

    if (verb == "record" && !workload.empty() && !out.empty()) {
        return doRecord(workload, refs, out, seed);
    }
    if (verb == "info" && !in.empty()) {
        return doInfo(in);
    }
    if (verb == "replay" && !in.empty()) {
        return doReplay(in, target, duration_sec);
    }
    usage(argv[0]);
}
