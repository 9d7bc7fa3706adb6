/**
 * @file
 * Bring-your-own-workload: build a ComposedWorkload from scratch
 * and watch Thermostat adapt as its working set changes.
 *
 * The synthetic app is a log-structured store: a hot append head, a
 * warm recently-written band that cools as the log grows, and a
 * long cold tail.  Halfway through the run a "reprocessing job"
 * starts scanning the cold tail, and the mis-classification
 * corrector pulls the scanned pages back to DRAM.
 *
 * Usage: custom_workload [seconds] [tolerable_slowdown_pct]
 */

#include <cstdio>
#include <memory>

#include "example_args.hh"
#include "sim/reporter.hh"
#include "sim/simulation.hh"

using namespace thermostat;

namespace
{

std::unique_ptr<ComposedWorkload>
makeLogStore()
{
    auto w = std::make_unique<ComposedWorkload>(
        "log-store", 400.0e3, 0.80, 600 * kNsPerSec);
    const std::uint64_t log_bytes = 4ULL << 30;
    w->addRegion({"log", log_bytes, 0, true, false});
    w->addRegion({"index", 256_MiB, 0, true, false});

    // Hot append head: the first 2% of the log, write-heavy.
    TrafficComponent head;
    head.region = "log";
    head.weight = 0.55;
    head.writeFraction = 0.85;
    head.burstLines = 8;
    head.pattern = std::make_unique<ZipfianPattern>(
        log_bytes / 50, 4096, 0.6, false, 1);
    w->addComponent(std::move(head));

    // Warm band: recency-skewed reads over the first quarter.
    TrafficComponent warm;
    warm.region = "log";
    warm.weight = 0.30;
    warm.writeFraction = 0.05;
    warm.pattern = std::make_unique<ZipfianPattern>(
        log_bytes / 4, 4096, 0.9, false, 2);
    w->addComponent(std::move(warm));

    // Reprocessing job: phase-shifted scan that reaches the cold
    // tail in the second half of the run.
    {
        auto scan = std::make_unique<SequentialScanPattern>(
            log_bytes / 2, 256);
        auto shifted = std::make_unique<PhaseShiftPattern>(
            std::move(scan), 300 * kNsPerSec, log_bytes / 2,
            log_bytes);
        TrafficComponent job;
        job.region = "log";
        job.weight = 0.05;
        job.writeFraction = 0.0;
        job.burstLines = 4;
        job.pattern = std::move(shifted);
        w->addComponent(std::move(job));
    }

    // The index stays hot.
    TrafficComponent index;
    index.region = "index";
    index.weight = 0.0999;
    index.writeFraction = 0.3;
    index.pattern =
        std::make_unique<UniformPattern>(256_MiB);
    w->addComponent(std::move(index));
    return w;
}

} // namespace

int
main(int argc, char **argv)
{
    const long seconds =
        countArg(argc, argv, 1, "seconds", 600, 1, kMaxExampleSeconds);
    const double target =
        realArg(argc, argv, 2, "tolerable_slowdown_pct", 3.0, 0.0, 100.0);

    SimConfig config;
    config.seed = 7;
    config.duration = static_cast<Ns>(seconds) * kNsPerSec;
    config.params.tolerableSlowdownPct = target;
    config.machine.fastTier = TierConfig::dram(8ULL << 30);
    config.machine.slowTier = TierConfig::slow(8ULL << 30);

    std::printf("Custom log-structured store under Thermostat "
                "(%lds, %.0f%% target)\n\n",
                seconds, target);
    Simulation sim(makeLogStore(), config);
    const SimResult result = sim.run();

    std::printf("cold data over time (watch the dip when the "
                "reprocessing job\nstarts scanning the cold tail "
                "at t=%lds):\n",
                seconds / 2);
    printSeries(result.cold2M, "bytes", 20);
    std::printf("\nachieved slowdown: %s (target %s); promotions: "
                "%llu\n",
                formatPct(result.slowdown, 2).c_str(),
                formatPct(target / 100.0, 0).c_str(),
                static_cast<unsigned long long>(
                    result.engine.promotions));
    std::printf("migration: %s demote, %s promote\n",
                formatRateMBps(result.demotionBytesPerSec).c_str(),
                formatRateMBps(result.promotionBytesPerSec).c_str());
    return 0;
}
