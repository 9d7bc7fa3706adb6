/**
 * @file
 * Capacity planner: the paper's Section 6 "merits of slow-memory
 * software-emulation" use case.  A cloud operator wants to know,
 * before buying hardware, how much of a workload's DRAM could move
 * to a cheaper tier at an acceptable slowdown, and what the memory
 * bill would look like across candidate device price/latency
 * points.
 *
 * Usage: capacity_planner [workload] [seconds]
 *
 * Sweeps tolerable slowdowns and slow-memory latencies, then prints
 * a provisioning table: cold fraction, achieved slowdown, and the
 * blended memory cost (Table 4's model) per configuration.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "example_args.hh"
#include "sim/app_tuning.hh"
#include "sim/reporter.hh"
#include "sim/simulation.hh"
#include "workload/cloud_apps.hh"

using namespace thermostat;

namespace
{

struct PlanPoint
{
    double slowdownPct;
    Ns slowLatency;
    double coldFraction;
    double achievedSlowdown;
};

PlanPoint
evaluate(const std::string &workload, double slowdown_pct,
         Ns slow_latency, Ns duration)
{
    SimConfig config;
    config.seed = 42;
    config.machine = tunedMachineConfig(workload);
    config.duration = duration;
    config.params.tolerableSlowdownPct = slowdown_pct;
    config.params.slowMemLatency = slow_latency;
    // The emulation fault stands in for the candidate device.
    config.machine.trap.faultLatency =
        static_cast<Ns>(0.85 * static_cast<double>(slow_latency));

    Simulation sim(makeWorkload(workload), config);
    const SimResult result = sim.run();
    return {slowdown_pct, slow_latency, result.finalColdFraction,
            result.slowdown};
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string workload =
        workloadArg(argc, argv, 1, "mysql-tpcc");
    const long seconds =
        countArg(argc, argv, 2, "seconds", 480, 1, kMaxExampleSeconds);
    const Ns duration = static_cast<Ns>(seconds) * kNsPerSec;

    std::printf("Capacity planning for %s (%lds per "
                "configuration)\n\n",
                workload.c_str(), seconds);

    const double targets[] = {1.0, 3.0, 6.0};
    const Ns latencies[] = {500, 1000, 3000};

    TablePrinter table({"target", "device latency", "cold frac",
                        "achieved", "mem cost @0.33x",
                        "mem cost @0.2x"});
    double best_saving = 0.0;
    std::string best_config;
    for (const double target : targets) {
        for (const Ns latency : latencies) {
            const PlanPoint p =
                evaluate(workload, target, latency, duration);
            const double cost_33 =
                1.0 - p.coldFraction * (1.0 - 1.0 / 3.0);
            const double cost_20 =
                1.0 - p.coldFraction * (1.0 - 0.2);
            char lat[32];
            std::snprintf(lat, sizeof(lat), "%lluns",
                          static_cast<unsigned long long>(latency));
            table.addRow({formatPct(target / 100.0, 0), lat,
                          formatPct(p.coldFraction),
                          formatPct(p.achievedSlowdown, 2),
                          formatPct(cost_33, 0),
                          formatPct(cost_20, 0)});
            const double saving =
                p.coldFraction * (1.0 - 1.0 / 3.0);
            if (saving > best_saving &&
                p.achievedSlowdown <= target / 100.0 + 0.01) {
                best_saving = saving;
                best_config = formatPct(target / 100.0, 0) +
                              " target @ " + lat;
            }
        }
    }
    table.print();
    if (!best_config.empty()) {
        std::printf("\nBest within budget: %s saves %s of DRAM "
                    "spend at 1/3 device cost.\n",
                    best_config.c_str(),
                    formatPct(best_saving, 0).c_str());
    }
    std::printf("\nThis is the paper's deployment-evaluation story "
                "(Sec 6): Thermostat runs\non test nodes with "
                "emulated slow memory, so operators can price "
                "two-tier\nconfigurations before any hardware "
                "exists.\n");
    return 0;
}
