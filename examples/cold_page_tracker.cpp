/**
 * @file
 * Cold-page tracker: drive the kernel-services layer directly (no
 * Thermostat engine) to inspect an application's page temperature,
 * the way an operator would explore /sys/kernel/mm/page_idle.
 *
 * Usage: cold_page_tracker [workload] [seconds]
 *
 * Runs the workload with a periodic kstaled scan, then prints an
 * idle-age histogram of its 2MB pages, the per-region breakdown,
 * and a comparison between Accessed-bit idleness and poison-based
 * access counting for a sample of pages -- the paper's Figure 1 /
 * Figure 2 methodology as a reusable tool.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "example_args.hh"
#include "sim/app_tuning.hh"
#include "sim/reporter.hh"
#include "sim/simulation.hh"
#include "workload/cloud_apps.hh"

using namespace thermostat;

int
main(int argc, char **argv)
{
    const std::string name = workloadArg(argc, argv, 1, "cassandra");
    const long seconds =
        countArg(argc, argv, 2, "seconds", 120, 1, kMaxExampleSeconds);

    SimConfig config;
    config.seed = 42;
    config.machine = tunedMachineConfig(name);
    config.duration = static_cast<Ns>(seconds) * kNsPerSec;
    config.thermostatEnabled = false;

    Simulation sim(makeWorkload(name), config);

    // Poison a sample of huge pages for access counting alongside
    // the Accessed-bit scans.
    Rng rng(17);
    auto sample_pages = sim.machine().space().hugePageAddrs();
    rng.shuffle(sample_pages);
    sample_pages.resize(
        std::min<std::size_t>(sample_pages.size(), 24));
    for (const Addr base : sample_pages) {
        sim.machine().trap().poison(base);
    }

    sim.setEpochHook([](Simulation &s, Ns now) {
        if (now % (2 * kNsPerSec) == 0) {
            s.kstaled().scanAll();
        }
    });
    (void)sim.run();

    std::printf("Cold-page tracker: %s after %lds\n\n", name.c_str(),
                seconds);

    // Idle-age histogram over 2MB pages.
    Log2Histogram idle_ages;
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
        by_region; // region -> (idle pages, total pages)
    AddressSpace &space = sim.machine().space();
    space.pageTable().forEachLeaf([&](Addr base, Pte &, bool huge) {
        if (!huge) {
            return;
        }
        const unsigned idle =
            sim.kstaled().idleState(base).idleScans;
        idle_ages.add(idle);
        for (const Region &region : space.regions()) {
            if (base >= region.base && base < region.end()) {
                auto &[idle_pages, total] = by_region[region.name];
                ++total;
                if (idle >= 5) { // idle for >= 10s
                    ++idle_pages;
                }
            }
        }
    });

    std::printf("idle-scan-age histogram (2s scans, log2 "
                "buckets):\n%s\n",
                idle_ages.toString().c_str());

    TablePrinter table({"Region", "2MB pages", "idle >= 10s",
                        "idle fraction"});
    for (const auto &[region, counts] : by_region) {
        table.addRow(
            {region, std::to_string(counts.second),
             std::to_string(counts.first),
             formatPct(static_cast<double>(counts.first) /
                       static_cast<double>(std::max<std::uint64_t>(
                           1, counts.second)))});
    }
    table.print();

    std::printf("\nAccessed-bit idleness vs measured access counts "
                "(poisoned sample):\n");
    TablePrinter sample_table({"page", "idle scans",
                               "counted accesses"});
    for (const Addr base : sample_pages) {
        char addr[32];
        std::snprintf(addr, sizeof(addr), "%#llx",
                      static_cast<unsigned long long>(base));
        sample_table.addRow(
            {addr,
             std::to_string(sim.kstaled().idleState(base).idleScans),
             std::to_string(
                 sim.machine().trap().faultCount(base))});
    }
    sample_table.print();
    std::printf("\nNote how pages with identical idle ages span "
                "orders of magnitude in\nmeasured access counts: "
                "the paper's core argument for rate-based\n"
                "classification (Fig 2).\n");
    return 0;
}
