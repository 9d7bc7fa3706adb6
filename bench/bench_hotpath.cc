/**
 * @file
 * Hot-path microbenchmark: host-side accesses/sec through
 * `Machine::access` under the access mixes that dominate artifact
 * regeneration, plus one end-to-end Simulation epoch loop.  Emits
 * BENCH_hotpath.json so the perf trajectory is tracked from PR to
 * PR (the acceptance gate compares against the recorded pre-PR
 * baseline).
 *
 * Scenarios:
 *  - tlb_hit:     small hot set, L1 TLB + LLC hits (fast path).
 *  - tlb_miss_4k: large 4KB-mapped footprint, walks + LLC misses.
 *  - poisoned:    BadgerTrap faults on a monitored working set.
 *  - slow_tier:   LLC misses served by the slow device model.
 *  - sim_epoch:   full Simulation timing-stream epochs (web-search),
 *                 access-sampling telemetry off.
 *  - sim_epoch_sampled: the same epochs with the default sampling
 *                 period, bounding the telemetry tap's overhead.
 *  - sim_epoch_sharded{2,4,8}: the sim_epoch loop with the sharded
 *                 epoch pipeline at 2/4/8 worker threads; together
 *                 with sim_epoch (serial) these trace the scaling
 *                 curve the perf gate tracks per PR.
 *  - host_epoch:  four consolidated tenants under DatacenterHost
 *                 with the arbiter metering bandwidth; bounds the
 *                 host layer's per-epoch overhead.
 *  - migrate_huge: 2MB demote+promote round trips on the default
 *                 32MB LLC with every line of the page resident
 *                 before each move; "accesses" counts round trips,
 *                 and only the migrate calls are timed, so the row
 *                 isolates the migration path and its LLC
 *                 invalidation.
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "host/datacenter_host.hh"
#include "obs/json.hh"
#include "sys/migration.hh"

using namespace thermostat;
using namespace thermostat::bench;

namespace
{

struct ScenarioResult
{
    std::string name;
    std::uint64_t accesses = 0;
    double seconds = 0.0;

    double
    accessesPerSec() const
    {
        return seconds > 0.0
                   ? static_cast<double>(accesses) / seconds
                   : 0.0;
    }
};

MachineConfig
hotpathConfig()
{
    MachineConfig config;
    config.fastTier = TierConfig::dram(2ULL << 30);
    config.slowTier = TierConfig::slow(2ULL << 30);
    config.llc.sizeBytes = 8_MiB;
    return config;
}

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now()
                   .time_since_epoch())
        .count();
}

/** Best-of-3 timing of @p body(accesses). */
template <typename Body>
ScenarioResult
timeScenario(const std::string &name, std::uint64_t accesses,
             Body &&body)
{
    ScenarioResult result;
    result.name = name;
    result.accesses = accesses;
    result.seconds = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
        const double t0 = now();
        body(accesses);
        const double elapsed = now() - t0;
        if (elapsed < result.seconds) {
            result.seconds = elapsed;
        }
    }
    std::printf("  %-12s %12llu accesses  %8.3f s  %12.0f/s\n",
                name.c_str(),
                static_cast<unsigned long long>(accesses),
                result.seconds, result.accessesPerSec());
    return result;
}

ScenarioResult
benchTlbHit(std::uint64_t accesses)
{
    Machine machine(hotpathConfig());
    const Addr heap = machine.space().mapRegion("heap", 64_MiB);
    Rng rng(1);
    return timeScenario("tlb_hit", accesses, [&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i) {
            const Addr addr =
                heap + (rng.next() & (1_MiB - 1) & ~Addr{63});
            machine.access(addr, AccessType::Read, 1, 4);
        }
    });
}

ScenarioResult
benchTlbMiss4K(std::uint64_t accesses)
{
    Machine machine(hotpathConfig());
    // 4KB mappings: 512MB = 128K leaves, far beyond TLB reach.
    const Addr heap = machine.space().mapRegion(
        "heap", 512_MiB, 0, /*thp=*/false);
    Rng rng(2);
    return timeScenario(
        "tlb_miss_4k", accesses, [&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i) {
                const Addr addr =
                    heap + (rng.next() & (512_MiB - 1) & ~Addr{63});
                machine.access(addr,
                               (i & 7) == 0 ? AccessType::Write
                                            : AccessType::Read,
                               1, 4);
            }
        });
}

ScenarioResult
benchPoisoned(std::uint64_t accesses)
{
    Machine machine(hotpathConfig());
    const Addr heap = machine.space().mapRegion("heap", 64_MiB);
    // Poison every huge page: every TLB miss faults.
    for (Addr base = heap; base < heap + 64_MiB;
         base += kPageSize2M) {
        machine.trap().poison(base);
    }
    Rng rng(3);
    return timeScenario(
        "poisoned", accesses, [&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i) {
                const Addr addr =
                    heap + (rng.next() & (64_MiB - 1) & ~Addr{63});
                // Shoot down so each access replays the fault path.
                machine.tlb().invalidatePage(addr);
                machine.access(addr, AccessType::Read, 1, 2);
            }
        });
}

ScenarioResult
benchSlowTier(std::uint64_t accesses)
{
    MachineConfig config = hotpathConfig();
    config.slowMode = SlowEmuMode::Device;
    Machine machine(config);
    const Addr cold = machine.space().mapRegion("cold", 256_MiB);
    // Demote the whole region so every access hits the slow tier.
    PageMigrator migrator(machine.space(), machine.tlb(),
                          &machine.llc());
    for (Addr base = cold; base < cold + 256_MiB;
         base += kPageSize2M) {
        migrator.migrate(base, Tier::Slow, 0);
    }
    Rng rng(4);
    return timeScenario(
        "slow_tier", accesses, [&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i) {
                const Addr addr =
                    cold + (rng.next() & (256_MiB - 1) & ~Addr{63});
                machine.access(addr, AccessType::Read, 1, 4);
            }
        });
}

ScenarioResult
benchSimEpochWithSampler(const std::string &name,
                         std::uint64_t accesses,
                         Count sample_period,
                         unsigned shards = 1)
{
    SimConfig config = standardConfig("web-search", 3.0, 0);
    config.sampler.period = sample_period;
    config.shards = shards;
    const auto epochs = static_cast<Ns>(
        accesses / config.samplesPerEpoch + 1);
    config.duration = epochs * config.epoch;
    ScenarioResult result;
    result.name = name;
    result.accesses = epochs * config.samplesPerEpoch;
    result.seconds = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
        Simulation sim(makeWorkload("web-search", 42), config);
        const double t0 = now();
        sim.run();
        const double elapsed = now() - t0;
        if (elapsed < result.seconds) {
            result.seconds = elapsed;
        }
    }
    std::printf("  %-12s %12llu accesses  %8.3f s  %12.0f/s\n",
                result.name.c_str(),
                static_cast<unsigned long long>(result.accesses),
                result.seconds, result.accessesPerSec());
    return result;
}

ScenarioResult
benchSimEpoch(std::uint64_t accesses)
{
    // Sampling off: the historical baseline scenario.
    return benchSimEpochWithSampler("sim_epoch", accesses, 0);
}

ScenarioResult
benchSimEpochSampled(std::uint64_t accesses)
{
    // Default telemetry settings; the acceptance bound holds this
    // within 5% of sim_epoch (the tap is one branch per access).
    return benchSimEpochWithSampler("sim_epoch_sampled", accesses,
                                    AccessSamplerConfig{}.period);
}

/** Sharded epoch pipeline on @p shards threads (same work
 *  as sim_epoch; results are byte-identical by construction). */
template <unsigned Shards>
ScenarioResult
benchSimEpochSharded(std::uint64_t accesses)
{
    return benchSimEpochWithSampler(
        "sim_epoch_sharded" + std::to_string(Shards), accesses, 0,
        Shards);
}

ScenarioResult
benchHostEpoch(std::uint64_t accesses)
{
    // Four-tenant consolidated host epochs with the arbiter
    // metering bandwidth: the per-epoch host overhead (grant
    // split, ledger reconciliation, flight row) on top of the
    // tenants' sim_epoch work.
    std::vector<TenantSpec> specs;
    for (unsigned i = 0; i < 4; ++i) {
        TenantSpec spec;
        spec.id = "t" + std::to_string(i);
        spec.workload = "web-search";
        specs.push_back(spec);
    }
    HostConfig config;
    config.base = standardConfig("web-search", 3.0, 0);
    config.base.sampler.period = 0;
    const auto epochs = static_cast<Ns>(
        accesses / config.base.samplesPerEpoch + 1);
    config.base.duration = epochs * config.base.epoch;
    config.arbiter.migrationBwBytesPerSec = 400.0e6;
    config.arbiter.epoch = config.base.epoch;

    ScenarioResult result;
    result.name = "host_epoch";
    result.accesses =
        specs.size() * epochs * config.base.samplesPerEpoch;
    result.seconds = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
        DatacenterHost host(specs, config);
        const double t0 = now();
        host.run();
        const double elapsed = now() - t0;
        if (elapsed < result.seconds) {
            result.seconds = elapsed;
        }
    }
    std::printf("  %-12s %12llu accesses  %8.3f s  %12.0f/s\n",
                result.name.c_str(),
                static_cast<unsigned long long>(result.accesses),
                result.seconds, result.accessesPerSec());
    return result;
}

ScenarioResult
benchMigrateHuge(std::uint64_t round_trips)
{
    MachineConfig config = hotpathConfig();
    config.llc = LlcConfig();
    Machine machine(config);
    const Addr page = machine.space().mapRegion("page", kPageSize2M);
    PageMigrator migrator(machine.space(), machine.tlb(),
                          &machine.llc());
    const unsigned lane = laneOf(page);
    // Make every line of the page's current frame resident.
    const auto fill = [&] {
        const Addr base =
            machine.space().pageTable().walk(page).pte->pfn() *
            kPageSize4K;
        for (Addr off = 0; off < kPageSize2M; off += 64) {
            machine.llc().access(lane, base + off, AccessType::Write);
        }
    };
    ScenarioResult result;
    result.name = "migrate_huge";
    result.accesses = round_trips;
    result.seconds = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
        double elapsed = 0.0;
        for (std::uint64_t i = 0; i < round_trips; ++i) {
            for (const Tier target : {Tier::Slow, Tier::Fast}) {
                fill();
                const double t0 = now();
                migrator.migrate(page, target, 0);
                elapsed += now() - t0;
            }
        }
        if (elapsed < result.seconds) {
            result.seconds = elapsed;
        }
    }
    std::printf("  %-12s %12llu round trips  %8.3f s  %8.1f us each\n",
                result.name.c_str(),
                static_cast<unsigned long long>(round_trips),
                result.seconds,
                result.seconds * 1e6 / static_cast<double>(round_trips));
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool quick = quickMode(argc, argv);
    std::string out_path = "BENCH_hotpath.json";
    std::string only;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::string(argv[i]) == "--out") {
            out_path = argv[i + 1];
        }
        if (std::string(argv[i]) == "--only") {
            only = argv[i + 1];
        }
    }
    banner("Hot-path microbenchmark: Machine::access throughput",
           "simulator substrate (no paper figure)", quick);

    const std::uint64_t scale = quick ? 1 : 4;
    struct Scenario
    {
        const char *name;
        ScenarioResult (*run)(std::uint64_t);
        std::uint64_t accesses;
    };
    const Scenario scenarios[] = {
        {"tlb_hit", benchTlbHit, scale * 2'000'000},
        {"tlb_miss_4k", benchTlbMiss4K, scale * 1'000'000},
        {"poisoned", benchPoisoned, scale * 500'000},
        {"slow_tier", benchSlowTier, scale * 1'000'000},
        {"sim_epoch", benchSimEpoch, scale * 200'000},
        {"sim_epoch_sampled", benchSimEpochSampled,
         scale * 200'000},
        {"sim_epoch_sharded2", benchSimEpochSharded<2>,
         scale * 200'000},
        {"sim_epoch_sharded4", benchSimEpochSharded<4>,
         scale * 200'000},
        {"sim_epoch_sharded8", benchSimEpochSharded<8>,
         scale * 200'000},
        {"host_epoch", benchHostEpoch, scale * 100'000},
        {"migrate_huge", benchMigrateHuge, scale * 500},
    };
    std::vector<ScenarioResult> results;
    for (const Scenario &s : scenarios) {
        if (!only.empty() && only != s.name) {
            continue;
        }
        results.push_back(s.run(s.accesses));
    }

    double total_accesses = 0.0;
    double total_seconds = 0.0;
    for (const ScenarioResult &r : results) {
        total_accesses += static_cast<double>(r.accesses);
        total_seconds += r.seconds;
    }
    const double aggregate =
        total_seconds > 0.0 ? total_accesses / total_seconds : 0.0;
    std::printf("\naggregate: %.0f accesses/sec\n", aggregate);

    JsonWriter w;
    w.beginObject();
    w.key("bench");
    w.value("bench_hotpath");
    w.key("quick");
    w.value(quick);
    w.key("aggregate_accesses_per_sec");
    w.value(aggregate);
    w.key("scenarios");
    w.beginArray();
    for (const ScenarioResult &r : results) {
        w.beginObject();
        w.key("name");
        w.value(r.name);
        w.key("accesses");
        w.value(r.accesses);
        w.key("seconds");
        w.value(r.seconds);
        w.key("accesses_per_sec");
        w.value(r.accessesPerSec());
        w.endObject();
    }
    w.endArray();
    w.endObject();

    std::ofstream out(out_path);
    out << w.str() << "\n";
    std::printf("wrote %s\n", out_path.c_str());
    return out.good() ? 0 : 1;
}
