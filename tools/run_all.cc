/**
 * @file
 * Parallel benchmark driver: schedules whole benchmark binaries
 * across cores, replacing the serial loop in run_benches.sh.
 *
 * Each benchmark runs as its own child process with stdout+stderr
 * captured to a per-benchmark log; once everything has finished the
 * logs are replayed in the fixed benchmark order, so the combined
 * output is byte-stable regardless of how the processes interleaved.
 * Worker count honors THERMOSTAT_JOBS (or --jobs N, 0 = auto, at
 * most ThreadPool::kMaxJobs).
 *
 * Usage:
 *   run_all [--quick] [--jobs N] [--bench-dir DIR] [--log-dir DIR]
 *           [--list] [name...]
 *
 * With no names, the full suite runs: headline figures/tables at
 * full durations plus the ablation/microbench set in quick mode
 * (the split run_benches.sh has always used).  --quick forces quick
 * mode for everything.  Exit status is the number of failed
 * benchmarks (0 = all passed).
 */

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common/parse.hh"
#include "common/thread_pool.hh"

namespace
{

struct BenchJob
{
    std::string name;
    bool quick = false;
    int exitStatus = -1;
};

/** Headline experiments: full durations by default. */
const char *const kFullBenches[] = {
    "fig03_slowmem_rate", "fig05_cassandra",      "fig06_mysql",
    "fig07_aerospike",    "fig08_redis",          "fig09_analytics",
    "fig10_websearch",    "fig11_slowdown_sweep", "tab01_thp_gain",
    "tab02_footprints",   "tab03_migration_bw",   "tab04_cost_savings",
    "fig01_idle_fraction", "fig02_accessbit_scatter",
};

/**
 * Ablations, microbenches, and the consolidation sweep: always
 * quick in the default suite (the full 32-tenant consolidation
 * grid is a deliberate, standalone run).
 */
const char *const kQuickBenches[] = {
    "abl_sampling_overhead", "abl_poison_budget",
    "abl_sample_fraction",   "abl_correction",
    "abl_slow_emu_mode",     "abl_hw_counting",
    "abl_spread_pages",      "abl_wear_leveling",
    "micro_components",      "policy_compare",
    "datacenter_consolidation",
};

std::string
shellQuote(const std::string &s)
{
    std::string quoted = "'";
    for (const char c : s) {
        if (c == '\'') {
            quoted += "'\\''";
        } else {
            quoted += c;
        }
    }
    quoted += "'";
    return quoted;
}

bool
dumpFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        return false;
    }
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
        std::fwrite(buf, 1, n, stdout);
    }
    std::fclose(f);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    bool all_quick = false;
    bool list_only = false;
    unsigned jobs = 0;
    std::string bench_dir = "build/bench";
    std::string log_dir = "bench_logs";
    std::vector<std::string> names;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            all_quick = true;
        } else if (arg == "--list") {
            list_only = true;
        } else if (arg == "--jobs" && i + 1 < argc) {
            const std::optional<std::uint64_t> n =
                thermostat::parseCount(argv[++i]);
            if (!n || *n > thermostat::ThreadPool::kMaxJobs) {
                std::fprintf(stderr,
                             "run_all: bad --jobs '%s': expected an "
                             "integer in [0, %u]\n",
                             argv[i], thermostat::ThreadPool::kMaxJobs);
                return 2;
            }
            jobs = static_cast<unsigned>(*n);
        } else if (arg == "--bench-dir" && i + 1 < argc) {
            bench_dir = argv[++i];
        } else if (arg == "--log-dir" && i + 1 < argc) {
            log_dir = argv[++i];
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: run_all [--quick] [--jobs N] "
                "[--bench-dir DIR] [--log-dir DIR] [--list] "
                "[name...]\n");
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "run_all: unknown option %s\n",
                         arg.c_str());
            return 2;
        } else {
            names.push_back(arg);
        }
    }

    std::vector<BenchJob> run;
    if (names.empty()) {
        for (const char *name : kFullBenches) {
            run.push_back({name, all_quick, -1});
        }
        for (const char *name : kQuickBenches) {
            run.push_back({name, true, -1});
        }
    } else {
        for (const std::string &name : names) {
            run.push_back({name, all_quick, -1});
        }
    }

    if (list_only) {
        for (const BenchJob &job : run) {
            std::printf("%s%s\n", job.name.c_str(),
                        job.quick ? " (quick)" : "");
        }
        return 0;
    }

    if (mkdir(log_dir.c_str(), 0755) != 0 && errno != EEXIST) {
        std::fprintf(stderr, "run_all: cannot create %s\n",
                     log_dir.c_str());
        return 2;
    }

    thermostat::ThreadPool pool(jobs);
    std::printf("run_all: %zu benchmarks on %u workers\n",
                run.size(), pool.threadCount());
    std::fflush(stdout);

    for (BenchJob &job : run) {
        pool.submit([&job, &bench_dir, &log_dir] {
            const std::string log =
                log_dir + "/" + job.name + ".log";
            const std::string cmd =
                shellQuote(bench_dir + "/" + job.name) +
                (job.quick ? " --quick" : "") + " > " +
                shellQuote(log) + " 2>&1";
            job.exitStatus = std::system(cmd.c_str());
        });
    }
    pool.wait();

    // Replay logs in suite order so the combined output is stable.
    int failures = 0;
    for (const BenchJob &job : run) {
        std::printf("===== %s =====\n", job.name.c_str());
        std::fflush(stdout);
        if (!dumpFile(log_dir + "/" + job.name + ".log")) {
            std::printf("(no output captured)\n");
        }
        if (job.exitStatus != 0) {
            ++failures;
            std::printf("*** %s FAILED (status %d)\n",
                        job.name.c_str(), job.exitStatus);
        }
        std::fflush(stdout);
    }
    std::printf("\nrun_all: %d of %zu benchmarks failed\n", failures,
                run.size());
    return failures;
}
