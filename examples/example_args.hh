/**
 * @file
 * Positional-argument parsing shared by the examples: each numeric
 * operand goes through common/parse.hh and a range check, a workload
 * name must be one the factory knows, and a bad operand exits 2 with
 * a diagnostic naming it, so a typo never runs a simulation with a
 * NaN target or a wrapped duration.
 */

#ifndef THERMOSTAT_EXAMPLES_EXAMPLE_ARGS_HH
#define THERMOSTAT_EXAMPLES_EXAMPLE_ARGS_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "common/parse.hh"
#include "workload/cloud_apps.hh"

namespace thermostat
{

/**
 * argv[index] as a real in (lo, hi], or @p fallback when absent;
 * exits 2 on a malformed or out-of-range operand.
 */
inline double
realArg(int argc, char **argv, int index, const char *what,
        double fallback, double lo, double hi)
{
    if (argc <= index) {
        return fallback;
    }
    const std::optional<double> value = parseReal(argv[index]);
    if (!value || *value <= lo || *value > hi) {
        std::fprintf(stderr,
                     "%s: bad %s '%s' (want a number in (%g, %g])\n",
                     argv[0], what, argv[index], lo, hi);
        std::exit(2);
    }
    return *value;
}

/**
 * argv[index] as an integer in [lo, hi], or @p fallback when absent;
 * exits 2 on a malformed or out-of-range operand.
 */
inline long
countArg(int argc, char **argv, int index, const char *what,
         long fallback, long lo, long hi)
{
    if (argc <= index) {
        return fallback;
    }
    const std::optional<std::uint64_t> value = parseCount(argv[index]);
    if (!value || *value < static_cast<std::uint64_t>(lo) ||
        *value > static_cast<std::uint64_t>(hi)) {
        std::fprintf(stderr,
                     "%s: bad %s '%s' (want an integer in [%ld, %ld])\n",
                     argv[0], what, argv[index], lo, hi);
        std::exit(2);
    }
    return static_cast<long>(*value);
}

/**
 * argv[index] as a workload name, or @p fallback when absent; exits
 * 2 on a name makeWorkload does not know.
 */
inline std::string
workloadArg(int argc, char **argv, int index, const char *fallback)
{
    if (argc <= index) {
        return fallback;
    }
    if (!isWorkloadName(argv[index]) ||
        std::string(argv[index]) == "redis-bursty") {
        std::fprintf(stderr, "%s: unknown workload '%s'\n", argv[0],
                     argv[index]);
        std::exit(2);
    }
    return argv[index];
}

/** Longest run the examples accept, in seconds (a simulated week). */
constexpr long kMaxExampleSeconds = 7L * 24 * 3600;

} // namespace thermostat

#endif // THERMOSTAT_EXAMPLES_EXAMPLE_ARGS_HH
