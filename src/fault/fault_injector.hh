/**
 * @file
 * Deterministic fault injection.
 *
 * Real two-tier systems live with a slow tier that misbehaves: NVM
 * wears out (the paper budgets migration bandwidth against 3D XPoint
 * endurance, Sec 6), migrations fail or are aborted mid-copy (Nomad
 * builds its transactional migration around exactly this), and the
 * device sees latency/bandwidth degradation episodes.  The simulator
 * models those events through a single seeded `FaultInjector` that
 * components query at named sites, so every failure scenario is
 * bit-reproducible from the experiment seed.
 *
 * Faults are described by a `FaultPlan`, parsed from a compact spec
 * string (`thermostat_sim --fault-plan=...`):
 *
 *     plan  := entry (';' entry)*
 *     entry := site ':' key '=' value (',' key '=' value)*
 *     site  := migration-copy | migration-alloc | slow-latency
 *            | slow-bandwidth | wear-retire
 *
 * Keys (all optional, any combination):
 *     p=<0..1>     Bernoulli probability per query (fault rate)
 *     burst=<n>    fail the first n queries after `at` fires
 *     at=<sec>     one-shot trigger time (scheduled events)
 *     from=<sec>,until=<sec>
 *                  degradation window (slow-latency/bandwidth)
 *     factor=<x>   severity multiplier inside the window
 *     count=<n>    event magnitude (e.g. blocks to retire)
 *
 * Every number must be finite, every time non-negative, and <n> a
 * whole decimal number below 2^64; anything else is a parse error.
 *
 * Example -- 5% migration copy failure plus one wear burst at t=60s
 * retiring 4 huge-page blocks:
 *
 *     migration-copy:p=0.05;wear-retire:at=60,count=4
 *
 * Each site draws from its own forked RNG stream, so enabling one
 * fault site never perturbs the schedule of another.
 */

#ifndef THERMOSTAT_FAULT_FAULT_INJECTOR_HH
#define THERMOSTAT_FAULT_FAULT_INJECTOR_HH

#include <array>
#include <cstddef>
#include <string>

#include "common/rng.hh"
#include "common/types.hh"

namespace thermostat
{

class MetricRegistry;

/** Named injection points components consult. */
enum class FaultSite : unsigned
{
    /** Abort a migration copy halfway through (torn migration). */
    MigrationCopy,
    /** Destination-tier allocation failure (transient pressure). */
    MigrationAlloc,
    /** Slow-tier access latency spike episode. */
    SlowLatency,
    /** Slow-tier copy/migration bandwidth degradation episode. */
    SlowBandwidth,
    /** Wear-induced retirement of slow-tier frame blocks. */
    WearRetire,
};

inline constexpr std::size_t kFaultSiteCount = 5;

/** Human-readable site name (the spec-string spelling). */
const char *faultSiteName(FaultSite site);

/** Per-site behaviour, as parsed from one plan entry. */
struct FaultSitePlan
{
    bool configured = false;

    /** Bernoulli fault probability per query. */
    double probability = 0.0;

    /** Deterministic burst: fail this many queries once armed. */
    Count burst = 0;

    /** One-shot trigger time; also arms `burst`. */
    bool hasAt = false;
    Ns at = 0;

    /** Degradation window [from, until). */
    bool hasWindow = false;
    Ns from = 0;
    Ns until = 0;

    /** Severity multiplier while the window is active. */
    double factor = 1.0;

    /** Magnitude of scheduled events (e.g. blocks to retire). */
    Count count = 1;
};

/** A full plan: one optional entry per site. */
struct FaultPlan
{
    std::array<FaultSitePlan, kFaultSiteCount> sites;

    FaultSitePlan &
    operator[](FaultSite site)
    {
        return sites[static_cast<std::size_t>(site)];
    }

    const FaultSitePlan &
    operator[](FaultSite site) const
    {
        return sites[static_cast<std::size_t>(site)];
    }

    /** True when any site is configured. */
    bool enabled() const;

    /**
     * Parse a spec string (grammar above) into @p out.
     * @return false with a message in @p error on malformed input.
     */
    static bool parse(const std::string &spec, FaultPlan &out,
                      std::string &error);
};

/**
 * The injector: owns the plan, the per-site RNG streams and the
 * per-site query/injection counts.  Queries are cheap and
 * side-effect-free for unconfigured sites, but components should
 * still gate fault paths on the injector being present at all so a
 * fault-free run stays byte-identical to a build without it.
 */
class FaultInjector
{
  public:
    FaultInjector(const FaultPlan &plan, std::uint64_t seed);

    /**
     * Should the operation at @p site fail now?  Consumes one burst
     * token if the site's burst is armed, otherwise draws from the
     * site's Bernoulli stream (gated on the window when one is set).
     */
    bool shouldFail(FaultSite site, Ns now);

    /**
     * Severity multiplier for degradation sites: `factor` while the
     * site's window is active, 1.0 otherwise.
     */
    double severity(FaultSite site, Ns now) const;

    /** Is the site's degradation window currently active? */
    bool windowActive(FaultSite site, Ns now) const;

    /**
     * One-shot scheduled trigger: the first call with `now >= at`
     * returns the site's `count` (and disarms it); 0 otherwise.
     * Probability-mode sites additionally fire `count` per epoch
     * with probability `p`.
     */
    Count takeScheduled(FaultSite site, Ns now);

    const FaultPlan &plan() const { return plan_; }

    /** Total queries / injected faults at a site. */
    Count queries(FaultSite site) const;
    Count injected(FaultSite site) const;

    /** Export per-site counts under "<prefix>.<site>.*". */
    void registerMetrics(MetricRegistry &registry,
                         const std::string &prefix) const;

  private:
    struct SiteState
    {
        Rng rng{0};
        Count burstLeft = 0;
        bool scheduledPending = false;
        Count queries = 0;
        Count injected = 0;
    };

    SiteState &state(FaultSite site);
    const SiteState &state(FaultSite site) const;

    FaultPlan plan_;
    mutable std::array<SiteState, kFaultSiteCount> sites_;
};

} // namespace thermostat

#endif // THERMOSTAT_FAULT_FAULT_INJECTOR_HH
