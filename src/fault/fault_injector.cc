#include "fault/fault_injector.hh"

#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "common/logging.hh"
#include "common/parse.hh"
#include "obs/metrics.hh"

namespace thermostat
{

namespace
{

constexpr const char *kSiteNames[kFaultSiteCount] = {
    "migration-copy", "migration-alloc", "slow-latency",
    "slow-bandwidth", "wear-retire",
};

/** Non-negative finite seconds whose nanosecond count fits. */
bool
parseSeconds(const std::string &text, Ns &out)
{
    const std::optional<double> sec = parseReal(text);
    if (!sec || *sec < 0.0) {
        return false;
    }
    const double ns = *sec * static_cast<double>(kNsPerSec);
    if (!(ns < 0x1p63)) {
        return false;
    }
    out = static_cast<Ns>(std::llround(ns));
    return true;
}

bool
lookupSite(const std::string &name, FaultSite &out)
{
    for (std::size_t i = 0; i < kFaultSiteCount; ++i) {
        if (name == kSiteNames[i]) {
            out = static_cast<FaultSite>(i);
            return true;
        }
    }
    // Historical alias from early design notes.
    if (name == "migration-fail") {
        out = FaultSite::MigrationCopy;
        return true;
    }
    return false;
}

std::vector<std::string>
splitOn(const std::string &text, char sep)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    for (;;) {
        const std::size_t pos = text.find(sep, start);
        if (pos == std::string::npos) {
            parts.push_back(text.substr(start));
            return parts;
        }
        parts.push_back(text.substr(start, pos - start));
        start = pos + 1;
    }
}

} // namespace

const char *
faultSiteName(FaultSite site)
{
    return kSiteNames[static_cast<std::size_t>(site)];
}

bool
FaultPlan::enabled() const
{
    for (const FaultSitePlan &site : sites) {
        if (site.configured) {
            return true;
        }
    }
    return false;
}

bool
FaultPlan::parse(const std::string &spec, FaultPlan &out,
                 std::string &error)
{
    FaultPlan plan;
    for (const std::string &entry : splitOn(spec, ';')) {
        if (entry.empty()) {
            continue;
        }
        const std::size_t colon = entry.find(':');
        if (colon == std::string::npos) {
            error = "fault entry '" + entry + "' has no ':'";
            return false;
        }
        FaultSite site;
        const std::string siteName = entry.substr(0, colon);
        if (!lookupSite(siteName, site)) {
            error = "unknown fault site '" + siteName + "'";
            return false;
        }
        FaultSitePlan &sp = plan[site];
        sp.configured = true;
        for (const std::string &kv :
             splitOn(entry.substr(colon + 1), ',')) {
            const std::size_t eq = kv.find('=');
            if (eq == std::string::npos) {
                error = "fault setting '" + kv + "' has no '='";
                return false;
            }
            const std::string key = kv.substr(0, eq);
            const std::string value = kv.substr(eq + 1);
            const auto badValue = [&] {
                error = "bad value '" + value + "' for fault key '" +
                        key + "'";
                return false;
            };
            const std::optional<double> num = parseReal(value);
            const std::optional<Count> count = parseCount(value);
            if (key == "p") {
                if (!num) {
                    return badValue();
                }
                if (*num < 0.0 || *num > 1.0) {
                    error = "fault probability must be in [0,1]";
                    return false;
                }
                sp.probability = *num;
            } else if (key == "burst") {
                if (!count) {
                    return badValue();
                }
                sp.burst = *count;
            } else if (key == "at") {
                sp.hasAt = true;
                if (!parseSeconds(value, sp.at)) {
                    return badValue();
                }
            } else if (key == "from") {
                sp.hasWindow = true;
                if (!parseSeconds(value, sp.from)) {
                    return badValue();
                }
            } else if (key == "until") {
                sp.hasWindow = true;
                if (!parseSeconds(value, sp.until)) {
                    return badValue();
                }
            } else if (key == "factor") {
                if (!num) {
                    return badValue();
                }
                if (*num < 1.0) {
                    error = "fault factor must be >= 1";
                    return false;
                }
                sp.factor = *num;
            } else if (key == "count") {
                if (!count) {
                    return badValue();
                }
                sp.count = *count;
            } else {
                error = "unknown fault key '" + key + "'";
                return false;
            }
        }
        if (sp.hasWindow && sp.until == 0) {
            // `from` without `until`: open-ended episode.
            sp.until = std::numeric_limits<Ns>::max();
        }
        if (sp.hasWindow && sp.until <= sp.from) {
            error = "fault window is empty (until <= from)";
            return false;
        }
    }
    out = plan;
    return true;
}

FaultInjector::FaultInjector(const FaultPlan &plan, std::uint64_t seed)
    : plan_(plan)
{
    // One forked stream per site, in fixed site order, so a site's
    // schedule does not depend on which other sites are configured.
    Rng root(seed);
    for (std::size_t i = 0; i < kFaultSiteCount; ++i) {
        sites_[i].rng = root.fork();
        const FaultSitePlan &sp = plan_.sites[i];
        // A burst with no trigger time is armed from t=0.
        sites_[i].burstLeft = sp.hasAt ? 0 : sp.burst;
        sites_[i].scheduledPending = sp.hasAt;
    }
}

FaultInjector::SiteState &
FaultInjector::state(FaultSite site)
{
    return sites_[static_cast<std::size_t>(site)];
}

const FaultInjector::SiteState &
FaultInjector::state(FaultSite site) const
{
    return sites_[static_cast<std::size_t>(site)];
}

bool
FaultInjector::shouldFail(FaultSite site, Ns now)
{
    const FaultSitePlan &sp = plan_[site];
    SiteState &st = state(site);
    if (!sp.configured) {
        return false;
    }
    ++st.queries;
    // A timed burst arms when its trigger passes (and consumes the
    // scheduled-event token, so a site is either burst- or
    // scheduled-mode, never both from one `at`).
    if (st.scheduledPending && sp.burst > 0 && now >= sp.at) {
        st.scheduledPending = false;
        st.burstLeft = sp.burst;
    }
    if (st.burstLeft > 0) {
        --st.burstLeft;
        ++st.injected;
        return true;
    }
    if (sp.probability > 0.0 &&
        (!sp.hasWindow || windowActive(site, now)) &&
        st.rng.nextBool(sp.probability)) {
        ++st.injected;
        return true;
    }
    return false;
}

bool
FaultInjector::windowActive(FaultSite site, Ns now) const
{
    const FaultSitePlan &sp = plan_[site];
    return sp.configured && sp.hasWindow && now >= sp.from &&
           now < sp.until;
}

double
FaultInjector::severity(FaultSite site, Ns now) const
{
    return windowActive(site, now) ? plan_[site].factor : 1.0;
}

Count
FaultInjector::takeScheduled(FaultSite site, Ns now)
{
    const FaultSitePlan &sp = plan_[site];
    SiteState &st = state(site);
    if (!sp.configured) {
        return 0;
    }
    ++st.queries;
    // One-shot trigger (not claimed by a burst).
    if (st.scheduledPending && sp.burst == 0 && now >= sp.at) {
        st.scheduledPending = false;
        st.injected += sp.count;
        return sp.count;
    }
    // Recurring probabilistic trigger.
    if (sp.probability > 0.0 &&
        (!sp.hasWindow || windowActive(site, now)) &&
        st.rng.nextBool(sp.probability)) {
        st.injected += sp.count;
        return sp.count;
    }
    return 0;
}

Count
FaultInjector::queries(FaultSite site) const
{
    return state(site).queries;
}

Count
FaultInjector::injected(FaultSite site) const
{
    return state(site).injected;
}

void
FaultInjector::registerMetrics(MetricRegistry &registry,
                               const std::string &prefix) const
{
    for (std::size_t i = 0; i < kFaultSiteCount; ++i) {
        const FaultSite site = static_cast<FaultSite>(i);
        if (!plan_.sites[i].configured) {
            continue;
        }
        const std::string base =
            prefix + "." + kSiteNames[i] + ".";
        registry.addCallback(base + "queries", [this, site] {
            return static_cast<double>(queries(site));
        });
        registry.addCallback(base + "injected", [this, site] {
            return static_cast<double>(injected(site));
        });
    }
}

} // namespace thermostat
