/**
 * @file
 * perf_diff: the perf-regression gate.
 *
 *   perf_diff --baseline BENCH_hotpath.json --fresh fresh.json \
 *             [--threshold PCT] [--threshold-for NAME=PCT]... \
 *             [--metric KEY] [--direction higher|lower] \
 *             [--json FILE]
 *
 * Both files use the bench_hotpath schema: {"scenarios": [{"name":
 * ..., "accesses_per_sec": ...}, ...]}.  Scenarios are matched by
 * name; for each pair the relative delta of the chosen metric is
 * checked against the threshold (per-scenario overrides win over the
 * global one).  With --direction higher (the default) a drop beyond
 * the threshold is a regression and a rise beyond it an improvement;
 * --direction lower inverts that (for latency-style metrics).
 *
 * A scenario present in the baseline but missing from the fresh run
 * is a regression (a silently dropped benchmark must not pass the
 * gate); a scenario only in the fresh run is reported but does not
 * affect the verdict.
 *
 * Exit status: 0 = pass (or improvement), 1 = regression,
 * 2 = usage / unreadable / malformed input.  --json additionally
 * writes a machine-readable verdict for CI annotation.
 *
 * --update-baseline prints the same delta table, then rewrites the
 * baseline file with the fresh run's bytes and exits 0: the
 * intended-change workflow after landing a performance patch
 * (run_benches.sh --update-baseline wires it up).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/parse.hh"
#include "obs/json.hh"

using namespace thermostat;

namespace
{

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: perf_diff --baseline FILE --fresh FILE [options]\n"
        "  --threshold PCT      global tolerance, percent"
        " (default 10)\n"
        "  --threshold-for N=P  per-scenario tolerance override\n"
        "  --metric KEY         scenario metric key (default"
        " accesses_per_sec)\n"
        "  --direction D        higher (default) | lower ="
        " better\n"
        "  --json FILE          write machine-readable verdict\n"
        "  --update-baseline    print the delta table, then rewrite\n"
        "                       the baseline file with the fresh\n"
        "                       run and exit 0\n");
    std::exit(2);
}

const char *
nextArg(int argc, char **argv, int &i)
{
    if (i + 1 >= argc) {
        usage();
    }
    return argv[++i];
}

/**
 * A tolerance percentage: finite and non-negative.  Anything else
 * names @p flag and exits 2 (a malformed tolerance must not
 * silently become 0%).
 */
double
parsePct(const char *flag, const char *text)
{
    const std::optional<double> v = parseReal(text);
    if (!v || *v < 0.0) {
        std::fprintf(stderr,
                     "perf_diff: bad %s '%s': expected a finite "
                     "percentage >= 0\n",
                     flag, text);
        std::exit(2);
    }
    return *v;
}

/** Read an entire file; exit 2 when unreadable. */
std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "perf_diff: cannot read '%s'\n",
                     path.c_str());
        std::exit(2);
    }
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Scenario name -> metric value, in file order. */
struct ScenarioList
{
    std::vector<std::string> order;
    std::map<std::string, double> value;
};

ScenarioList
loadScenarios(const std::string &path, const std::string &metric)
{
    std::string error;
    JsonValue doc;
    if (!parseJson(readFile(path), &doc, &error)) {
        std::fprintf(stderr, "perf_diff: %s: %s\n", path.c_str(),
                     error.c_str());
        std::exit(2);
    }
    if (!doc.hasMember("scenarios")) {
        std::fprintf(stderr,
                     "perf_diff: %s: no \"scenarios\" array\n",
                     path.c_str());
        std::exit(2);
    }
    ScenarioList out;
    for (const JsonValue &s : doc.member("scenarios").elements()) {
        const std::string name = s.member("name").asString();
        if (name.empty() || !s.hasMember(metric)) {
            std::fprintf(stderr,
                         "perf_diff: %s: scenario without name or"
                         " '%s'\n",
                         path.c_str(), metric.c_str());
            std::exit(2);
        }
        if (out.value.count(name) == 0) {
            out.order.push_back(name);
        }
        out.value[name] = s.member(metric).asNumber();
    }
    if (out.order.empty()) {
        std::fprintf(stderr, "perf_diff: %s: empty scenario list\n",
                     path.c_str());
        std::exit(2);
    }
    return out;
}

struct Row
{
    std::string name;
    double baseline = 0.0;
    double fresh = 0.0;
    double deltaPct = 0.0;
    double thresholdPct = 0.0;
    std::string verdict; // pass | improve | regress | missing | new
};

} // namespace

int
main(int argc, char **argv)
{
    std::string baseline_path;
    std::string fresh_path;
    std::string json_out;
    std::string metric = "accesses_per_sec";
    double threshold = 10.0;
    bool higher_is_better = true;
    bool update_baseline = false;
    std::map<std::string, double> overrides;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (!std::strcmp(arg, "--baseline")) {
            baseline_path = nextArg(argc, argv, i);
        } else if (!std::strcmp(arg, "--fresh")) {
            fresh_path = nextArg(argc, argv, i);
        } else if (!std::strcmp(arg, "--threshold")) {
            threshold = parsePct("--threshold", nextArg(argc, argv, i));
        } else if (!std::strcmp(arg, "--threshold-for")) {
            const std::string spec = nextArg(argc, argv, i);
            const std::size_t eq = spec.find('=');
            if (eq == std::string::npos || eq == 0) {
                usage();
            }
            overrides[spec.substr(0, eq)] =
                parsePct("--threshold-for", spec.c_str() + eq + 1);
        } else if (!std::strcmp(arg, "--metric")) {
            metric = nextArg(argc, argv, i);
        } else if (!std::strcmp(arg, "--direction")) {
            const std::string dir = nextArg(argc, argv, i);
            if (dir == "higher") {
                higher_is_better = true;
            } else if (dir == "lower") {
                higher_is_better = false;
            } else {
                usage();
            }
        } else if (!std::strcmp(arg, "--json")) {
            json_out = nextArg(argc, argv, i);
        } else if (!std::strcmp(arg, "--update-baseline")) {
            update_baseline = true;
        } else {
            usage();
        }
    }
    if (baseline_path.empty() || fresh_path.empty()) {
        usage();
    }

    const ScenarioList base = loadScenarios(baseline_path, metric);
    const ScenarioList fresh = loadScenarios(fresh_path, metric);

    std::vector<Row> rows;
    bool any_regress = false;
    bool any_improve = false;
    for (const std::string &name : base.order) {
        Row row;
        row.name = name;
        row.baseline = base.value.at(name);
        const auto ov = overrides.find(name);
        row.thresholdPct =
            ov != overrides.end() ? ov->second : threshold;
        const auto it = fresh.value.find(name);
        if (it == fresh.value.end()) {
            row.verdict = "missing";
            any_regress = true;
            rows.push_back(row);
            continue;
        }
        row.fresh = it->second;
        row.deltaPct =
            row.baseline != 0.0
                ? (row.fresh - row.baseline) / row.baseline * 100.0
                : 0.0;
        // "Better" is a signed move in the metric's good direction.
        const double gain =
            higher_is_better ? row.deltaPct : -row.deltaPct;
        if (gain < -row.thresholdPct) {
            row.verdict = "regress";
            any_regress = true;
        } else if (gain > row.thresholdPct) {
            row.verdict = "improve";
            any_improve = true;
        } else {
            row.verdict = "pass";
        }
        rows.push_back(row);
    }
    for (const std::string &name : fresh.order) {
        if (base.value.count(name) != 0) {
            continue;
        }
        Row row;
        row.name = name;
        row.fresh = fresh.value.at(name);
        row.verdict = "new";
        rows.push_back(row);
    }

    const std::string verdict = any_regress ? "regress"
                                : any_improve ? "improve"
                                              : "pass";

    std::printf("perf_diff: %s vs %s (metric %s, %s is better)\n",
                fresh_path.c_str(), baseline_path.c_str(),
                metric.c_str(),
                higher_is_better ? "higher" : "lower");
    for (const Row &row : rows) {
        std::printf("  %-24s %14.1f %14.1f %+7.2f%% (tol %.1f%%)"
                    " %s\n",
                    row.name.c_str(), row.baseline, row.fresh,
                    row.deltaPct, row.thresholdPct,
                    row.verdict.c_str());
    }
    std::printf("verdict: %s\n", verdict.c_str());

    if (!json_out.empty()) {
        JsonWriter w;
        w.beginObject();
        w.key("verdict");
        w.value(verdict);
        w.key("metric");
        w.value(metric);
        w.key("direction");
        w.value(higher_is_better ? "higher" : "lower");
        w.key("threshold_pct");
        w.value(threshold);
        w.key("baseline");
        w.value(baseline_path);
        w.key("fresh");
        w.value(fresh_path);
        w.key("scenarios");
        w.beginArray();
        for (const Row &row : rows) {
            w.beginObject();
            w.key("name");
            w.value(row.name);
            w.key("baseline");
            w.value(row.baseline);
            w.key("fresh");
            w.value(row.fresh);
            w.key("delta_pct");
            w.value(row.deltaPct);
            w.key("threshold_pct");
            w.value(row.thresholdPct);
            w.key("verdict");
            w.value(row.verdict);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        std::ofstream out(json_out, std::ios::binary);
        if (!out) {
            std::fprintf(stderr,
                         "perf_diff: cannot write '%s'\n",
                         json_out.c_str());
            return 2;
        }
        out << w.str() << "\n";
    }
    if (update_baseline) {
        // Adopt the fresh run verbatim (bytes, not a re-encode, so
        // the committed file matches what bench_hotpath emitted).
        std::ofstream out(baseline_path,
                          std::ios::binary | std::ios::trunc);
        if (!out) {
            std::fprintf(stderr,
                         "perf_diff: cannot write '%s'\n",
                         baseline_path.c_str());
            return 2;
        }
        out << readFile(fresh_path);
        std::printf("baseline updated: %s <- %s\n",
                    baseline_path.c_str(), fresh_path.c_str());
        return 0;
    }
    return any_regress ? 1 : 0;
}
