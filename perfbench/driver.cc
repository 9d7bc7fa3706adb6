/**
 * @file
 * One benchmark run of the Thermostat simulator, driven through its
 * public API the way tools/thermostat_sim drives it.
 *
 *   tstat_perfbench --workload NAME --seed N --out DIR
 *                   [--shards K] [--trace 0|1]
 *
 * A workload is a fixed amount of simulated work: workload, engine,
 * seed and simulated duration (see workloadDefs()).  The run builds
 * the Simulation or DatacenterHost, steps every epoch, finishes, and
 * writes the metrics and flight outputs into DIR, timing each phase
 * in host seconds.  It prints one JSON object: host timings, the
 * per-epoch host times, the simulated fingerprint (deterministic per
 * seed), the correctness counters and the build record.
 *
 * --trace 1 is the traced pass.  Spans are kept in memory around
 * setup, every epoch, finishRun, export and each replay pass (one
 * span per pass: a clock read per replayed reference would outweigh
 * the call it times), and written to DIR/spans.json when the run
 * ends.  The workload is
 * wrapped so every reference draw is counted and the newest draws
 * recorded; after export the recorded stream is replayed through
 * Workload::sample, PageTable::walk and Machine::access on the
 * machine the run set up, and ThreadPool::parallelFor dispatch is
 * timed.  The per-layer figures go under "layers".
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "common/types.hh"
#include "host/datacenter_host.hh"
#include "obs/event_trace.hh"
#include "obs/json.hh"
#include "sim/app_tuning.hh"
#include "sim/simulation.hh"
#include "workload/cloud_apps.hh"

using namespace thermostat;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/** One tenant of a benchmark workload. */
struct TenantDef
{
    const char *id;
    const char *workload;
    const char *policy;
    double coldFraction; //!< comparison engines
    double targetPct;    //!< thermostat
};

/** A benchmark workload: a fixed amount of simulated work. */
struct WorkloadDef
{
    const char *name;
    long durationSec;
    /** One tenant runs a standalone Simulation; more, a host. */
    std::vector<TenantDef> tenants;
    double hostBwMbps = 0.0;
    std::uint64_t tenantFastCapBytes = 0;
};

/**
 * Why each exists is recorded in BENCHMARK.json.  Durations keep a
 * run to a few host seconds so one measurement window holds several
 * runs; cassandra-hotness and host-mix4 still cover their engines'
 * first placement rounds.
 */
const std::vector<WorkloadDef> &
workloadDefs()
{
    static const std::vector<WorkloadDef> defs = {
        {"websearch-thermostat", 60,
         {{"web", "web-search", "thermostat", 0.5, 3.0}}},
        {"cassandra-hotness", 20,
         {{"db", "cassandra", "hotness", 0.5, 3.0}}},
        {"host-mix4", 20,
         {{"web", "web-search", "thermostat", 0.5, 3.0},
          {"kv", "redis", "lru-age", 0.5, 3.0},
          {"db", "mysql-tpcc", "hotness", 0.5, 3.0},
          {"as", "aerospike", "nomad", 0.5, 3.0}},
         400.0,
         4_GiB},
    };
    return defs;
}

/** Spans kept in memory and written once the traced pass ends. */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled)
        : enabled_(enabled), origin_(Clock::now())
    {
    }

    /** Open a span; -1 (a no-op handle) when tracing is off. */
    int
    begin(const char *name, int parent)
    {
        if (!enabled_) {
            return -1;
        }
        spans_.push_back({name, now(), 0.0, parent});
        return static_cast<int>(spans_.size() - 1);
    }

    void
    end(int span)
    {
        if (span >= 0) {
            spans_[static_cast<std::size_t>(span)].end = now();
        }
    }

    /** Record a span whose bounds were taken elsewhere. */
    void
    add(const char *name, double start, double end, int parent)
    {
        if (enabled_) {
            spans_.push_back({name, start, end, parent});
        }
    }

    /** Seconds since the log was created. */
    double
    now() const
    {
        return secondsBetween(origin_, Clock::now());
    }

    /** Median duration (seconds) of the spans named @p name. */
    double
    medianDuration(const char *name) const
    {
        std::vector<double> d;
        for (const Span &s : spans_) {
            if (s.name == name) {
                d.push_back(s.end - s.start);
            }
        }
        if (d.empty()) {
            return 0.0;
        }
        std::sort(d.begin(), d.end());
        return d[d.size() / 2];
    }

    std::string
    toJson() const
    {
        JsonWriter w;
        w.beginObject();
        w.key("spans");
        w.beginArray();
        for (const Span &s : spans_) {
            w.beginObject();
            w.key("name");
            w.value(s.name);
            w.key("start_s");
            w.value(s.start);
            w.key("end_s");
            w.value(s.end);
            w.key("parent");
            w.value(static_cast<double>(s.parent));
            w.endObject();
        }
        w.endArray();
        w.endObject();
        return w.str();
    }

  private:
    struct Span
    {
        std::string name;
        double start;
        double end;
        int parent; //!< index into spans_, -1 for the root
    };

    bool enabled_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** RAII span: opens on construction, closes on destruction. */
class SpanScope
{
  public:
    SpanScope(SpanLog &log, const char *name, int parent)
        : log_(log), id_(log.begin(name, parent))
    {
    }
    ~SpanScope() { log_.end(id_); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int id() const { return id_; }

  private:
    SpanLog &log_;
    int id_;
};

/**
 * Traced pass only: forwards to the run's workload, counts every
 * draw of the timing and profile streams, tallies draws per machine
 * lane and keeps the newest kRecorded references for the replay.
 * The simulation draws on its serial pre-draw path in every shard
 * mode, so this needs no synchronisation.
 */
class RecordingWorkload final : public Workload
{
  public:
    static constexpr std::size_t kRecorded = 1u << 18;

    explicit RecordingWorkload(std::unique_ptr<Workload> inner)
        : inner_(std::move(inner)), ring_(kRecorded)
    {
    }

    const std::string &name() const override { return inner_->name(); }
    void setup(AddressSpace &space) override { inner_->setup(space); }
    void
    advance(Ns now, AddressSpace &space) override
    {
        inner_->advance(now, space);
    }
    MemRef
    sample(Rng &rng) override
    {
        const MemRef ref = inner_->sample(rng);
        ring_[draws_ % kRecorded] = ref;
        ++laneDraws_[laneOf(ref.addr)];
        ++draws_;
        return ref;
    }
    double memRefRate() const override { return inner_->memRefRate(); }
    double
    cpuWorkFraction() const override
    {
        return inner_->cpuWorkFraction();
    }
    Ns
    naturalDuration() const override
    {
        return inner_->naturalDuration();
    }
    std::vector<RegionRate>
    regionRates() const override
    {
        return inner_->regionRates();
    }

    Workload &inner() { return *inner_; }
    std::uint64_t draws() const { return draws_; }
    const std::array<std::uint64_t, kMachineLanes> &
    laneDraws() const
    {
        return laneDraws_;
    }

    /** The newest recorded references, oldest first. */
    std::vector<MemRef>
    recorded() const
    {
        const std::size_t n =
            static_cast<std::size_t>(std::min<std::uint64_t>(
                draws_, kRecorded));
        std::vector<MemRef> out;
        out.reserve(n);
        for (std::uint64_t i = draws_ - n; i < draws_; ++i) {
            out.push_back(ring_[i % kRecorded]);
        }
        return out;
    }

  private:
    std::unique_ptr<Workload> inner_;
    std::vector<MemRef> ring_;
    std::array<std::uint64_t, kMachineLanes> laneDraws_{};
    std::uint64_t draws_ = 0;
};

/**
 * References one epoch draws: the timing stream plus the profile
 * stream, sized as Simulation::startRun sizes them.  The traced pass
 * checks the product against the draws it counts.
 */
std::uint64_t
drawsPerEpoch(const SimConfig &config, double memRefRate)
{
    const double epoch_sec = static_cast<double>(config.epoch) /
                             static_cast<double>(kNsPerSec);
    const auto profile = static_cast<std::uint64_t>(
        memRefRate * epoch_sec /
            static_cast<double>(config.profileWeight) +
        0.5);
    return config.samplesPerEpoch + profile;
}

/** Options of one run. */
struct RunOptions
{
    const WorkloadDef *def = nullptr;
    std::uint64_t seed = 1;
    unsigned shards = 0;
    bool trace = false;
    std::string out;
};

/** Everything one run reports. */
struct RunRecord
{
    double setupS = 0.0;
    double loopS = 0.0;
    double finishS = 0.0;
    double exportS = 0.0;
    double wallS = 0.0;
    double cpuS = 0.0;
    double peakRssMb = 0.0;
    double cpuStart = 0.0; //!< process CPU seconds at run start
    unsigned workers = 1;
    std::uint64_t refs = 0;
    std::vector<double> epochMs;

    // Correctness counters (all must be zero).
    Count auditViolations = 0;
    Count invariantViolations = 0;
    Count isolationViolations = 0;
    Count ledgerViolations = 0;
    Count nonFinite = 0;
    bool exportOk = true;

    /** Deterministic simulated statistics, one object per tenant. */
    JsonWriter fingerprint;

    // Layer totals gathered across tenants.
    double epochSelfS = 0.0;
    double timingStreamS = 0.0;
    double profileStreamS = 0.0;
    double tickSelfS = 0.0;
    double migrateS = 0.0;
    double queueStepS = 0.0;
    Count migrateCalls = 0;
    Count moves = 0;
    Count demotions = 0;
    Count promotions = 0;
    Count txnCommits = 0;
    Count txnAborts = 0;
    Count denials = 0;
    Count poisonFaults = 0;
    Count l2TlbHits = 0;
    Count l2TlbMisses = 0;
    Count llcHits = 0;
    Count llcMisses = 0;
    std::uint64_t countedDraws = 0;
    std::array<std::uint64_t, kMachineLanes> laneDraws{};

    // Replay totals (traced pass).
    double sampleNs = 0.0;
    double accessNs = 0.0;
    double walkNs = 0.0;
    std::uint64_t replayed = 0;
    std::uint64_t replayUnmapped = 0;
    double parallelForUs = 0.0;
};

/**
 * Close the measured part of a run, after export and before any
 * replay: the process's CPU time since the run started and its peak
 * RSS so far (one process runs one workload, so that is this run).
 */
void
stopResourceClock(RunRecord &rec)
{
    rec.cpuS = cpuSeconds() - rec.cpuStart;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    rec.peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void
countNonFinite(double v, RunRecord &rec)
{
    if (!std::isfinite(v)) {
        ++rec.nonFinite;
    }
}

void
checkMetrics(const MetricRegistry &metrics, RunRecord &rec)
{
    for (const MetricSample &s : metrics.snapshot()) {
        countNonFinite(s.value, rec);
    }
}

/** Fold one tenant's results into the record. */
void
collectTenant(const char *id, const Simulation &sim,
              const SimResult &r, RunRecord &rec)
{
    rec.auditViolations += r.auditViolations;
    rec.ledgerViolations += r.transactions.ledgerViolations;
    for (const double v : {r.slowdown, r.avgColdFraction,
                           r.finalColdFraction,
                           r.monitorOverheadFraction}) {
        countNonFinite(v, rec);
    }
    checkMetrics(sim.metrics(), rec);

    const MigrationStats &mig = r.migration;
    JsonWriter &w = rec.fingerprint;
    w.key(id);
    w.beginObject();
    w.key("slowdown");
    w.value(r.slowdown);
    w.key("avg_cold_fraction");
    w.value(r.avgColdFraction);
    w.key("final_cold_fraction");
    w.value(r.finalColdFraction);
    w.key("bytes_demoted");
    w.value(static_cast<std::uint64_t>(mig.bytesDemoted));
    w.key("bytes_promoted");
    w.value(static_cast<std::uint64_t>(mig.bytesPromoted));
    w.key("txn_commits");
    w.value(static_cast<std::uint64_t>(r.transactions.commits));
    w.key("txn_aborts");
    w.value(static_cast<std::uint64_t>(r.transactions.aborts));
    w.key("arbiter_denials");
    w.value(static_cast<std::uint64_t>(mig.admissionDenials));
    w.key("trap_faults");
    w.value(static_cast<std::uint64_t>(r.trap.faults));
    w.key("final_rss_bytes");
    w.value(static_cast<std::uint64_t>(r.finalRssBytes));
    char digest[24];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(
                      sim.accessSampler() != nullptr
                          ? sim.accessSampler()->streamDigest()
                          : 0));
    w.key("sampler_digest");
    w.value(digest);
    w.endObject();

    for (const Profiler::Node &n : sim.profiler().nodes()) {
        const double total = static_cast<double>(n.totalNs) * 1e-9;
        const double self =
            static_cast<double>(sim.profiler().selfNs(n)) * 1e-9;
        if (n.name == "epoch") {
            rec.epochSelfS += self;
        } else if (n.name == "timing_stream") {
            rec.timingStreamS += total;
        } else if (n.name == "profile_stream") {
            rec.profileStreamS += total;
        } else if (n.name == "policy_tick") {
            rec.tickSelfS += self;
        } else if (n.name == "migrate") {
            rec.migrateS += total;
            rec.migrateCalls += n.count;
        } else if (n.name == "migrate_queue") {
            rec.queueStepS += total;
        }
    }
    rec.moves += mig.hugeDemotions + mig.baseDemotions +
                 mig.hugePromotions + mig.basePromotions;
    rec.demotions += r.policy.demotionsOrdered;
    rec.promotions += r.policy.promotionsOrdered;
    rec.txnCommits += r.transactions.commits;
    rec.txnAborts += r.transactions.aborts;
    rec.denials += mig.admissionDenials;
    rec.poisonFaults += r.trap.faults;
    rec.l2TlbHits += r.l2Tlb.hits;
    rec.l2TlbMisses += r.l2Tlb.misses;
    rec.llcHits += r.llc.hits;
    rec.llcMisses += r.llc.misses;
}

/**
 * Replay the recorded reference stream through the workload, the
 * page table and the machine of a finished run.  Runs after export,
 * so it cannot change any reported output.
 */
void
replayLayers(Simulation &sim, RecordingWorkload &recw,
             std::uint64_t seed, SpanLog &spans, int parent,
             RunRecord &rec)
{
    const std::vector<MemRef> refs = recw.recorded();
    for (std::size_t lane = 0; lane < kMachineLanes; ++lane) {
        rec.laneDraws[lane] += recw.laneDraws()[lane];
    }
    rec.countedDraws += recw.draws();
    rec.replayed += refs.size();
    {
        SpanScope span(spans, "replay.sample", parent);
        Rng rng(seed ^ 0x7e91a9ULL); // rng: replay draw
        Workload &inner = recw.inner();
        const Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i < refs.size(); ++i) {
            inner.sample(rng);
        }
        rec.sampleNs += secondsBetween(t0, Clock::now()) * 1e9;
    }
    std::vector<MemRef> mapped;
    mapped.reserve(refs.size());
    {
        SpanScope span(spans, "replay.walk", parent);
        PageTable &table = sim.machine().space().pageTable();
        const Clock::time_point t0 = Clock::now();
        for (const MemRef &ref : refs) {
            if (table.walk(ref.addr).mapped()) {
                mapped.push_back(ref);
            }
        }
        rec.walkNs += secondsBetween(t0, Clock::now()) * 1e9;
    }
    rec.replayUnmapped += refs.size() - mapped.size();
    {
        SpanScope span(spans, "replay.access", parent);
        Machine &machine = sim.machine();
        const Clock::time_point t0 = Clock::now();
        for (const MemRef &ref : mapped) {
            machine.access(ref.addr, ref.type, 1, ref.burstLines);
        }
        rec.accessNs += secondsBetween(t0, Clock::now()) * 1e9;
        machine.syncDeviceState();
    }
}

/** Time ThreadPool::parallelFor dispatch of one task per lane. */
void
probeParallelFor(unsigned workers, SpanLog &spans, int parent,
                 RunRecord &rec)
{
    constexpr int kWarm = 100;
    constexpr int kCalls = 2000;
    SpanScope span(spans, "replay.parallel_for", parent);
    ThreadPool pool(workers);
    std::array<std::uint64_t, kMachineLanes> hits{};
    const auto task = [&hits](std::size_t lane) { ++hits[lane]; };
    for (int i = 0; i < kWarm; ++i) {
        pool.parallelFor(0, kMachineLanes, 1, task);
    }
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) {
        pool.parallelFor(0, kMachineLanes, 1, task);
    }
    rec.parallelForUs =
        secondsBetween(t0, Clock::now()) * 1e6 / kCalls;
    for (const std::uint64_t h : hits) {
        if (h != kWarm + kCalls) {
            ++rec.nonFinite; // a lost task is a failed run
        }
    }
}

SimConfig
baseConfig(const RunOptions &opt)
{
    SimConfig config;
    config.seed = opt.seed;
    config.shards = opt.shards;
    config.duration =
        static_cast<Ns>(opt.def->durationSec) * kNsPerSec;
    return config;
}

bool
writeOutput(const RunOptions &opt, const char *file,
            const std::string &text)
{
    return EventTracer::writeFile(opt.out + "/" + file, text);
}

void
runStandalone(const RunOptions &opt, SpanLog &spans, int root,
              RunRecord &rec)
{
    const TenantDef &t = opt.def->tenants.front();
    SimConfig config = baseConfig(opt);
    config.policy = t.policy;
    config.policyParams.coldFraction = t.coldFraction;
    config.params.tolerableSlowdownPct = t.targetPct;

    const Clock::time_point t0 = Clock::now();
    int span = spans.begin("setup", root);
    config.machine = tunedMachineConfig(t.workload);
    std::unique_ptr<Workload> workload =
        makeWorkload(t.workload, config.seed);
    RecordingWorkload *recw = nullptr;
    if (opt.trace) {
        auto wrapped =
            std::make_unique<RecordingWorkload>(std::move(workload));
        recw = wrapped.get();
        workload = std::move(wrapped);
    }
    Simulation sim(std::move(workload), config);
    sim.startRun();
    spans.end(span);
    const Clock::time_point t1 = Clock::now();

    span = spans.begin("loop", root);
    std::uint64_t epochs = 0;
    while (!sim.runDone()) {
        const Clock::time_point e0 = Clock::now();
        const int epoch_span = spans.begin("stepEpoch", span);
        sim.stepEpoch();
        spans.end(epoch_span);
        rec.epochMs.push_back(secondsBetween(e0, Clock::now()) *
                              1e3);
        ++epochs;
    }
    spans.end(span);
    const Clock::time_point t2 = Clock::now();

    span = spans.begin("finishRun", root);
    const SimResult result = sim.finishRun();
    spans.end(span);
    const Clock::time_point t3 = Clock::now();

    span = spans.begin("export", root);
    rec.exportOk = writeOutput(opt, "metrics.json", sim.metricsJson()) &&
                   writeOutput(opt, "flight.csv",
                               sim.flightRecorder().toCsv());
    spans.end(span);
    const Clock::time_point t4 = Clock::now();
    stopResourceClock(rec);

    rec.setupS = secondsBetween(t0, t1);
    rec.loopS = secondsBetween(t1, t2);
    rec.finishS = secondsBetween(t2, t3);
    rec.exportS = secondsBetween(t3, t4);
    rec.wallS = secondsBetween(t0, t4);
    rec.workers = sim.shards();
    rec.refs = epochs *
               drawsPerEpoch(config, sim.workload().memRefRate());

    rec.fingerprint.beginObject();
    collectTenant(t.id, sim, result, rec);
    rec.fingerprint.endObject();

    if (recw != nullptr) {
        SpanScope replay(spans, "replay", root);
        replayLayers(sim, *recw, opt.seed, spans, replay.id(), rec);
        probeParallelFor(rec.workers, spans, replay.id(), rec);
    }
}

void
runHost(const RunOptions &opt, SpanLog &spans, int root,
        RunRecord &rec)
{
    const WorkloadDef &def = *opt.def;
    std::vector<TenantSpec> specs;
    for (const TenantDef &t : def.tenants) {
        TenantSpec spec;
        spec.id = t.id;
        spec.workload = t.workload;
        spec.policy = t.policy;
        spec.coldFraction = t.coldFraction;
        spec.targetPct = t.targetPct;
        specs.push_back(spec);
    }
    HostConfig config;
    config.base = baseConfig(opt);
    config.arbiter.epoch = config.base.epoch;
    config.arbiter.migrationBwBytesPerSec = def.hostBwMbps * 1.0e6;
    config.arbiter.tenantFastCapBytes = def.tenantFastCapBytes;

    std::vector<RecordingWorkload *> recorders;
    DatacenterHost::WorkloadFactory factory;
    if (opt.trace) {
        factory = [&recorders](const TenantSpec &spec,
                               const SimConfig &c) {
            auto w = std::make_unique<RecordingWorkload>(
                makeWorkload(spec.workload, c.seed));
            recorders.push_back(w.get());
            return std::unique_ptr<Workload>(std::move(w));
        };
    }

    const Clock::time_point t0 = Clock::now();
    int span = spans.begin("setup", root);
    DatacenterHost host(specs, config, factory);
    spans.end(span);
    const Clock::time_point t1 = Clock::now();

    // Host epochs run inside DatacenterHost::run; each tenant's epoch
    // hook fires once per round, so tenant 0's hooks bound a round.
    const unsigned n = host.tenantCount();
    std::vector<std::uint64_t> epochs(n, 0);
    std::vector<double> roundMarks;
    double lastHook = 0.0;
    for (unsigned i = 0; i < n; ++i) {
        host.tenant(i).setEpochHook(
            [&, i](Simulation &, Ns) {
                ++epochs[i];
                lastHook = spans.now();
                if (i == 0) {
                    roundMarks.push_back(lastHook);
                }
            });
    }
    span = spans.begin("host.run", root);
    const double run_start = spans.now();
    const HostResult hr = host.run();
    const double run_end = spans.now();
    spans.end(span);
    const Clock::time_point t2 = Clock::now();
    for (std::size_t k = 1; k < roundMarks.size(); ++k) {
        spans.add("host_epoch", roundMarks[k - 1], roundMarks[k], span);
        rec.epochMs.push_back((roundMarks[k] - roundMarks[k - 1]) *
                              1e3);
    }
    // The last epoch's streams, the isolation scan and every
    // tenant's finishRun run after the final hook.
    spans.add("finishRun", lastHook, run_end, span);

    span = spans.begin("export", root);
    rec.exportOk = writeOutput(opt, "metrics.json",
                               host.metrics().dumpJson()) &&
                   writeOutput(opt, "flight.csv",
                               host.flightRecorder().toCsv());
    spans.end(span);
    const Clock::time_point t3 = Clock::now();
    stopResourceClock(rec);

    rec.setupS = secondsBetween(t0, t1);
    rec.loopS = run_end - run_start;
    rec.finishS = run_end - lastHook;
    rec.exportS = secondsBetween(t2, t3);
    rec.wallS = secondsBetween(t0, t3);
    rec.workers = Simulation::resolveShards(config.base);
    rec.invariantViolations = hr.invariantViolations;
    rec.isolationViolations = hr.isolationViolations;
    checkMetrics(host.metrics(), rec);

    rec.fingerprint.beginObject();
    for (unsigned i = 0; i < n; ++i) {
        const TenantOutcome &t = hr.tenants[i];
        rec.refs += epochs[i] *
                    drawsPerEpoch(host.tenantConfig(i),
                                  host.tenant(i).workload().memRefRate());
        collectTenant(def.tenants[i].id, host.tenant(i), t.result,
                      rec);
    }
    rec.fingerprint.key("host");
    rec.fingerprint.beginObject();
    rec.fingerprint.key("epochs");
    rec.fingerprint.value(static_cast<std::uint64_t>(hr.hostEpochs));
    rec.fingerprint.key("arbiter_denials");
    rec.fingerprint.value(
        static_cast<std::uint64_t>(hr.arbiterDenials));
    rec.fingerprint.key("bytes_denied");
    rec.fingerprint.value(static_cast<std::uint64_t>(hr.bytesDenied));
    rec.fingerprint.endObject();
    rec.fingerprint.endObject();

    if (opt.trace) {
        SpanScope replay(spans, "replay", root);
        for (unsigned i = 0; i < n; ++i) {
            replayLayers(host.tenant(i), *recorders[i], opt.seed + i,
                         spans, replay.id(), rec);
        }
        probeParallelFor(rec.workers, spans, replay.id(), rec);
    }
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** The per-layer figures of a traced run, named by module. */
std::vector<std::pair<const char *, double>>
layerFigures(const RunRecord &rec, const SpanLog &spans, bool host)
{
    std::uint64_t lane_max = 0;
    std::uint64_t lane_sum = 0;
    for (const std::uint64_t d : rec.laneDraws) {
        lane_max = std::max(lane_max, d);
        lane_sum += d;
    }
    const auto dbl = [](std::uint64_t v) {
        return static_cast<double>(v);
    };
    const double replayed = dbl(rec.replayed);
    return {
        {"sim.epoch_ms",
         spans.medianDuration(host ? "host_epoch" : "stepEpoch") * 1e3},
        {"sim.timing_stream_s", rec.timingStreamS},
        {"sim.profile_stream_s", rec.profileStreamS},
        {"sim.epoch_self_s", rec.epochSelfS},
        {"sim.lane_imbalance",
         ratio(dbl(lane_max), dbl(lane_sum) / kMachineLanes)},
        {"sim.finish_s", rec.finishS},
        {"workload.sample_ns", ratio(rec.sampleNs, replayed)},
        {"workload.draws", dbl(rec.countedDraws)},
        {"machine.access_ns",
         ratio(rec.accessNs, replayed - dbl(rec.replayUnmapped))},
        {"vm.walk_ns", ratio(rec.walkNs, replayed)},
        {"tlb.l2_miss_ratio",
         ratio(dbl(rec.l2TlbMisses),
               dbl(rec.l2TlbHits + rec.l2TlbMisses))},
        {"llc.miss_ratio",
         ratio(dbl(rec.llcMisses), dbl(rec.llcHits + rec.llcMisses))},
        {"trap.poison_faults", dbl(rec.poisonFaults)},
        {"pool.parallel_for_us", rec.parallelForUs},
        {"policy.tick_self_s", rec.tickSelfS},
        {"policy.demotions", dbl(rec.demotions)},
        {"policy.promotions", dbl(rec.promotions)},
        {"sys.migrate_s", rec.migrateS},
        {"sys.migrate_calls", dbl(rec.migrateCalls)},
        {"sys.migrate_us_per_call",
         ratio(rec.migrateS * 1e6, dbl(rec.migrateCalls))},
        {"sys.migrate_moved_ratio",
         ratio(dbl(rec.moves), dbl(rec.migrateCalls))},
        {"migrate.queue_step_s", rec.queueStepS},
        {"migrate.txn_abort_ratio",
         ratio(dbl(rec.txnAborts), dbl(rec.txnCommits + rec.txnAborts))},
        {"host.cpu_util",
         ratio(rec.cpuS, rec.loopS * static_cast<double>(rec.workers))},
        {"host.denial_ratio",
         ratio(dbl(rec.denials), dbl(rec.migrateCalls))},
        {"obs.export_s", rec.exportS},
    };
}

std::string
resultJson(const RunOptions &opt, const RunRecord &rec,
           const SpanLog &spans)
{
    JsonWriter w;
    w.beginObject();
    w.key("workload");
    w.value(opt.def->name);
    w.key("seed");
    w.value(opt.seed);
    w.key("trace");
    w.value(opt.trace);
    w.key("workers");
    w.value(static_cast<std::uint64_t>(rec.workers));

    w.key("host");
    w.beginObject();
    for (const auto &[name, v] :
         std::initializer_list<std::pair<const char *, double>>{
             {"setup_s", rec.setupS},
             {"loop_s", rec.loopS},
             {"finish_s", rec.finishS},
             {"export_s", rec.exportS},
             {"wall_s", rec.wallS},
             {"cpu_s", rec.cpuS},
             {"peak_rss_mb", rec.peakRssMb}}) {
        w.key(name);
        w.value(v);
    }
    w.key("refs");
    w.value(rec.refs);
    w.key("epoch_ms");
    w.beginArray();
    for (const double ms : rec.epochMs) {
        w.value(ms);
    }
    w.endArray();
    w.endObject();

    w.key("checks");
    w.beginObject();
    for (const auto &[name, v] :
         std::initializer_list<std::pair<const char *, Count>>{
             {"audit_violations", rec.auditViolations},
             {"invariant_violations", rec.invariantViolations},
             {"isolation_violations", rec.isolationViolations},
             {"ledger_violations", rec.ledgerViolations},
             {"non_finite", rec.nonFinite},
             {"export_failures", rec.exportOk ? 0u : 1u}}) {
        w.key(name);
        w.value(static_cast<std::uint64_t>(v));
    }
    w.endObject();

    w.key("fingerprint");
    w.raw(rec.fingerprint.str());

    if (opt.trace) {
        w.key("layers");
        w.beginObject();
        for (const auto &[name, v] :
             layerFigures(rec, spans, opt.def->tenants.size() > 1)) {
            w.key(name);
            w.value(v);
        }
        w.endObject();
    }

    w.key("build");
    w.beginObject();
    w.key("compiler");
    w.value(TSTAT_BENCH_COMPILER);
    w.key("build_type");
    w.value(TSTAT_BENCH_BUILD_TYPE);
    w.key("flags");
    w.value(TSTAT_BENCH_CXX_FLAGS);
    w.endObject();
    w.endObject();
    return w.str();
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --out DIR "
                 "[--shards K] [--trace 0|1]\nworkloads:\n",
                 argv0);
    for (const WorkloadDef &def : workloadDefs()) {
        std::fprintf(stderr, "  %s\n", def.name);
    }
    std::exit(2);
}

/** Strict unsigned parse; usage() on anything else. */
std::uint64_t
parseUnsigned(const char *text, const char *argv0)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (*text == '\0' || *text == '-' || end == nullptr ||
        *end != '\0') {
        usage(argv0);
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opt;
    bool seeded = false;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (i + 1 >= argc) {
            usage(argv[0]);
        }
        const char *val = argv[++i];
        if (!std::strcmp(arg, "--workload")) {
            for (const WorkloadDef &def : workloadDefs()) {
                if (def.name == std::string(val)) {
                    opt.def = &def;
                }
            }
        } else if (!std::strcmp(arg, "--seed")) {
            opt.seed = parseUnsigned(val, argv[0]);
            seeded = true;
        } else if (!std::strcmp(arg, "--shards")) {
            opt.shards = static_cast<unsigned>(std::min<std::uint64_t>(
                parseUnsigned(val, argv[0]), kMachineLanes));
        } else if (!std::strcmp(arg, "--trace")) {
            const std::uint64_t t = parseUnsigned(val, argv[0]);
            if (t > 1) {
                usage(argv[0]);
            }
            opt.trace = t == 1;
        } else if (!std::strcmp(arg, "--out")) {
            opt.out = val;
        } else {
            usage(argv[0]);
        }
    }
    if (opt.def == nullptr || !seeded || opt.out.empty()) {
        usage(argv[0]);
    }

    SpanLog spans(opt.trace);
    RunRecord rec;
    rec.cpuStart = cpuSeconds();
    {
        SpanScope root(spans, "run", -1);
        if (opt.def->tenants.size() == 1) {
            runStandalone(opt, spans, root.id(), rec);
        } else {
            runHost(opt, spans, root.id(), rec);
        }
    }
    if (opt.trace && !writeOutput(opt, "spans.json", spans.toJson())) {
        rec.exportOk = false;
    }
    std::printf("%s\n", resultJson(opt, rec, spans).c_str());
    return 0;
}
