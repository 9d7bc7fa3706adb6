/**
 * @file
 * Workload abstraction: an application generating a stream of memory
 * references against its address space.
 *
 * A Workload owns (i) a set of address-space regions it creates at
 * setup (matching the resident-set and file-mapped footprints of
 * Table 2), (ii) a mixture of traffic components, each directing a
 * share of references at one region through an AccessPattern, and
 * (iii) optional footprint growth over time (Cassandra memtables,
 * Spark heap).
 */

#ifndef THERMOSTAT_WORKLOAD_WORKLOAD_HH
#define THERMOSTAT_WORKLOAD_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "vm/address_space.hh"
#include "workload/access_pattern.hh"

namespace thermostat
{

/**
 * One operation-level memory reference: an access to `addr` followed
 * by `burstLines - 1` further line accesses on the same page (an
 * object read/write touches several cache lines but costs one TLB
 * event).  Rates throughout are in bursts (TLB-event-equivalents)
 * per second, matching the unit of the paper's poison-fault counters
 * and of its 30K accesses/sec budget arithmetic.
 */
struct MemRef
{
    Addr addr = 0;
    AccessType type = AccessType::Read;
    unsigned burstLines = 1;
};

/**
 * One reference between the two stages of a draw (see
 * Workload::draw): what the serial stage drew, which resolve() turns
 * into a MemRef.  The stages take whole blocks, so a block costs one
 * virtual call per stage.
 */
struct StagedRef
{
    PatternDraw pattern;         //!< the component pattern's draw
    std::uint32_t component = 0; //!< traffic component drawn
    bool write = false;          //!< the reference-type draw
};

/** A region the workload maps at setup. */
struct RegionSpec
{
    std::string name;
    std::uint64_t bytes = 0;
    std::uint64_t reserveBytes = 0; //!< 0 means bytes
    bool thp = true;
    bool fileBacked = false;
};

/** Linear growth of one region over time. */
struct GrowthSpec
{
    std::string region;
    double bytesPerSec = 0.0;
};

/**
 * Ground-truth access rate of one region (bursts/sec), summed over
 * the traffic components targeting it.  Only the simulator can know
 * this; the oracle policy reads it as its placement input.
 */
struct RegionRate
{
    std::string region;
    double accessesPerSec = 0.0;
};

/** One traffic component of the mixture. */
struct TrafficComponent
{
    std::string region;
    double weight = 1.0;         //!< share of total references
    double writeFraction = 0.1;  //!< P(reference is a write)
    unsigned burstLines = 4;     //!< lines touched per operation
    std::unique_ptr<AccessPattern> pattern;
    bool trackGrowth = false;    //!< span follows region growth
};

/**
 * Abstract workload interface consumed by the simulation driver.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const std::string &name() const = 0;

    /** Create regions; called once before the run. */
    virtual void setup(AddressSpace &space) = 0;

    /** Epoch boundary hook: growth and phase changes. */
    virtual void advance(Ns now, AddressSpace &space) = 0;

    /** Draw one memory reference. */
    virtual MemRef sample(Rng &rng) = 0;

    /**
     * Serial stage of @p count staged draws: consumes exactly the Rng
     * words as many sample() calls would, in the same order, and
     * makes every change to workload state.  The default runs
     * sample() whole and keeps each result in its StagedRef
     * (address and burst in the pattern words), so a workload that
     * overrides only sample() keeps its serial draw order.
     */
    virtual void
    draw(Rng &rng, StagedRef *out, std::size_t count)
    {
        for (std::size_t i = 0; i < count; ++i) {
            const MemRef ref = sample(rng);
            out[i].pattern.words[0] = ref.addr;
            out[i].pattern.words[1] = ref.burstLines;
            out[i].write = ref.type == AccessType::Write;
        }
    }

    /**
     * Pure stage: the references @p count staged draws stand for.
     * Reads only state that advance() changes, so the draws of one
     * block resolve concurrently with each other and with the
     * serial stage of the next block, and draw() then resolve()
     * gives exactly what sample() gives.  The default copies out
     * what the default draw() kept.
     */
    virtual void
    resolve(const StagedRef *in, MemRef *out, std::size_t count) const
    {
        for (std::size_t i = 0; i < count; ++i) {
            out[i].addr = in[i].pattern.words[0];
            out[i].type =
                in[i].write ? AccessType::Write : AccessType::Read;
            out[i].burstLines =
                static_cast<unsigned>(in[i].pattern.words[1]);
        }
    }

    /** Burst references (TLB-event-equivalents) per second. */
    virtual double memRefRate() const = 0;

    /**
     * CPU (non-memory) time per second of baseline execution, as a
     * fraction of wall time in [0, 1).
     */
    virtual double cpuWorkFraction() const = 0;

    /** Nominal run length used by the paper's figures. */
    virtual Ns naturalDuration() const { return 1200 * kNsPerSec; }

    /**
     * True per-region access rates, when the workload can expose
     * them (oracle policies).  Default: unknown.
     */
    virtual std::vector<RegionRate> regionRates() const { return {}; }
};

/**
 * A concrete workload assembled from region specs, growth specs and
 * traffic components; all six cloud applications are instances
 * (see cloud_apps.hh).
 */
class ComposedWorkload : public Workload
{
  public:
    ComposedWorkload(std::string name, double mem_ref_rate,
                     double cpu_work_fraction, Ns natural_duration);

    /** Builder API (call before setup()). */
    void addRegion(const RegionSpec &spec);
    void addGrowth(const GrowthSpec &spec);
    void addComponent(TrafficComponent component);

    const std::string &name() const override { return name_; }
    void setup(AddressSpace &space) override;
    void advance(Ns now, AddressSpace &space) override;
    MemRef sample(Rng &rng) override;
    void draw(Rng &rng, StagedRef *out, std::size_t count) override;
    void resolve(const StagedRef *in, MemRef *out,
                 std::size_t count) const override;
    double memRefRate() const override { return memRefRate_; }
    double cpuWorkFraction() const override { return cpuWorkFraction_; }
    Ns naturalDuration() const override { return naturalDuration_; }

    /** Total configured initial footprint (for Table 2). */
    std::uint64_t initialRssBytes() const;
    std::uint64_t initialFileBytes() const;

    std::vector<RegionRate> regionRates() const override;

  private:
    /** One draw's two stages; sample() and the batches use these. */
    void drawOne(Rng &rng, StagedRef &out);
    MemRef resolveOne(const StagedRef &staged) const;

    struct BoundComponent
    {
        TrafficComponent spec;
        Addr regionBase = 0;
        std::size_t regionIndex = 0;
        double cumulativeWeight = 0.0;
    };

    std::string name_;
    double memRefRate_;
    double cpuWorkFraction_;
    Ns naturalDuration_;
    std::vector<RegionSpec> regionSpecs_;
    std::vector<GrowthSpec> growthSpecs_;
    std::vector<BoundComponent> components_;
    double totalWeight_ = 0.0;
    AddressSpace *space_ = nullptr;
    Ns lastAdvance_ = 0;
    std::vector<double> growthCarry_;
};

} // namespace thermostat

#endif // THERMOSTAT_WORKLOAD_WORKLOAD_HH
