/**
 * @file
 * Synthetic memory access patterns.
 *
 * A pattern produces byte offsets within a span of memory (one
 * region of an application's address space).  Patterns capture the
 * structure the paper's workloads exhibit: YCSB Zipfian key
 * popularity (Aerospike/Cassandra), the Redis hotspot distribution
 * where 0.01% of keys take 90% of traffic scattered uniformly by the
 * hash table, cold database tables (TPC-C), and streaming scans
 * (Spark analytics, Cassandra compaction).
 *
 * Popularity-to-address mapping is controlled by a "scatter" flag:
 * scattered patterns place popular items pseudo-randomly across the
 * span (hash-table layout), local patterns keep popular items
 * adjacent (log/table layout).  This is the property that decides
 * how much page-granular cold data exists (paper Sec 5, Redis
 * discussion).
 */

#ifndef THERMOSTAT_WORKLOAD_ACCESS_PATTERN_HH
#define THERMOSTAT_WORKLOAD_ACCESS_PATTERN_HH

#include <cstdint>
#include <memory>

#include "common/permutation.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace thermostat
{

/**
 * What the serial stage of one pattern draw leaves for the pure
 * stage: the accepted Rng words in consumption order (or, for a
 * scan, the cursor it read).  Each pattern defines its own slots.
 */
struct PatternDraw
{
    std::uint64_t words[3] = {};
};

/**
 * Base interface: a stream of byte offsets in [0, spanBytes()).
 *
 * A draw has two stages.  draw() is serial: it consumes exactly the
 * Rng words the draw needs, in order, and applies every change to
 * pattern state.  resolve() is pure arithmetic on what draw() left
 * (Zipf inversion, permutation, bounds) and reads only state that
 * advance() and setSpanBytes() change, so the draws of one epoch can
 * be resolved concurrently, in any order, after all were drawn.
 */
class AccessPattern
{
  public:
    virtual ~AccessPattern() = default;

    /** Serial stage of one draw. */
    virtual void draw(Rng &rng, PatternDraw &out) = 0;

    /** Pure stage: the byte offset a staged draw stands for. */
    virtual std::uint64_t resolve(const PatternDraw &in) const = 0;

    /** Next byte offset (line aligned by the caller if desired). */
    std::uint64_t
    next(Rng &rng)
    {
        PatternDraw staged;
        draw(rng, staged);
        return resolve(staged);
    }

    /** Current span covered by the pattern. */
    virtual std::uint64_t spanBytes() const = 0;

    /**
     * Resize the span (e.g. the underlying region grew).  Patterns
     * that cannot resize cheaply may ignore growth and keep using
     * their original span.
     */
    virtual void setSpanBytes(std::uint64_t bytes) { (void)bytes; }

    /** Advance pattern-internal time (phase changes). */
    virtual void advance(Ns now) { (void)now; }
};

/** Uniform offsets over the whole span. */
class UniformPattern : public AccessPattern
{
  public:
    explicit UniformPattern(std::uint64_t span_bytes);

    void draw(Rng &rng, PatternDraw &out) override;
    std::uint64_t resolve(const PatternDraw &in) const override;
    std::uint64_t spanBytes() const override { return spanBytes_; }
    void setSpanBytes(std::uint64_t bytes) override
    {
        spanBytes_ = bytes;
        draw_ = BoundedDraw(spanBytes_);
    }

  private:
    std::uint64_t spanBytes_;
    BoundedDraw draw_;
};

/**
 * Zipf-popular objects of fixed size.  Rank r's slot is either
 * rank-order (local layout) or a fixed pseudo-random permutation of
 * ranks (scattered / hash-table layout).
 */
class ZipfianPattern : public AccessPattern
{
  public:
    ZipfianPattern(std::uint64_t span_bytes, std::uint64_t object_bytes,
                   double theta, bool scatter, std::uint64_t seed);

    void draw(Rng &rng, PatternDraw &out) override;
    std::uint64_t resolve(const PatternDraw &in) const override;
    std::uint64_t spanBytes() const override { return spanBytes_; }

    std::uint64_t objectCount() const { return zipf_.itemCount(); }

    /** Slot index (address order) for popularity rank @p rank. */
    std::uint64_t slotForRank(std::uint64_t rank) const;

  private:
    std::uint64_t spanBytes_;
    std::uint64_t objectBytes_;
    ZipfSampler zipf_;
    bool scatter_;
    FixedPermutation perm_;
    BoundedDraw withinDraw_; //!< line draw inside one object
};

/**
 * Hotspot traffic: with probability hotTraffic the access targets a
 * small hot subset (hotFraction of objects); otherwise any object.
 * The hot subset is scattered or clustered per the scatter flag.
 * Redis's published load (0.01% of keys, 90% of traffic) is the
 * canonical instance.
 */
class HotspotPattern : public AccessPattern
{
  public:
    HotspotPattern(std::uint64_t span_bytes, std::uint64_t object_bytes,
                   double hot_fraction, double hot_traffic,
                   bool scatter, std::uint64_t seed);

    void draw(Rng &rng, PatternDraw &out) override;
    std::uint64_t resolve(const PatternDraw &in) const override;
    std::uint64_t spanBytes() const override { return spanBytes_; }

    std::uint64_t hotObjectCount() const { return hotObjects_; }

  private:
    std::uint64_t spanBytes_;
    std::uint64_t objectBytes_;
    std::uint64_t objectCount_;
    std::uint64_t hotObjects_;
    double hotTraffic_;
    bool scatter_;
    FixedPermutation perm_;
    BoundedDraw hotDraw_;    //!< draw over the hot subset
    BoundedDraw anyDraw_;    //!< draw over all objects
    BoundedDraw withinDraw_; //!< line draw inside one object
};

/**
 * Sequential streaming scan with a fixed stride; wraps at the end of
 * the span.  Spreads accesses evenly over every page at a rate set
 * by the traffic share it is given.
 */
class SequentialScanPattern : public AccessPattern
{
  public:
    SequentialScanPattern(std::uint64_t span_bytes,
                          std::uint64_t stride_bytes);

    void draw(Rng &rng, PatternDraw &out) override;
    std::uint64_t resolve(const PatternDraw &in) const override;
    std::uint64_t spanBytes() const override { return spanBytes_; }
    void setSpanBytes(std::uint64_t bytes) override;

  private:
    std::uint64_t spanBytes_;
    std::uint64_t strideBytes_;
    std::uint64_t cursor_ = 0;
};

/**
 * Uniform accesses confined to the most recent `windowBytes` of a
 * growing span: an append-structured store (memtable, log) writes
 * its tail while flushed segments go cold.  setSpanBytes() tracks
 * region growth.
 */
class RecentWindowPattern : public AccessPattern
{
  public:
    RecentWindowPattern(std::uint64_t span_bytes,
                        std::uint64_t window_bytes);

    void draw(Rng &rng, PatternDraw &out) override;
    std::uint64_t resolve(const PatternDraw &in) const override;
    std::uint64_t spanBytes() const override { return spanBytes_; }
    void setSpanBytes(std::uint64_t bytes) override
    {
        spanBytes_ = bytes;
        windowDraw_ = BoundedDraw(
            windowBytes_ < spanBytes_ ? windowBytes_ : spanBytes_);
    }

    std::uint64_t windowBytes() const { return windowBytes_; }

  private:
    std::uint64_t spanBytes_;
    std::uint64_t windowBytes_;
    BoundedDraw windowDraw_;
};

/**
 * Confines an inner pattern to the slice [offset, offset + inner
 * span) of a region, so zones (hot head, warm middle, idle tail)
 * can be laid out explicitly.
 */
class OffsetPattern : public AccessPattern
{
  public:
    OffsetPattern(std::uint64_t offset_bytes,
                  std::unique_ptr<AccessPattern> inner);

    void draw(Rng &rng, PatternDraw &out) override;
    std::uint64_t resolve(const PatternDraw &in) const override;
    std::uint64_t spanBytes() const override;

    /** Growth forwards to the inner pattern, minus the offset. */
    void setSpanBytes(std::uint64_t bytes) override;
    void advance(Ns now) override;

  private:
    std::uint64_t offsetBytes_;
    std::unique_ptr<AccessPattern> inner_;
};

/**
 * Wraps a pattern and remaps its offsets by a rotating shift that
 * changes every @p phasePeriod, modeling working sets that move over
 * time (used to exercise Thermostat's mis-classification correction,
 * Sec 3.5).
 */
class PhaseShiftPattern : public AccessPattern
{
  public:
    /**
     * @param inner Pattern generating offsets in its own span.
     * @param phase_period Time between shifts.
     * @param shift_bytes Offset added per elapsed phase.
     * @param wrap_bytes Total window the shifted offsets wrap
     *        within; must be >= the inner span.
     */
    PhaseShiftPattern(std::unique_ptr<AccessPattern> inner,
                      Ns phase_period, std::uint64_t shift_bytes,
                      std::uint64_t wrap_bytes);

    void draw(Rng &rng, PatternDraw &out) override;
    std::uint64_t resolve(const PatternDraw &in) const override;
    std::uint64_t spanBytes() const override { return wrapBytes_; }
    void advance(Ns now) override;

    unsigned phaseIndex() const { return phaseIndex_; }

  private:
    std::unique_ptr<AccessPattern> inner_;
    Ns phasePeriod_;
    std::uint64_t shiftBytes_;
    std::uint64_t wrapBytes_;
    unsigned phaseIndex_ = 0;
};

} // namespace thermostat

#endif // THERMOSTAT_WORKLOAD_ACCESS_PATTERN_HH
