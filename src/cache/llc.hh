/**
 * @file
 * Last-level cache model.
 *
 * Used for two things: (i) charging DRAM/slow-tier latency only on
 * LLC misses, and (ii) providing ground-truth per-page memory access
 * rates ("We describe our methodology for measuring memory access
 * rate in Section 3.3") for the Figure 2 correlation study and for
 * validating the TLB-miss-as-LLC-miss-proxy assumption.
 */

#ifndef THERMOSTAT_CACHE_LLC_HH
#define THERMOSTAT_CACHE_LLC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/flat_map.hh"
#include "common/types.hh"

namespace thermostat
{

class MetricRegistry;

/** LLC geometry and timing. */
struct LlcConfig
{
    std::uint64_t sizeBytes = 32ULL << 20;
    unsigned lineSize = 64;
    unsigned ways = 16;
    Ns hitLatency = 30;

    /** Track per-2MB-frame miss counters (ground truth). */
    bool trackFrameMisses = false;
};

/** Hit/miss counters. */
struct LlcStats
{
    Count hits = 0;
    Count misses = 0;
    Count writebacks = 0;

    double
    missRatio() const
    {
        const Count total = hits + misses;
        return total == 0
                   ? 0.0
                   : static_cast<double>(misses) /
                         static_cast<double>(total);
    }
};

/**
 * Set-associative, physically-indexed LLC with LRU replacement.
 */
class LastLevelCache
{
  public:
    explicit LastLevelCache(const LlcConfig &config);

    /**
     * Access the line containing physical address @p paddr.
     * @return true on hit.
     *
     * Defined inline below: this is the single hottest function in
     * the simulator (one call per cache line per memory access).
     */
    bool access(Addr paddr, AccessType type);

    /** Hit without side effects? (test helper) */
    bool contains(Addr paddr) const;

    /**
     * Fill-filter bit of the 2MB frame holding @p pfn: false proves
     * no line of that frame is cached.  (test helper)
     */
    bool
    mayHoldFrame(Pfn pfn) const
    {
        return filled(pfn >> (kPageShift2M - kPageShift4K));
    }

    /** Drop every line (e.g. after wholesale migration). */
    void flushAll();

    /**
     * Invalidate every line of the @p count 4KB frames starting at
     * @p first.  Returns at once when this cache never filled a
     * line of the 2MB frames the range touches; otherwise probes
     * each line of a range shorter than the set count and makes
     * one pass over the tag array for a longer one.
     */
    void invalidateFrames(Pfn first, unsigned count);

    const LlcConfig &config() const { return config_; }
    const LlcStats &stats() const { return stats_; }
    void resetStats();

    /** Expose the counters under "<prefix>." in @p registry. */
    void registerMetrics(MetricRegistry &registry,
                         const std::string &prefix) const;

    /**
     * Ground-truth misses charged to the 2MB-aligned frame
     * containing @p pfn2m (only when trackFrameMisses is set).
     */
    Count frameMisses(Pfn huge_frame_base) const;

    /** Clear per-frame ground-truth counters. */
    void clearFrameMisses() { frameMisses_.clear(); }

  private:
    /**
     * Lines are split into a packed tag array scanned on every
     * access and a cold LRU-clock array touched only on the hit way
     * or during victim selection.  A packed tag holds
     * `line_address << 2 | dirty << 1 | valid`, so the hit test is a
     * single masked compare and a 16-way set scan stays within two
     * cache lines instead of six.
     */
    static constexpr std::uint64_t kValidBit = 1;
    static constexpr std::uint64_t kDirtyBit = 2;

    static std::uint64_t
    packTag(std::uint64_t line)
    {
        return (line << 2) | kValidBit;
    }

    std::uint64_t
    lineAddr(Addr paddr) const
    {
        return paddr >> lineShift_;
    }

    unsigned
    setIndex(std::uint64_t line) const
    {
        return setsPow2_ ? static_cast<unsigned>(line & setMask_)
                         : static_cast<unsigned>(line % setCount_);
    }

    void recordFrameMiss(Addr paddr);

    /** Set the fill-filter bit of the 2MB frame holding @p line. */
    void
    markFilled(std::uint64_t line)
    {
        const std::uint64_t huge = line >> hugeLineShift_;
        const std::uint64_t word = huge >> 6;
        if (word >= filled_.size()) {
            filled_.resize(word + 1, 0);
        }
        filled_[word] |= std::uint64_t{1} << (huge & 63);
    }

    bool
    filled(std::uint64_t huge) const
    {
        const std::uint64_t word = huge >> 6;
        return word < filled_.size() &&
               (filled_[word] >> (huge & 63) & 1) != 0;
    }

    LlcConfig config_; // shard: read-only
    unsigned setCount_; // shard: read-only
    // shard: read-only
    std::uint64_t setMask_; //!< setCount_ - 1 when a power of two
    bool setsPow2_; // shard: read-only
    unsigned lineShift_; // shard: read-only
    // shard: read-only
    unsigned hugeLineShift_; //!< line number -> 2MB frame number

    /**
     * Per-set storage block: `ways` packed tags followed by `ways`
     * LRU clocks, contiguous so one miss streams a single 2*ways
     * stretch of memory instead of striding two arrays.
     */
    std::vector<std::uint64_t> setData_; // shard: lane-local
    // shard: lane-local
    std::vector<std::uint32_t> mruWay_; //!< per-set hit-way hint
    std::uint64_t useClock_ = 0; // shard: lane-local
    LlcStats stats_; // shard: lane-local
    FlatMap<Pfn, Count> frameMisses_; // shard: lane-local

    /**
     * Fill filter: bit F is set once a line of 2MB physical frame F
     * has been installed, and cleared again only when every line of
     * F is dropped (a whole-frame invalidateFrames or flushAll).  A
     * clear bit therefore proves no line of F is cached, which lets
     * invalidateFrames skip a slice without probing it.
     */
    std::vector<std::uint64_t> filled_; // shard: lane-local
};

/**
 * Address-hash lane router over kMachineLanes independent LLC
 * slices.
 *
 * The LLC is physically indexed but the lane split follows the
 * *virtual* 2MB region being accessed (laneOf in common/types.hh),
 * matching the TLB and page-counter sharding: the lane is chosen by
 * the caller from the access's virtual address, so the slice
 * assignment survives migration between frames.  Each slice gets an
 * even share of the aggregate capacity.  Maintenance by frame
 * (invalidateFrames) goes to every lane, and each slice's fill
 * filter turns it into a no-op in the slices that never cached the
 * range -- normally all but the lane owning the mapping, though
 * nothing relies on that.  contains() probes all lanes.  Results
 * are fixed by the slicing, not by the worker count executing the
 * lanes.
 */
class LlcShards
{
  public:
    explicit LlcShards(const LlcConfig &config);

    /** Access @p paddr in @p lane (the accessing vaddr's lane). */
    bool
    access(unsigned lane, Addr paddr, AccessType type)
    {
        return lanes_[lane].access(paddr, type);
    }

    /** Hit in any lane without side effects? (test helper) */
    bool contains(Addr paddr) const;

    /** Drop every line in every lane. */
    void flushAll();

    /** Invalidate the lines of @p count 4KB frames from @p first,
     *  in every lane. */
    void invalidateFrames(Pfn first, unsigned count);

    LastLevelCache &lane(unsigned lane) { return lanes_[lane]; }
    const LastLevelCache &lane(unsigned lane) const
    {
        return lanes_[lane];
    }

    /** Aggregate geometry (what the machine was configured with). */
    const LlcConfig &config() const { return config_; }
    /** Per-lane slice geometry (all lanes are identical). */
    const LlcConfig &laneConfig() const { return laneConfig_; }

    /** Lane-summed counters. */
    LlcStats stats() const;
    void resetStats();

    /** Lane-summed ground-truth frame misses. */
    Count frameMisses(Pfn huge_frame_base) const;
    void clearFrameMisses();

    /** Register lane-summed counters under "<prefix>.". */
    void registerMetrics(MetricRegistry &registry,
                         const std::string &prefix) const;

    /** Divide the aggregate geometry into one lane's slice. */
    static LlcConfig sliceConfig(const LlcConfig &config);

  private:
    // shard: read-only
    LlcConfig config_;     //!< aggregate geometry
    LlcConfig laneConfig_; //!< per-lane slice geometry
    std::vector<LastLevelCache> lanes_; //!< kMachineLanes slices
};

inline bool
LastLevelCache::access(Addr paddr, AccessType type)
{
    const std::uint64_t line = lineAddr(paddr);
    const unsigned set = setIndex(line);
    const unsigned ways = config_.ways;
    std::uint64_t *tags =
        &setData_[static_cast<std::uint64_t>(set) * 2 * ways];
    std::uint64_t *uses = tags + ways;
    const std::uint64_t want = packTag(line);
    ++useClock_;

    // Most hits land on the way that hit last time in this set.
    const std::uint32_t hint = mruWay_[set];
    if ((tags[hint] & ~kDirtyBit) == want) {
        if (type == AccessType::Write) {
            tags[hint] |= kDirtyBit;
        }
        uses[hint] = useClock_;
        ++stats_.hits;
        return true;
    }
    unsigned invalid_way = ways;
    for (unsigned w = 0; w < ways; ++w) {
        if ((tags[w] & ~kDirtyBit) == want) {
            if (type == AccessType::Write) {
                tags[w] |= kDirtyBit;
            }
            uses[w] = useClock_;
            mruWay_[set] = w;
            ++stats_.hits;
            return true;
        }
        if ((tags[w] & kValidBit) == 0 && invalid_way == ways) {
            invalid_way = w;
        }
    }

    // Miss: the first invalid way, else the LRU way.
    unsigned victim = invalid_way;
    if (victim == ways) {
        victim = 0;
        std::uint64_t victim_use = uses[0];
        for (unsigned w = 1; w < ways; ++w) {
            if (uses[w] < victim_use) {
                victim_use = uses[w];
                victim = w;
            }
        }
    }

    ++stats_.misses;
    markFilled(line);
    if (config_.trackFrameMisses) {
        recordFrameMiss(paddr);
    }
    if ((tags[victim] & (kValidBit | kDirtyBit)) ==
        (kValidBit | kDirtyBit)) {
        ++stats_.writebacks;
    }
    tags[victim] =
        want | (type == AccessType::Write ? kDirtyBit : 0);
    uses[victim] = useClock_;
    mruWay_[set] = victim;
    return false;
}

} // namespace thermostat

#endif // THERMOSTAT_CACHE_LLC_HH
