#include "cache/llc.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace thermostat
{

LastLevelCache::LastLevelCache(const LlcConfig &config)
    : config_(config)
{
    TSTAT_ASSERT(config.lineSize > 0 && config.ways > 0,
                 "bad LLC geometry");
    // Whole lines per 4KB frame, so a frame is a line-number range.
    TSTAT_ASSERT((config.lineSize & (config.lineSize - 1)) == 0 &&
                     config.lineSize <= kPageSize4K,
                 "LLC line size must be a power of two <= 4KB");
    const std::uint64_t line_count = config.sizeBytes / config.lineSize;
    TSTAT_ASSERT(line_count % config.ways == 0,
                 "LLC lines not divisible by ways");
    setCount_ = static_cast<unsigned>(line_count / config.ways);
    setsPow2_ = (setCount_ & (setCount_ - 1)) == 0;
    setMask_ = setCount_ - 1;
    lineShift_ = 0;
    while ((1u << lineShift_) < config.lineSize) {
        ++lineShift_;
    }
    hugeLineShift_ = kPageShift2M - lineShift_;
    setData_.assign(2 * line_count, 0);
    mruWay_.assign(setCount_, 0);
}

void
LastLevelCache::recordFrameMiss(Addr paddr)
{
    const Pfn huge_base =
        (paddr >> kPageShift2M) << (kPageShift2M - kPageShift4K);
    ++frameMisses_[huge_base];
}

bool
LastLevelCache::contains(Addr paddr) const
{
    const std::uint64_t line = lineAddr(paddr);
    const std::uint64_t *tags =
        &setData_[static_cast<std::uint64_t>(setIndex(line)) * 2 *
                  config_.ways];
    const std::uint64_t want = packTag(line);
    for (unsigned w = 0; w < config_.ways; ++w) {
        if ((tags[w] & ~kDirtyBit) == want) {
            return true;
        }
    }
    return false;
}

void
LastLevelCache::flushAll()
{
    std::fill(setData_.begin(), setData_.end(), 0);
    std::fill(filled_.begin(), filled_.end(), 0);
}

void
LastLevelCache::invalidateFrames(Pfn first, unsigned count)
{
    if (count == 0) {
        return;
    }
    const unsigned frame_shift = kPageShift4K - lineShift_;
    const std::uint64_t lo = first << frame_shift;
    const std::uint64_t hi = (first + count) << frame_shift;
    bool cached = false;
    for (std::uint64_t huge = lo >> hugeLineShift_;
         huge <= (hi - 1) >> hugeLineShift_ && !cached; ++huge) {
        cached = filled(huge);
    }
    if (!cached) {
        return;
    }

    const unsigned ways = config_.ways;
    if (hi - lo < setCount_) {
        // Short range: probe the one set each line can live in.
        for (std::uint64_t line = lo; line < hi; ++line) {
            std::uint64_t *tags =
                &setData_[static_cast<std::uint64_t>(setIndex(line)) *
                          2 * ways];
            const std::uint64_t want = packTag(line);
            for (unsigned w = 0; w < ways; ++w) {
                if ((tags[w] & ~kDirtyBit) == want) {
                    tags[w] = 0;
                }
            }
        }
    } else {
        // At least one line per set: one pass over the tag array.
        const std::uint64_t span = hi - lo;
        for (std::size_t set = 0; set < setData_.size();
             set += 2 * ways) {
            std::uint64_t *tags = &setData_[set];
            for (unsigned w = 0; w < ways; ++w) {
                if ((tags[w] & kValidBit) != 0 &&
                    (tags[w] >> 2) - lo < span) {
                    tags[w] = 0;
                }
            }
        }
    }

    // Every line of a 2MB frame inside the range is gone now.
    const std::uint64_t huge_lines = std::uint64_t{1} << hugeLineShift_;
    for (std::uint64_t huge = (lo + huge_lines - 1) >> hugeLineShift_;
         huge < hi >> hugeLineShift_ && huge >> 6 < filled_.size();
         ++huge) {
        filled_[huge >> 6] &= ~(std::uint64_t{1} << (huge & 63));
    }
}

void
LastLevelCache::resetStats()
{
    stats_ = LlcStats();
}

Count
LastLevelCache::frameMisses(Pfn huge_frame_base) const
{
    const auto it = frameMisses_.find(huge_frame_base);
    return it == frameMisses_.end() ? 0 : it->value;
}

void
LastLevelCache::registerMetrics(MetricRegistry &registry,
                                const std::string &prefix) const
{
    registry.addCallback(prefix + ".hits", [this] {
        return static_cast<double>(stats_.hits);
    });
    registry.addCallback(prefix + ".misses", [this] {
        return static_cast<double>(stats_.misses);
    });
    registry.addCallback(prefix + ".writebacks", [this] {
        return static_cast<double>(stats_.writebacks);
    });
    registry.addCallback(prefix + ".miss_ratio",
                         [this] { return stats_.missRatio(); });
}

LlcConfig
LlcShards::sliceConfig(const LlcConfig &config)
{
    LlcConfig slice = config;
    const std::uint64_t lane_lines =
        config.sizeBytes / kMachineLanes / config.lineSize;
    const std::uint64_t lines = std::max<std::uint64_t>(
        config.ways, lane_lines - (lane_lines % config.ways));
    slice.sizeBytes = lines * config.lineSize;
    return slice;
}

LlcShards::LlcShards(const LlcConfig &config)
    : config_(config), laneConfig_(sliceConfig(config))
{
    lanes_.reserve(kMachineLanes);
    for (unsigned lane = 0; lane < kMachineLanes; ++lane) {
        lanes_.emplace_back(laneConfig_);
    }
}

bool
LlcShards::contains(Addr paddr) const
{
    for (const LastLevelCache &lane : lanes_) {
        if (lane.contains(paddr)) {
            return true;
        }
    }
    return false;
}

void
LlcShards::flushAll()
{
    for (LastLevelCache &lane : lanes_) {
        lane.flushAll();
    }
}

void
LlcShards::invalidateFrames(Pfn first, unsigned count)
{
    for (LastLevelCache &lane : lanes_) {
        lane.invalidateFrames(first, count);
    }
}

LlcStats
LlcShards::stats() const
{
    LlcStats merged;
    for (const LastLevelCache &lane : lanes_) {
        merged.hits += lane.stats().hits;
        merged.misses += lane.stats().misses;
        merged.writebacks += lane.stats().writebacks;
    }
    return merged;
}

void
LlcShards::resetStats()
{
    for (LastLevelCache &lane : lanes_) {
        lane.resetStats();
    }
}

Count
LlcShards::frameMisses(Pfn huge_frame_base) const
{
    Count total = 0;
    for (const LastLevelCache &lane : lanes_) {
        total += lane.frameMisses(huge_frame_base);
    }
    return total;
}

void
LlcShards::clearFrameMisses()
{
    for (LastLevelCache &lane : lanes_) {
        lane.clearFrameMisses();
    }
}

void
LlcShards::registerMetrics(MetricRegistry &registry,
                           const std::string &prefix) const
{
    registry.addCallback(prefix + ".hits", [this] {
        return static_cast<double>(stats().hits);
    });
    registry.addCallback(prefix + ".misses", [this] {
        return static_cast<double>(stats().misses);
    });
    registry.addCallback(prefix + ".writebacks", [this] {
        return static_cast<double>(stats().writebacks);
    });
    registry.addCallback(prefix + ".miss_ratio",
                         [this] { return stats().missRatio(); });
}

} // namespace thermostat
