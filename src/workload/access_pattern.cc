#include "workload/access_pattern.hh"

#include <algorithm>

#include "common/logging.hh"

namespace thermostat
{

UniformPattern::UniformPattern(std::uint64_t span_bytes)
    : spanBytes_(span_bytes), draw_(span_bytes)
{
    TSTAT_ASSERT(span_bytes > 0, "UniformPattern: empty span");
}

void
UniformPattern::draw(Rng &rng, PatternDraw &out)
{
    out.words[0] = draw_.accept(rng);
}

std::uint64_t
UniformPattern::resolve(const PatternDraw &in) const
{
    return draw_.reduce(in.words[0]);
}

ZipfianPattern::ZipfianPattern(std::uint64_t span_bytes,
                               std::uint64_t object_bytes, double theta,
                               bool scatter, std::uint64_t seed)
    : spanBytes_(span_bytes),
      objectBytes_(object_bytes),
      zipf_(std::max<std::uint64_t>(1, span_bytes / object_bytes),
            theta),
      scatter_(scatter),
      perm_(std::max<std::uint64_t>(1, span_bytes / object_bytes), seed)
{
    TSTAT_ASSERT(object_bytes > 0 && span_bytes >= object_bytes,
                 "ZipfianPattern: bad geometry");
    if (objectBytes_ > 64) {
        withinDraw_ = BoundedDraw(objectBytes_ / 64);
    }
}

std::uint64_t
ZipfianPattern::slotForRank(std::uint64_t rank) const
{
    return scatter_ ? perm_.map(rank) : rank;
}

// words: [0] the Zipf draw's raw word, [1] the accepted line word.
void
ZipfianPattern::draw(Rng &rng, PatternDraw &out)
{
    out.words[0] = rng.next();
    out.words[1] = objectBytes_ <= 64 ? 0 : withinDraw_.accept(rng);
}

std::uint64_t
ZipfianPattern::resolve(const PatternDraw &in) const
{
    const std::uint64_t rank =
        zipf_.rankAt(Rng::unitDouble(in.words[0]));
    const std::uint64_t slot = slotForRank(rank);
    const std::uint64_t within =
        objectBytes_ <= 64 ? 0 : withinDraw_.reduce(in.words[1]) * 64;
    return std::min(slot * objectBytes_ + within, spanBytes_ - 1);
}

HotspotPattern::HotspotPattern(std::uint64_t span_bytes,
                               std::uint64_t object_bytes,
                               double hot_fraction, double hot_traffic,
                               bool scatter, std::uint64_t seed)
    : spanBytes_(span_bytes),
      objectBytes_(object_bytes),
      objectCount_(std::max<std::uint64_t>(1,
                                           span_bytes / object_bytes)),
      hotTraffic_(hot_traffic),
      scatter_(scatter),
      perm_(objectCount_, seed)
{
    TSTAT_ASSERT(hot_fraction > 0.0 && hot_fraction <= 1.0,
                 "HotspotPattern: bad hot fraction");
    TSTAT_ASSERT(hot_traffic >= 0.0 && hot_traffic <= 1.0,
                 "HotspotPattern: bad hot traffic");
    hotObjects_ = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               static_cast<double>(objectCount_) * hot_fraction));
    hotDraw_ = BoundedDraw(hotObjects_);
    anyDraw_ = BoundedDraw(objectCount_);
    if (objectBytes_ > 64) {
        withinDraw_ = BoundedDraw(objectBytes_ / 64);
    }
}

// words: [0] 1 when the draw hit the hot subset, [1] the accepted
// object word, [2] the accepted line word.
void
HotspotPattern::draw(Rng &rng, PatternDraw &out)
{
    const bool hot = rng.nextBool(hotTraffic_);
    out.words[0] = hot ? 1 : 0;
    out.words[1] = (hot ? hotDraw_ : anyDraw_).accept(rng);
    out.words[2] = objectBytes_ <= 64 ? 0 : withinDraw_.accept(rng);
}

std::uint64_t
HotspotPattern::resolve(const PatternDraw &in) const
{
    const std::uint64_t index =
        (in.words[0] != 0 ? hotDraw_ : anyDraw_).reduce(in.words[1]);
    const std::uint64_t slot = scatter_ ? perm_.map(index) : index;
    const std::uint64_t within =
        objectBytes_ <= 64 ? 0 : withinDraw_.reduce(in.words[2]) * 64;
    return std::min(slot * objectBytes_ + within, spanBytes_ - 1);
}

SequentialScanPattern::SequentialScanPattern(std::uint64_t span_bytes,
                                             std::uint64_t stride_bytes)
    : spanBytes_(span_bytes), strideBytes_(stride_bytes)
{
    TSTAT_ASSERT(span_bytes > 0, "SequentialScanPattern: empty span");
    TSTAT_ASSERT(stride_bytes > 0,
                 "SequentialScanPattern: zero stride");
}

// words: [0] the cursor the draw read.
void
SequentialScanPattern::draw(Rng &, PatternDraw &out)
{
    out.words[0] = cursor_;
    cursor_ += strideBytes_;
    if (cursor_ >= spanBytes_) {
        cursor_ = 0;
    }
}

std::uint64_t
SequentialScanPattern::resolve(const PatternDraw &in) const
{
    return in.words[0];
}

void
SequentialScanPattern::setSpanBytes(std::uint64_t bytes)
{
    spanBytes_ = bytes;
    if (cursor_ >= spanBytes_) {
        cursor_ = 0;
    }
}

RecentWindowPattern::RecentWindowPattern(std::uint64_t span_bytes,
                                         std::uint64_t window_bytes)
    : spanBytes_(span_bytes),
      windowBytes_(window_bytes),
      windowDraw_(window_bytes < span_bytes ? window_bytes
                                            : span_bytes)
{
    TSTAT_ASSERT(span_bytes > 0, "RecentWindowPattern: empty span");
    TSTAT_ASSERT(window_bytes > 0,
                 "RecentWindowPattern: empty window");
}

void
RecentWindowPattern::draw(Rng &rng, PatternDraw &out)
{
    out.words[0] = windowDraw_.accept(rng);
}

std::uint64_t
RecentWindowPattern::resolve(const PatternDraw &in) const
{
    return spanBytes_ - windowDraw_.bound() +
           windowDraw_.reduce(in.words[0]);
}

OffsetPattern::OffsetPattern(std::uint64_t offset_bytes,
                             std::unique_ptr<AccessPattern> inner)
    : offsetBytes_(offset_bytes), inner_(std::move(inner))
{
    TSTAT_ASSERT(inner_ != nullptr, "OffsetPattern without inner");
}

void
OffsetPattern::draw(Rng &rng, PatternDraw &out)
{
    inner_->draw(rng, out);
}

std::uint64_t
OffsetPattern::resolve(const PatternDraw &in) const
{
    return offsetBytes_ + inner_->resolve(in);
}

std::uint64_t
OffsetPattern::spanBytes() const
{
    return offsetBytes_ + inner_->spanBytes();
}

void
OffsetPattern::setSpanBytes(std::uint64_t bytes)
{
    if (bytes > offsetBytes_) {
        inner_->setSpanBytes(bytes - offsetBytes_);
    }
}

void
OffsetPattern::advance(Ns now)
{
    inner_->advance(now);
}

PhaseShiftPattern::PhaseShiftPattern(
    std::unique_ptr<AccessPattern> inner, Ns phase_period,
    std::uint64_t shift_bytes, std::uint64_t wrap_bytes)
    : inner_(std::move(inner)),
      phasePeriod_(phase_period),
      shiftBytes_(shift_bytes),
      wrapBytes_(wrap_bytes)
{
    TSTAT_ASSERT(phasePeriod_ > 0, "PhaseShiftPattern: zero period");
    TSTAT_ASSERT(wrapBytes_ >= inner_->spanBytes(),
                 "PhaseShiftPattern: wrap smaller than inner span");
}

void
PhaseShiftPattern::draw(Rng &rng, PatternDraw &out)
{
    inner_->draw(rng, out);
}

std::uint64_t
PhaseShiftPattern::resolve(const PatternDraw &in) const
{
    const std::uint64_t raw = inner_->resolve(in);
    return (raw + static_cast<std::uint64_t>(phaseIndex_) *
                      shiftBytes_) %
           wrapBytes_;
}

void
PhaseShiftPattern::advance(Ns now)
{
    inner_->advance(now);
    phaseIndex_ = static_cast<unsigned>(now / phasePeriod_);
}

} // namespace thermostat
