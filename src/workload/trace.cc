#include "workload/trace.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "common/logging.hh"
#include "vm/address_space.hh"

namespace thermostat
{

namespace
{

constexpr char kMagic[8] = {'T', 'S', 'T', 'A',
                            'T', 'T', 'R', '1'};

struct FileCloser
{
    void
    operator()(std::FILE *file) const
    {
        if (file) {
            std::fclose(file);
        }
    }
};

using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/** Fixed-size header; strings are written separately. */
struct TraceHeader
{
    char magic[8];
    std::uint32_t regionCount;
    std::uint32_t nameLength;
    std::uint64_t entryCount;
    double memRefRate;
    double cpuWorkFraction;
    std::uint64_t naturalDurationNs;
};

/** On-disk region record (name written separately). */
struct RegionRecord
{
    std::uint64_t bytes;
    std::uint64_t reserveBytes;
    std::uint32_t nameLength;
    std::uint8_t thp;
    std::uint8_t fileBacked;
    std::uint8_t pad[2];
};

bool
writeString(std::FILE *file, const std::string &s)
{
    return std::fwrite(s.data(), 1, s.size(), file) == s.size();
}

/** End of the user half of a 48-bit virtual address space. */
constexpr Addr kAddressLimit = Addr{1} << 47;

/**
 * Bytes from the read position to the end of @p file (0 when it
 * cannot seek): the bound on every count and length read from it.
 */
std::uint64_t
bytesLeft(std::FILE *file)
{
    const long at = std::ftell(file);
    if (at < 0 || std::fseek(file, 0, SEEK_END) != 0) {
        return 0;
    }
    const long end = std::ftell(file);
    return std::fseek(file, at, SEEK_SET) == 0 && end > at
               ? static_cast<std::uint64_t>(end - at)
               : 0;
}

/** Read a @p length-byte string, refusing lengths past the end. */
bool
readString(std::FILE *file, std::uint32_t length, std::string *out)
{
    if (length > bytesLeft(file)) {
        return false;
    }
    out->resize(length);
    return std::fread(out->data(), 1, length, file) == length;
}

} // namespace

RecordingWorkload::RecordingWorkload(std::unique_ptr<Workload> inner)
    : inner_(std::move(inner))
{
    TSTAT_ASSERT(inner_ != nullptr, "RecordingWorkload without inner");
}

const std::string &
RecordingWorkload::name() const
{
    return inner_->name();
}

void
RecordingWorkload::setup(AddressSpace &space)
{
    inner_->setup(space);
    // Snapshot the region layout for the trace header so replay can
    // recreate the identical address space.
    regions_.clear();
    for (const Region &region : space.regions()) {
        RegionSpec spec;
        spec.name = region.name;
        spec.bytes = region.mappedBytes;
        spec.reserveBytes = region.reservedBytes;
        spec.thp = region.thp;
        spec.fileBacked = region.fileBacked;
        regions_.push_back(spec);
    }
}

void
RecordingWorkload::advance(Ns now, AddressSpace &space)
{
    inner_->advance(now, space);
}

MemRef
RecordingWorkload::sample(Rng &rng)
{
    const MemRef ref = inner_->sample(rng);
    TraceEntry entry;
    entry.addr = ref.addr;
    entry.burstLines = static_cast<std::uint16_t>(ref.burstLines);
    entry.isWrite = ref.type == AccessType::Write ? 1 : 0;
    entries_.push_back(entry);
    return ref;
}

double
RecordingWorkload::memRefRate() const
{
    return inner_->memRefRate();
}

double
RecordingWorkload::cpuWorkFraction() const
{
    return inner_->cpuWorkFraction();
}

Ns
RecordingWorkload::naturalDuration() const
{
    return inner_->naturalDuration();
}

bool
RecordingWorkload::save(const std::string &path) const
{
    FilePtr file(std::fopen(path.c_str(), "wb"));
    if (!file) {
        TSTAT_WARN("trace save: cannot open %s", path.c_str());
        return false;
    }
    TraceHeader header{};
    std::memcpy(header.magic, kMagic, sizeof(kMagic));
    header.regionCount =
        static_cast<std::uint32_t>(regions_.size());
    header.nameLength =
        static_cast<std::uint32_t>(inner_->name().size());
    header.entryCount = entries_.size();
    header.memRefRate = inner_->memRefRate();
    header.cpuWorkFraction = inner_->cpuWorkFraction();
    header.naturalDurationNs = inner_->naturalDuration();
    if (std::fwrite(&header, sizeof(header), 1, file.get()) != 1 ||
        !writeString(file.get(), inner_->name())) {
        return false;
    }
    for (const RegionSpec &spec : regions_) {
        RegionRecord record{};
        record.bytes = spec.bytes;
        record.reserveBytes = spec.reserveBytes;
        record.nameLength =
            static_cast<std::uint32_t>(spec.name.size());
        record.thp = spec.thp ? 1 : 0;
        record.fileBacked = spec.fileBacked ? 1 : 0;
        if (std::fwrite(&record, sizeof(record), 1, file.get()) !=
                1 ||
            !writeString(file.get(), spec.name)) {
            return false;
        }
    }
    if (!entries_.empty() &&
        std::fwrite(entries_.data(), sizeof(TraceEntry),
                    entries_.size(),
                    file.get()) != entries_.size()) {
        return false;
    }
    return true;
}

namespace
{

/** Build the diagnostic, warn, and hand it to the caller. */
void
loadError(std::string *error, const std::string &path,
          const std::string &reason)
{
    const std::string message =
        "trace load: " + reason + " in " + path;
    TSTAT_WARN("%s", message.c_str());
    if (error != nullptr) {
        *error = message;
    }
}

} // namespace

std::unique_ptr<TraceWorkload>
TraceWorkload::load(const std::string &path, std::string *error)
{
    errno = 0;
    FilePtr file(std::fopen(path.c_str(), "rb"));
    if (!file) {
        loadError(error, path,
                  std::string("cannot open (errno ") +
                      std::to_string(errno) + ", " +
                      std::strerror(errno) + ")");
        return nullptr;
    }
    TraceHeader header{};
    if (std::fread(&header, sizeof(header), 1, file.get()) != 1 ||
        std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
        loadError(error, path, "bad header");
        return nullptr;
    }
    if (!std::isfinite(header.memRefRate) ||
        header.memRefRate <= 0.0) {
        loadError(error, path, "memory reference rate not positive");
        return nullptr;
    }
    if (!(header.cpuWorkFraction >= 0.0 &&
          header.cpuWorkFraction <= 1.0)) {
        loadError(error, path, "cpu work fraction outside [0, 1]");
        return nullptr;
    }
    if (header.entryCount == 0) {
        loadError(error, path, "no entries");
        return nullptr;
    }
    auto trace = std::unique_ptr<TraceWorkload>(new TraceWorkload());
    if (!readString(file.get(), header.nameLength, &trace->name_)) {
        loadError(error, path, "truncated workload name");
        return nullptr;
    }
    trace->memRefRate_ = header.memRefRate;
    trace->cpuWorkFraction_ = header.cpuWorkFraction;
    trace->naturalDuration_ = header.naturalDurationNs;
    if (header.regionCount >
        bytesLeft(file.get()) / sizeof(RegionRecord)) {
        loadError(error, path, "truncated region records");
        return nullptr;
    }
    // Replay AddressSpace::mapRegion's bump layout so each entry
    // can be checked against the regions replay will map.
    std::vector<Addr> begins;
    std::vector<Addr> ends;
    Addr next_base = kFirstRegionBase;
    for (std::uint32_t i = 0; i < header.regionCount; ++i) {
        RegionRecord record{};
        RegionSpec spec;
        if (std::fread(&record, sizeof(record), 1, file.get()) !=
                1 ||
            !readString(file.get(), record.nameLength,
                        &spec.name)) {
            loadError(error, path, "truncated region record");
            return nullptr;
        }
        if (record.bytes > kAddressLimit ||
            record.reserveBytes > kAddressLimit ||
            next_base + alignUp2M(std::max(record.reserveBytes,
                                           alignUp4K(record.bytes))) >
                kAddressLimit) {
            loadError(error, path,
                      "region '" + spec.name +
                          "' exceeds the 47-bit address space");
            return nullptr;
        }
        for (const RegionSpec &seen : trace->regions_) {
            if (seen.name == spec.name) {
                loadError(error, path,
                          "duplicate region '" + spec.name + "'");
                return nullptr;
            }
        }
        spec.bytes = record.bytes;
        spec.reserveBytes = record.reserveBytes;
        spec.thp = record.thp != 0;
        spec.fileBacked = record.fileBacked != 0;
        trace->regions_.push_back(spec);
        const std::uint64_t mapped = alignUp4K(spec.bytes);
        begins.push_back(next_base);
        ends.push_back(next_base + mapped);
        next_base += alignUp2M(std::max(spec.reserveBytes, mapped)) +
                     kPageSize2M;
    }
    if (header.entryCount >
        bytesLeft(file.get()) / sizeof(TraceEntry)) {
        loadError(error, path, "truncated entries");
        return nullptr;
    }
    trace->entries_.resize(header.entryCount);
    if (std::fread(trace->entries_.data(), sizeof(TraceEntry),
                   trace->entries_.size(),
                   file.get()) != trace->entries_.size()) {
        loadError(error, path, "truncated entries");
        return nullptr;
    }
    for (std::size_t i = 0; i < trace->entries_.size(); ++i) {
        const Addr addr = trace->entries_[i].addr;
        const auto it =
            std::upper_bound(begins.begin(), begins.end(), addr);
        if (it == begins.begin() ||
            addr >= ends[static_cast<std::size_t>(
                        it - begins.begin() - 1)]) {
            loadError(error, path,
                      "entry " + std::to_string(i) +
                          " outside the mapped regions");
            return nullptr;
        }
    }
    return trace;
}

void
TraceWorkload::setup(AddressSpace &space)
{
    // Recreate the recorded layout.  Bump allocation reproduces it
    // exactly, shifted by where this address space starts (a host
    // tenant's window), so entries are relocated by that shift.
    for (const RegionSpec &spec : regions_) {
        const Addr base =
            space.mapRegion(spec.name, spec.bytes, spec.reserveBytes,
                            spec.thp, spec.fileBacked);
        if (&spec == &regions_.front()) {
            shift_ = base - kFirstRegionBase;
        }
    }
}

void
TraceWorkload::advance(Ns now, AddressSpace &space)
{
    (void)now;
    (void)space;
}

MemRef
TraceWorkload::sample(Rng &rng)
{
    (void)rng;
    TSTAT_ASSERT(!entries_.empty(), "empty trace");
    const TraceEntry &entry = entries_[cursor_];
    cursor_ = (cursor_ + 1) % entries_.size();
    MemRef ref;
    ref.addr = entry.addr + shift_;
    ref.burstLines = entry.burstLines;
    ref.type = entry.isWrite ? AccessType::Write : AccessType::Read;
    return ref;
}

} // namespace thermostat
