/**
 * @file
 * The one strict numeric parser behind every input boundary: CLI
 * operands, tenant specs, fault plans, --policy-param, the
 * THERMOSTAT_JOBS variable, JSON numbers and the lint cache.
 *
 * Both functions wrap std::from_chars, so they are locale-
 * independent and demand that the whole token be the number: no
 * leading '+' or whitespace, no trailing bytes, no "0x" prefix.
 * They neither print nor log.  Range checks and diagnostics stay at
 * the call site, which knows what the number means.
 */

#ifndef THERMOSTAT_COMMON_PARSE_HH
#define THERMOSTAT_COMMON_PARSE_HH

#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string_view>
#include <system_error>

namespace thermostat
{

/**
 * The finite double that all of @p text spells, else nothing.  The
 * inf/nan spellings are rejected, and so is any value whose
 * magnitude over- or underflows a double (1e999, 1e-400).
 */
inline std::optional<double>
parseReal(std::string_view text)
{
    double value = 0.0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || !std::isfinite(value)) {
        return std::nullopt;
    }
    return value;
}

/**
 * The unsigned 64-bit integer that all of @p text spells in digits
 * of @p base, else nothing.  A sign, whitespace or a value past
 * 2^64 - 1 is rejected.
 */
inline std::optional<std::uint64_t>
parseCount(std::string_view text, int base = 10)
{
    std::uint64_t value = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] =
        std::from_chars(text.data(), end, value, base);
    if (ec != std::errc() || ptr != end) {
        return std::nullopt;
    }
    return value;
}

} // namespace thermostat

#endif // THERMOSTAT_COMMON_PARSE_HH
