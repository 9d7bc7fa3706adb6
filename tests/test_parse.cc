/**
 * @file
 * The strict numeric parser (common/parse.hh): a table of the token
 * shapes every input boundary must reject or accept, a seeded
 * mutation sweep that checks parseReal/parseCount against an
 * independent reference predicate, and the obs/json number path
 * that now rides on parseReal.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <regex>
#include <string>
#include <vector>

#include "common/parse.hh"
#include "common/rng.hh"
#include "obs/json.hh"

namespace thermostat
{
namespace
{

constexpr std::uint64_t kMaxCount =
    std::numeric_limits<std::uint64_t>::max();

std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

/** Digit-by-digit model of parseCount, with its own overflow test. */
std::optional<std::uint64_t>
referenceCount(const std::string &text, unsigned base)
{
    if (text.empty()) {
        return std::nullopt;
    }
    std::uint64_t value = 0;
    for (const char c : text) {
        unsigned digit = base;
        if (c >= '0' && c <= '9') {
            digit = static_cast<unsigned>(c - '0');
        } else if (c >= 'a' && c <= 'z') {
            digit = static_cast<unsigned>(c - 'a') + 10;
        } else if (c >= 'A' && c <= 'Z') {
            digit = static_cast<unsigned>(c - 'A') + 10;
        }
        if (digit >= base || value > (kMaxCount - digit) / base) {
            return std::nullopt;
        }
        value = value * base + digit;
    }
    return value;
}

/**
 * Model of parseReal: a plain decimal (no sign but '-', no
 * whitespace, no hex, no inf/nan), valued by strtod, finite, and
 * not a nonzero mantissa that underflowed to zero.
 */
std::optional<double>
referenceReal(const std::string &text)
{
    static const std::regex kDecimal(
        R"(-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?)");
    if (!std::regex_match(text, kDecimal)) {
        return std::nullopt;
    }
    const double value = std::strtod(text.c_str(), nullptr);
    const std::string mantissa = text.substr(0, text.find_first_of("eE"));
    const bool zero_mantissa =
        mantissa.find_first_of("123456789") == std::string::npos;
    if (!std::isfinite(value) || (value == 0.0 && !zero_mantissa)) {
        return std::nullopt;
    }
    return value;
}

TEST(Parse, RealTable)
{
    for (const char *bad :
         {"", "+1", " 1", "1 ", "0x10", "1e999", "-1e999", "1e-400",
          "nan", "-nan", "NaN", "inf", "-inf", "infinity", "1,5",
          "1.5x", "-", ".", "e5"}) {
        EXPECT_FALSE(parseReal(bad).has_value()) << "'" << bad << "'";
    }
    const std::optional<double> neg_zero = parseReal("-0");
    ASSERT_TRUE(neg_zero.has_value());
    EXPECT_EQ(*neg_zero, 0.0);
    EXPECT_TRUE(std::signbit(*neg_zero));
    EXPECT_EQ(parseReal("3"), 3.0);
    EXPECT_EQ(parseReal("-2.5e-3"), -2.5e-3);
    EXPECT_EQ(parseReal("1e308"), 1e308);
    // Subnormals are representable, so they are not out of range.
    EXPECT_EQ(parseReal("1e-320"), 1e-320);
}

TEST(Parse, CountTable)
{
    for (const char *bad :
         {"", "+1", " 1", "1 ", "0x10", "-0", "-1", "1e3", "1.0",
          "18446744073709551616", "99999999999999999999", "abc"}) {
        EXPECT_FALSE(parseCount(bad).has_value()) << "'" << bad << "'";
    }
    EXPECT_EQ(parseCount("0"), 0u);
    EXPECT_EQ(parseCount("007"), 7u);
    EXPECT_EQ(parseCount("18446744073709551615"), kMaxCount);

    EXPECT_EQ(parseCount("ff", 16), 255u);
    EXPECT_EQ(parseCount("FF", 16), 255u);
    EXPECT_EQ(parseCount("abc123", 16), 0xabc123u);
    EXPECT_EQ(parseCount("ffffffffffffffff", 16), kMaxCount);
    for (const char *bad :
         {"", "0x10", "10000000000000000", "g", "-1", "+f", " f"}) {
        EXPECT_FALSE(parseCount(bad, 16).has_value())
            << "'" << bad << "' (base 16)";
    }
}

TEST(Parse, MutationSweepMatchesReference)
{
    // Seeded mutations of well-formed tokens: every result (accept
    // or reject, and the exact value) must match the reference.
    const std::vector<std::string> seeds = {
        "0",    "1",     "-1",   "3.14", "1e5", "-2.5e-3",
        "5.",   ".5",    "1e308", "1e-320",
        "18446744073709551615", "ffffffffffffffff", "deadbeef"};
    const std::string alphabet = "0123456789abcdefxX.-+eE niINF";
    Rng rng(20261019); // rng: parse mutation sweep
    for (int round = 0; round < 2000; ++round) {
        std::string text = seeds[rng.nextBounded(seeds.size())];
        const std::uint64_t edits = 1 + rng.nextBounded(4);
        for (std::uint64_t e = 0; e < edits; ++e) {
            const char c = alphabet[rng.nextBounded(alphabet.size())];
            const std::size_t at = rng.nextBounded(text.size() + 1);
            switch (rng.nextBounded(3)) {
              case 0:
                text.insert(at, 1, c);
                break;
              case 1:
                if (at < text.size()) {
                    text.erase(at, 1);
                }
                break;
              default:
                if (at < text.size()) {
                    text[at] = c;
                }
                break;
            }
        }

        const std::optional<double> real = parseReal(text);
        const std::optional<double> want_real = referenceReal(text);
        ASSERT_EQ(real.has_value(), want_real.has_value())
            << "parseReal('" << text << "')";
        if (real) {
            EXPECT_EQ(bitsOf(*real), bitsOf(*want_real))
                << "parseReal('" << text << "')";
        }
        for (const unsigned base : {10u, 16u}) {
            EXPECT_EQ(parseCount(text, static_cast<int>(base)),
                      referenceCount(text, base))
                << "parseCount('" << text << "', " << base << ")";
        }
    }
}

TEST(Parse, JsonNumberOutOfRangeIsAnError)
{
    for (const char *text : {"1e999", "[1, -1e999]", "{\"x\": 1e-400}"}) {
        JsonValue doc;
        std::string error;
        EXPECT_FALSE(parseJson(text, &doc, &error)) << text;
        EXPECT_NE(error.find("out of range"), std::string::npos)
            << text << ": " << error;
    }
}

TEST(Parse, JsonNumbersRoundTripBitIdentically)
{
    std::vector<double> values = {
        0.0,
        -0.0,
        0.1,
        1.0 / 3.0,
        -2.5e-3,
        1e15,
        123456789.0,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min(),
    };
    Rng rng(0x7a5e1); // rng: json round-trip values
    while (values.size() < 300) {
        double v = 0.0;
        const std::uint64_t bits = rng.next();
        std::memcpy(&v, &bits, sizeof v);
        if (std::isfinite(v)) {
            values.push_back(v);
        }
    }
    for (const double v : values) {
        const std::string text = jsonNumber(v);
        JsonValue doc;
        std::string error;
        ASSERT_TRUE(parseJson(text, &doc, &error)) << text << error;
        EXPECT_EQ(bitsOf(doc.asNumber()), bitsOf(v)) << text;
    }
}

} // namespace
} // namespace thermostat
