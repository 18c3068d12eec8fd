/**
 * @file
 * Unit tests for the util module: logging, tables, strings, units.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <vector>

#include "util/logging.hh"
#include "util/random.hh"
#include "util/strings.hh"
#include "util/table.hh"
#include "util/units.hh"

namespace {

using namespace wsc;

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("boom"), PanicError);
    try {
        panic("specific message");
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("specific message"),
                  std::string::npos);
    }
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config"), FatalError);
}

TEST(Logging, FatalIsNotPanic)
{
    // The two error classes must stay distinguishable for callers.
    EXPECT_THROW(
        {
            try {
                fatal("x");
            } catch (const PanicError &) {
                FAIL() << "fatal() must not throw PanicError";
            }
        },
        FatalError);
}

TEST(Logging, WarnCountsAndRespectsLevel)
{
    Logger::resetWarnCount();
    Logger::setLevel(LogLevel::Silent);
    warn("suppressed but counted");
    EXPECT_EQ(Logger::warnCount(), 1u);
    Logger::setLevel(LogLevel::Warn);
}

TEST(Logging, AssertMacroPanicsWithMessage)
{
    EXPECT_THROW(WSC_ASSERT(1 == 2, "math broke: " << 42), PanicError);
    EXPECT_NO_THROW(WSC_ASSERT(1 == 1, "fine"));
}

TEST(Table, AlignsAndCounts)
{
    Table t({"System", "Watt"});
    t.addRow({"srvr1", "340"});
    t.addRow({"emb2", "35"});
    EXPECT_EQ(t.rowCount(), 2u);
    std::string s = t.str();
    EXPECT_NE(s.find("srvr1"), std::string::npos);
    EXPECT_NE(s.find("340"), std::string::npos);
}

TEST(Table, RejectsMismatchedRow)
{
    Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"only one"}), PanicError);
}

TEST(Table, CsvOutputQuotesCommas)
{
    Table t({"name", "value"});
    t.addRow({"a,b", "1"});
    std::ostringstream ss;
    t.printCsv(ss);
    EXPECT_NE(ss.str().find("\"a,b\""), std::string::npos);
}

TEST(Table, SeparatorExcludedFromRowCount)
{
    Table t({"x"});
    t.addRow({"1"});
    t.addSeparator();
    t.addRow({"2"});
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(TableFormat, Percent)
{
    EXPECT_EQ(fmtPct(1.33), "133%");
    EXPECT_EQ(fmtPct(0.675, 1), "67.5%");
}

TEST(TableFormat, Dollars)
{
    EXPECT_EQ(fmtDollars(5758.0), "$5,758");
    EXPECT_EQ(fmtDollars(120.4), "$120");
    EXPECT_EQ(fmtDollars(1234567.0), "$1,234,567");
    EXPECT_EQ(fmtDollars(-42.0), "-$42");
}

TEST(TableFormat, Fixed)
{
    EXPECT_EQ(fmtF(3.14159, 2), "3.14");
    EXPECT_EQ(fmtF(2.0, 0), "2");
}

TEST(Strings, SplitJoinRoundTrip)
{
    auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(join(parts, ","), "a,b,,c");
}

TEST(Strings, SplitTrailingDelimiter)
{
    auto parts = split("a,", ',');
    ASSERT_EQ(parts.size(), 2u);
    EXPECT_EQ(parts[1], "");
}

TEST(Strings, Trim)
{
    EXPECT_EQ(trim("  x y  "), "x y");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim(""), "");
}

TEST(Strings, LowerAndPrefix)
{
    EXPECT_EQ(toLower("WebSearch"), "websearch");
    EXPECT_TRUE(startsWith("websearch", "web"));
    EXPECT_FALSE(startsWith("web", "websearch"));
}

TEST(Units, EnergyConversions)
{
    // 1 kW sustained for a year is 8.76 MWh.
    EXPECT_NEAR(units::energyMWh(1000.0, 1.0), 8.76, 1e-9);
    EXPECT_NEAR(units::wattHoursToMWh(500.0, 2.0), 0.001, 1e-12);
}

TEST(Rng, DeterministicWithSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, SplitDecorrelates)
{
    Rng a(42);
    Rng child = a.split();
    // The child stream must differ from the parent's continuation.
    bool any_diff = false;
    Rng parent_copy(42);
    (void)parent_copy.raw()(); // consume the split draw
    for (int i = 0; i < 10; ++i)
        any_diff |= (child.uniform() != parent_copy.uniform());
    EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformIntBounds)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        auto v = r.uniformInt(3, 9);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 9u);
    }
}

TEST(Rng, ExponentialMeanApproximation)
{
    Rng r(11);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += r.exponential(2.5);
    EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(Rng, BernoulliFrequency)
{
    Rng r(13);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.bernoulli(0.3);
    EXPECT_NEAR(double(hits) / n, 0.3, 0.01);
}

// Rng's engine and conversions are in-house copies of std::mt19937_64
// and libstdc++'s distributions; these tests pin them bit for bit.

const std::uint64_t kIdentitySeeds[] = {
    0, 1, 42, 5489, 0x5DEECE66DULL, ~std::uint64_t(0)};

std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

static_assert(sizeof(Rng) ==
                  sizeof(std::mt19937_64) + sizeof(std::uint64_t),
              "Rng keeps the size it had over std::mt19937_64");

TEST(Rng, RawOutputsMatchStdMt19937_64)
{
    for (std::uint64_t seed : kIdentitySeeds) {
        SCOPED_TRACE(seed);
        Rng r(seed);
        std::mt19937_64 ref(seed);
        std::uint64_t mismatches = 0, first = 0;
        for (std::uint64_t i = 0; i < 2000000; ++i) {
            if (r.raw()() != ref() && mismatches++ == 0)
                first = i;
        }
        EXPECT_EQ(mismatches, 0u) << "first mismatch at draw " << first;
    }
    // [rand.predef]: the 10000th output of a default-seeded
    // mt19937_64 (seed 5489) is 9981545732273789042.
    Mt19937_64 e(5489);
    for (int i = 1; i < 10000; ++i)
        e();
    EXPECT_EQ(e(), 9981545732273789042ULL);
}

TEST(Rng, DrawsMatchStdDistributions)
{
    const double bounds[][2] = {
        {0.0, 1.0}, {-3.5, 2.25}, {1e-3, 1e6}, {5.0, 5.0}};
    const double probs[] = {0.0, 1e-6, 0.3, 0.5, 0.999, 1.0};
    const double means[] = {1e-4, 1.0, 2.5, 3600.0};
    const std::uint64_t ranges[][2] = {
        {0, 1}, {3, 9}, {0, 999999}, {7, 1ULL << 40},
        {0, ~std::uint64_t(0)}};
    for (std::uint64_t seed : kIdentitySeeds) {
        SCOPED_TRACE(seed);
        Rng r(seed);
        std::mt19937_64 ref(seed);
        for (int i = 0; i < 20000; ++i) {
            ASSERT_EQ(bits(r.uniform()),
                      bits(std::uniform_real_distribution<double>(
                          0.0, 1.0)(ref)));
            const auto &b = bounds[i % 4];
            ASSERT_EQ(bits(r.uniform(b[0], b[1])),
                      bits(std::uniform_real_distribution<double>(
                          b[0], b[1])(ref)));
            double p = probs[i % 6];
            ASSERT_EQ(r.bernoulli(p),
                      std::uniform_real_distribution<double>(0.0, 1.0)(
                          ref) < p);
            double mean = means[i % 4];
            ASSERT_EQ(bits(r.exponential(mean)),
                      bits(std::exponential_distribution<double>(
                          1.0 / mean)(ref)));
            ASSERT_EQ(bits(r.normal(mean, 0.5)),
                      bits(std::normal_distribution<double>(mean, 0.5)(
                          ref)));
            ASSERT_EQ(bits(r.lognormal(0.3, 1.2)),
                      bits(std::lognormal_distribution<double>(0.3, 1.2)(
                          ref)));
            const auto &range = ranges[i % 5];
            ASSERT_EQ(r.uniformInt(range[0], range[1]),
                      std::uniform_int_distribution<std::uint64_t>(
                          range[0], range[1])(ref));
        }
        Rng child = r.split();
        std::mt19937_64 refChild(ref() ^ 0x9E3779B97F4A7C15ULL);
        for (int i = 0; i < 1000; ++i)
            ASSERT_EQ(child.raw()(), refChild());
        EXPECT_EQ(r.raw()(), ref()); // parents still in step
    }
}

/** A URBG that returns one fixed word, to probe the conversion. */
struct FixedWord {
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }
    result_type word;
    result_type operator()() { return word; }
};

TEST(Rng, CanonicalMatchesGenerateCanonical)
{
    const std::uint64_t top = ~std::uint64_t(0);
    std::vector<std::uint64_t> words = {
        0, 1, (1ULL << 53) - 1, 1ULL << 53, (1ULL << 53) + 1,
        (1ULL << 63) - 1, 1ULL << 63, top - 1024, top - 1023, top};
    std::mt19937_64 gen(99);
    for (int i = 0; i < 100000; ++i) {
        std::uint64_t w = gen();
        words.push_back(w);
        words.push_back(w >> (i % 64));       // small magnitudes
        words.push_back(top - (w >> 52));     // within 4096 of the top
    }
    for (std::uint64_t w : words) {
        FixedWord g{w};
        double want = std::generate_canonical<double, 53>(g);
        ASSERT_EQ(bits(Rng::canonical(w)), bits(want)) << "word " << w;
        ASSERT_LT(Rng::canonical(w), 1.0) << "word " << w;
    }
}

} // namespace
