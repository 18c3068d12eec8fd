/**
 * @file
 * Unit tests for the command-line argument parser.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "util/args.hh"
#include "util/logging.hh"

namespace {

using namespace wsc;

ArgParser
makeParser()
{
    ArgParser p("tool", "test tool");
    p.addOption("system", "platform", "srvr2")
        .addOption("tariff", "dollars per MWh", "100")
        .addFlag("csv", "emit csv");
    return p;
}

TEST(Args, DefaultsApply)
{
    auto p = makeParser();
    const char *argv[] = {"tool"};
    EXPECT_TRUE(p.parse(1, argv));
    EXPECT_EQ(p.get("system"), "srvr2");
    EXPECT_DOUBLE_EQ(p.getDouble("tariff"), 100.0);
    EXPECT_FALSE(p.flag("csv"));
}

TEST(Args, OptionsAndFlagsParsed)
{
    auto p = makeParser();
    const char *argv[] = {"tool", "--system", "emb1", "--csv",
                          "--tariff", "170"};
    EXPECT_TRUE(p.parse(6, argv));
    EXPECT_EQ(p.get("system"), "emb1");
    EXPECT_TRUE(p.flag("csv"));
    EXPECT_DOUBLE_EQ(p.getDouble("tariff"), 170.0);
}

TEST(Args, HelpShortCircuits)
{
    auto p = makeParser();
    const char *argv[] = {"tool", "--help"};
    EXPECT_FALSE(p.parse(2, argv));
    const char *argv2[] = {"tool", "-h"};
    EXPECT_FALSE(makeParser().parse(2, argv2));
}

TEST(Args, EqualsFormParsed)
{
    // wsc_eval --threads=8 smoke case: the = form must behave exactly
    // like the two-token form.
    ArgParser p("wsc_eval", "t");
    p.addOption("threads", "worker threads", "0");
    const char *argv[] = {"wsc_eval", "--threads=8"};
    EXPECT_TRUE(p.parse(2, argv));
    EXPECT_EQ(p.get("threads"), "8");
    EXPECT_DOUBLE_EQ(p.getDouble("threads"), 8.0);
    EXPECT_TRUE(p.given("threads"));
}

TEST(Args, EqualsFormFlag)
{
    auto p = makeParser();
    const char *on[] = {"tool", "--csv=true"};
    EXPECT_TRUE(p.parse(2, on));
    EXPECT_TRUE(p.flag("csv"));
    const char *off[] = {"tool", "--csv=false"};
    EXPECT_TRUE(p.parse(2, off));
    EXPECT_FALSE(p.flag("csv"));
    const char *bad[] = {"tool", "--csv=yes"};
    EXPECT_THROW(p.parse(2, bad), FatalError);
}

TEST(Args, EqualsFormEmptyAndEmbeddedEquals)
{
    auto p = makeParser();
    const char *argv[] = {"tool", "--system="};
    EXPECT_TRUE(p.parse(2, argv));
    EXPECT_EQ(p.get("system"), "");
    // Only the first '=' splits; the value may contain more.
    const char *argv2[] = {"tool", "--system=a=b"};
    EXPECT_TRUE(p.parse(2, argv2));
    EXPECT_EQ(p.get("system"), "a=b");
}

TEST(Args, UnknownEqualsOptionFatal)
{
    auto p = makeParser();
    const char *argv[] = {"tool", "--bogus=3"};
    EXPECT_THROW(p.parse(2, argv), FatalError);
}

TEST(Args, ReparseResetsState)
{
    // A second parse() must not inherit values or set-state from the
    // first.
    auto p = makeParser();
    const char *first[] = {"tool", "--system=emb1", "--csv",
                           "--tariff", "170"};
    EXPECT_TRUE(p.parse(5, first));
    EXPECT_TRUE(p.given("system"));
    EXPECT_TRUE(p.flag("csv"));

    const char *second[] = {"tool"};
    EXPECT_TRUE(p.parse(1, second));
    EXPECT_EQ(p.get("system"), "srvr2");
    EXPECT_DOUBLE_EQ(p.getDouble("tariff"), 100.0);
    EXPECT_FALSE(p.flag("csv"));
    EXPECT_FALSE(p.given("system"));
    EXPECT_FALSE(p.given("csv"));
    // Usage still advertises the registered default, not a parsed
    // value.
    EXPECT_NE(p.usage().find("default: srvr2"), std::string::npos);
}

TEST(Args, UnknownOptionFatal)
{
    auto p = makeParser();
    const char *argv[] = {"tool", "--bogus", "1"};
    EXPECT_THROW(p.parse(3, argv), FatalError);
}

TEST(Args, UnknownOptionSuggestsNearestName)
{
    auto p = makeParser();
    const char *argv[] = {"tool", "--sytem", "emb1"};
    try {
        p.parse(3, argv);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("unknown option '--sytem'"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("did you mean '--system'?"),
                  std::string::npos)
            << msg;
        // The full usage text still follows the hint.
        EXPECT_NE(msg.find("--help"), std::string::npos) << msg;
    }
}

TEST(Args, UnknownOptionFarFromEverythingGetsNoSuggestion)
{
    auto p = makeParser();
    const char *argv[] = {"tool", "--frobnicate", "1"};
    try {
        p.parse(3, argv);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("unknown option '--frobnicate'"),
                  std::string::npos)
            << msg;
        EXPECT_EQ(msg.find("did you mean"), std::string::npos) << msg;
    }
}

TEST(Args, SuggestFindsTyposAndRejectsStrangers)
{
    auto p = makeParser();
    EXPECT_EQ(p.suggest("sytem"), "system");
    EXPECT_EQ(p.suggest("tarrif"), "tariff");
    EXPECT_EQ(p.suggest("cvs"), "csv");
    EXPECT_EQ(p.suggest("frobnicate"), "");
}

TEST(Args, MissingValueFatal)
{
    auto p = makeParser();
    const char *argv[] = {"tool", "--system"};
    EXPECT_THROW(p.parse(2, argv), FatalError);
}

TEST(Args, PositionalRejected)
{
    auto p = makeParser();
    const char *argv[] = {"tool", "emb1"};
    EXPECT_THROW(p.parse(2, argv), FatalError);
}

TEST(Args, NonNumericDoubleFatal)
{
    // std::stod parses nan/inf; getDouble must still reject them.
    for (const char *bad : {"cheap", "nan", "-nan", "inf", "-inf"}) {
        auto p = makeParser();
        const char *argv[] = {"tool", "--tariff", bad};
        EXPECT_TRUE(p.parse(3, argv));
        EXPECT_THROW(p.getDouble("tariff"), FatalError) << bad;
    }
}

TEST(Args, CountAcceptsIntegersInRange)
{
    ArgParser p("tool", "t");
    p.addOption("seed", "seed", "7");
    const char *dflt[] = {"tool"};
    EXPECT_TRUE(p.parse(1, dflt));
    EXPECT_EQ(p.getCount("seed", 0, 64), 7u);
    for (auto [text, want] :
         {std::pair<const char *, std::uint64_t>{"0", 0},
          {"64", 64},
          {"2e1", 20}}) {
        const char *argv[] = {"tool", "--seed", text};
        EXPECT_TRUE(p.parse(3, argv));
        EXPECT_EQ(p.getCount("seed", 0, 64), want) << text;
    }
    const char *top[] = {"tool", "--seed", "9007199254740992"};
    EXPECT_TRUE(p.parse(3, top));
    EXPECT_EQ(p.getCount("seed", 0, ArgParser::maxCount),
              ArgParser::maxCount);
}

TEST(Args, CountRejectsFractionsNegativesAndOutOfRange)
{
    // Each of these used to reach an unsigned cast in some tool: -1
    // and 1e30 are undefined float-to-unsigned conversions, 2.5
    // truncated silently, nan compared false against every bound.
    const std::uint64_t top = ArgParser::maxCount;
    for (auto [bad, hi] :
         {std::pair<const char *, std::uint64_t>{"-1", top},
          {"2.5", top},
          {"1e30", top},
          {"nan", top},
          {"1e16", top},
          {"65", 64},
          {"cheap", 64}}) {
        ArgParser p("tool", "t");
        p.addOption("seed", "seed", "0");
        const char *argv[] = {"tool", "--seed", bad};
        EXPECT_TRUE(p.parse(3, argv));
        EXPECT_THROW(p.getCount("seed", 0, hi), FatalError) << bad;
    }
}

TEST(Args, UsageListsEverything)
{
    auto p = makeParser();
    auto usage = p.usage();
    EXPECT_NE(usage.find("--system"), std::string::npos);
    EXPECT_NE(usage.find("--csv"), std::string::npos);
    EXPECT_NE(usage.find("default: srvr2"), std::string::npos);
    EXPECT_NE(usage.find("--help"), std::string::npos);
}

TEST(Args, DuplicateRegistrationPanics)
{
    ArgParser p("tool", "t");
    p.addOption("x", "h", "1");
    EXPECT_THROW(p.addOption("x", "h", "2"), PanicError);
    EXPECT_THROW(p.addFlag("x", "h"), PanicError);
}

TEST(Args, UnregisteredLookupPanics)
{
    auto p = makeParser();
    const char *argv[] = {"tool"};
    p.parse(1, argv);
    EXPECT_THROW(p.get("nope"), PanicError);
}

} // namespace
