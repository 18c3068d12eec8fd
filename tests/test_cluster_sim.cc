/**
 * @file
 * Tests for the multi-server cluster simulation (the paper's
 * aggregation-assumption validation).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "perfsim/cluster_sim.hh"
#include "perfsim/perf_eval.hh"
#include "platform/catalog.hh"
#include "util/logging.hh"
#include "workloads/ytube.hh"

namespace {

using namespace wsc;
using namespace wsc::perfsim;

StationConfig
stations()
{
    PerfEvaluator ev;
    workloads::Ytube yt;
    return ev.stationsFor(platform::makeSystem(
                              platform::SystemClass::Emb1),
                          yt.traits(), {});
}

SimWindow
fastWindow()
{
    SimWindow w;
    w.warmupSeconds = 3.0;
    w.measureSeconds = 15.0;
    return w;
}

TEST(ClusterSim, LowLoadPassesOnAllPolicies)
{
    workloads::Ytube yt;
    auto st = stations();
    for (auto policy :
         {DispatchPolicy::RoundRobin, DispatchPolicy::Random,
          DispatchPolicy::LeastOutstanding,
          DispatchPolicy::TwoChoices}) {
        Rng rng(41);
        auto r = simulateCluster(yt, st, 4, policy, 40.0, fastWindow(),
                                 rng);
        EXPECT_TRUE(r.passes(yt.qos())) << to_string(policy);
        EXPECT_GT(r.completed, 300u);
        EXPECT_FALSE(r.saturated);
    }
}

TEST(ClusterSim, OverloadFailsQos)
{
    workloads::Ytube yt;
    auto st = stations();
    Rng rng(42);
    // Single emb1 sustains ~85 rps on ytube; 4 servers cannot do 800.
    auto r = simulateCluster(yt, st, 4, DispatchPolicy::RoundRobin,
                             800.0, fastWindow(), rng);
    EXPECT_FALSE(r.passes(yt.qos()));
}

TEST(ClusterSim, LoadSpreadAcrossServers)
{
    workloads::Ytube yt;
    auto st = stations();
    Rng rng(43);
    auto r = simulateCluster(yt, st, 4, DispatchPolicy::RoundRobin,
                             100.0, fastWindow(), rng);
    // Utilization roughly even: the max is close to the mean.
    EXPECT_GT(r.cpuUtilization, 0.0);
    EXPECT_LT(r.maxCpuUtilization,
              2.0 * r.cpuUtilization + 0.05);
}

TEST(ClusterSim, ScalingNearLinearWithGoodDispatch)
{
    // The paper's aggregation assumption: a 4-node cluster sustains
    // close to 4x the single-node rate under sensible dispatch.
    workloads::Ytube yt;
    auto st = stations();
    Rng rng(44);
    SearchParams sp;
    sp.iterations = 6;
    sp.window = fastWindow();
    auto scaling = measureClusterScaling(
        yt, st, 4, DispatchPolicy::LeastOutstanding, sp, rng);
    EXPECT_GT(scaling.scalingEfficiency, 0.85);
    EXPECT_LE(scaling.scalingEfficiency, 1.1);
}

TEST(ClusterSim, RandomDispatchNoBetterThanLeastOutstanding)
{
    workloads::Ytube yt;
    auto st = stations();
    SearchParams sp;
    sp.iterations = 5;
    sp.window = fastWindow();
    Rng r1(45), r2(45);
    auto lo = measureClusterScaling(
        yt, st, 4, DispatchPolicy::LeastOutstanding, sp, r1);
    auto rnd = measureClusterScaling(yt, st, 4,
                                     DispatchPolicy::Random, sp, r2);
    EXPECT_LE(rnd.scalingEfficiency, lo.scalingEfficiency + 0.08);
}

TEST(ClusterSim, SingleServerClusterMatchesSingleSearch)
{
    workloads::Ytube yt;
    auto st = stations();
    SearchParams sp;
    sp.iterations = 6;
    sp.window = fastWindow();
    Rng rng(46);
    auto scaling = measureClusterScaling(
        yt, st, 1, DispatchPolicy::RoundRobin, sp, rng);
    EXPECT_NEAR(scaling.scalingEfficiency, 1.0, 0.15);
}

TEST(ClusterSim, InvalidArgsPanic)
{
    workloads::Ytube yt;
    auto st = stations();
    Rng rng(47);
    EXPECT_THROW(simulateCluster(yt, st, 0, DispatchPolicy::RoundRobin,
                                 10.0, fastWindow(), rng),
                 PanicError);
    EXPECT_THROW(simulateCluster(yt, st, 2, DispatchPolicy::RoundRobin,
                                 0.0, fastWindow(), rng),
                 PanicError);
}

TEST(ClusterSim, ScalingSearchRejectsEmptyClusterEarly)
{
    // Regression: the servers == 0 config default used to survive all
    // the way into pick(), dividing by zero (RoundRobin) or
    // underflowing uniformInt's bounds (Random), and only after the
    // expensive single-server search had already run. The entry
    // assert must fire immediately.
    workloads::Ytube yt;
    auto st = stations();
    SearchParams sp;
    sp.iterations = 2;
    sp.window = fastWindow();
    Rng rng(48);
    EXPECT_THROW(measureClusterScaling(
                     yt, st, 0, DispatchPolicy::RoundRobin, sp, rng),
                 PanicError);
}

TEST(ClusterSim, TwoChoicesTracksLeastOutstanding)
{
    // Power of two choices should land within a whisker of the exact
    // full scan at this scale while doing O(1) work per arrival.
    workloads::Ytube yt;
    auto st = stations();
    SearchParams sp;
    sp.iterations = 5;
    sp.window = fastWindow();
    Rng r1(49), r2(49);
    auto lo = measureClusterScaling(
        yt, st, 4, DispatchPolicy::LeastOutstanding, sp, r1);
    auto p2c = measureClusterScaling(
        yt, st, 4, DispatchPolicy::TwoChoices, sp, r2);
    EXPECT_GT(p2c.scalingEfficiency, 0.8);
    EXPECT_LE(p2c.scalingEfficiency, lo.scalingEfficiency + 0.08);
}

TEST(ClusterSim, TwoChoicesDeterministic)
{
    workloads::Ytube yt;
    auto st = stations();
    Rng r1(50), r2(50);
    auto a = simulateCluster(yt, st, 6, DispatchPolicy::TwoChoices,
                             120.0, fastWindow(), r1);
    auto b = simulateCluster(yt, st, 6, DispatchPolicy::TwoChoices,
                             120.0, fastWindow(), r2);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_DOUBLE_EQ(a.p95Latency, b.p95Latency);
    EXPECT_DOUBLE_EQ(a.qosViolationFraction, b.qosViolationFraction);
}

/** A double's bit pattern, so goldens compare exactly. */
std::uint64_t
bitsOf(double d)
{
    std::uint64_t u;
    std::memcpy(&u, &d, sizeof u);
    return u;
}

/** The next raw draw: pins the Rng state a run leaves behind. */
std::uint64_t
nextDraw(Rng &rng)
{
    return rng.uniformInt(0, ~std::uint64_t(0));
}

/** Golden runs: srvr1 stations, 2 s warm-up, 10 s measured. */
SimWindow
goldenWindow()
{
    SimWindow w;
    w.warmupSeconds = 2.0;
    w.measureSeconds = 10.0;
    return w;
}

StationConfig
srvr1Stations(const workloads::InteractiveWorkload &iw)
{
    return PerfEvaluator().stationsFor(
        platform::makeSystem(platform::SystemClass::Srvr1), iw.traits(),
        {});
}

struct Golden {
    std::uint64_t completed;
    std::uint64_t p95Bits;
    std::uint64_t qosViolationBits;
    std::uint64_t dispatched;
    std::uint64_t nextDraw;
};

void
expectGolden(const SimResult &r, Rng &rng, const Golden &g)
{
    EXPECT_EQ(r.completed, g.completed);
    EXPECT_EQ(bitsOf(r.p95Latency), g.p95Bits);
    EXPECT_EQ(bitsOf(r.qosViolationFraction), g.qosViolationBits);
    EXPECT_EQ(r.kernel.dispatched, g.dispatched);
    EXPECT_EQ(nextDraw(rng), g.nextDraw);
}

// The goldens below were recorded when single servers and clusters
// ran on separate engines; the merged engine must reproduce them bit
// for bit, and later refactors may not shift them silently. Each run
// offers 0.9x the analytic bound per server.

TEST(OpenLoopGolden, SingleServerExactAndFast)
{
    using workloads::Benchmark;
    struct Case {
        Benchmark bench;
        bool fast;
        Golden golden;
    };
    const Case cases[] = {
        {Benchmark::Websearch, false,
         {6522, 0x3faa939b01587d00, 0x0000000000000000, 25871,
          0xea24a5620f58faab}},
        {Benchmark::Websearch, true,
         {6626, 0x3faafe36c4586d00, 0x0000000000000000, 26222,
          0xa1e18fe3d0fa6444}},
        {Benchmark::Webmail, false,
         {4916, 0x3fb676e8581e5c80, 0x3f57545c7c257e70, 20796,
          0x17c6b744b0bc6148}},
        {Benchmark::Webmail, true,
         {4912, 0x3fb3e5986d409e00, 0x3f440355e3a5f0fd, 20731,
          0x06edb48eeb9977c9}},
        {Benchmark::Ytube, false,
         {774, 0x3fc2d9238155b840, 0x0000000000000000, 2958,
          0xd9e37a876272f1f2}},
        {Benchmark::Ytube, true,
         {790, 0x3fde3f3f7ef6fc80, 0x3f89ec8e951033d9, 3055,
          0xbea4394ddf856280}},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(workloads::to_string(c.bench) +
                     (c.fast ? " fast" : " exact"));
        auto wl = workloads::makeBenchmark(c.bench);
        auto &iw = dynamic_cast<workloads::InteractiveWorkload &>(*wl);
        auto st = srvr1Stations(iw);
        SimWindow w = goldenWindow();
        w.fastMode.enabled = c.fast;
        Rng rng(1000 + unsigned(c.bench));
        auto r = simulateInteractive(iw, st, 0.9 * analyticBound(iw, st),
                                     w, rng);
        expectGolden(r, rng, c.golden);
    }
}

TEST(OpenLoopGolden, FourServersEveryPolicy)
{
    struct Case {
        DispatchPolicy policy;
        Golden golden;
    };
    // kernel.dispatched was first recorded on the merged engine: the
    // cluster engine it replaced did not report kernel counters.
    const Case cases[] = {
        {DispatchPolicy::RoundRobin,
         {19393, 0x3fb50b114b822000, 0x3f56cf8a5b1c5e41, 82325,
          0xeef45fb9d5f625d3}},
        {DispatchPolicy::Random,
         {19456, 0x3fb5b3a31dfce580, 0x3f586bca1af286bd, 82664,
          0xdfca3c92316ed683}},
        {DispatchPolicy::LeastOutstanding,
         {19260, 0x3fab349c33a68800, 0x3f47d1a361fcb421, 81873,
          0xb1ac10bfebf9381c}},
        {DispatchPolicy::TwoChoices,
         {19530, 0x3faae580db757d40, 0x3f377d56cd2ac228, 82062,
          0xa0d86c77791d0063}},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(to_string(c.policy));
        auto wl = workloads::makeBenchmark(workloads::Benchmark::Webmail);
        auto &iw = dynamic_cast<workloads::InteractiveWorkload &>(*wl);
        auto st = srvr1Stations(iw);
        Rng rng(2000 + unsigned(c.policy));
        auto r = simulateCluster(iw, st, 4, c.policy,
                                 4 * 0.9 * analyticBound(iw, st),
                                 goldenWindow(), rng);
        expectGolden(r, rng, c.golden);
    }
}

TEST(ClusterSim, StationsNamedPerServer)
{
    workloads::Ytube yt;
    auto st = stations();
    Rng rng(51);
    auto r = simulateCluster(yt, st, 2, DispatchPolicy::RoundRobin,
                             40.0, fastWindow(), rng);
    ASSERT_EQ(r.stations.size(), 6u);
    EXPECT_EQ(r.stations[0].name, "cpu0");
    EXPECT_EQ(r.stations[4].name, "disk1");
    EXPECT_EQ(r.stations[5].name, "nic1");
    EXPECT_GE(r.maxCpuUtilization, r.cpuUtilization);
    EXPECT_GE(r.peakInFlight, 1u);
}

TEST(ClusterSim, DispatchPolicyNames)
{
    EXPECT_EQ(to_string(DispatchPolicy::LeastOutstanding),
              "least-outstanding");
    EXPECT_EQ(to_string(DispatchPolicy::TwoChoices), "two-choices");
}

} // namespace
