/**
 * @file
 * Tests for the closed-loop adaptive client driver, including its
 * agreement with the open-loop bisection (the paper's methodology
 * check).
 */

#include <gtest/gtest.h>

#include "perfsim/closed_loop.hh"
#include "perfsim/perf_eval.hh"
#include "perfsim/throughput.hh"
#include "platform/catalog.hh"
#include "util/logging.hh"
#include "workloads/suite.hh"
#include "workloads/ytube.hh"

namespace {

using namespace wsc;
using namespace wsc::perfsim;

StationConfig
ytubeOnSrvr2()
{
    PerfEvaluator ev;
    workloads::Ytube yt;
    return ev.stationsFor(platform::makeSystem(
                              platform::SystemClass::Srvr2),
                          yt.traits(), {});
}

TEST(ClosedLoop, ProducesPositiveSustainedThroughput)
{
    workloads::Ytube yt;
    auto st = ytubeOnSrvr2();
    Rng rng(31);
    ClosedLoopParams p;
    p.epochSeconds = 10.0;
    p.epochs = 10;
    auto r = runClosedLoop(yt, st, p, rng);
    EXPECT_GT(r.sustainedRps, 0.0);
    EXPECT_GE(r.clientsAtBest, 1u);
    EXPECT_EQ(r.epochRps.size(), 10u);
    EXPECT_EQ(r.epochPassed.size(), 10u);
}

TEST(ClosedLoop, PopulationGrowsWhileQosHolds)
{
    // At tiny initial populations the first epochs must pass QoS and
    // throughput must trend upward.
    workloads::Ytube yt;
    auto st = ytubeOnSrvr2();
    Rng rng(32);
    ClosedLoopParams p;
    p.initialClients = 2;
    p.epochSeconds = 10.0;
    p.epochs = 8;
    auto r = runClosedLoop(yt, st, p, rng);
    ASSERT_GE(r.epochRps.size(), 4u);
    EXPECT_TRUE(r.epochPassed[0]);
    EXPECT_GT(r.epochRps[3], r.epochRps[0]);
}

TEST(ClosedLoop, AgreesWithOpenLoopSearch)
{
    // The adaptive driver and the open-loop bisection are independent
    // estimators of the same quantity; they must land within ~25%.
    workloads::Ytube yt;
    auto st = ytubeOnSrvr2();

    Rng rng_open(33);
    SearchParams sp;
    sp.iterations = 7;
    sp.window.warmupSeconds = 3.0;
    sp.window.measureSeconds = 15.0;
    auto open = findSustainableRps(yt, st, sp, rng_open);

    Rng rng_closed(34);
    ClosedLoopParams cp;
    cp.epochSeconds = 12.0;
    cp.epochs = 16;
    auto closed = runClosedLoop(yt, st, cp, rng_closed);

    ASSERT_GT(open.sustainableRps, 0.0);
    ASSERT_GT(closed.sustainedRps, 0.0);
    double ratio = closed.sustainedRps / open.sustainableRps;
    EXPECT_GT(ratio, 0.75) << "closed=" << closed.sustainedRps
                           << " open=" << open.sustainableRps;
    EXPECT_LT(ratio, 1.25) << "closed=" << closed.sustainedRps
                           << " open=" << open.sustainableRps;
}

TEST(ClosedLoop, ThinkTimeBoundsThroughput)
{
    // N clients with think time Z can offer at most N/Z requests per
    // second; with a huge think time the server is never the limit.
    workloads::Ytube yt;
    auto st = ytubeOnSrvr2();
    Rng rng(35);
    ClosedLoopParams p;
    p.initialClients = 10;
    p.maxClients = 10; // fixed population
    p.thinkTimeMean = 10.0;
    p.epochSeconds = 20.0;
    p.epochs = 3;
    auto r = runClosedLoop(yt, st, p, rng);
    for (double rps : r.epochRps)
        EXPECT_LE(rps, 10.0 / 10.0 * 1.5); // N/Z with slack
}

TEST(ClosedLoop, DefaultParamsLeaveDegradedCountersAtZero)
{
    // With the timer off (the default), the degraded-mode protocol
    // never engages and the classic driver's results are untouched.
    workloads::Ytube yt;
    auto st = ytubeOnSrvr2();
    ClosedLoopParams p;
    p.epochSeconds = 10.0;
    p.epochs = 6;

    Rng a(37);
    auto classic = runClosedLoop(yt, st, p, a);
    EXPECT_EQ(classic.timeouts, 0u);
    EXPECT_EQ(classic.retries, 0u);
    EXPECT_EQ(classic.giveups, 0u);
    EXPECT_EQ(classic.lateCompletions, 0u);

    // Explicitly-zero timeout is the same code path: identical run.
    ClosedLoopParams q = p;
    q.requestTimeoutSeconds = 0.0;
    Rng b(37);
    auto same = runClosedLoop(yt, st, q, b);
    EXPECT_EQ(same.sustainedRps, classic.sustainedRps);
    EXPECT_EQ(same.epochRps, classic.epochRps);
}

TEST(ClosedLoop, TightTimeoutEngagesRetriesAndGiveups)
{
    // A timeout far below the service time forces every request
    // through the retry ladder to a give-up; clients keep cycling
    // (think -> attempts -> give up) instead of wedging.
    workloads::Ytube yt;
    auto st = ytubeOnSrvr2();
    Rng rng(38);
    ClosedLoopParams p;
    p.initialClients = 4;
    p.maxClients = 4;
    p.thinkTimeMean = 0.5;
    p.epochSeconds = 10.0;
    p.epochs = 4;
    p.requestTimeoutSeconds = 1e-4;
    p.maxRetries = 2;
    p.retryBackoffSeconds = 0.01;
    auto r = runClosedLoop(yt, st, p, rng);
    EXPECT_GT(r.timeouts, 0u);
    EXPECT_GT(r.retries, 0u);
    EXPECT_GT(r.giveups, 0u);
    // Every abandoned attempt still finishes server-side eventually.
    EXPECT_GT(r.lateCompletions, 0u);
    // Give-ups count against QoS: no epoch should pass.
    for (bool passed : r.epochPassed)
        EXPECT_FALSE(passed);
}

TEST(ClosedLoop, GenerousTimeoutMatchesClassicThroughput)
{
    // A timeout the server never hits leaves throughput essentially
    // unchanged from the classic driver (the protocol is pure
    // bookkeeping until a timer actually fires).
    workloads::Ytube yt;
    auto st = ytubeOnSrvr2();
    ClosedLoopParams p;
    p.epochSeconds = 10.0;
    p.epochs = 6;

    Rng a(39);
    auto classic = runClosedLoop(yt, st, p, a);

    ClosedLoopParams q = p;
    q.requestTimeoutSeconds = 1e6;
    Rng b(39);
    auto timed = runClosedLoop(yt, st, q, b);
    EXPECT_EQ(timed.timeouts, 0u);
    EXPECT_EQ(timed.giveups, 0u);
    EXPECT_NEAR(timed.sustainedRps, classic.sustainedRps,
                0.2 * classic.sustainedRps + 1.0);
}

/**
 * Field-by-field exact comparison of pooled-vs-oracle results: doubles
 * compared bitwise (EXPECT_EQ, not NEAR), and the kernel counters too,
 * so a driver that merely lands on the same aggregate numbers through
 * a different event sequence still fails.
 */
void
expectBitIdentical(const ClosedLoopResult &pooled,
                   const ClosedLoopResult &oracle)
{
    EXPECT_EQ(pooled.sustainedRps, oracle.sustainedRps);
    EXPECT_EQ(pooled.clientsAtBest, oracle.clientsAtBest);
    EXPECT_EQ(pooled.finalClients, oracle.finalClients);
    EXPECT_EQ(pooled.finalLiveClients, oracle.finalLiveClients);
    EXPECT_EQ(pooled.p95AtBest, oracle.p95AtBest);
    EXPECT_EQ(pooled.epochRps, oracle.epochRps);
    EXPECT_EQ(pooled.epochPassed, oracle.epochPassed);
    EXPECT_EQ(pooled.epochCompleted, oracle.epochCompleted);
    EXPECT_EQ(pooled.epochViolations, oracle.epochViolations);
    EXPECT_EQ(pooled.epochGiveups, oracle.epochGiveups);
    EXPECT_EQ(pooled.epochP95, oracle.epochP95);
    EXPECT_EQ(pooled.timeouts, oracle.timeouts);
    EXPECT_EQ(pooled.retries, oracle.retries);
    EXPECT_EQ(pooled.giveups, oracle.giveups);
    EXPECT_EQ(pooled.lateCompletions, oracle.lateCompletions);
    EXPECT_EQ(pooled.kernel.scheduled, oracle.kernel.scheduled);
    EXPECT_EQ(pooled.kernel.dispatched, oracle.kernel.dispatched);
    EXPECT_EQ(pooled.kernel.cancelled, oracle.kernel.cancelled);
    EXPECT_EQ(pooled.kernel.peakHeap, oracle.kernel.peakHeap);
}

TEST(ClosedLoopOracle, BitIdenticalAcrossWorkloadsClassic)
{
    PerfEvaluator ev;
    auto sys = platform::makeSystem(platform::SystemClass::Srvr2);
    ClosedLoopParams p;
    p.epochs = 8;
    p.epochSeconds = 10.0;
    for (auto b : {workloads::Benchmark::Websearch,
                   workloads::Benchmark::Webmail,
                   workloads::Benchmark::Ytube}) {
        SCOPED_TRACE(workloads::to_string(b));
        auto wl = workloads::makeBenchmark(b);
        auto *iw =
            dynamic_cast<workloads::InteractiveWorkload *>(wl.get());
        ASSERT_NE(iw, nullptr);
        auto st = ev.stationsFor(sys, iw->traits(), {});
        Rng a(71), o(71);
        auto pooled = runClosedLoop(*iw, st, p, a);
        auto oracle = runClosedLoopOracle(*iw, st, p, o);
        expectBitIdentical(pooled, oracle);
    }
}

TEST(ClosedLoopOracle, BitIdenticalAcrossWorkloadsTimeout)
{
    // The timeout must actually bite: 50ms against these service
    // times produces timeouts, retries, exhausted retry ladders, and
    // attempts that complete after abandonment.
    PerfEvaluator ev;
    auto sys = platform::makeSystem(platform::SystemClass::Srvr2);
    ClosedLoopParams p;
    p.epochs = 8;
    p.epochSeconds = 10.0;
    p.requestTimeoutSeconds = 0.05;
    p.maxRetries = 2;
    p.retryBackoffSeconds = 0.01;
    std::uint64_t timeouts = 0, giveups = 0, late = 0;
    for (auto b : {workloads::Benchmark::Websearch,
                   workloads::Benchmark::Webmail,
                   workloads::Benchmark::Ytube}) {
        SCOPED_TRACE(workloads::to_string(b));
        auto wl = workloads::makeBenchmark(b);
        auto *iw =
            dynamic_cast<workloads::InteractiveWorkload *>(wl.get());
        ASSERT_NE(iw, nullptr);
        auto st = ev.stationsFor(sys, iw->traits(), {});
        Rng a(72), o(72);
        auto pooled = runClosedLoop(*iw, st, p, a);
        auto oracle = runClosedLoopOracle(*iw, st, p, o);
        expectBitIdentical(pooled, oracle);
        timeouts += pooled.timeouts;
        giveups += pooled.giveups;
        late += pooled.lateCompletions;
    }
    EXPECT_GT(timeouts, 0u);
    EXPECT_GT(giveups, 0u); // retry ladders exhausted somewhere
    EXPECT_GT(late, 0u);    // abandoned attempts finished server-side
}

TEST(ClosedLoopOracle, BitIdenticalUnderShrinkMidFlight)
{
    // Start far above capacity so the first epochs fail QoS and the
    // population shrinks while requests are mid-pipeline; lazy
    // retirement and re-spawn must track the oracle exactly.
    workloads::Ytube yt;
    auto st = ytubeOnSrvr2();
    ClosedLoopParams p;
    p.initialClients = 512;
    p.epochs = 10;
    p.epochSeconds = 8.0;
    Rng a(73), o(73);
    auto pooled = runClosedLoop(yt, st, p, a);
    auto oracle = runClosedLoopOracle(yt, st, p, o);
    expectBitIdentical(pooled, oracle);
    bool shrank = false; // at least one failed epoch: shrink exercised
    for (bool passed : pooled.epochPassed)
        shrank = shrank || !passed;
    EXPECT_TRUE(shrank);
}

TEST(ClosedLoop, PopulationConvergesToTarget)
{
    // With a fixed population the live count can never drift from the
    // target; with adaptation it may only exceed it transiently (excess
    // clients retire lazily), never undershoot.
    workloads::Ytube yt;
    auto st = ytubeOnSrvr2();

    ClosedLoopParams fixed;
    fixed.initialClients = 8;
    fixed.maxClients = 8;
    fixed.epochs = 6;
    fixed.epochSeconds = 8.0;
    Rng a(74);
    auto r = runClosedLoop(yt, st, fixed, a);
    EXPECT_EQ(r.finalClients, 8u);
    EXPECT_EQ(r.finalLiveClients, 8u);

    ClosedLoopParams adaptive;
    adaptive.initialClients = 64; // over capacity: shrinks repeatedly
    adaptive.epochs = 10;
    adaptive.epochSeconds = 8.0;
    Rng b(75);
    auto s = runClosedLoop(yt, st, adaptive, b);
    EXPECT_GE(s.finalLiveClients, s.finalClients);
}

TEST(ClosedLoop, InvalidParamsPanic)
{
    workloads::Ytube yt;
    auto st = ytubeOnSrvr2();
    Rng rng(36);
    ClosedLoopParams p;
    p.initialClients = 0;
    EXPECT_THROW(runClosedLoop(yt, st, p, rng), PanicError);
    ClosedLoopParams q;
    q.growFactor = 1.0;
    EXPECT_THROW(runClosedLoop(yt, st, q, rng), PanicError);
}

} // namespace
