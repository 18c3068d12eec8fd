/**
 * @file
 * Unit tests for the queueing resources (processor sharing, FIFO).
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hh"
#include "sim/resources.hh"
#include "util/logging.hh"

namespace {

using namespace wsc;
using namespace wsc::sim;

TEST(PsResource, SingleJobRunsAtFullSlotRate)
{
    EventQueue eq;
    PsResource cpu(eq, "cpu", 4.0, 4); // 4 slots, 1 unit/s each
    double done_at = -1;
    cpu.submit(2.0, [&] { done_at = eq.now(); });
    eq.runAll();
    EXPECT_NEAR(done_at, 2.0, 1e-9);
    EXPECT_EQ(cpu.completed(), 1u);
}

TEST(PsResource, BelowSaturationJobsDontInterfere)
{
    EventQueue eq;
    PsResource cpu(eq, "cpu", 2.0, 2);
    std::vector<double> done;
    cpu.submit(1.0, [&] { done.push_back(eq.now()); });
    cpu.submit(1.0, [&] { done.push_back(eq.now()); });
    eq.runAll();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_NEAR(done[0], 1.0, 1e-9);
    EXPECT_NEAR(done[1], 1.0, 1e-9);
}

TEST(PsResource, AboveSaturationSharesEqually)
{
    EventQueue eq;
    PsResource cpu(eq, "cpu", 1.0, 1); // one slot, 1 unit/s
    std::vector<double> done;
    // Two equal jobs time-share: each sees rate 0.5, both finish at 2.
    cpu.submit(1.0, [&] { done.push_back(eq.now()); });
    cpu.submit(1.0, [&] { done.push_back(eq.now()); });
    eq.runAll();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_NEAR(done[0], 2.0, 1e-9);
    EXPECT_NEAR(done[1], 2.0, 1e-9);
}

TEST(PsResource, LateArrivalSlowsExistingJob)
{
    EventQueue eq;
    PsResource cpu(eq, "cpu", 1.0, 1);
    double first_done = -1, second_done = -1;
    cpu.submit(1.0, [&] { first_done = eq.now(); });
    // At t=0.5 the first job has 0.5 remaining; a second job arrives and
    // both run at rate 0.5. First finishes at 0.5 + 1.0 = 1.5; the
    // second then runs alone: remaining 1.0 - 0.5 = 0.5 at rate 1,
    // finishing at 2.0.
    eq.schedule(0.5, [&] {
        cpu.submit(1.0, [&] { second_done = eq.now(); });
    });
    eq.runAll();
    EXPECT_NEAR(first_done, 1.5, 1e-9);
    EXPECT_NEAR(second_done, 2.0, 1e-9);
}

TEST(PsResource, ArrivalReArmsCompletionRetiredByCancelAll)
{
    // The station retimes its pending completion on each arrival; when
    // a bulk cancel on its owner tag already retired that event, the
    // arrival must schedule a new one. Timeline as in
    // LateArrivalSlowsExistingJob.
    EventQueue eq;
    PsResource cpu(eq, "cpu", 1.0, 1, /*owner=*/7);
    double first_done = -1, second_done = -1;
    cpu.submit(1.0, [&] { first_done = eq.now(); });
    EXPECT_EQ(eq.cancelAll(7), 1u);
    eq.schedule(0.5, [&] {
        cpu.submit(1.0, [&] { second_done = eq.now(); });
    });
    eq.runAll();
    EXPECT_NEAR(first_done, 1.5, 1e-9);
    EXPECT_NEAR(second_done, 2.0, 1e-9);
}

TEST(PsResource, ZeroWorkCompletesImmediately)
{
    EventQueue eq;
    PsResource cpu(eq, "cpu", 1.0, 1);
    double done_at = -1;
    eq.schedule(1.0, [&] {
        cpu.submit(0.0, [&] { done_at = eq.now(); });
    });
    eq.runAll();
    EXPECT_NEAR(done_at, 1.0, 1e-12);
}

TEST(PsResource, BandwidthPipeFairShare)
{
    // A shared link is PS with one slot: n transfers each get B/n.
    EventQueue eq;
    PsResource nic(eq, "nic", 100.0, 1); // 100 MB/s
    std::vector<double> done;
    for (int i = 0; i < 4; ++i)
        nic.submit(100.0, [&] { done.push_back(eq.now()); });
    eq.runAll();
    ASSERT_EQ(done.size(), 4u);
    // 400 MB total at 100 MB/s aggregate: all finish at t=4.
    for (double t : done)
        EXPECT_NEAR(t, 4.0, 1e-9);
}

TEST(PsResource, UtilizationTracksLoad)
{
    EventQueue eq;
    PsResource cpu(eq, "cpu", 2.0, 2);
    cpu.submit(1.0, [] {}); // one of two slots busy for 1s
    eq.run(2.0);
    // Busy 50% of capacity for half the 2s window: utilization = 0.25.
    EXPECT_NEAR(cpu.utilization(), 0.25, 1e-9);
}

TEST(PsResource, CompletionCanResubmit)
{
    EventQueue eq;
    PsResource cpu(eq, "cpu", 1.0, 1);
    int rounds = 0;
    std::function<void()> again = [&] {
        if (++rounds < 3)
            cpu.submit(1.0, again);
    };
    cpu.submit(1.0, again);
    eq.runAll();
    EXPECT_EQ(rounds, 3);
    EXPECT_NEAR(eq.now(), 3.0, 1e-9);
}

TEST(PsResource, NegativeWorkPanics)
{
    EventQueue eq;
    PsResource cpu(eq, "cpu", 1.0, 1);
    EXPECT_THROW(cpu.submit(-1.0, [] {}), PanicError);
}

TEST(FifoResource, SerializesOnOneServer)
{
    EventQueue eq;
    FifoResource disk(eq, "disk", 1);
    std::vector<double> done;
    disk.submit(1.0, [&] { done.push_back(eq.now()); });
    disk.submit(1.0, [&] { done.push_back(eq.now()); });
    disk.submit(1.0, [&] { done.push_back(eq.now()); });
    eq.runAll();
    ASSERT_EQ(done.size(), 3u);
    EXPECT_NEAR(done[0], 1.0, 1e-9);
    EXPECT_NEAR(done[1], 2.0, 1e-9);
    EXPECT_NEAR(done[2], 3.0, 1e-9);
}

TEST(FifoResource, ParallelServers)
{
    EventQueue eq;
    FifoResource disk(eq, "disk", 2);
    std::vector<double> done;
    for (int i = 0; i < 4; ++i)
        disk.submit(1.0, [&] { done.push_back(eq.now()); });
    eq.runAll();
    ASSERT_EQ(done.size(), 4u);
    EXPECT_NEAR(done[0], 1.0, 1e-9);
    EXPECT_NEAR(done[1], 1.0, 1e-9);
    EXPECT_NEAR(done[2], 2.0, 1e-9);
    EXPECT_NEAR(done[3], 2.0, 1e-9);
}

TEST(FifoResource, FifoOrderPreserved)
{
    EventQueue eq;
    FifoResource disk(eq, "disk", 1);
    std::vector<int> order;
    // Different service times; order of completion must follow
    // submission order on a single FIFO server regardless.
    disk.submit(0.5, [&] { order.push_back(0); });
    disk.submit(0.1, [&] { order.push_back(1); });
    disk.submit(0.3, [&] { order.push_back(2); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(FifoResource, QueueDepthVisible)
{
    EventQueue eq;
    FifoResource disk(eq, "disk", 1);
    disk.submit(1.0, [] {});
    disk.submit(1.0, [] {});
    disk.submit(1.0, [] {});
    EXPECT_EQ(disk.inService(), 1u);
    EXPECT_EQ(disk.queued(), 2u);
    eq.runAll();
    EXPECT_EQ(disk.queued(), 0u);
    EXPECT_EQ(disk.completed(), 3u);
}

TEST(FifoResource, UtilizationTracksBusyFraction)
{
    EventQueue eq;
    FifoResource disk(eq, "disk", 1);
    disk.submit(1.0, [] {});
    eq.run(4.0);
    EXPECT_NEAR(disk.utilization(), 0.25, 1e-9);
}

TEST(FifoResource, CompletionCanResubmit)
{
    EventQueue eq;
    FifoResource disk(eq, "disk", 1);
    int count = 0;
    std::function<void()> again = [&] {
        if (++count < 5)
            disk.submit(0.5, again);
    };
    disk.submit(0.5, again);
    eq.runAll();
    EXPECT_EQ(count, 5);
    EXPECT_NEAR(eq.now(), 2.5, 1e-9);
}

TEST(FifoResource, ZeroServiceTimeOk)
{
    EventQueue eq;
    FifoResource disk(eq, "disk", 1);
    bool ran = false;
    disk.submit(0.0, [&] { ran = true; });
    eq.runAll();
    EXPECT_TRUE(ran);
}

TEST(PsResource, StatsSnapshotDepthAndUtilization)
{
    EventQueue eq;
    PsResource cpu(eq, "cpu", 2.0, 2);
    // Two 1-unit jobs run side by side for 1s, then the station idles
    // until t=4: mean depth 2 * (1/4) = 0.5, peak 2.
    cpu.submit(1.0, [] {});
    cpu.submit(1.0, [] {});
    eq.run(4.0);
    auto s = cpu.stats();
    EXPECT_EQ(s.name, "cpu");
    EXPECT_EQ(s.completed, 2u);
    EXPECT_EQ(s.peakDepth, 2u);
    EXPECT_NEAR(s.meanDepth, 0.5, 1e-9);
    EXPECT_NEAR(s.utilization, 0.25, 1e-9);
}

TEST(PsResource, StatsCountInProgressInterval)
{
    EventQueue eq;
    PsResource cpu(eq, "cpu", 1.0, 1);
    cpu.submit(10.0, [] {});
    eq.run(2.0);
    // The job is still running; the snapshot must include the open
    // interval since the last internal update.
    auto s = cpu.stats();
    EXPECT_EQ(s.completed, 0u);
    EXPECT_EQ(s.peakDepth, 1u);
    EXPECT_NEAR(s.meanDepth, 1.0, 1e-9);
    EXPECT_NEAR(s.utilization, 1.0, 1e-9);
}

TEST(FifoResource, StatsCountQueuedRequestsInDepth)
{
    EventQueue eq;
    FifoResource disk(eq, "disk", 1);
    // Three back-to-back 1s requests: depth starts at 3 (1 in service,
    // 2 queued), drains one per second, done at t=3; idle until t=4.
    // Mean depth = (3 + 2 + 1 + 0) / 4 = 1.5.
    disk.submit(1.0, [] {});
    disk.submit(1.0, [] {});
    disk.submit(1.0, [] {});
    eq.run(4.0);
    auto s = disk.stats();
    EXPECT_EQ(s.name, "disk");
    EXPECT_EQ(s.completed, 3u);
    EXPECT_EQ(s.peakDepth, 3u);
    EXPECT_NEAR(s.meanDepth, 1.5, 1e-9);
    EXPECT_NEAR(s.utilization, 0.75, 1e-9);
}

TEST(FifoResource, StatsFreshStationIsZero)
{
    EventQueue eq;
    FifoResource disk(eq, "disk", 1);
    auto s = disk.stats();
    EXPECT_EQ(s.completed, 0u);
    EXPECT_EQ(s.peakDepth, 0u);
    EXPECT_DOUBLE_EQ(s.meanDepth, 0.0);
    EXPECT_DOUBLE_EQ(s.utilization, 0.0);
}

} // namespace
