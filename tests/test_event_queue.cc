/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace {

using namespace wsc;
using namespace wsc::sim;

TEST(EventQueue, DispatchInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(3.0, [&] { order.push_back(3); });
    eq.schedule(1.0, [&] { order.push_back(1); });
    eq.schedule(2.0, [&] { order.push_back(2); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(eq.now(), 3.0);
}

TEST(EventQueue, TiesDispatchFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.schedule(1.0, [&order, i] { order.push_back(i); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime)
{
    EventQueue eq;
    double fired_at = -1.0;
    eq.schedule(2.0, [&] {
        eq.scheduleAfter(0.5, [&] { fired_at = eq.now(); });
    });
    eq.runAll();
    EXPECT_DOUBLE_EQ(fired_at, 2.5);
}

TEST(EventQueue, CancelPreventsDispatch)
{
    EventQueue eq;
    bool ran = false;
    EventId id = eq.schedule(1.0, [&] { ran = true; });
    EXPECT_TRUE(eq.cancel(id));
    EXPECT_FALSE(eq.cancel(id)); // second cancel is a no-op
    eq.runAll();
    EXPECT_FALSE(ran);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, CancelAfterDispatchReturnsFalse)
{
    EventQueue eq;
    EventId id = eq.schedule(1.0, [] {});
    eq.runAll();
    EXPECT_FALSE(eq.cancel(id));
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, RunUntilStopsAtBoundaryInclusive)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(1.0, [&] { ++count; });
    eq.schedule(2.0, [&] { ++count; });
    eq.schedule(2.0000001, [&] { ++count; });
    auto n = eq.run(2.0);
    EXPECT_EQ(n, 2u);
    EXPECT_EQ(count, 2);
    EXPECT_DOUBLE_EQ(eq.now(), 2.0);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, RunAdvancesClockWhenIdle)
{
    EventQueue eq;
    eq.run(10.0);
    EXPECT_DOUBLE_EQ(eq.now(), 10.0);
}

TEST(EventQueue, SchedulingInPastPanics)
{
    EventQueue eq;
    eq.schedule(5.0, [] {});
    eq.runAll();
    EXPECT_THROW(eq.schedule(1.0, [] {}), PanicError);
}

TEST(EventQueue, NullActionPanics)
{
    EventQueue eq;
    EXPECT_THROW(eq.schedule(1.0, std::function<void()>()), PanicError);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int chain = 0;
    std::function<void()> next = [&] {
        if (++chain < 100)
            eq.scheduleAfter(0.1, next);
    };
    eq.schedule(0.0, next);
    eq.runAll();
    EXPECT_EQ(chain, 100);
    EXPECT_NEAR(eq.now(), 9.9, 1e-9);
}

TEST(EventQueue, PendingTracksLiveEvents)
{
    EventQueue eq;
    auto a = eq.schedule(1.0, [] {});
    eq.schedule(2.0, [] {});
    EXPECT_EQ(eq.pending(), 2u);
    eq.cancel(a);
    EXPECT_EQ(eq.pending(), 1u);
    eq.step();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.dispatched(), 1u);
}

TEST(EventQueue, StepOnEmptyReturnsFalse)
{
    EventQueue eq;
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, CancelSentinelZeroReturnsFalse)
{
    EventQueue eq;
    EXPECT_FALSE(eq.cancel(0));
    eq.schedule(1.0, [] {});
    EXPECT_FALSE(eq.cancel(0));
}

TEST(EventQueue, RecycledSlotDoesNotResurrectOldHandle)
{
    EventQueue eq;
    EventId stale = eq.schedule(1.0, [] {});
    eq.runAll();
    // The dispatched event's slot is recycled for new events; the old
    // handle must not cancel any of them.
    bool ran = false;
    for (int i = 0; i < 8; ++i)
        eq.schedule(2.0 + i, [&ran] { ran = true; });
    EXPECT_FALSE(eq.cancel(stale));
    EXPECT_EQ(eq.pending(), 8u);
    eq.runAll();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, CompactionReclaimsCancelledEntries)
{
    EventQueue eq;
    std::vector<EventId> ids;
    for (int i = 0; i < 1000; ++i)
        ids.push_back(eq.schedule(double(i), [] {}));
    // Cancel 90%: each cancel removes its entry from the heap at once,
    // so the freed room is reused and the heap never grows past the
    // largest number of events pending together.
    for (int i = 0; i < 1000; ++i)
        if (i % 10 != 0)
            eq.cancel(ids[std::size_t(i)]);
    EXPECT_EQ(eq.pending(), 100u);
    for (int i = 0; i < 900; ++i)
        eq.schedule(2000.0 + i, [] {});
    EXPECT_EQ(eq.pending(), 1000u);
    EXPECT_EQ(eq.counters().peakHeap, 1000u);
    EXPECT_EQ(eq.runAll(), 1000u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, CancelAllRetiresOnlyTheOwnersEvents)
{
    EventQueue eq;
    int ran = 0;
    for (int i = 0; i < 4; ++i)
        eq.schedule(1.0 + i, [&ran] { ++ran; }, /*owner=*/7);
    for (int i = 0; i < 3; ++i)
        eq.schedule(1.5 + i, [&ran] { ++ran; }, /*owner=*/8);
    eq.schedule(9.0, [&ran] { ++ran; }); // untagged
    EXPECT_EQ(eq.pending(), 8u);

    EXPECT_EQ(eq.cancelAll(7), 4u);
    EXPECT_EQ(eq.pending(), 4u);
    // A second sweep finds nothing: the entries are already retired.
    EXPECT_EQ(eq.cancelAll(7), 0u);

    eq.runAll();
    EXPECT_EQ(ran, 4); // owner 8's three plus the untagged one
}

TEST(EventQueue, CancelAllLeavesUntaggedEventsAlone)
{
    // Owner 0 means untagged; bulk cancellation must never reach
    // those events (and asking for owner 0 is a caller bug).
    EventQueue eq;
    int ran = 0;
    eq.schedule(1.0, [&ran] { ++ran; });
    eq.schedule(2.0, [&ran] { ++ran; }, /*owner=*/3);
    EXPECT_EQ(eq.cancelAll(3), 1u);
    eq.runAll();
    EXPECT_EQ(ran, 1);
    EXPECT_THROW(eq.cancelAll(0), PanicError);
}

TEST(EventQueue, CancelIfSelectsByTimeAndOwner)
{
    EventQueue eq;
    int ran = 0;
    for (int i = 0; i < 10; ++i)
        eq.schedule(double(i) + 0.5, [&ran] { ++ran; },
                    /*owner=*/std::uint64_t(i % 2 ? 2 : 1));
    // Retire owner 1's events firing after t=4 (i = 4, 6, and 8).
    std::size_t n = eq.cancelIf(
        [](sim::EventId, double when, std::uint64_t owner) {
            return owner == 1 && when > 4.0;
        });
    EXPECT_EQ(n, 3u);
    EXPECT_EQ(eq.pending(), 7u);
    eq.runAll();
    EXPECT_EQ(ran, 7);
}

TEST(EventQueue, CancelledIdsStayDeadAfterBulkCancel)
{
    // Bulk cancellation recycles slots; a handle cancelled in bulk
    // must not cancel a later event that reuses the slot.
    EventQueue eq;
    EventId doomed = eq.schedule(1.0, [] {}, /*owner=*/5);
    EXPECT_EQ(eq.cancelAll(5), 1u);
    bool ran = false;
    eq.schedule(2.0, [&ran] { ran = true; });
    EXPECT_FALSE(eq.cancel(doomed));
    eq.runAll();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, BulkCancelFeedsCompaction)
{
    // cancelAll removes entries exactly like cancel(): a large bulk
    // retirement leaves only the survivors, which still dispatch in
    // time order.
    EventQueue eq;
    std::vector<double> seen;
    for (int i = 0; i < 1000; ++i)
        eq.schedule(double(i), [&seen, &eq] { seen.push_back(eq.now()); },
                    /*owner=*/(i % 10 ? 4u : 0u));
    EXPECT_EQ(eq.cancelAll(4), 900u);
    EXPECT_EQ(eq.pending(), 100u);
    EXPECT_EQ(eq.counters().cancelled, 900u);
    EXPECT_EQ(eq.counters().peakHeap, 1000u);
    EXPECT_EQ(eq.runAll(), 100u);
    ASSERT_EQ(seen.size(), 100u);
    for (std::size_t k = 0; k < seen.size(); ++k)
        EXPECT_DOUBLE_EQ(seen[k], double(10 * k));
}

TEST(EventQueue, StressScheduleCancelRunKeepsFifoOrder)
{
    // Deterministic churn mixing schedule, cancel, and partial runs;
    // dispatched events must come out in (time, scheduling order) and
    // exactly match a straightforward reference model.
    EventQueue eq;
    struct Expected {
        double when;
        std::uint64_t order; //!< scheduling sequence
    };
    std::vector<std::pair<EventId, Expected>> liveModel;
    std::vector<Expected> dispatchedLog;
    std::uint64_t order = 0;
    std::uint64_t lcg = 12345;
    auto next = [&lcg] {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        return std::uint32_t(lcg >> 33);
    };

    for (int round = 0; round < 50; ++round) {
        // Burst of schedules, many at identical timestamps to stress
        // the FIFO tie-break.
        for (int i = 0; i < 200; ++i) {
            double when = eq.now() + double(next() % 8);
            Expected ex{when, order++};
            EventId id = eq.schedule(when, [&dispatchedLog, ex] {
                dispatchedLog.push_back(ex);
            });
            liveModel.push_back({id, ex});
        }
        // Cancel a pseudo-random half of what is pending.
        for (std::size_t i = liveModel.size(); i-- > 0;) {
            if (next() % 2 == 0) {
                EXPECT_TRUE(eq.cancel(liveModel[i].first));
                liveModel.erase(liveModel.begin() + long(i));
            }
        }
        EXPECT_EQ(eq.pending(), liveModel.size());
        // Run a bounded slice of simulated time.
        double horizon = eq.now() + 3.0;
        eq.run(horizon);
        liveModel.erase(
            std::remove_if(liveModel.begin(), liveModel.end(),
                           [horizon](const auto &e) {
                               return e.second.when <= horizon;
                           }),
            liveModel.end());
        EXPECT_EQ(eq.pending(), liveModel.size());
    }
    eq.runAll();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);

    // The dispatch log must be sorted by (when, scheduling order) —
    // FIFO among ties — with no event dispatched twice.
    for (std::size_t i = 1; i < dispatchedLog.size(); ++i) {
        const auto &a = dispatchedLog[i - 1];
        const auto &b = dispatchedLog[i];
        EXPECT_TRUE(a.when < b.when ||
                    (a.when == b.when && a.order < b.order))
            << "order violation at " << i;
    }
    EXPECT_EQ(eq.dispatched(), dispatchedLog.size());
}

TEST(EventQueue, CountersTrackKernelActivity)
{
    EventQueue eq;
    std::vector<EventId> ids;
    for (int i = 0; i < 10; ++i)
        ids.push_back(eq.schedule(double(i), [] {}));
    eq.cancel(ids[3]);
    eq.cancel(ids[7]);
    eq.cancel(ids[7]); // failed cancel must not count
    eq.runAll();
    const auto &c = eq.counters();
    EXPECT_EQ(c.scheduled, 10u);
    EXPECT_EQ(c.cancelled, 2u);
    EXPECT_EQ(c.dispatched, 8u);
    EXPECT_EQ(c.dispatched, eq.dispatched());
    EXPECT_EQ(c.peakHeap, 10u);
}

TEST(EventQueue, TracerSeesScheduleDispatchCancel)
{
    EventQueue eq;
    std::vector<EventQueue::TraceRecord> log;
    eq.setTracer([&log](const EventQueue::TraceRecord &r) {
        log.push_back(r);
    });
    EventId keep = eq.schedule(1.0, [] {});
    EventId gone = eq.schedule(2.0, [] {});
    eq.cancel(gone);
    eq.runAll();

    using Kind = EventQueue::TraceRecord::Kind;
    ASSERT_EQ(log.size(), 4u);
    EXPECT_EQ(log[0].kind, Kind::Schedule);
    EXPECT_EQ(log[0].id, keep);
    EXPECT_DOUBLE_EQ(log[0].when, 1.0);
    EXPECT_EQ(log[1].kind, Kind::Schedule);
    EXPECT_EQ(log[1].id, gone);
    EXPECT_EQ(log[2].kind, Kind::Cancel);
    EXPECT_EQ(log[2].id, gone);
    EXPECT_EQ(log[3].kind, Kind::Dispatch);
    EXPECT_EQ(log[3].id, keep);
    EXPECT_DOUBLE_EQ(log[3].now, 1.0);

    // Removing the tracer silences further records.
    eq.setTracer({});
    eq.schedule(3.0, [] {});
    eq.runAll();
    EXPECT_EQ(log.size(), 4u);
}

TEST(EventQueue, RetimeMovesEventKeepingActionAndHandle)
{
    EventQueue eq;
    std::vector<int> order;
    EventId a = eq.schedule(5.0, [&order] { order.push_back(1); });
    eq.schedule(2.0, [&order] { order.push_back(2); });
    EventId c = eq.schedule(3.0, [&order] { order.push_back(3); });
    EXPECT_TRUE(eq.retime(a, 1.0)); // earlier: now first
    EXPECT_TRUE(eq.retime(c, 2.0)); // equal time: behind the tie
    EXPECT_EQ(eq.pending(), 3u);
    EXPECT_EQ(eq.runAll(), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(eq.now(), 2.0);
    EXPECT_FALSE(eq.retime(a, 9.0)); // dispatched handle
    EXPECT_FALSE(eq.retime(0, 9.0));
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RetimeIntoPastPanics)
{
    EventQueue eq;
    eq.schedule(4.0, [] {});
    EventId later = eq.schedule(8.0, [] {});
    eq.step();
    EXPECT_THROW(eq.retime(later, 3.0), PanicError);
    EXPECT_TRUE(eq.retime(later, 4.0)); // "now" itself is allowed
}

TEST(EventQueue, RetimeCountsAndTracesAsCancelPlusSchedule)
{
    EventQueue eq;
    std::vector<EventQueue::TraceRecord> log;
    eq.setTracer([&log](const EventQueue::TraceRecord &r) {
        log.push_back(r);
    });
    bool ran = false;
    EventId id = eq.schedule(5.0, [&ran] { ran = true; });
    EXPECT_TRUE(eq.retime(id, 7.0));
    eq.runAll();
    EXPECT_TRUE(ran);

    using Kind = EventQueue::TraceRecord::Kind;
    ASSERT_EQ(log.size(), 4u);
    EXPECT_EQ(log[1].kind, Kind::Cancel);
    EXPECT_EQ(log[1].id, id);
    EXPECT_DOUBLE_EQ(log[1].when, 5.0);
    EXPECT_EQ(log[2].kind, Kind::Schedule);
    EXPECT_EQ(log[2].id, id);
    EXPECT_DOUBLE_EQ(log[2].when, 7.0);
    EXPECT_EQ(log[3].kind, Kind::Dispatch);
    EXPECT_EQ(log[3].id, id);

    const auto &c = eq.counters();
    EXPECT_EQ(c.scheduled, 2u);
    EXPECT_EQ(c.cancelled, 1u);
    EXPECT_EQ(c.dispatched, 1u);
    EXPECT_EQ(c.peakHeap, 1u); // pending events, not operations
}

/**
 * Reference model for the differential test: a std::set ordered on
 * (when, seq), with seq taken exactly where the queue takes one (each
 * schedule and each retime).
 */
class ReferenceQueue
{
  public:
    struct Event {
        Time when;
        std::uint64_t seq;
        std::uint64_t owner;
        int tag;
    };
    using Key = std::tuple<Time, std::uint64_t, EventId>;

    void
    add(EventId id, Time when, std::uint64_t owner, int tag)
    {
        Event e{when, nextSeq++, owner, tag};
        events[id] = e;
        order.insert(Key{when, e.seq, id});
    }

    void
    remove(EventId id)
    {
        const Event &e = events.at(id);
        order.erase(Key{e.when, e.seq, id});
        events.erase(id);
    }

    void
    retime(EventId id, Time when)
    {
        Event &e = events.at(id);
        order.erase(Key{e.when, e.seq, id});
        e.when = when;
        e.seq = nextSeq++;
        order.insert(Key{when, e.seq, id});
    }

    EventId top() const { return std::get<2>(*order.begin()); }
    EventId last() const { return std::get<2>(*order.rbegin()); }

    std::map<EventId, Event> events;
    std::set<Key> order;

  private:
    std::uint64_t nextSeq = 0;
};

TEST(EventQueue, MatchesReferenceModelUnderRandomMixes)
{
    // Seeded random mixes of every mutating operation, at depths from
    // 1 to 2^17, checked op by op against ReferenceQueue: the same
    // dispatch order, the same pending(), and every live handle still
    // cancellable at the end (so retimes and heap moves keep handles
    // valid). Times sit on a 1/8 grid so ties are common.
    const std::size_t depths[] = {1, 2, 3, 8, 61, 1000, 1u << 17};
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        for (std::size_t depth : depths) {
            SCOPED_TRACE(testing::Message()
                         << "seed " << seed << " depth " << depth);
            SplitMix64 rng(seed * 1000003 + depth);
            EventQueue eq;
            ReferenceQueue ref;
            std::vector<int> log;
            std::vector<int> expected;
            // Live handles in a swap-remove vector for random picks.
            std::vector<EventId> live;
            std::unordered_map<EventId, std::size_t> liveAt;
            std::vector<EventId> dead;
            int nextTag = 0;

            auto forget = [&](EventId id) {
                std::size_t i = liveAt.at(id);
                liveAt[live.back()] = i;
                live[i] = live.back();
                live.pop_back();
                liveAt.erase(id);
                ref.remove(id);
                dead.push_back(id);
            };
            auto gap = [&] { return double(rng.pick(24)) * 0.125; };
            auto schedule = [&] {
                int tag = nextTag++;
                std::uint64_t owner = rng.pick(4);
                Time when = eq.now() + gap();
                EventId id = eq.schedule(
                    when, [&log, tag] { log.push_back(tag); }, owner);
                ref.add(id, when, owner, tag);
                liveAt[id] = live.size();
                live.push_back(id);
            };
            // Expect the reference's dispatches up to the horizon.
            auto expectUntil = [&](Time until, std::size_t limit) {
                while (limit-- > 0 && !ref.order.empty() &&
                       std::get<0>(*ref.order.begin()) <= until) {
                    EventId id = ref.top();
                    expected.push_back(ref.events.at(id).tag);
                    forget(id);
                }
            };
            auto cancelExpecting = [&](EventId id) {
                EXPECT_TRUE(eq.cancel(id));
                forget(id);
            };

            while (live.size() < depth)
                schedule();
            const std::size_t ops = depth > 4096 ? 20000 : 6000;
            for (std::size_t op = 0; op < ops; ++op) {
                std::uint64_t r = rng.pick(1000);
                if (live.empty() || r < (live.size() < depth ? 400 : 200)) {
                    schedule();
                } else if (r < 260) {
                    cancelExpecting(ref.top());
                } else if (r < 320) {
                    cancelExpecting(ref.last());
                } else if (r < 400) {
                    cancelExpecting(live[rng.pick(live.size())]);
                } else if (r < 430) {
                    if (!dead.empty()) {
                        EventId id = dead[rng.pick(dead.size())];
                        EXPECT_FALSE(eq.cancel(id));
                        EXPECT_FALSE(eq.retime(id, eq.now()));
                    }
                } else if (r < 700) {
                    // Retime: earlier, later, to an equal time, or the
                    // top event.
                    EventId id = r < 640 ? live[rng.pick(live.size())]
                                         : ref.top();
                    Time old = ref.events.at(id).when;
                    Time when = old;
                    switch (rng.pick(3)) {
                    case 0:
                        when = eq.now() + (old - eq.now()) * 0.5;
                        break;
                    case 1:
                        when = old + gap();
                        break;
                    default:
                        break;
                    }
                    EXPECT_TRUE(eq.retime(id, when));
                    ref.retime(id, when);
                } else if (r < 702) {
                    std::uint64_t owner = 1 + rng.pick(3);
                    std::vector<EventId> doomed;
                    for (const auto &[id, e] : ref.events)
                        if (e.owner == owner)
                            doomed.push_back(id);
                    EXPECT_EQ(eq.cancelAll(owner), doomed.size());
                    for (EventId id : doomed)
                        forget(id);
                } else if (r < 704) {
                    Time cut = eq.now() + gap();
                    std::uint64_t owner = rng.pick(4);
                    auto pred = [cut, owner](EventId, Time when,
                                             std::uint64_t tag) {
                        return tag == owner && when > cut;
                    };
                    std::vector<EventId> doomed;
                    for (const auto &[id, e] : ref.events)
                        if (pred(id, e.when, e.owner))
                            doomed.push_back(id);
                    EXPECT_EQ(eq.cancelIf(pred), doomed.size());
                    for (EventId id : doomed)
                        forget(id);
                } else if (r < 900) {
                    bool any = !ref.order.empty();
                    expectUntil(1e300, 1);
                    EXPECT_EQ(eq.step(), any);
                } else {
                    Time until = eq.now() + 0.125 * double(rng.pick(3));
                    expectUntil(until, std::size_t(-1));
                    eq.run(until);
                    EXPECT_DOUBLE_EQ(eq.now(), until);
                }
                ASSERT_EQ(eq.pending(), ref.events.size()) << "op " << op;
                ASSERT_EQ(log.size(), expected.size()) << "op " << op;
            }
            EXPECT_EQ(log, expected);
            for (EventId id : std::vector<EventId>(live))
                cancelExpecting(id);
            EXPECT_TRUE(eq.empty());
            EXPECT_FALSE(eq.step());
        }
    }
}

TEST(EventQueue, TracerDoesNotPerturbDispatchOrder)
{
    // Identical schedules with and without a tracer must dispatch the
    // same sequence — tracing is pure observation.
    auto drive = [](EventQueue &eq, std::vector<int> &order) {
        for (int i = 0; i < 20; ++i)
            eq.schedule(double((i * 7) % 5), [&order, i] {
                order.push_back(i);
            });
        eq.runAll();
    };
    EventQueue plain, traced;
    std::size_t records = 0;
    traced.setTracer([&records](const EventQueue::TraceRecord &) {
        ++records;
    });
    std::vector<int> a, b;
    drive(plain, a);
    drive(traced, b);
    EXPECT_EQ(a, b);
    EXPECT_EQ(records, 40u); // 20 schedules + 20 dispatches
}

TEST(EventQueue, ReserveDoesNotDisturbPendingEvents)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(1.0, [&] { ++count; });
    eq.reserve(4096);
    eq.schedule(2.0, [&] { ++count; });
    eq.runAll();
    EXPECT_EQ(count, 2);
}

} // namespace
