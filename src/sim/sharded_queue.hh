/**
 * @file
 * Sharded event queue: conservative parallel DES execution.
 *
 * Scales the single-queue kernel (event_queue.hh) to warehouse-size
 * simulations by partitioning the model into LANES — fixed logical
 * shards that own disjoint state — and executing them on SHARDS
 * physical event queues. The two are deliberately distinct: the lane
 * grid is part of the simulation topology (it never changes with the
 * execution width), while the shard count is an execution knob, so a
 * run is bit-identical at 1, 2, or 8 shards.
 *
 * Execution is classic conservative windowing: all shards advance to
 * a common horizon (the window end, one lookahead past the window
 * start), then a barrier delivers the cross-lane messages sent during
 * the window and runs the control-plane callback. Within a window,
 * lanes may not touch each other's state — every cross-lane
 * interaction must be a post() whose delay is at least the lookahead,
 * which is why the windows can run without rollback. The model's
 * lookahead is physical: the network/dispatch latency between servers
 * in different lanes.
 *
 * Worker execution: run() owns a persistent spin-then-park worker
 * team for the whole call (threads are created once, not per
 * window). Each window is two fan-out phases — advance every shard
 * to the horizon, then drain mailboxes in parallel by destination
 * shard — separated by epoch barriers that are a single atomic store
 * plus bounded spinning in the common case; workers park on a
 * condition variable only after the spin budget expires, so
 * microsecond-scale windows never pay a futex round trip. The
 * control-plane callback still runs single-threaded between windows.
 *
 * Determinism argument (the contract the ensemble tests pin):
 *  - A lane's events execute in (time, FIFO-seq) order. Co-locating
 *    several lanes on one shard interleaves their seq numbers, but
 *    since lanes share no state inside a window, each lane observes
 *    only its own order — which is independent of the co-location.
 *  - Cross-lane messages are delivered at the barrier in (dst lane,
 *    src lane, send order) — a function of the lane grid only, never
 *    of the lane-to-shard map — so the dst queue's schedule order
 *    (and thus its FIFO tie-breaks) is shard-count-invariant. The
 *    parallel drain preserves this exactly: each worker owns a whole
 *    destination shard and walks its dst lanes in ascending order,
 *    so every queue sees the same schedule sequence the serial drain
 *    would produce.
 *  - Randomness must come from per-lane streams derived by identity
 *    (Rng::stream), never from a queue- or thread-associated engine.
 */

#ifndef WSC_SIM_SHARDED_QUEUE_HH
#define WSC_SIM_SHARDED_QUEUE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/event_queue.hh"

namespace wsc {
namespace sim {

/**
 * A set of event queues executing a lane-partitioned model in
 * conservative lookahead windows.
 */
class ShardedEventQueue
{
  public:
    /** Aggregate activity of one run() call. */
    struct RunStats {
        std::uint64_t windows = 0;    //!< barriers executed
        std::uint64_t messages = 0;   //!< cross-lane posts delivered
        std::uint64_t dispatched = 0; //!< events run across shards
        /** Events dispatched per shard over the run, indexed by
         * shard. Depends on the lane-to-shard packing: an execution
         * observable, never an identity one. */
        std::vector<std::uint64_t> shardDispatched;
        /** Mean over non-empty windows of (busiest shard's events x
         * shards / window total). 1.0 = perfectly balanced; shards()
         * = one shard did everything. With one shard, always 1.0.
         * The number a worker-count decision should look at: high
         * imbalance caps parallel speedup regardless of core count. */
        double meanWindowImbalance = 1.0;
    };

    /**
     * Invoked single-threaded after each window's message delivery
     * with the window end time; the control plane (autoscalers,
     * rate reprogramming) lives here and may touch every lane.
     */
    using BarrierFn = std::function<void(Time)>;

    /**
     * @param lanes  logical shard count — part of the model topology
     * @param shards physical queue count, clamped to [1, lanes];
     *     lane l executes on queue l * shards / lanes (blocked map,
     *     so neighbouring lanes share a shard and its cache lines)
     */
    ShardedEventQueue(unsigned lanes, unsigned shards);

    unsigned lanes() const { return unsigned(laneShard_.size()); }
    unsigned shards() const { return unsigned(queues_.size()); }
    unsigned shardOf(unsigned lane) const { return laneShard_[lane]; }

    /** The queue executing @p lane; schedule a lane's own events
     * here. Outside run() (setup, barrier) any lane's queue may be
     * touched; inside a window only the executing lane may. */
    EventQueue &laneQueue(unsigned lane)
    {
        return *queues_[laneShard_[lane]];
    }

    /** Committed global time: the start of the current window. */
    Time now() const { return windowStart_; }

    /**
     * Send a cross-lane interaction: run @p action on @p dstLane's
     * queue at absolute time @p when. Legal from inside lane
     * execution (src = the running lane) and from the barrier.
     * @p when must be at or after the end of the current window —
     * i.e. the send delay must be >= the run's lookahead — which is
     * asserted, since a shorter delay would have to rewind a shard
     * that already advanced past it.
     */
    void post(unsigned srcLane, unsigned dstLane, Time when,
              InlineAction &&action);

    /**
     * Advance every shard to @p until in windows of @p lookahead.
     * @p workers is the thread count executing shard work (clamped
     * to [1, shards]; 1 runs everything in the caller — the workers
     * value is an execution knob and never changes results).
     * @p onBarrier, if set, runs single-threaded after each window.
     * Execution order inside a window is per-shard (time, FIFO)
     * order; see the file comment for why results do not depend on
     * the shard count or worker count.
     */
    RunStats run(Time until, Time lookahead, unsigned workers = 1,
                 const BarrierFn &onBarrier = {});

    /** Pre-size each shard's heap and slot pool. */
    void reserve(std::size_t eventsPerShard);

    /**
     * Kernel counters summed over shards. scheduled / dispatched /
     * cancelled are shard-count-invariant totals; compactions and
     * peakHeap depend on how lanes were packed and must not be used
     * in identity comparisons.
     */
    EventQueue::Counters counters() const;

  private:
    struct Msg {
        Time when;
        InlineAction action;
    };

    std::vector<std::unique_ptr<EventQueue>> queues_;
    std::vector<unsigned> laneShard_;
    /** Outboxes indexed src * lanes + dst. A row is written only by
     * the thread executing its src lane during a window and drained
     * by the thread owning the dst shard at the barrier (the two
     * phases are separated by a full barrier, so no row is ever
     * touched from two threads concurrently). */
    std::vector<std::vector<Msg>> outbox_;
    Time windowStart_ = 0.0;
    Time windowEnd_ = 0.0;

    /** Deliver every pending message bound for @p shard, in (dst
     * lane asc, src lane asc, send order). @return messages moved. */
    std::uint64_t drainShard(unsigned shard);
};

} // namespace sim
} // namespace wsc

#endif // WSC_SIM_SHARDED_QUEUE_HH
