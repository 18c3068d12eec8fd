#include "sim/sharded_queue.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "util/logging.hh"

namespace wsc {
namespace sim {

namespace {

/** Spin iterations before a worker parks on the condition variable.
 * Ensemble windows are microseconds of work; parking between them
 * would cost a futex round trip per shard per window. The budget is
 * large enough to cover any window the control plane doesn't stall,
 * small enough that a genuinely idle worker yields the core fast. */
constexpr unsigned kSpinBudget = 1u << 14;

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#endif
}

/**
 * A persistent spin-then-park worker team for one run() call.
 *
 * The main thread publishes work by bumping `epoch` (release); the
 * N-1 helper threads spin on it (acquire) and then claim shard
 * indices from a shared cursor. Completion is a done-counter the
 * main thread spins on. Everything a worker wrote before its
 * done-increment (queue mutations, outbox rows, stats slots) is
 * visible to the main thread after it observes the count, and
 * everything the main thread wrote before the epoch bump (window
 * horizon, phase, control-plane effects) is visible to the workers —
 * the two atomics carry all the happens-before edges the windows
 * need, which is what the TSan job checks end to end.
 */
class Team
{
  public:
    using WorkFn = std::function<void(unsigned)>;

    explicit Team(unsigned helpers) : helpers_(helpers)
    {
        threads_.reserve(helpers);
        for (unsigned i = 0; i < helpers; ++i)
            threads_.emplace_back([this] { helperMain(); });
    }

    ~Team()
    {
        {
            std::lock_guard<std::mutex> g(m_);
            stop_.store(true, std::memory_order_relaxed);
            epoch_.fetch_add(1, std::memory_order_release);
        }
        cv_.notify_all();
        for (auto &t : threads_)
            t.join();
    }

    /** Run work(i) for i in [0, tasks) across the helpers and the
     * calling thread; returns when every index completed AND every
     * helper has left the claim loop (quiescence — without it a
     * helper's final failed claim could straddle the next round's
     * cursor reset and steal an index). */
    void
    fanOut(unsigned tasks, const WorkFn &work)
    {
        tasks_ = tasks;
        work_ = &work;
        cursor_.store(0, std::memory_order_relaxed);
        done_.store(0, std::memory_order_relaxed);
        roundDone_.store(0, std::memory_order_relaxed);
        {
            // The empty critical section orders the epoch bump
            // against any helper that just decided to park: either
            // it saw the new epoch before waiting, or it is already
            // inside wait() and the notify below lands.
            std::lock_guard<std::mutex> g(m_);
            epoch_.fetch_add(1, std::memory_order_release);
        }
        cv_.notify_all();
        claimLoop();
        while (done_.load(std::memory_order_acquire) < tasks_ ||
               roundDone_.load(std::memory_order_acquire) < helpers_)
            cpuRelax();
    }

  private:
    void
    claimLoop()
    {
        const WorkFn &work = *work_;
        for (;;) {
            unsigned i =
                cursor_.fetch_add(1, std::memory_order_relaxed);
            if (i >= tasks_)
                return;
            work(i);
            done_.fetch_add(1, std::memory_order_acq_rel);
        }
    }

    void
    helperMain()
    {
        std::uint64_t seen = 0;
        for (;;) {
            unsigned spins = 0;
            while (epoch_.load(std::memory_order_acquire) == seen) {
                if (++spins >= kSpinBudget) {
                    std::unique_lock<std::mutex> lk(m_);
                    cv_.wait(lk, [&] {
                        return epoch_.load(
                                   std::memory_order_acquire) != seen;
                    });
                    break;
                }
                cpuRelax();
            }
            seen = epoch_.load(std::memory_order_acquire);
            if (stop_.load(std::memory_order_relaxed))
                return;
            claimLoop();
            roundDone_.fetch_add(1, std::memory_order_acq_rel);
        }
    }

    const unsigned helpers_;
    std::vector<std::thread> threads_;
    std::atomic<std::uint64_t> epoch_{0};
    std::atomic<unsigned> cursor_{0};
    std::atomic<unsigned> done_{0};
    std::atomic<unsigned> roundDone_{0};
    std::atomic<bool> stop_{false};
    unsigned tasks_ = 0;
    const WorkFn *work_ = nullptr;
    std::mutex m_;
    std::condition_variable cv_;
};

} // namespace

ShardedEventQueue::ShardedEventQueue(unsigned lanes, unsigned shards)
{
    WSC_ASSERT(lanes >= 1, "need at least one lane");
    shards = std::max(1u, std::min(shards, lanes));
    queues_.reserve(shards);
    for (unsigned s = 0; s < shards; ++s)
        queues_.push_back(std::make_unique<EventQueue>());
    laneShard_.resize(lanes);
    for (unsigned l = 0; l < lanes; ++l)
        laneShard_[l] =
            unsigned(std::uint64_t(l) * shards / lanes);
    outbox_.resize(std::size_t(lanes) * lanes);
}

void
ShardedEventQueue::post(unsigned srcLane, unsigned dstLane, Time when,
                        InlineAction &&action)
{
    WSC_ASSERT(srcLane < lanes() && dstLane < lanes(),
               "lane out of range");
    // A message landing inside the current window would arrive at a
    // shard that may already have advanced past it: the send delay
    // must cover the lookahead.
    WSC_ASSERT(when >= windowEnd_,
               "cross-lane post inside the lookahead window");
    outbox_[std::size_t(srcLane) * lanes() + dstLane].push_back(
        {when, std::move(action)});
}

std::uint64_t
ShardedEventQueue::drainShard(unsigned shard)
{
    // (dst asc, src asc, send order) — exactly the slice of the
    // serial drain's order that touches this shard's queue, so the
    // queue's seq assignment is identical however many threads the
    // drain fans over.
    const unsigned nLanes = lanes();
    std::uint64_t moved = 0;
    for (unsigned dst = 0; dst < nLanes; ++dst) {
        if (laneShard_[dst] != shard)
            continue;
        for (unsigned src = 0; src < nLanes; ++src) {
            auto &box = outbox_[std::size_t(src) * nLanes + dst];
            for (Msg &m : box) {
                queues_[shard]->schedule(m.when, std::move(m.action));
                ++moved;
            }
            box.clear();
        }
    }
    return moved;
}

ShardedEventQueue::RunStats
ShardedEventQueue::run(Time until, Time lookahead, unsigned workers,
                       const BarrierFn &onBarrier)
{
    WSC_ASSERT(lookahead > 0.0, "lookahead must be positive");
    RunStats stats;
    const unsigned nShards = shards();
    workers = std::max(1u, std::min(workers, nShards));

    // startDispatched anchors the run totals; mark is the rolling
    // per-window baseline for the imbalance stat.
    std::vector<std::uint64_t> startDispatched(nShards), mark(nShards);
    std::vector<std::uint64_t> drained(nShards, 0);
    for (unsigned s = 0; s < nShards; ++s)
        startDispatched[s] = mark[s] = queues_[s]->dispatched();
    stats.shardDispatched.assign(nShards, 0);
    double imbalanceSum = 0.0;
    std::uint64_t imbalanceWindows = 0;

    // The team exists for the whole run: thread creation and the
    // first page faults are paid once, and each window's two fan-out
    // phases cost an atomic bump plus bounded spinning.
    std::unique_ptr<Team> team;
    if (workers > 1 && nShards > 1)
        team = std::make_unique<Team>(workers - 1);

    Time t = windowStart_;
    while (t < until) {
        Time end = std::min(t + lookahead, until);
        windowEnd_ = end;

        // Phase 1: advance every shard to the common horizon. Even
        // one shard runs through this same windowed loop so
        // message-delivery seq numbers interleave identically at
        // every shard count. Shards write only their own queue and
        // their own lanes' outbox rows, so the phase needs no locks.
        if (team) {
            team->fanOut(nShards, [&](unsigned s) {
                queues_[s]->run(end);
            });
        } else {
            for (unsigned s = 0; s < nShards; ++s)
                queues_[s]->run(end);
        }

        // Per-window imbalance: how much of the window the busiest
        // shard carried.
        std::uint64_t windowTotal = 0, windowMax = 0;
        for (unsigned s = 0; s < nShards; ++s) {
            std::uint64_t d = queues_[s]->dispatched() - mark[s];
            windowTotal += d;
            windowMax = std::max(windowMax, d);
        }
        if (windowTotal > 0) {
            imbalanceSum += double(windowMax) * double(nShards) /
                            double(windowTotal);
            ++imbalanceWindows;
        }

        // Phase 2: deliver cross-lane messages. Each worker owns a
        // whole destination shard, so per-queue schedule order (and
        // therefore seq assignment) matches the serial drain.
        if (team) {
            team->fanOut(nShards, [&](unsigned s) {
                drained[s] = drainShard(s);
            });
            for (unsigned s = 0; s < nShards; ++s)
                stats.messages += drained[s];
        } else {
            for (unsigned s = 0; s < nShards; ++s)
                stats.messages += drainShard(s);
        }

        windowStart_ = t = end;
        ++stats.windows;
        if (onBarrier)
            onBarrier(end);

        // Re-mark after the barrier so the next window's imbalance
        // counts only window work, not barrier deliveries.
        for (unsigned s = 0; s < nShards; ++s)
            mark[s] = queues_[s]->dispatched();
    }

    for (unsigned s = 0; s < nShards; ++s) {
        stats.shardDispatched[s] =
            queues_[s]->dispatched() - startDispatched[s];
        stats.dispatched += stats.shardDispatched[s];
    }
    if (imbalanceWindows > 0)
        stats.meanWindowImbalance =
            imbalanceSum / double(imbalanceWindows);
    return stats;
}

void
ShardedEventQueue::reserve(std::size_t eventsPerShard)
{
    for (auto &q : queues_)
        q->reserve(eventsPerShard);
}

EventQueue::Counters
ShardedEventQueue::counters() const
{
    EventQueue::Counters sum;
    for (auto &q : queues_) {
        const auto &c = q->counters();
        sum.scheduled += c.scheduled;
        sum.dispatched += c.dispatched;
        sum.cancelled += c.cancelled;
        sum.peakHeap = std::max(sum.peakHeap, c.peakHeap);
    }
    return sum;
}

} // namespace sim
} // namespace wsc
