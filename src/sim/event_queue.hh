/**
 * @file
 * Discrete-event simulation kernel: event queue and simulation clock.
 *
 * The performance model is a request-level discrete-event simulation;
 * this kernel provides deterministic, stable-ordered event dispatch.
 */

#ifndef WSC_SIM_EVENT_QUEUE_HH
#define WSC_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/inline_action.hh"

namespace wsc {
namespace sim {

/** Simulation time, in seconds. */
using Time = double;

/**
 * Opaque handle identifying a scheduled event (for cancellation).
 *
 * Encodes (slot, generation): slots are pooled and recycled across
 * events, and the generation stamp distinguishes the current tenant
 * from any stale handle to a previous one. 0 is never a valid id.
 */
using EventId = std::uint64_t;

/**
 * A deterministic discrete-event queue.
 *
 * Events at equal timestamps dispatch in scheduling order (FIFO), which
 * keeps runs reproducible across platforms: dispatch follows the strict
 * total order on (when, seq), where seq is a per-queue counter taken at
 * schedule() and retime(). The queue is an indexed binary min-heap —
 * every slot records its heap position — so cancel() and retime()
 * reach their entry directly and the heap never holds anything but
 * pending events. A PS station's completion event can therefore be
 * moved in place on every arrival and departure instead of leaving a
 * cancelled entry behind for each one.
 */
class EventQueue
{
  public:
    /**
     * Lifetime counters of kernel activity, maintained unconditionally
     * (plain integer increments; bench_kernel guards that they stay in
     * the noise). The observability layer snapshots these into run
     * reports.
     */
    struct Counters {
        std::uint64_t scheduled = 0;  //!< schedule() + retime() calls
        std::uint64_t dispatched = 0; //!< events run
        std::uint64_t cancelled = 0;  //!< successful cancels + retimes
        std::size_t peakHeap = 0;     //!< max events pending at once
    };

    /** Per-event trace record delivered to the tracer, if installed. */
    struct TraceRecord {
        enum class Kind { Schedule, Dispatch, Cancel };
        Kind kind;
        Time now;     //!< clock when the record was emitted
        Time when;    //!< event's scheduled firing time
        EventId id;
    };

    /**
     * Trace sink. Null (the default) disables tracing; the hot path
     * then pays only an is-engaged test per operation.
     */
    using Tracer = std::function<void(const TraceRecord &)>;

    EventQueue();

    // The queue holds closures that frequently capture `this` of model
    // objects; copying would dangle. Non-copyable, non-movable.
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulation time. */
    Time now() const { return now_; }

    /**
     * Schedule @p action at absolute time @p when.
     *
     * The action is an InlineAction: any callable converts implicitly,
     * and callables within InlineAction::kInlineBytes are stored
     * without heap allocation (see inline_action.hh).
     *
     * @param owner Optional bulk-cancellation tag. Events sharing a
     *     non-zero owner can be retired together with cancelAll();
     *     owner 0 (the default) means untagged. The fault injector
     *     tags every event belonging to one simulated server with
     *     that server's id so a crash retires them in one pass.
     * @return id usable with cancel().
     * Scheduling in the past is a caller bug and panics.
     *
     * Takes the action by rvalue reference: callables still convert
     * implicitly (the conversion materializes a temporary that binds
     * here), but the 80-byte InlineAction is moved exactly once, into
     * the slot pool, instead of through a by-value parameter first.
     */
    EventId schedule(Time when, InlineAction &&action,
                     std::uint64_t owner = 0);

    /** Schedule @p action @p delay seconds from now. */
    EventId
    scheduleAfter(Time delay, InlineAction &&action,
                  std::uint64_t owner = 0)
    {
        return schedule(now_ + delay, std::move(action), owner);
    }

    /** Cancel a pending event. Returns false if already run/cancelled. */
    bool cancel(EventId id);

    /**
     * Move a pending event to absolute time @p when, keeping its
     * action, owner tag and handle. The event takes a fresh sequence
     * number, so it dispatches exactly where cancel() followed by
     * schedule() would have put it; it counts (and traces) as one
     * cancel plus one schedule. One sift instead of a removal and an
     * insertion. Retiming into the past is a caller bug and panics.
     * @return false if @p id was already run/cancelled.
     */
    bool retime(EventId id, Time when);

    /**
     * Bulk-cancel every pending event tagged with @p owner (which must
     * be non-zero; untagged events are never bulk-cancelled). One
     * O(heap) sweep instead of an O(n) search per cancelled event.
     * @return number of events cancelled.
     */
    std::size_t cancelAll(std::uint64_t owner);

    /**
     * Bulk-cancel every pending event the predicate selects. The
     * predicate sees (id, firing time, owner tag) and must be pure:
     * it is called once per live entry in unspecified order.
     * @return number of events cancelled.
     */
    std::size_t cancelIf(
        const std::function<bool(EventId, Time, std::uint64_t)> &pred);

    /** True when no runnable events remain. O(1). */
    bool empty() const { return heap.empty(); }

    /** Number of pending (non-cancelled) events. O(1). */
    std::size_t pending() const { return heap.size(); }

    /**
     * Dispatch the next event.
     * @return false if the queue was empty.
     */
    bool step();

    /**
     * Run until the queue drains or the clock passes @p until.
     * Events scheduled at exactly @p until still execute; the clock is
     * advanced to @p until if the queue drains earlier.
     * @return number of events dispatched.
     */
    std::uint64_t run(Time until);

    /** Run until the queue drains completely. */
    std::uint64_t runAll();

    /** Total events dispatched over the queue's lifetime. */
    std::uint64_t dispatched() const { return counters_.dispatched; }

    /** Lifetime kernel activity counters. */
    const Counters &counters() const { return counters_; }

    /**
     * Install (or, with an empty function, remove) a per-event trace
     * sink. The tracer sees schedules, dispatches, and successful
     * cancellations. Intended for debugging and the --trace paths;
     * simulation behaviour is unaffected.
     */
    void setTracer(Tracer tracer) { tracer_ = std::move(tracer); }

    /** Pre-size the heap and slot pool for @p events in flight. */
    void reserve(std::size_t events);

  private:
    /**
     * Heap entries carry ordering metadata only; the action, owner tag
     * and heap position live in the slot pool (slotAction, slotOwner,
     * slotPos, parallel to slotGen). Keeping the 24-byte entry free of
     * the 80-byte InlineAction makes sift moves cheap.
     */
    struct Entry {
        Time when;
        std::uint64_t seq;  //!< global FIFO sequence number
        std::uint32_t slot; //!< slot-pool index of the action
    };

    /** Strict total order on (when, seq); seq is unique. */
    static bool
    earlier(const Entry &a, const Entry &b)
    {
        // Times almost never tie, so this branch predicts well and the
        // compare itself can become a conditional move in the sifts.
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    /** Binary min-heap under earlier(); slotPos indexes into it. */
    std::vector<Entry> heap;
    /** Per-slot current generation; a handle is live iff its stamp
     * matches. Bumped on dispatch and on cancel. */
    std::vector<std::uint32_t> slotGen;
    /** Per-slot heap index of the slot's entry while it is pending. */
    std::vector<std::uint32_t> slotPos;
    /** Per-slot pending action, engaged while the slot's event is
     * live. Indexed in lockstep with slotGen. */
    std::vector<InlineAction> slotAction;
    /** Per-slot bulk-cancel owner tag (see schedule()); 0 = untagged.
     * Indexed in lockstep with slotGen. */
    std::vector<std::uint64_t> slotOwner;
    std::vector<std::uint32_t> freeSlots;
    Time now_ = 0.0;
    std::uint64_t nextSeq = 1;
    Counters counters_;
    Tracer tracer_;

    std::uint32_t acquireSlot();
    void releaseSlot(std::uint32_t slot);

    /** Whether @p id names a pending event (not yet run/cancelled). */
    bool
    isLive(EventId id) const
    {
        std::uint32_t slot = std::uint32_t(id >> 32);
        return slot < slotGen.size() && slotGen[slot] == std::uint32_t(id);
    }

    /** Move @p e up from the hole at @p hole to its place. */
    void siftUp(std::size_t hole, Entry e);

    /** Move @p e down from the hole at @p hole to its place. */
    void siftDown(std::size_t hole, Entry e);

    /**
     * Remove the entry at heap index @p i (Floyd's bottom-up delete:
     * walk the hole to a leaf along smaller children, then sift the
     * last entry up from there — about half the comparisons of a
     * top-down sift, since the last entry almost always belongs near
     * the bottom).
     */
    void removeAt(std::size_t i);

    /** Dispatch the heap top; the heap must be non-empty. */
    void dispatchTop();
};

} // namespace sim
} // namespace wsc

#endif // WSC_SIM_EVENT_QUEUE_HH
