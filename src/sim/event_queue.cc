#include "sim/event_queue.hh"

#include <cstdint>

#include "util/logging.hh"

namespace wsc {
namespace sim {

namespace {

/** Default pre-sizing: matches the typical in-flight event count of
 * the interactive workloads so early runs never reallocate. */
constexpr std::size_t kDefaultReserve = 1024;

constexpr EventId
makeId(std::uint32_t slot, std::uint32_t gen)
{
    return (EventId(slot) << 32) | gen;
}

/** Prefetch the two cache lines from address @p a: four 24-byte heap
 * entries. A prefetch never faults, so @p a may lie past the heap's
 * end; it is an integer so that no out-of-range pointer is formed. */
inline void
prefetchLines(std::uintptr_t a)
{
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(reinterpret_cast<const void *>(a));
    __builtin_prefetch(reinterpret_cast<const void *>(a + 64));
#else
    (void)a;
#endif
}

} // namespace

EventQueue::EventQueue()
{
    reserve(kDefaultReserve);
}

void
EventQueue::reserve(std::size_t events)
{
    heap.reserve(events);
    slotGen.reserve(events);
    slotPos.reserve(events);
    slotAction.reserve(events);
    slotOwner.reserve(events);
    freeSlots.reserve(events);
}

std::uint32_t
EventQueue::acquireSlot()
{
    if (!freeSlots.empty()) {
        std::uint32_t slot = freeSlots.back();
        freeSlots.pop_back();
        return slot;
    }
    WSC_ASSERT(slotGen.size() < (std::size_t(1) << 32),
               "event slot space exhausted");
    // Generations start at 1 so id 0 (slot 0, gen 0) is never valid.
    slotGen.push_back(1);
    slotPos.push_back(0);
    slotAction.emplace_back();
    slotOwner.push_back(0);
    return std::uint32_t(slotGen.size() - 1);
}

void
EventQueue::releaseSlot(std::uint32_t slot)
{
    // Invalidates every outstanding handle stamped with the previous
    // generation. Wrap-around after 2^32 tenancies of one slot is
    // acceptable: a handle that old cannot still be held by a correct
    // caller.
    ++slotGen[slot];
    freeSlots.push_back(slot);
}

inline void
EventQueue::siftUp(std::size_t hole, Entry e)
{
    Entry *h = heap.data();
    std::uint32_t *pos = slotPos.data();
    while (hole > 0) {
        std::size_t parent = (hole - 1) / 2;
        if (!earlier(e, h[parent]))
            break;
        h[hole] = h[parent];
        pos[h[hole].slot] = std::uint32_t(hole);
        hole = parent;
    }
    h[hole] = e;
    pos[e.slot] = std::uint32_t(hole);
}

inline void
EventQueue::siftDown(std::size_t hole, Entry e)
{
    Entry *h = heap.data();
    std::uint32_t *pos = slotPos.data();
    const std::size_t n = heap.size();
    std::size_t child;
    while ((child = 2 * hole + 1) < n) {
        if (child + 1 < n)
            child += std::size_t(earlier(h[child + 1], h[child]));
        if (!earlier(h[child], e))
            break;
        h[hole] = h[child];
        pos[h[hole].slot] = std::uint32_t(hole);
        hole = child;
    }
    h[hole] = e;
    pos[e.slot] = std::uint32_t(hole);
}

inline void
EventQueue::removeAt(std::size_t i)
{
    Entry last = heap.back();
    heap.pop_back();
    const std::size_t n = heap.size();
    if (i == n)
        return;
    Entry *h = heap.data();
    std::uint32_t *pos = slotPos.data();
    // Walk the hole down along the earlier child. The pick is the
    // subtraction of a flag, not a branch (it is a coin flip per
    // level), so nothing runs ahead to the next level on its own:
    // prefetch the grandchildren's lines, which deep heaps miss.
    std::size_t hole = i;
    std::size_t child;
    while ((child = 2 * hole + 2) < n) {
        prefetchLines(reinterpret_cast<std::uintptr_t>(h) +
                      (4 * hole + 3) * sizeof(Entry));
        child -= std::size_t(earlier(h[child - 1], h[child]));
        h[hole] = h[child];
        pos[h[hole].slot] = std::uint32_t(hole);
        hole = child;
    }
    if (child == n) { // a lone left child
        h[hole] = h[n - 1];
        pos[h[hole].slot] = std::uint32_t(hole);
        hole = n - 1;
    }
    // The refilled path keeps the heap order above the leaf hole, so
    // sifting `last` up from it (possibly past i) restores the heap.
    siftUp(hole, last);
}

EventId
EventQueue::schedule(Time when, InlineAction &&action,
                     std::uint64_t owner)
{
    WSC_ASSERT(when >= now_, "event scheduled in the past: " << when
                                                             << " < "
                                                             << now_);
    WSC_ASSERT(action, "null event action");
    std::uint32_t slot = acquireSlot();
    std::uint32_t gen = slotGen[slot];
    slotAction[slot] = std::move(action);
    slotOwner[slot] = owner;
    heap.emplace_back();
    siftUp(heap.size() - 1, Entry{when, nextSeq++, slot});
    ++counters_.scheduled;
    if (heap.size() > counters_.peakHeap)
        counters_.peakHeap = heap.size();
    EventId id = makeId(slot, gen);
    if (tracer_)
        tracer_({TraceRecord::Kind::Schedule, now_, when, id});
    return id;
}

bool
EventQueue::cancel(EventId id)
{
    if (!isLive(id))
        return false; // already dispatched or cancelled
    std::uint32_t slot = std::uint32_t(id >> 32);
    std::size_t pos = slotPos[slot];
    Time when = heap[pos].when;
    removeAt(pos);
    releaseSlot(slot);
    slotAction[slot].reset();
    ++counters_.cancelled;
    if (tracer_)
        tracer_({TraceRecord::Kind::Cancel, now_, when, id});
    return true;
}

bool
EventQueue::retime(EventId id, Time when)
{
    WSC_ASSERT(when >= now_, "event retimed into the past: " << when
                                                             << " < "
                                                             << now_);
    if (!isLive(id))
        return false;
    std::size_t pos = slotPos[std::uint32_t(id >> 32)];
    Entry e = heap[pos];
    Time old = e.when;
    e.when = when;
    e.seq = nextSeq++; // the seq schedule() would have taken
    if (pos > 0 && earlier(e, heap[(pos - 1) / 2]))
        siftUp(pos, e);
    else
        siftDown(pos, e);
    ++counters_.cancelled;
    ++counters_.scheduled;
    if (tracer_) {
        tracer_({TraceRecord::Kind::Cancel, now_, old, id});
        tracer_({TraceRecord::Kind::Schedule, now_, when, id});
    }
    return true;
}

std::size_t
EventQueue::cancelIf(
    const std::function<bool(EventId, Time, std::uint64_t)> &pred)
{
    WSC_ASSERT(pred, "null bulk-cancel predicate");
    // One sweep that keeps the survivors in place, then a bottom-up
    // heapify: O(heap) however many events the predicate selects.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < heap.size(); ++i) {
        Entry e = heap[i];
        EventId id = makeId(e.slot, slotGen[e.slot]);
        if (!pred(id, e.when, slotOwner[e.slot])) {
            heap[kept] = e;
            slotPos[e.slot] = std::uint32_t(kept++);
            continue;
        }
        releaseSlot(e.slot);
        slotAction[e.slot].reset();
        ++counters_.cancelled;
        if (tracer_)
            tracer_({TraceRecord::Kind::Cancel, now_, e.when, id});
    }
    std::size_t n = heap.size() - kept;
    if (n == 0)
        return 0;
    heap.resize(kept);
    for (std::size_t i = kept / 2; i-- > 0;)
        siftDown(i, heap[i]);
    return n;
}

std::size_t
EventQueue::cancelAll(std::uint64_t owner)
{
    WSC_ASSERT(owner != 0, "cancelAll needs a non-zero owner tag");
    return cancelIf([owner](EventId, Time, std::uint64_t tag) {
        return tag == owner;
    });
}

void
EventQueue::dispatchTop()
{
    Entry e = heap.front();
    removeAt(0);
    // Move the action out of the slot pool before releasing the slot,
    // so it survives dispatch even if it schedules further events
    // that reuse the slot.
    InlineAction action = std::move(slotAction[e.slot]);
    std::uint32_t gen = slotGen[e.slot];
    releaseSlot(e.slot);
    now_ = e.when;
    ++counters_.dispatched;
    if (tracer_)
        tracer_({TraceRecord::Kind::Dispatch, now_, e.when,
                 makeId(e.slot, gen)});
    action();
}

bool
EventQueue::step()
{
    if (heap.empty())
        return false;
    dispatchTop();
    return true;
}

std::uint64_t
EventQueue::run(Time until)
{
    std::uint64_t n = 0;
    while (!heap.empty() && heap.front().when <= until) {
        dispatchTop();
        ++n;
    }
    if (now_ < until)
        now_ = until;
    return n;
}

std::uint64_t
EventQueue::runAll()
{
    std::uint64_t n = 0;
    while (step())
        ++n;
    return n;
}

} // namespace sim
} // namespace wsc
