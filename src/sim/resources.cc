#include "sim/resources.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "util/logging.hh"

namespace wsc {
namespace sim {

namespace {

/** Absolute floor for the finished-work threshold. */
constexpr double workEpsilonFloor = 1e-12;

/**
 * Finished-work threshold relative to accumulated progress. Progress
 * grows monotonically (capacity * time), so an absolute epsilon
 * eventually drops below the representable resolution of both the
 * progress counter and the event clock; scaling with progress keeps
 * "remaining work" distinguishable from FP residue at any sim length.
 */
double
workEpsilon(double progress)
{
    return std::max(workEpsilonFloor, progress * 1e-9);
}

} // namespace

PsResource::PsResource(EventQueue &eq, std::string name, double capacity,
                       unsigned slots, std::uint64_t owner)
    : eq(eq), name_(std::move(name)), cap(capacity), slots(slots),
      owner_(owner), lastUpdate(eq.now()), createdAt(eq.now())
{
    WSC_ASSERT(capacity > 0.0, "PS resource capacity must be positive");
    WSC_ASSERT(slots >= 1, "PS resource needs at least one slot");
    heap.reserve(64);
    doneSlots.reserve(64);
    doneFree.reserve(64);
    finishedScratch.reserve(64);
}

double
PsResource::perJobRate(std::size_t n) const
{
    if (n == 0)
        return 0.0;
    double per_slot = cap / double(slots);
    double share = std::min(1.0, double(slots) / double(n));
    return per_slot * share;
}

void
PsResource::advance()
{
    Time now = eq.now();
    double dt = now - lastUpdate;
    if (dt > 0.0 && !heap.empty()) {
        double rate = perJobRate(heap.size());
        progress += rate * dt;
        double used = rate * double(heap.size());
        busyIntegral += (used / cap) * dt;
        depthIntegral += double(heap.size()) * dt;
    }
    lastUpdate = now;
}

void
PsResource::reschedule()
{
    if (heap.empty()) {
        if (completionEvent) {
            eq.cancel(completionEvent);
            completionEvent = 0;
        }
        return;
    }
    double remaining = heap.front().finishMark - progress;
    double rate = perJobRate(heap.size());
    double dt =
        (remaining <= workEpsilon(progress)) ? 0.0 : remaining / rate;
    // A pending completion moves in place: same dispatch position as
    // cancel + schedule, without the removal and the slot churn. A
    // handle that a cancelAll(owner_) already retired gets a new
    // event, as cancel + schedule would have given it.
    if (!completionEvent || !eq.retime(completionEvent, eq.now() + dt))
        completionEvent =
            eq.scheduleAfter(dt, [this] { onCompletion(); }, owner_);
}

std::size_t
PsResource::purge()
{
    advance();
    std::size_t dropped = heap.size();
    for (const Job &job : heap) {
        doneSlots[job.doneSlot].reset();
        doneFree.push_back(job.doneSlot);
    }
    heap.clear();
    if (completionEvent) {
        eq.cancel(completionEvent);
        completionEvent = 0;
    }
    return dropped;
}

void
PsResource::setCapacity(double capacity)
{
    WSC_ASSERT(capacity > 0.0, "PS resource capacity must be positive");
    // Bank progress at the old rate, then let the remaining work of
    // every active job proceed at the new one.
    advance();
    cap = capacity;
    reschedule();
}

void
PsResource::submit(double work, Completion done)
{
    WSC_ASSERT(work >= 0.0, "negative work submitted to " << name_);
    WSC_ASSERT(done, "null completion for " << name_);
    advance();
    std::uint32_t slot;
    if (!doneFree.empty()) {
        slot = doneFree.back();
        doneFree.pop_back();
        doneSlots[slot] = std::move(done);
    } else {
        slot = std::uint32_t(doneSlots.size());
        doneSlots.push_back(std::move(done));
    }
    heap.push_back(Job{progress + work, nextSeq++, slot});
    std::push_heap(heap.begin(), heap.end(), LaterFinish{});
    if (heap.size() > peakDepth)
        peakDepth = heap.size();
    reschedule();
}

void
PsResource::onCompletion()
{
    completionEvent = 0;
    advance();
    // Collect finished jobs first: their callbacks may resubmit into
    // this resource, so restore invariants before invoking any of
    // them. The scratch buffer is a member (capacity retained) so the
    // steady state performs no allocation; completions cannot re-enter
    // onCompletion synchronously, so it is free for the taking here.
    finishedScratch.clear();
    auto pop_top = [&] {
        std::pop_heap(heap.begin(), heap.end(), LaterFinish{});
        std::uint32_t slot = heap.back().doneSlot;
        finishedScratch.push_back(std::move(doneSlots[slot]));
        doneFree.push_back(slot);
        heap.pop_back();
        ++completed_;
    };
    while (!heap.empty() &&
           heap.front().finishMark - progress <= workEpsilon(progress)) {
        pop_top();
    }
    if (finishedScratch.empty() && !heap.empty()) {
        // Defensive guard against a zero-progress spin: if the head
        // job's remaining service cannot advance the event clock by
        // even one representable tick, it is FP residue - retire it.
        double remaining = heap.front().finishMark - progress;
        double dt = remaining / perJobRate(heap.size());
        if (eq.now() + dt == eq.now())
            pop_top();
    }
    reschedule();
    for (std::size_t i = 0; i < finishedScratch.size(); ++i)
        finishedScratch[i]();
}

double
PsResource::utilization() const
{
    Time now = eq.now();
    double span = now - createdAt;
    if (span <= 0.0)
        return 0.0;
    double integral = busyIntegral;
    // Account for the in-progress interval since the last update.
    double dt = now - lastUpdate;
    if (dt > 0.0 && !heap.empty()) {
        double used = perJobRate(heap.size()) * double(heap.size());
        integral += (used / cap) * dt;
    }
    return integral / span;
}

StationStats
PsResource::stats() const
{
    StationStats s;
    s.name = name_;
    s.utilization = utilization();
    s.completed = completed_;
    s.peakDepth = peakDepth;
    Time now = eq.now();
    double span = now - createdAt;
    if (span > 0.0) {
        double integral = depthIntegral;
        double dt = now - lastUpdate;
        if (dt > 0.0)
            integral += double(heap.size()) * dt;
        s.meanDepth = integral / span;
    }
    return s;
}

FifoResource::FifoResource(EventQueue &eq, std::string name,
                           unsigned servers, std::uint64_t owner)
    : eq(eq), name_(std::move(name)), servers(servers), owner_(owner),
      lastUpdate(eq.now()), createdAt(eq.now())
{
    WSC_ASSERT(servers >= 1, "FIFO resource needs at least one server");
    laneEvent.assign(servers, 0);
    laneDone.resize(servers);
    for (unsigned lane = servers; lane > 0; --lane)
        freeLanes.push_back(lane - 1);
}

void
FifoResource::accumulate()
{
    Time now = eq.now();
    double dt = now - lastUpdate;
    if (dt > 0.0) {
        busyIntegral += dt * double(busy) / double(servers);
        depthIntegral += dt * double(busy + queue.size());
    }
    lastUpdate = now;
}

void
FifoResource::startService(Pending p)
{
    accumulate();
    ++busy;
    WSC_ASSERT(!freeLanes.empty(), "no free lane in " << name_);
    unsigned lane = freeLanes.back();
    freeLanes.pop_back();
    // The completion parks in the lane's slot and the event closure
    // captures only {this, lane}: the seed code's shared_ptr
    // indirection (and its allocation) is gone, and the closure stays
    // far inside InlineAction's inline storage.
    laneDone[lane] = std::move(p.done);
    laneEvent[lane] = eq.scheduleAfter(
        p.serviceTime,
        [this, lane] {
            accumulate();
            --busy;
            ++completed_;
            laneEvent[lane] = 0;
            Completion done = std::move(laneDone[lane]);
            freeLanes.push_back(lane);
            // Start the next queued request before running the callback
            // so a resubmitting callback queues behind existing work.
            if (!queue.empty()) {
                Pending next = std::move(queue.front());
                queue.pop_front();
                startService(std::move(next));
            }
            done();
        },
        owner_);
}

std::size_t
FifoResource::purge()
{
    accumulate();
    std::size_t dropped = queue.size() + busy;
    queue.clear();
    for (unsigned lane = 0; lane < servers; ++lane) {
        if (laneEvent[lane]) {
            eq.cancel(laneEvent[lane]);
            laneEvent[lane] = 0;
            laneDone[lane].reset();
            freeLanes.push_back(lane);
        }
    }
    busy = 0;
    return dropped;
}

void
FifoResource::submit(double service_time, Completion done)
{
    WSC_ASSERT(service_time >= 0.0,
               "negative service time submitted to " << name_);
    WSC_ASSERT(done, "null completion for " << name_);
    if (busy < servers) {
        startService(Pending{service_time, std::move(done)});
    } else {
        queue.push_back(Pending{service_time, std::move(done)});
    }
    if (busy + queue.size() > peakDepth)
        peakDepth = busy + queue.size();
}

double
FifoResource::utilization() const
{
    Time now = eq.now();
    double span = now - createdAt;
    if (span <= 0.0)
        return 0.0;
    double integral =
        busyIntegral + (now - lastUpdate) * double(busy) / double(servers);
    return integral / span;
}

StationStats
FifoResource::stats() const
{
    StationStats s;
    s.name = name_;
    s.utilization = utilization();
    s.completed = completed_;
    s.peakDepth = peakDepth;
    Time now = eq.now();
    double span = now - createdAt;
    if (span > 0.0) {
        double integral = depthIntegral +
                          (now - lastUpdate) * double(busy + queue.size());
        s.meanDepth = integral / span;
    }
    return s;
}

} // namespace sim
} // namespace wsc
