/**
 * @file
 * Pooled closed-loop driver.
 *
 * The request state machine lives in a RequestArena instead of the
 * oracle's nested heap-allocated lambda chains: each in-flight request
 * owns one free-listed slot, resource completions are InlineActions
 * capturing a {driver pointer, handle} pair (plus, on the timeout
 * path, the attempt number and demand values needed to keep routing a
 * superseded attempt's stages exactly as the oracle does), and every
 * stage completes into one advance() dispatcher. Late completions of
 * abandoned requests are detected by the handle's failed generation
 * check — the pooled equivalent of the oracle's kept-alive ReqCtl.
 *
 * The contract, enforced by tests and bench_closed_loop, is
 * bit-identity with runClosedLoopOracle (closed_loop_oracle.cc): the
 * same RNG draw order, the same schedule/cancel sequence, and
 * therefore byte-identical ClosedLoopResults — while the steady-state
 * hot path performs zero per-request heap allocations (every capture
 * fits InlineAction's inline storage; see test_alloc_free.cc).
 */

#include "perfsim/closed_loop.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "perfsim/fast_demand.hh"
#include "perfsim/request_arena.hh"
#include "stats/percentile.hh"
#include "util/logging.hh"

namespace wsc {
namespace perfsim {

namespace {

/**
 * Pooled per-request state. Demand fields are immutable after issue;
 * attempts/timeoutEv mutate only on the timeout path. 48 bytes, so an
 * epoch's worth of in-flight requests stays cache-resident.
 */
struct Request {
    double issued = 0.0;      //!< first issue time (latency baseline)
    double cpuWork = 0.0;
    double diskService = 0.0;
    double netMb = 0.0;
    unsigned attempts = 0;    //!< current attempt number (timed path)
    sim::EventId timeoutEv = 0;
};

/** Pipeline stage that just completed. */
enum class Stage : unsigned { Cpu, Disk, Net };

/** Shared mutable state for the client population and epoch stats. */
struct DriverState {
    sim::EventQueue eq;
    std::unique_ptr<sim::PsResource> cpu;
    std::unique_ptr<sim::FifoResource> disk;
    std::unique_ptr<sim::PsResource> nic;
    workloads::InteractiveWorkload *workload = nullptr;
    const StationConfig *st = nullptr;
    Rng *rng = nullptr;
    double thinkMean = 1.0;
    unsigned targetClients = 0;
    unsigned liveClients = 0;
    RequestArena<Request> arena;
    // Epoch accounting.
    std::uint64_t epochCompleted = 0;
    std::uint64_t epochViolations = 0;
    std::uint64_t epochGiveups = 0;
    stats::PercentileTracker epochLatencies;
    double qosLimit = 0.0;
    // Degraded-mode protocol (timer disabled when timeout <= 0).
    double requestTimeout = 0.0;
    unsigned maxRetries = 0;
    double retryBackoff = 0.0;
    std::uint64_t timeouts = 0;
    std::uint64_t retries = 0;
    std::uint64_t giveups = 0;
    std::uint64_t lateCompletions = 0;
    /** Fast mode: batched demands off a dedicated stream (inert when
     * disabled, leaving the exact path's draw sequence untouched). */
    FastDemandSource fastDemands;
    // Latency retention for the statistical-equivalence gate.
    bool collectSamples = false;
    std::vector<double> latencySamples;
};

void clientLoop(DriverState &s);
void beginRequest(DriverState &s);
void advance(DriverState &s, RequestHandle h, Stage done);
void issueAttempt(DriverState &s, RequestHandle h);
void timedAdvance(DriverState &s, RequestHandle h, unsigned attempt,
                  double issued, double diskService, double netMb,
                  Stage done);
void onTimeout(DriverState &s, RequestHandle h);

/**
 * One client's think-request loop; stops when over the target.
 *
 * The retire check re-reads the target after the decrement: if a
 * regrowth raced the retirement (target moved past us between the
 * comparison and the decrement), the client stays alive instead of
 * leaving the population one short until the next spawn pass. Under
 * the current single-threaded epoch loop the re-check never fires —
 * bit-identity with the oracle is preserved — but it makes the loop
 * safe against mid-epoch regrowth paths.
 */
void
clientLoop(DriverState &s)
{
    if (s.liveClients > s.targetClients) {
        // Population shrank: this client retires.
        --s.liveClients;
        if (s.liveClients >= s.targetClients)
            return;
        ++s.liveClients; // target regrew past us: stay in the loop
    }
    double think = s.rng->exponential(s.thinkMean);
    s.eq.scheduleAfter(think, [sp = &s] { beginRequest(*sp); });
}

/** Think time elapsed: draw demand, claim a slot, enter the pipeline. */
void
beginRequest(DriverState &s)
{
    // Exact mode: RNG draw order matches the oracle exactly —
    // nextRequest, then the conditional cache-hit bernoulli. Fast
    // mode swaps only the demand source; think times and the
    // bernoulli still come from the main engine in the same order.
    double issued = s.eq.now();
    auto demand = s.fastDemands.enabled()
                      ? s.fastDemands.draw(*s.workload)
                      : s.workload->nextRequest(*s.rng);
    StationWork work = stationWork(demand, *s.st, *s.rng);

    RequestHandle h = s.arena.acquire();
    Request &r = s.arena.get(h);
    r.issued = issued;
    r.cpuWork = work.cpuWork;
    r.diskService = work.diskService;
    r.netMb = work.netMb;

    if (s.requestTimeout <= 0.0) {
        // Classic driver: the handle is always live when a stage
        // completes, so continuations carry only {driver, handle}.
        s.cpu->submit(work.cpuWork,
                      [sp = &s, h] { advance(*sp, h, Stage::Cpu); });
        return;
    }
    issueAttempt(s, h);
}

/**
 * Classic-path dispatcher: a completed stage either submits the next
 * resource or, with zero demand, falls through to the next stage
 * synchronously — the same chaining the oracle's disk_stage/net_stage
 * closures perform.
 */
void
advance(DriverState &s, RequestHandle h, Stage done)
{
    Request &r = s.arena.get(h);
    switch (done) {
      case Stage::Cpu:
        if (r.diskService > 0.0) {
            s.disk->submit(r.diskService, [sp = &s, h] {
                advance(*sp, h, Stage::Disk);
            });
            return;
        }
        [[fallthrough]];
      case Stage::Disk:
        if (r.netMb > 0.0) {
            s.nic->submit(r.netMb, [sp = &s, h] {
                advance(*sp, h, Stage::Net);
            });
            return;
        }
        [[fallthrough]];
      case Stage::Net: {
        // Respond: account, release the slot, go back to thinking.
        double latency = s.eq.now() - r.issued;
        ++s.epochCompleted;
        s.epochLatencies.add(latency);
        if (s.collectSamples)
            s.latencySamples.push_back(latency);
        // Strict QoS boundary: latency == limit violates.
        if (latency >= s.qosLimit)
            ++s.epochViolations;
        s.arena.release(h);
        clientLoop(s);
        break;
      }
    }
}

/** (Re)issue the request's work and arm the abandonment timer. */
void
issueAttempt(DriverState &s, RequestHandle h)
{
    Request &r = s.arena.get(h);
    ++r.attempts;
    unsigned attempt = r.attempts;
    // Stage continuations carry the demand values: a superseded
    // attempt keeps flowing through disk/nic exactly like the
    // oracle's closures do, even after the slot is released (or
    // re-let to another request).
    double issued = r.issued;
    double diskService = r.diskService;
    double netMb = r.netMb;
    s.cpu->submit(r.cpuWork,
                  [sp = &s, h, attempt, issued, diskService, netMb] {
                      timedAdvance(*sp, h, attempt, issued,
                                   diskService, netMb, Stage::Cpu);
                  });
    r.timeoutEv = s.eq.scheduleAfter(
        s.requestTimeout, [sp = &s, h] { onTimeout(*sp, h); });
}

/**
 * Timed-path dispatcher. Intermediate stages never consult the slot
 * (the oracle routes superseded attempts through disk/nic without
 * checking either); only the final respond checks the handle and the
 * attempt stamp, counting a failed check as a late completion.
 */
void
timedAdvance(DriverState &s, RequestHandle h, unsigned attempt,
             double issued, double diskService, double netMb,
             Stage done)
{
    switch (done) {
      case Stage::Cpu:
        if (diskService > 0.0) {
            s.disk->submit(diskService,
                           [sp = &s, h, attempt, issued, netMb] {
                               timedAdvance(*sp, h, attempt, issued,
                                            0.0, netMb, Stage::Disk);
                           });
            return;
        }
        [[fallthrough]];
      case Stage::Disk:
        if (netMb > 0.0) {
            s.nic->submit(netMb, [sp = &s, h, attempt, issued] {
                timedAdvance(*sp, h, attempt, issued, 0.0, 0.0,
                             Stage::Net);
            });
            return;
        }
        [[fallthrough]];
      case Stage::Net: {
        Request *r = s.arena.find(h);
        if (!r || attempt != r->attempts) {
            // Answer for an abandoned or superseded attempt: the slot
            // was released (generation mismatch) or re-armed with a
            // newer attempt. The oracle's ReqCtl resolved/attempts
            // check, without the control block.
            ++s.lateCompletions;
            return;
        }
        if (r->timeoutEv) {
            s.eq.cancel(r->timeoutEv);
            r->timeoutEv = 0;
        }
        double latency = s.eq.now() - issued;
        ++s.epochCompleted;
        s.epochLatencies.add(latency);
        if (s.collectSamples)
            s.latencySamples.push_back(latency);
        if (latency >= s.qosLimit)
            ++s.epochViolations;
        s.arena.release(h);
        clientLoop(s);
        break;
      }
    }
}

/** Abandonment timer fired: retry with exponential backoff or give up. */
void
onTimeout(DriverState &s, RequestHandle h)
{
    Request *r = s.arena.find(h);
    if (!r)
        return; // resolved (resolution cancels the timer; defensive)
    r->timeoutEv = 0;
    ++s.timeouts;
    if (r->attempts <= s.maxRetries) {
        ++s.retries;
        double backoff =
            s.retryBackoff * std::pow(2.0, double(r->attempts - 1));
        // The timed-out attempt can still complete during the backoff
        // window and resolve the request; the resulting release makes
        // the handle stale, so the reissue check is one validity test
        // (the oracle's `if (ctl->reissue)`).
        s.eq.scheduleAfter(backoff, [sp = &s, h] {
            if (sp->arena.valid(h))
                issueAttempt(*sp, h);
        });
    } else {
        ++s.giveups;
        ++s.epochGiveups;
        s.arena.release(h);
        clientLoop(s);
    }
}

} // namespace

ClosedLoopResult
runClosedLoop(workloads::InteractiveWorkload &workload,
              const StationConfig &stations,
              const ClosedLoopParams &params, Rng &rng)
{
    WSC_ASSERT(params.initialClients >= 1, "need at least one client");
    WSC_ASSERT(params.epochSeconds > 0.0, "epoch must be positive");
    WSC_ASSERT(params.growFactor > 1.0, "grow factor must exceed 1");
    WSC_ASSERT(params.shrinkFactor > 0.0 && params.shrinkFactor < 1.0,
               "shrink factor must be in (0, 1)");

    DriverState s;
    s.cpu = std::make_unique<sim::PsResource>(
        s.eq, "cpu", stations.cpuCapacityGHz, stations.cpuSlots);
    s.disk = std::make_unique<sim::FifoResource>(s.eq, "disk", 1);
    s.nic = std::make_unique<sim::PsResource>(s.eq, "nic",
                                              stations.nicMBs, 1);
    s.workload = &workload;
    s.st = &stations;
    s.rng = &rng;
    s.thinkMean = params.thinkTimeMean;
    auto qos = workload.qos();
    s.qosLimit = qos.latencyLimit;
    s.targetClients = params.initialClients;
    s.requestTimeout = params.requestTimeoutSeconds;
    s.maxRetries = params.maxRetries;
    s.retryBackoff = params.retryBackoffSeconds;
    s.fastDemands.configure(params.fastMode, rng);
    s.collectSamples = params.collectLatencySamples;
    s.arena.reserve(std::min<std::size_t>(params.initialClients, 4096));
    s.eq.reserve(std::min<std::size_t>(2 * params.initialClients, 8192));

    auto spawn_to_target = [&] {
        while (s.liveClients < s.targetClients) {
            ++s.liveClients;
            clientLoop(s);
        }
    };
    spawn_to_target();

    ClosedLoopResult result;
    result.epochRps.reserve(params.epochs);
    result.epochPassed.reserve(params.epochs);
    result.epochCompleted.reserve(params.epochs);
    result.epochViolations.reserve(params.epochs);
    result.epochGiveups.reserve(params.epochs);
    result.epochP95.reserve(params.epochs);
    for (unsigned epoch = 0; epoch < params.epochs; ++epoch) {
        std::uint64_t lastCompleted = s.epochCompleted;
        s.epochCompleted = 0;
        s.epochViolations = 0;
        s.epochGiveups = 0;
        s.epochLatencies.clear();
        // Presize from the previous epoch: growth is bounded by the
        // grow factor, so 2x + headroom keeps steady-state epochs
        // from reallocating the sample vector mid-measurement.
        s.epochLatencies.reserve(2 * std::size_t(lastCompleted) + 1024);
        double end = s.eq.now() + params.epochSeconds;
        s.eq.run(end);

        double rps = double(s.epochCompleted) / params.epochSeconds;
        // Give-ups count as violations among resolved requests; with
        // the timer off both terms are zero and the rule is classic.
        std::uint64_t resolved = s.epochCompleted + s.epochGiveups;
        bool passed =
            s.epochCompleted > 0 &&
            double(s.epochViolations + s.epochGiveups) <=
                (1.0 - qos.quantile) * double(resolved);
        result.epochRps.push_back(rps);
        result.epochPassed.push_back(passed);
        result.epochCompleted.push_back(s.epochCompleted);
        result.epochViolations.push_back(s.epochViolations);
        result.epochGiveups.push_back(s.epochGiveups);
        result.epochP95.push_back(s.epochLatencies.count()
                                      ? s.epochLatencies.quantile(0.95)
                                      : 0.0);

        if (passed) {
            if (rps > result.sustainedRps) {
                result.sustainedRps = rps;
                result.clientsAtBest = s.targetClients;
                result.p95AtBest = result.epochP95.back();
            }
            double grown =
                std::ceil(double(s.targetClients) * params.growFactor);
            s.targetClients = unsigned(
                std::min<double>(grown, params.maxClients));
            spawn_to_target();
        } else {
            s.targetClients = std::max(
                1u, unsigned(std::floor(double(s.targetClients) *
                                        params.shrinkFactor)));
            // Excess clients retire lazily after their next response.
        }
    }
    result.finalClients = s.targetClients;
    result.finalLiveClients = s.liveClients;
    result.timeouts = s.timeouts;
    result.retries = s.retries;
    result.giveups = s.giveups;
    result.lateCompletions = s.lateCompletions;
    result.kernel = s.eq.counters();
    result.latencySamples = std::move(s.latencySamples);
    return result;
}

} // namespace perfsim
} // namespace wsc
