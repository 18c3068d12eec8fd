#include "faults/availability_sim.hh"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "util/hash.hh"
#include "util/logging.hh"

namespace wsc {
namespace faults {

namespace {

/** One server's stations plus routing state. */
struct Node {
    std::unique_ptr<sim::PsResource> cpu;
    std::unique_ptr<sim::FifoResource> disk;
    std::unique_ptr<sim::PsResource> nic;
    std::size_t inFlight = 0;
    bool up = true;
};

/** Client-side state of one logical request across its attempts. */
struct Req {
    double firstIssue = 0.0;
    unsigned attempts = 0;
    bool resolved = false; //!< completed or given up
    sim::EventId timeoutEv = 0;
    // Demands drawn once at first issue; retries resend the same work
    // (no extra RNG draws, so fault timing never perturbs the stream).
    perfsim::StationWork work;
};

} // namespace

AvailabilityResult
simulateAvailability(workloads::InteractiveWorkload &workload,
                     const perfsim::StationConfig &st,
                     const AvailabilityParams &params)
{
    WSC_ASSERT(params.servers >= 1, "empty cluster");
    WSC_ASSERT(params.offeredRps > 0.0, "offered load must be positive");
    WSC_ASSERT(params.epochSeconds > 0.0, "epoch must be positive");

    AvailabilityResult result;
    std::uint64_t epochs = std::uint64_t(
        std::floor(params.horizonSeconds / params.epochSeconds + 1e-9));
    WSC_ASSERT(epochs >= 1, "horizon shorter than one epoch");
    double horizon = double(epochs) * params.epochSeconds;
    result.offeredRps = params.offeredRps;
    result.horizonSeconds = horizon;
    result.epochsTotal = epochs;

    sim::EventQueue eq;
    FaultInjector injector(eq, params.injector, params.servers);

    std::vector<Node> nodes(params.servers);
    for (unsigned i = 0; i < params.servers; ++i) {
        // Owner-tag each server's events with its (1-based) id so a
        // crash can retire them in bulk; client timers stay untagged
        // and survive the crash to drive retries.
        std::uint64_t tag = i + 1;
        auto suffix = std::to_string(i);
        nodes[i].cpu = std::make_unique<sim::PsResource>(
            eq, "cpu" + suffix, st.cpuCapacityGHz, st.cpuSlots, tag);
        nodes[i].disk = std::make_unique<sim::FifoResource>(
            eq, "disk" + suffix, 1, tag);
        nodes[i].nic = std::make_unique<sim::PsResource>(
            eq, "nic" + suffix, st.nicMBs, 1, tag);
    }

    injector.onServerDown([&](unsigned s, Component) {
        Node &n = nodes[s];
        n.up = false;
        // Crash semantics: all held work is lost.
        n.cpu->purge();
        n.disk->purge();
        n.nic->purge();
        n.inFlight = 0;
    });
    injector.onServerUp([&](unsigned s) { nodes[s].up = true; });
    injector.onServerThrottle([&](unsigned s, double factor) {
        nodes[s].cpu->setCapacity(st.cpuCapacityGHz * factor);
    });

    auto qos = workload.qos();
    double timeout = qos.latencyLimit * params.timeoutFactor;
    Rng loadRng(seedFor(params.seed, "avail-load"));

    // Per-epoch QoS accounting.
    std::uint64_t epochOffered = 0, epochResolved = 0, epochBad = 0;
    std::uint64_t okRunEpochs = 0;
    bool inViolation = false;
    double okTimeSum = 0.0;
    std::uint64_t violationEpisodes = 0;

    auto pick = [&]() -> Node * {
        Node *best = nullptr;
        for (Node &n : nodes) {
            if (!n.up)
                continue;
            if (!best || n.inFlight < best->inFlight)
                best = &n; // ties keep the lowest index: deterministic
        }
        return best;
    };

    // issue() sends one attempt; timeout/retry feed back into it.
    std::function<void(std::shared_ptr<Req>)> issue;

    auto abandon = [&](const std::shared_ptr<Req> &req) {
        if (req->attempts <= params.maxRetries) {
            ++result.retries;
            double backoff = params.backoffSeconds *
                             std::pow(2.0, double(req->attempts - 1));
            eq.scheduleAfter(backoff, [&issue, req] { issue(req); });
        } else {
            ++result.giveups;
            req->resolved = true;
            ++epochResolved;
            ++epochBad;
        }
    };

    issue = [&](std::shared_ptr<Req> req) {
        Node *node = pick();
        if (!node) {
            // Whole cluster down: connection refused, client retries.
            ++req->attempts;
            ++result.timeouts;
            abandon(req);
            return;
        }
        ++req->attempts;
        ++node->inFlight;
        unsigned attempt = req->attempts;

        auto finish = [&, req, attempt, node] {
            --node->inFlight;
            if (req->resolved || attempt != req->attempts) {
                // Client already gave up or moved to another attempt.
                ++result.lateCompletions;
                return;
            }
            req->resolved = true;
            if (req->timeoutEv) {
                eq.cancel(req->timeoutEv);
                req->timeoutEv = 0;
            }
            double latency = eq.now() - req->firstIssue;
            ++result.completions;
            ++epochResolved;
            if (latency >= qos.latencyLimit) {
                ++result.qosViolations;
                ++epochBad;
            }
        };
        auto netStage = [&, req, finish, node] {
            if (req->work.netMb > 0.0)
                node->nic->submit(req->work.netMb, finish);
            else
                finish();
        };
        auto diskStage = [&, req, netStage, node] {
            if (req->work.diskService > 0.0)
                node->disk->submit(req->work.diskService, netStage);
            else
                netStage();
        };
        node->cpu->submit(req->work.cpuWork, diskStage);

        req->timeoutEv = eq.scheduleAfter(timeout, [&, req] {
            req->timeoutEv = 0;
            if (req->resolved)
                return;
            ++result.timeouts;
            abandon(req);
        });
    };

    std::function<void()> arrive = [&] {
        double now = eq.now();
        if (now >= horizon)
            return;
        ++result.offered;
        ++epochOffered;
        auto req = std::make_shared<Req>();
        req->firstIssue = now;
        auto demand = workload.nextRequest(loadRng);
        req->work = perfsim::stationWork(demand, st, loadRng);
        issue(req);
        eq.scheduleAfter(loadRng.exponential(1.0 / params.offeredRps),
                         arrive);
    };
    eq.scheduleAfter(loadRng.exponential(1.0 / params.offeredRps), arrive);

    auto epochPasses = [&]() -> bool {
        if (epochResolved == 0)
            return epochOffered == 0; // vacuous only with no demand
        return double(epochBad) <=
               (1.0 - qos.quantile) * double(epochResolved);
    };
    std::function<void()> epochBoundary = [&] {
        if (epochPasses()) {
            ++result.epochsPassed;
            ++okRunEpochs;
            inViolation = false;
        } else {
            if (!inViolation) {
                ++violationEpisodes;
                okTimeSum += double(okRunEpochs) * params.epochSeconds;
                okRunEpochs = 0;
            }
            inViolation = true;
        }
        epochOffered = epochResolved = epochBad = 0;
        if (eq.now() + params.epochSeconds <= horizon + 1e-9)
            eq.scheduleAfter(params.epochSeconds, epochBoundary);
    };
    eq.scheduleAfter(params.epochSeconds, epochBoundary);

    injector.start();
    eq.run(horizon);
    injector.finalize();

    result.availability =
        double(result.epochsPassed) / double(result.epochsTotal);
    std::uint64_t good = result.completions - result.qosViolations;
    result.goodputRps = double(good) / horizon;
    result.goodputFraction =
        result.offered ? double(good) / double(result.offered) : 0.0;
    result.meanTimeToQosViolationSeconds =
        violationEpisodes ? okTimeSum / double(violationEpisodes)
                          : horizon;
    result.serverDownFraction = injector.stats().serverDownSeconds /
                                (horizon * double(params.servers));
    result.serverDegradedFraction =
        injector.stats().serverDegradedSeconds /
        (horizon * double(params.servers));
    result.faults = injector.stats();
    result.kernel = eq.counters();
    return result;
}

} // namespace faults
} // namespace wsc
