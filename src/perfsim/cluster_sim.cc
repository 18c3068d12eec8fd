#include "perfsim/cluster_sim.hh"

#include <algorithm>

#include "perfsim/fast_demand.hh"
#include "perfsim/request_arena.hh"
#include "stats/percentile.hh"
#include "stats/summary.hh"
#include "util/hash.hh"
#include "util/logging.hh"

namespace wsc {
namespace perfsim {

std::string
to_string(DispatchPolicy p)
{
    switch (p) {
      case DispatchPolicy::RoundRobin:
        return "round-robin";
      case DispatchPolicy::Random:
        return "random";
      case DispatchPolicy::LeastOutstanding:
        return "least-outstanding";
      case DispatchPolicy::TwoChoices:
        return "two-choices";
    }
    panic("unknown dispatch policy");
}

namespace {

/** One server's stations plus dispatch bookkeeping. */
struct ServerNode {
    std::unique_ptr<sim::PsResource> cpu;
    std::unique_ptr<sim::FifoResource> disk;
    std::unique_ptr<sim::PsResource> nic;
    std::size_t inFlight = 0;
};

/**
 * Pooled per-request state: as in closed_loop.cc, one arena slot per
 * in-flight request carries the demand and the dispatch target, so the
 * continuations of the staged advance() dispatcher capture only
 * {simulation pointer, handle} and fit InlineAction's inline storage.
 */
struct OpenRequest {
    double arrival = 0.0;
    double diskService = 0.0;
    double netMb = 0.0;
    std::uint32_t nodeIdx = 0;
    bool measured = false;
};

enum class Stage : unsigned { Cpu, Disk, Net };

/** All run state the continuations need, behind one pointer. */
struct OpenLoopSim {
    workloads::InteractiveWorkload &workload;
    const StationConfig &st;
    const SimWindow &window;
    Rng &rng;
    unsigned servers;
    DispatchPolicy policy;
    double rps;
    double horizon;

    sim::EventQueue eq;
    std::vector<ServerNode> nodes;
    stats::PercentileTracker latencies;
    stats::Summary latencySummary;
    workloads::QosSpec qos;
    RequestArena<OpenRequest> arena;
    SimResult result;
    std::uint64_t violations = 0;
    std::size_t totalInFlight = 0;
    bool aborted = false;
    unsigned rrNext = 0;
    FastDemandSource fastDemands;

    OpenLoopSim(workloads::InteractiveWorkload &workload,
                const StationConfig &st, unsigned servers,
                DispatchPolicy policy, double rps,
                const SimWindow &window, Rng &rng)
        : workload(workload), st(st), window(window), rng(rng),
          servers(servers), policy(policy), rps(rps),
          horizon(window.warmupSeconds + window.measureSeconds),
          nodes(servers), qos(workload.qos())
    {
        // A lone server's stations keep their plain names: they reach
        // the report's bottleneck field.
        for (unsigned i = 0; i < servers; ++i) {
            auto tag = servers == 1 ? std::string() : std::to_string(i);
            nodes[i].cpu = std::make_unique<sim::PsResource>(
                eq, "cpu" + tag, st.cpuCapacityGHz, st.cpuSlots);
            nodes[i].disk = std::make_unique<sim::FifoResource>(
                eq, "disk" + tag, 1);
            nodes[i].nic = std::make_unique<sim::PsResource>(
                eq, "nic" + tag, st.nicMBs, 1);
        }
        fastDemands.configure(window.fastMode, rng);
    }

    std::uint32_t
    pick()
    {
        switch (policy) {
          case DispatchPolicy::RoundRobin: {
            unsigned n = rrNext;
            rrNext = (rrNext + 1) % servers;
            return n;
          }
          case DispatchPolicy::Random:
            return std::uint32_t(rng.uniformInt(0, servers - 1));
          case DispatchPolicy::LeastOutstanding: {
            std::size_t best = 0;
            for (std::size_t i = 1; i < nodes.size(); ++i)
                if (nodes[i].inFlight < nodes[best].inFlight)
                    best = i;
            return std::uint32_t(best);
          }
          case DispatchPolicy::TwoChoices: {
            auto a = std::uint32_t(rng.uniformInt(0, servers - 1));
            auto b = std::uint32_t(rng.uniformInt(0, servers - 1));
            if (nodes[b].inFlight < nodes[a].inFlight)
                return b;
            // Ties (including a == b) keep the first draw.
            return a;
          }
        }
        panic("unknown dispatch policy");
    }
};

void openAdvance(OpenLoopSim &s, RequestHandle h, Stage done);

/** Dispatch one request and enter the CPU stage. */
void
openLaunch(OpenLoopSim &s, double arrival, bool measured)
{
    std::uint32_t nodeIdx = s.pick();
    ServerNode &node = s.nodes[nodeIdx];
    ++node.inFlight;
    ++s.totalInFlight;
    if (s.totalInFlight > s.result.peakInFlight)
        s.result.peakInFlight = s.totalInFlight;
    auto demand = s.fastDemands.enabled()
                      ? s.fastDemands.draw(s.workload)
                      : s.workload.nextRequest(s.rng);
    StationWork work = stationWork(demand, s.st, s.rng);

    RequestHandle h = s.arena.acquire();
    OpenRequest &r = s.arena.get(h);
    r.arrival = arrival;
    r.diskService = work.diskService;
    r.netMb = work.netMb;
    r.nodeIdx = nodeIdx;
    r.measured = measured;

    node.cpu->submit(work.cpuWork,
                     [sp = &s, h] { openAdvance(*sp, h, Stage::Cpu); });
}

/** Staged dispatcher; zero-demand stages fall through synchronously. */
void
openAdvance(OpenLoopSim &s, RequestHandle h, Stage done)
{
    OpenRequest &r = s.arena.get(h);
    ServerNode &node = s.nodes[r.nodeIdx];
    switch (done) {
      case Stage::Cpu:
        if (r.diskService > 0.0) {
            node.disk->submit(r.diskService, [sp = &s, h] {
                openAdvance(*sp, h, Stage::Disk);
            });
            return;
        }
        [[fallthrough]];
      case Stage::Disk:
        if (r.netMb > 0.0) {
            node.nic->submit(r.netMb, [sp = &s, h] {
                openAdvance(*sp, h, Stage::Net);
            });
            return;
        }
        [[fallthrough]];
      case Stage::Net: {
        --node.inFlight;
        --s.totalInFlight;
        double latency = s.eq.now() - r.arrival;
        if (r.measured) {
            s.latencies.add(latency);
            s.latencySummary.add(latency);
            ++s.result.completed;
            // Strict QoS: the paper requires latency < limit, so
            // exactly-at-the-limit responses are violations.
            if (latency >= s.qos.latencyLimit)
                ++s.violations;
        }
        s.arena.release(h);
        break;
      }
    }
}

/** Poisson arrival process. */
void
openArrive(OpenLoopSim &s)
{
    if (s.aborted)
        return;
    if (s.totalInFlight > s.window.maxInFlight * s.servers) {
        s.aborted = true;
        return;
    }
    double now = s.eq.now();
    if (now < s.horizon) {
        bool measured = now >= s.window.warmupSeconds;
        if (measured)
            ++s.result.offered;
        openLaunch(s, now, measured);
        s.eq.scheduleAfter(s.rng.exponential(1.0 / s.rps),
                           [sp = &s] { openArrive(*sp); });
    }
}

} // namespace

SimResult
simulateCluster(workloads::InteractiveWorkload &workload,
                const StationConfig &st, unsigned servers,
                DispatchPolicy policy, double rps,
                const SimWindow &window, Rng &rng)
{
    WSC_ASSERT(servers >= 1, "empty cluster");
    WSC_ASSERT(rps > 0.0, "offered load must be positive");

    OpenLoopSim s(workload, st, servers, policy, rps, window, rng);
    if (window.tracer)
        s.eq.setTracer(window.tracer);
    s.result.offeredRps = rps;

    s.eq.scheduleAfter(rng.exponential(1.0 / rps),
                       [sp = &s] { openArrive(*sp); });

    // Run to the horizon, then drain a grace period so in-flight
    // requests can complete (or reveal saturation).
    s.eq.run(s.horizon);
    double grace = s.horizon + std::max(30.0, 5.0 * s.qos.latencyLimit);
    while (!s.eq.empty() && s.eq.now() < grace && !s.aborted)
        s.eq.step();

    SimResult result = std::move(s.result);
    result.saturated = s.aborted || s.totalInFlight > 0;
    if (s.latencies.count() > 0) {
        result.p50Latency = s.latencies.quantile(0.50);
        result.p95Latency = s.latencies.quantile(0.95);
        result.p99Latency = s.latencies.quantile(0.99);
        result.meanLatency = s.latencySummary.mean();
    }
    result.qosViolationFraction =
        result.offered ? double(s.violations) / double(result.offered)
                       : 0.0;

    for (auto &n : s.nodes) {
        double u = n.cpu->utilization();
        result.cpuUtilization += u;
        result.maxCpuUtilization = std::max(result.maxCpuUtilization, u);
        result.diskUtilization += n.disk->utilization();
        result.nicUtilization += n.nic->utilization();
        result.stations.push_back(n.cpu->stats());
        result.stations.push_back(n.disk->stats());
        result.stations.push_back(n.nic->stats());
    }
    result.cpuUtilization /= double(servers);
    result.diskUtilization /= double(servers);
    result.nicUtilization /= double(servers);
    result.kernel = s.eq.counters();
    return result;
}

ClusterScalingResult
measureClusterScaling(workloads::InteractiveWorkload &workload,
                      const StationConfig &st, unsigned servers,
                      DispatchPolicy policy, const SearchParams &params,
                      Rng &rng)
{
    // Guard before the (expensive) single-server search: with the
    // config default of servers = 0 the first probe would otherwise
    // divide by zero (RoundRobin) or underflow uniformInt's bounds
    // (Random) deep inside the run.
    WSC_ASSERT(servers >= 1, "empty cluster");

    ClusterScalingResult out;
    {
        Rng sub = rng.split();
        out.singleRps =
            findSustainableRps(workload, st, params, sub)
                .sustainableRps;
    }
    WSC_ASSERT(out.singleRps > 0.0, "single server sustains nothing");

    auto qos = workload.qos();
    auto probe = [&](double rps) {
        Rng sub = rng.split();
        return simulateCluster(workload, st, servers, policy, rps,
                               params.window, sub);
    };
    double hi = out.singleRps * double(servers) * 1.1;
    double lo = 0.0;
    // Bracket downward from the ideal aggregate.
    double cursor = hi;
    for (int i = 0; i < 8 && lo == 0.0; ++i) {
        cursor *= 0.8;
        if (probe(cursor).passes(qos))
            lo = cursor;
    }
    if (lo == 0.0) {
        out.clusterRps = 0.0;
        out.scalingEfficiency = 0.0;
        return out;
    }
    for (unsigned i = 0; i < params.iterations; ++i) {
        double mid = 0.5 * (lo + hi);
        if (probe(mid).passes(qos))
            lo = mid;
        else
            hi = mid;
    }
    out.clusterRps = lo;
    out.scalingEfficiency =
        out.clusterRps / (out.singleRps * double(servers));
    return out;
}

std::vector<ClusterSweepPoint>
sweepClusterScaling(workloads::Benchmark benchmark,
                    const StationConfig &stations,
                    const std::vector<unsigned> &serverCounts,
                    const std::vector<DispatchPolicy> &policies,
                    const SearchParams &params, std::uint64_t baseSeed,
                    ThreadPool *pool)
{
    std::vector<ClusterSweepPoint> out;
    for (unsigned servers : serverCounts)
        for (auto policy : policies)
            out.push_back({servers, policy, {}});

    parallelFor(
        out.size(),
        [&](std::size_t i) {
            auto workload = workloads::makeBenchmark(benchmark);
            auto *iw = dynamic_cast<workloads::InteractiveWorkload *>(
                workload.get());
            WSC_ASSERT(iw, "cluster sweep needs an interactive "
                           "workload: "
                               << workloads::to_string(benchmark));
            // Seed from the point's identity so the sweep decomposes
            // identically for any thread count.
            Rng rng(seedFor(baseSeed, "cluster-scaling",
                            std::uint64_t(benchmark),
                            std::uint64_t(out[i].servers),
                            std::uint64_t(out[i].policy)));
            out[i].result =
                measureClusterScaling(*iw, stations, out[i].servers,
                                      out[i].policy, params, rng);
        },
        pool);
    return out;
}

} // namespace perfsim
} // namespace wsc
