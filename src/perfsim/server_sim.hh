/**
 * @file
 * Request-level model of an interactive server: station capacities,
 * the demand-to-station-work rule, and the one-server open-loop run.
 *
 * A request visits three stations in series:
 *
 *   CPU (processor sharing over the cores)
 *     -> disk (FIFO; only on page-cache miss for reads)
 *     -> NIC (fair-shared link bandwidth)
 *
 * Station capacities come from the platform description and the
 * per-workload calibration (perfsim/calibration.hh). Latency is
 * arrival-to-response; sustainable throughput is determined by the
 * ThroughputFinder against the workload's QoS constraint. The open-loop
 * engine itself lives in cluster_sim.cc: a single server is the
 * one-server cluster run.
 */

#ifndef WSC_PERFSIM_SERVER_SIM_HH
#define WSC_PERFSIM_SERVER_SIM_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "platform/server_config.hh"
#include "sim/event_queue.hh"
#include "sim/fast_mode.hh"
#include "sim/resources.hh"
#include "stats/percentile.hh"
#include "stats/summary.hh"
#include "util/random.hh"
#include "workloads/workload.hh"

namespace wsc {
namespace perfsim {

/** Concrete station capacities for one (platform, workload) pair. */
struct StationConfig {
    double cpuCapacityGHz = 1.0; //!< effective aggregate capability
    unsigned cpuSlots = 1;       //!< cores (PS service slots)
    double nicMBs = 125.0;       //!< effective NIC delivery rate
    double diskReadMBs = 70.0;
    double diskWriteMBs = 47.0;
    double diskAccessMs = 4.0;
    double diskCacheHitRate = 0.0;
    /**
     * Uniform service-time stretch applied to CPU occupancy; used to
     * model two-level-memory slowdowns (memblade) without re-running
     * trace simulation inside the request model.
     */
    double serviceSlowdown = 1.0;
};

/**
 * Derive station capacities for a platform/workload pair using the
 * calibration model. @p ref is the reference CPU (srvr1).
 */
StationConfig makeStations(const platform::ServerConfig &server,
                           const platform::CpuModel &ref,
                           const workloads::WorkloadTraits &traits);

/** What one request asks of each station. */
struct StationWork {
    double cpuWork = 0.0;     //!< GHz-seconds, slowdown applied
    double diskService = 0.0; //!< seconds of disk service
    double netMb = 0.0;       //!< megabytes through the NIC
};

/**
 * Map a drawn @p demand onto the stations of @p st. A read misses the
 * page cache with probability 1 - diskCacheHitRate; that bernoulli is
 * drawn from @p rng only when the demand reads, so every request
 * engine keeps the draw order nextRequest, then the cache-hit test.
 */
StationWork stationWork(const workloads::ServiceDemand &demand,
                        const StationConfig &st, Rng &rng);

/** Result of one fixed-rate open-loop run of one or more servers. */
struct SimResult {
    double offeredRps = 0.0;
    std::uint64_t offered = 0;    //!< requests injected in measurement
    std::uint64_t completed = 0;  //!< completions in measurement window
    double p50Latency = 0.0;
    double p95Latency = 0.0;
    double p99Latency = 0.0;
    double meanLatency = 0.0;
    double qosViolationFraction = 0.0; //!< at or above the QoS limit
    /** Station utilizations, each the mean over servers. */
    double cpuUtilization = 0.0;
    double diskUtilization = 0.0;
    double nicUtilization = 0.0;
    /** Busiest server's CPU utilization (dispatch imbalance). */
    double maxCpuUtilization = 0.0;
    /** Run aborted on unbounded queue growth, or requests were still
     * in flight after the grace drain. */
    bool saturated = false;

    /** Peak requests simultaneously in the system. */
    std::size_t peakInFlight = 0;
    /** Per-station activity snapshots: cpu, disk, nic for one server;
     * cpuI, diskI, nicI per server I of a cluster, in server order. */
    std::vector<sim::StationStats> stations;
    /** DES kernel activity for this run. */
    sim::EventQueue::Counters kernel;

    /** Station with the highest utilization; empty if none. */
    std::string bottleneck() const;

    /** QoS pass under @p qos, including stability. */
    bool passes(const workloads::QosSpec &qos) const;
};

/** Measurement window parameters. */
struct SimWindow {
    double warmupSeconds = 10.0;
    double measureSeconds = 40.0;
    /** Abort threshold: in-flight requests signalling saturation. */
    std::size_t maxInFlight = 2000;
    /**
     * Optional kernel trace sink installed on each run's event queue
     * (wsc_eval --trace). Must be thread-safe when simulations fan out
     * over a pool. Null — the default — leaves tracing off and the
     * kernel hot path unaffected.
     */
    sim::EventQueue::Tracer tracer;
    /**
     * Versioned fast mode (sim/fast_mode.hh). Off by default, leaving
     * every run bit-identical to the seed behaviour. When enabled, the
     * open-loop engine sources demands from a dedicated batched
     * stream; results are statistically equivalent (gated by
     * stats/equivalence.hh) but not bit-identical. Rides
     * inside SearchParams, so it reaches the throughput search and
     * the wsc_eval sweeps without further plumbing.
     */
    sim::FastModeConfig fastMode;
};

/**
 * Run one open-loop (Poisson arrivals) simulation of an interactive
 * workload at @p rps on the given stations: simulateCluster with one
 * server under round-robin dispatch, which makes no dispatch draw.
 */
SimResult simulateInteractive(workloads::InteractiveWorkload &workload,
                              const StationConfig &stations,
                              double rps, const SimWindow &window,
                              Rng &rng);

} // namespace perfsim
} // namespace wsc

#endif // WSC_PERFSIM_SERVER_SIM_HH
