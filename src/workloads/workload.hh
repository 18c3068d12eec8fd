/**
 * @file
 * Workload abstractions for the warehouse-computing benchmark suite.
 *
 * The suite (paper Table 1) contains three interactive services
 * measured in sustainable requests-per-second under a QoS constraint
 * (websearch, webmail, ytube) and one batch workload measured in
 * execution time (mapreduce, in -wc and -wr flavors).
 *
 * A request is described by its resource demands; the server simulator
 * turns demands into latency through queueing at the platform's CPU,
 * disk, and NIC stations.
 */

#ifndef WSC_WORKLOADS_WORKLOAD_HH
#define WSC_WORKLOADS_WORKLOAD_HH

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "util/random.hh"

namespace wsc {
namespace workloads {

/**
 * Resource demands of a single request.
 *
 * CPU work is in GHz-seconds (cycles / 1e9) of a reference
 * out-of-order core; the platform calibration converts a platform's
 * cores into an aggregate GHz-equivalent capacity.
 */
struct ServiceDemand {
    double cpuWork = 0.0;       //!< GHz-seconds
    double diskReadBytes = 0.0; //!< bytes read if the page cache misses
    double diskWriteBytes = 0.0;
    double netBytes = 0.0;      //!< response + backend traffic bytes
    /**
     * Expected number of disk read/write operations (access charges).
     * Only meaningful on meanDemand() results, where ops can be
     * fractional; per-request demands encode ops implicitly (an op
     * happens iff the corresponding byte count is positive).
     */
    double diskReadOps = 0.0;
    double diskWriteOps = 0.0;
};

/** QoS specification: a latency bound at a quantile. */
struct QosSpec {
    double quantile = 0.95;    //!< fraction of requests bounded
    double latencyLimit = 0.5; //!< seconds
};

/**
 * Uniform sources for batched demand generation (fast-mode only).
 *
 * Batch overrides split their draws by cost profile: bulk guide-table
 * uniforms come from the counter-based `fast` engine (same law as
 * Rng::uniform on the 53-bit grid, about 2.5x cheaper, not
 * bit-identical), while shaping draws that go through std::
 * distributions (lognormal multipliers) stay on the mt19937-backed
 * `rng`. Both children hang off the parent's construction seed via
 * Rng::stream, so a fast-mode run is fully determined by its seed
 * even though its draws differ from the exact path's — the relaxation
 * sim/fast_mode.hh's statistical-equivalence gate covers.
 */
struct BatchStream {
    Rng rng;         //!< shaping draws (std:: distributions)
    SplitMix64 fast; //!< bulk guide-table uniforms

    explicit BatchStream(const Rng &parent)
        : rng(parent.stream("fast-mode", "demand")),
          fast(parent.stream("fast-mode", "uniforms").seed())
    {
    }
};

/**
 * Per-workload calibration traits consumed by the performance model.
 *
 * cacheBeta and cpuScalingGamma encode how the workload's throughput
 * responds to last-level cache capacity and to raw CPU capability;
 * they are fitted against the paper's published relative performance
 * (Figure 2c) and documented in perfsim/calibration.hh.
 */
struct WorkloadTraits {
    /** Sensitivity of per-core perf to L2 size: (l2/8MB)^beta. */
    double cacheBeta = 0.05;
    /**
     * Software-scaling exponent: effective capability is
     * srvr1_cap * (raw/raw_srvr1)^gamma. gamma < 1 models software
     * bottlenecks that flatten hardware differences; gamma > 1 models
     * workloads that punish weak platforms super-linearly.
     */
    double cpuScalingGamma = 1.0;
    /** In-order cores deliver this fraction of an OoO core's IPC. */
    double inorderIpcFactor = 0.6;
    /** Fraction of disk reads absorbed by the page cache. */
    double diskCacheHitRate = 0.0;
    /**
     * Streaming workloads pace delivery per connection; aggregate NIC
     * delivery is capped at this many MB/s regardless of link speed
     * (0 = uncapped). Models the paper's ytube streaming QoS.
     */
    double streamPacingCapMBs = 0.0;
};

/** Kind discriminator for the two measurement styles. */
enum class WorkloadKind {
    Interactive, //!< sustainable RPS under QoS
    Batch        //!< fixed job, execution time
};

/** Base class: common identity and calibration traits. */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual std::string name() const = 0;
    virtual WorkloadKind kind() const = 0;
    virtual WorkloadTraits traits() const = 0;
};

/** Interactive service: a stream of requests with a QoS target. */
class InteractiveWorkload : public Workload
{
  public:
    WorkloadKind kind() const override { return WorkloadKind::Interactive; }

    /** The QoS constraint from Table 1. */
    virtual QosSpec qos() const = 0;

    /** Draw the demands of the next request. */
    virtual ServiceDemand nextRequest(Rng &rng) = 0;

    /**
     * Draw @p n requests' demands into @p out in one call.
     *
     * The default is the scalar loop over the stream's Rng, so every
     * workload supports the batch interface with unchanged per-request
     * semantics. Generators with guide-table draws override this with
     * structure-of-arrays generation (all counts, then all table
     * lookups, then all shaping multipliers) so sim::SampleBatcher can
     * overlap the lookups' cache misses across requests, sourcing the
     * bulk uniforms from the stream's fast engine. Overrides must
     * preserve the per-request joint demand distribution; they need
     * not preserve the exact path's draw order or bit patterns, which
     * is why only fast mode (sim/fast_mode.hh) calls this.
     */
    virtual void
    nextRequestBatch(BatchStream &s, ServiceDemand *out, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = nextRequest(s.rng);
    }

    /** Mean demands (for capacity estimation; exact where possible). */
    virtual ServiceDemand meanDemand() const = 0;
};

/** One task of a batch job. */
struct BatchTask {
    double cpuWork = 0.0;       //!< GHz-seconds
    double diskReadBytes = 0.0;
    double diskWriteBytes = 0.0;
    bool isReduce = false;      //!< reduce tasks wait for all maps
};

/** Batch job: a MapReduce-style task graph. */
class BatchWorkload : public Workload
{
  public:
    WorkloadKind kind() const override { return WorkloadKind::Batch; }

    /** Materialize the job's tasks (maps first, then reduces). */
    virtual std::vector<BatchTask> tasks(Rng &rng) const = 0;

    /** Worker threads Hadoop runs per core (paper: 4 per CPU). */
    virtual unsigned threadsPerCore() const { return 4; }
};

} // namespace workloads
} // namespace wsc

#endif // WSC_WORKLOADS_WORKLOAD_HH
