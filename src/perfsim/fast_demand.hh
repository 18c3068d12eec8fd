/**
 * @file
 * Block-refilled service-demand source for fast mode.
 *
 * Both request engines (closed_loop and the open-loop engine in
 * cluster_sim) draw one ServiceDemand per request from the run's Rng.
 * In fast mode demands instead come from this source: a
 * workloads::BatchStream of dedicated child streams (derived via
 * Rng::stream from the run seed, so the seed still fully determines
 * every draw) consumed a block at a time through
 * InteractiveWorkload::nextRequestBatch, which lets the workload
 * generate structure-of-arrays, overlap its guide-table cache misses
 * via sim::SampleBatcher, and source bulk uniforms from the cheap
 * SplitMix64 engine.
 *
 * These are exactly the relaxations the fast-mode contract
 * (sim/fast_mode.hh) declares: the per-request demand law is
 * unchanged, but demands no longer interleave with think-time /
 * arrival / cache-hit draws on one global sequence and the bulk
 * uniforms come from a different (same-law) generator, so results
 * are statistically — not bit- — equivalent to exact mode.
 */

#ifndef WSC_PERFSIM_FAST_DEMAND_HH
#define WSC_PERFSIM_FAST_DEMAND_HH

#include <cstddef>
#include <vector>

#include "sim/fast_mode.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "workloads/workload.hh"

namespace wsc {
namespace perfsim {

/** Pre-drawn demand buffer; inert until configured with fast mode on. */
class FastDemandSource
{
  public:
    /** Arm (or leave disabled) from the run's config and parent Rng. */
    void
    configure(const sim::FastModeConfig &cfg, const Rng &parent)
    {
        on = cfg.enabled;
        if (!on)
            return;
        WSC_ASSERT(cfg.demandBlock >= 1,
                   "fast-mode demand block must be at least 1");
        stream = workloads::BatchStream(parent);
        buf.resize(cfg.demandBlock);
        next = buf.size(); // force a refill on the first draw
    }

    bool enabled() const { return on; }

    /** Next pre-drawn demand; refills a whole block when empty. */
    const workloads::ServiceDemand &
    draw(workloads::InteractiveWorkload &workload)
    {
        if (next == buf.size()) {
            workload.nextRequestBatch(stream, buf.data(), buf.size());
            next = 0;
        }
        return buf[next++];
    }

  private:
    bool on = false;
    workloads::BatchStream stream{Rng(0)};
    std::vector<workloads::ServiceDemand> buf;
    std::size_t next = 0;
};

} // namespace perfsim
} // namespace wsc

#endif // WSC_PERFSIM_FAST_DEMAND_HH
