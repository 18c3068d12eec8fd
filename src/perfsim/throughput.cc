#include "perfsim/throughput.hh"

#include <algorithm>

#include "perfsim/calibration.hh"
#include "util/logging.hh"

namespace wsc {
namespace perfsim {

double
analyticBound(const workloads::InteractiveWorkload &workload,
              const StationConfig &st)
{
    auto mean = workload.meanDemand();
    double cpu_t = mean.cpuWork * st.serviceSlowdown / st.cpuCapacityGHz;
    double disk_t = 0.0;
    if (mean.diskReadBytes > 0.0) {
        // Mean miss cost; the access charge applies per read operation.
        disk_t += (1.0 - st.diskCacheHitRate) *
                  (st.diskAccessMs * 1e-3 * mean.diskReadOps +
                   mean.diskReadBytes / (st.diskReadMBs * 1e6));
    }
    if (mean.diskWriteBytes > 0.0) {
        disk_t += st.diskAccessMs * 1e-3 * writeAccessFactor *
                      mean.diskWriteOps +
                  mean.diskWriteBytes / (st.diskWriteMBs * 1e6);
    }
    double nic_t = mean.netBytes / (st.nicMBs * 1e6);
    double bottleneck = std::max({cpu_t, disk_t, nic_t});
    WSC_ASSERT(bottleneck > 0.0, "workload demands no resources");
    return 1.0 / bottleneck;
}

ThroughputResult
findSustainableRps(workloads::InteractiveWorkload &workload,
                   const StationConfig &st, const SearchParams &params,
                   Rng &rng)
{
    ThroughputResult out;
    out.analyticBoundRps = analyticBound(workload, st);
    auto qos = workload.qos();

    // Each probe uses an independent substream so probe order does not
    // perturb the workload sample sequence.
    auto probe = [&](double rps) {
        Rng sub = rng.split();
        auto r = simulateInteractive(workload, st, rps, params.window,
                                     sub);
        ++out.probes;
        out.kernelTotals.scheduled += r.kernel.scheduled;
        out.kernelTotals.dispatched += r.kernel.dispatched;
        out.kernelTotals.cancelled += r.kernel.cancelled;
        out.kernelTotals.peakHeap =
            std::max(out.kernelTotals.peakHeap, r.kernel.peakHeap);
        return r;
    };

    // Bracket: the analytic bound can only overestimate, so it serves
    // as the failing upper end; walk down to find a passing lower end.
    double hi = out.analyticBoundRps * 1.05;
    double lo = 0.0;
    double lo_probe = out.analyticBoundRps;
    SimResult best{};
    bool have_pass = false;
    for (int i = 0; i < 7; ++i) {
        lo_probe *= 0.75;
        if (lo_probe < params.relativeFloor * out.analyticBoundRps)
            break;
        auto r = probe(lo_probe);
        if (r.passes(qos)) {
            lo = lo_probe;
            best = r;
            have_pass = true;
            break;
        }
        hi = lo_probe;
    }
    if (!have_pass) {
        // Nothing sustains QoS even at very low load (pathological
        // configuration); report the floor.
        out.sustainableRps = 0.0;
        return out;
    }

    for (unsigned i = 0; i < params.iterations; ++i) {
        double mid = 0.5 * (lo + hi);
        auto r = probe(mid);
        if (r.passes(qos)) {
            lo = mid;
            best = r;
        } else {
            hi = mid;
        }
    }
    out.sustainableRps = lo;
    out.atSustainable = best;
    return out;
}

} // namespace perfsim
} // namespace wsc
