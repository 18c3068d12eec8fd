#include "perfsim/server_sim.hh"

#include <algorithm>

#include "perfsim/calibration.hh"
#include "perfsim/cluster_sim.hh"

namespace wsc {
namespace perfsim {

StationConfig
makeStations(const platform::ServerConfig &server,
             const platform::CpuModel &ref,
             const workloads::WorkloadTraits &traits)
{
    StationConfig s;
    s.cpuCapacityGHz = effectiveCapability(server.cpu, ref, traits);
    s.cpuSlots = server.cpu.totalCores();
    double link_mbs = server.nic.gbps * 125.0; // 8 bits/byte
    s.nicMBs = (traits.streamPacingCapMBs > 0.0)
                   ? std::min(link_mbs, traits.streamPacingCapMBs)
                   : link_mbs;
    s.diskReadMBs = server.disk.bandwidthMBs;
    s.diskWriteMBs = server.disk.writeBandwidthMBs;
    s.diskAccessMs = server.disk.avgAccessMs;
    s.diskCacheHitRate = traits.diskCacheHitRate;
    return s;
}

std::string
SimResult::bottleneck() const
{
    const sim::StationStats *best = nullptr;
    for (const auto &s : stations)
        if (!best || s.utilization > best->utilization)
            best = &s;
    return best ? best->name : std::string();
}

bool
SimResult::passes(const workloads::QosSpec &qos) const
{
    if (saturated)
        return false;
    // Stability: nearly everything offered must complete in-window.
    if (offered == 0 ||
        double(completed) < 0.97 * double(offered))
        return false;
    return qosViolationFraction <= (1.0 - qos.quantile);
}

StationWork
stationWork(const workloads::ServiceDemand &demand,
            const StationConfig &st, Rng &rng)
{
    StationWork w;
    w.cpuWork = demand.cpuWork * st.serviceSlowdown;
    if (demand.diskReadBytes > 0.0 && !rng.bernoulli(st.diskCacheHitRate)) {
        w.diskService += st.diskAccessMs * 1e-3 +
                         demand.diskReadBytes / (st.diskReadMBs * 1e6);
    }
    if (demand.diskWriteBytes > 0.0) {
        w.diskService += st.diskAccessMs * 1e-3 * writeAccessFactor +
                         demand.diskWriteBytes / (st.diskWriteMBs * 1e6);
    }
    w.netMb = demand.netBytes / 1e6;
    return w;
}

SimResult
simulateInteractive(workloads::InteractiveWorkload &workload,
                    const StationConfig &st, double rps,
                    const SimWindow &window, Rng &rng)
{
    return simulateCluster(workload, st, 1, DispatchPolicy::RoundRobin,
                           rps, window, rng);
}

} // namespace perfsim
} // namespace wsc
