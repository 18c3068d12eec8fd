#include "core/sweep_report.hh"

namespace wsc {
namespace core {

obs::CellReport
cellReport(const DesignConfig &design, workloads::Benchmark benchmark,
           const CellObservation &observation)
{
    const perfsim::PerfMeasurement &m = observation.measurement;
    obs::CellReport c;
    c.design = design.name;
    c.benchmark = workloads::to_string(benchmark);
    c.interactive = m.interactive;
    c.perf = m.perf;
    c.sustainableRps = m.sustainableRps;
    c.makespanSeconds = m.makespanSeconds;
    c.latency = {m.meanLatency, m.p50Latency, m.p95Latency,
                 m.p99Latency};
    c.qosViolationFraction = m.qosViolationFraction;
    c.qosLatencyLimit = m.qosLatencyLimit;
    c.bottleneck = m.bottleneck;
    for (const auto &s : m.stations)
        c.stations.push_back({s.name, s.utilization, s.completed,
                              std::uint64_t(s.peakDepth), s.meanDepth});
    c.kernel = {m.kernel.scheduled, m.kernel.dispatched,
                m.kernel.cancelled, std::uint64_t(m.kernel.peakHeap)};
    c.searchProbes = m.searchProbes;
    c.wallSeconds = observation.wallSeconds;
    return c;
}

obs::AvailReport
availReport(const DesignConfig &design,
            const AvailabilityEvalParams &params,
            const faults::AvailabilityResult &result)
{
    obs::AvailReport a;
    a.design = design.name;
    a.benchmark = workloads::to_string(params.benchmark);
    a.spec = params.spec.summary();
    a.mttfScale = params.spec.mttfScale;
    a.servers = params.servers;
    a.offeredRps = result.offeredRps;
    a.horizonSeconds = result.horizonSeconds;

    a.availability = result.availability;
    a.epochsTotal = result.epochsTotal;
    a.epochsPassed = result.epochsPassed;
    a.goodputRps = result.goodputRps;
    a.goodputFraction = result.goodputFraction;
    a.meanTimeToQosViolationSeconds =
        result.meanTimeToQosViolationSeconds;

    a.offered = result.offered;
    a.completions = result.completions;
    a.qosViolations = result.qosViolations;
    a.timeouts = result.timeouts;
    a.retries = result.retries;
    a.giveups = result.giveups;
    a.lateCompletions = result.lateCompletions;

    for (auto c : faults::allComponents) {
        auto i = std::size_t(c);
        if (result.faults.failures[i] == 0 &&
            result.faults.repairs[i] == 0)
            continue;
        a.faults.push_back({faults::to_string(c),
                            result.faults.failures[i],
                            result.faults.repairs[i]});
    }
    a.serverCrashes = result.faults.serverCrashes;
    a.thermalThrottles = result.faults.thermalThrottles;
    a.thermalShutdowns = result.faults.thermalShutdowns;
    a.serverDownFraction = result.serverDownFraction;
    a.serverDegradedFraction = result.serverDegradedFraction;
    a.blastRadiusMean = result.faults.blastMean();
    a.blastRadiusMax = result.faults.blastMax;

    a.kernel = {result.kernel.scheduled, result.kernel.dispatched,
                result.kernel.cancelled,
                std::uint64_t(result.kernel.peakHeap)};
    return a;
}

obs::SweepReport
buildSweepReport(DesignEvaluator &evaluator,
                 const std::vector<EvalCell> &cells,
                 const std::string &tool, std::uint64_t threads)
{
    obs::SweepReport report;
    report.tool = tool;
    report.baseSeed = evaluator.params().seed;
    report.threads = threads;
    report.cells.reserve(cells.size());
    for (const auto &cell : cells)
        report.cells.push_back(cellReport(
            cell.design, cell.benchmark,
            evaluator.observationFor(cell.design, cell.benchmark)));
    report.captureMetrics(evaluator.metrics());
    return report;
}

} // namespace core
} // namespace wsc
