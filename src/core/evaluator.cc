#include "core/evaluator.hh"

#include <chrono>
#include <cmath>

#include "util/hash.hh"
#include "util/logging.hh"

namespace wsc {
namespace core {

DesignEvaluator::DesignEvaluator(EvaluatorParams params)
    : params_(std::move(params))
{
}

platform::ServerConfig
DesignEvaluator::adjustedServer(const DesignConfig &design) const
{
    platform::ServerConfig server = design.server;
    if (design.memorySharing) {
        server = memblade::withMemorySharing(server, design.bladeParams,
                                             *design.memorySharing);
    }
    if (design.storage)
        server = flashcache::withStorage(server, *design.storage);
    auto hw = thermal::packagingHardware(design.packaging);
    server.powerFansDollars *= hw.fanCostFactor;
    server.powerFansWatts *= hw.fanPowerFactor;
    return server;
}

cost::BurdenedPowerParams
DesignEvaluator::burdenFor(const DesignConfig &design) const
{
    return thermal::applyCooling(params_.burden, design.packaging);
}

perfsim::PerfOptions
DesignEvaluator::perfOptionsFor(const DesignConfig &design) const
{
    perfsim::PerfOptions opts;
    opts.search = params_.search;
    // Benchmark-independent overrides only; the flash hit rate is
    // filled per benchmark by the caller.
    if (design.storage)
        flashcache::applyStorageOverrides(*design.storage, opts);
    if (design.memorySharing)
        opts.serviceSlowdown =
            1.0 + design.bladeParams.assumedSlowdown;
    return opts;
}

CellObservation
DesignEvaluator::computeCell(const DesignConfig &design,
                             workloads::Benchmark benchmark) const
{
    perfsim::PerfOptions opts = perfOptionsFor(design);
    // The seed hangs off the cell's identity, not the evaluation
    // order, so parallel and serial sweeps agree bit-for-bit.
    opts.seed = seedFor(params_.seed, design.name,
                        std::uint64_t(benchmark));
    if (design.storage)
        opts.flashCacheHitRate =
            flashcache::perfOptionsFor(*design.storage, benchmark)
                .flashCacheHitRate;

    CellObservation obs;
    auto start = std::chrono::steady_clock::now();
    obs.measurement = perf.measure(design.server, benchmark, opts);
    std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - start;
    obs.wallSeconds = dt.count();
    metrics_.counter("eval.cells_simulated").add();
    metrics_.counter("eval.search_probes")
        .add(obs.measurement.searchProbes);
    metrics_.counter("eval.events_dispatched")
        .add(obs.measurement.kernel.dispatched);
    metrics_.timer("eval.simulate").record(obs.wallSeconds);
    return obs;
}

const CellObservation &
DesignEvaluator::observationFor(const DesignConfig &design,
                                workloads::Benchmark benchmark)
{
    auto key = std::make_pair(design.name, benchmark);
    auto it = perfCache.find(key);
    if (it != perfCache.end()) {
        metrics_.counter("eval.cache_hits").add();
        return it->second;
    }
    return perfCache.emplace(key, computeCell(design, benchmark))
        .first->second;
}

double
DesignEvaluator::measurePerf(const DesignConfig &design,
                             workloads::Benchmark benchmark)
{
    return observationFor(design, benchmark).measurement.perf;
}

EfficiencyMetrics
DesignEvaluator::metricsWithPerf(const DesignConfig &design,
                                 double perfValue) const
{
    auto server = adjustedServer(design);
    cost::TcoModel tco(params_.rackCost, params_.rackPower,
                       burdenFor(design));
    auto result = tco.evaluate(server.hardwareCost(),
                               server.hardwarePower());

    EfficiencyMetrics m;
    m.perf = perfValue;
    m.watts = result.wattsWithSwitch;
    m.infDollars = result.infrastructure();
    m.pcDollars = result.powerCooling();
    m.tcoDollars = result.tco();
    return m;
}

EfficiencyMetrics
DesignEvaluator::evaluate(const DesignConfig &design,
                          workloads::Benchmark benchmark)
{
    return metricsWithPerf(design, measurePerf(design, benchmark));
}

std::vector<EfficiencyMetrics>
DesignEvaluator::evaluateBatch(const std::vector<EvalCell> &cells,
                               ThreadPool *pool)
{
    // Resolve cache hits and dedupe repeated cells on the calling
    // thread; only genuinely new simulations fan out.
    std::vector<std::size_t> missCell; //!< cell index per simulation
    std::map<std::pair<std::string, workloads::Benchmark>, std::size_t>
        missFor; //!< cell key -> index into missCell/missPerf
    for (std::size_t i = 0; i < cells.size(); ++i) {
        auto key = std::make_pair(cells[i].design.name,
                                  cells[i].benchmark);
        if (perfCache.count(key) || missFor.count(key))
            continue;
        missFor[key] = missCell.size();
        missCell.push_back(i);
    }

    std::vector<CellObservation> missObs(missCell.size());
    parallelFor(
        missCell.size(),
        [&](std::size_t j) {
            const auto &cell = cells[missCell[j]];
            missObs[j] = computeCell(cell.design, cell.benchmark);
        },
        pool);

    for (std::size_t j = 0; j < missCell.size(); ++j) {
        const auto &cell = cells[missCell[j]];
        perfCache[{cell.design.name, cell.benchmark}] =
            std::move(missObs[j]);
    }

    std::vector<EfficiencyMetrics> out;
    out.reserve(cells.size());
    for (const auto &cell : cells)
        out.push_back(metricsWithPerf(
            cell.design, measurePerf(cell.design, cell.benchmark)));
    return out;
}

faults::InjectorConfig
DesignEvaluator::injectorConfigFor(const DesignConfig &design,
                                   const AvailabilityEvalParams &p) const
{
    faults::InjectorConfig cfg;
    cfg.spec = p.spec;
    cfg.seed = seedFor(params_.seed, "avail", design.name,
                       std::uint64_t(p.benchmark));

    auto server = adjustedServer(design);
    cfg.serverWatts = server.totalWatts();
    // One DIMM per 2 GB of the era's module capacity; ensemble memory
    // sharing moves capacity off the server onto the blade.
    cfg.dimmsPerServer = std::max(
        1u, unsigned(std::lround(server.memory.capacityGB / 2.0)));
    cfg.disksPerServer = 1;
    // Remote disks are shared SAN targets: one target serves a
    // fanout-sized group, and its failure takes the whole group down.
    cfg.storageFanout =
        server.disk.remote ? p.remoteStorageFanout : 1;
    cfg.memoryBlade = design.memorySharing.has_value();
    cfg.packaging = design.packaging;
    cfg.fansPerServer = faults::defaultFansPerServer(design.packaging);
    return cfg;
}

faults::AvailabilityResult
DesignEvaluator::computeAvailability(const DesignConfig &design,
                                     const AvailabilityEvalParams &p,
                                     double singleRps) const
{
    WSC_ASSERT(singleRps > 0.0,
               "availability needs a positive sustainable RPS for "
                   << design.name);
    auto workload = workloads::makeBenchmark(p.benchmark);
    auto *iw =
        dynamic_cast<workloads::InteractiveWorkload *>(workload.get());
    WSC_ASSERT(iw, "availability evaluation needs an interactive "
                   "benchmark: "
                       << workloads::to_string(p.benchmark));

    perfsim::PerfOptions opts = perfOptionsFor(design);
    if (design.storage)
        opts.flashCacheHitRate =
            flashcache::perfOptionsFor(*design.storage, p.benchmark)
                .flashCacheHitRate;
    auto stations =
        perf.stationsFor(design.server, iw->traits(), opts);

    faults::AvailabilityParams ap;
    ap.servers = p.servers;
    ap.horizonSeconds = p.horizonSeconds;
    ap.epochSeconds = p.epochSeconds;
    ap.offeredRps = p.loadFactor * singleRps * double(p.servers);
    ap.timeoutFactor = p.timeoutFactor;
    ap.maxRetries = p.maxRetries;
    ap.backoffSeconds = p.backoffSeconds;
    // Seeded by identity so batch evaluation decomposes bit-identically
    // for any thread count.
    ap.seed = seedFor(params_.seed, "avail", design.name,
                      std::uint64_t(p.benchmark));
    ap.injector = injectorConfigFor(design, p);

    auto start = std::chrono::steady_clock::now();
    auto result = faults::simulateAvailability(*iw, stations, ap);
    std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - start;
    metrics_.counter("eval.avail_runs").add();
    metrics_.counter("eval.avail_events")
        .add(result.kernel.dispatched);
    metrics_.timer("eval.availability").record(dt.count());
    return result;
}

faults::AvailabilityResult
DesignEvaluator::evaluateAvailability(const DesignConfig &design,
                                      const AvailabilityEvalParams &p)
{
    double singleRps =
        observationFor(design, p.benchmark).measurement.sustainableRps;
    return computeAvailability(design, p, singleRps);
}

std::vector<faults::AvailabilityResult>
DesignEvaluator::evaluateAvailabilityBatch(
    const std::vector<DesignConfig> &designs,
    const AvailabilityEvalParams &p, ThreadPool *pool)
{
    // Populate the perf cache (parallel on first touch) so the
    // availability fan-out reads sustainable RPS without touching
    // shared state from workers.
    std::vector<EvalCell> cells;
    cells.reserve(designs.size());
    for (const auto &d : designs)
        cells.push_back({d, p.benchmark});
    evaluateBatch(cells, pool);

    std::vector<double> singleRps(designs.size());
    for (std::size_t i = 0; i < designs.size(); ++i)
        singleRps[i] = observationFor(designs[i], p.benchmark)
                           .measurement.sustainableRps;

    std::vector<faults::AvailabilityResult> out(designs.size());
    parallelFor(
        designs.size(),
        [&](std::size_t i) {
            out[i] = computeAvailability(designs[i], p, singleRps[i]);
        },
        pool);
    return out;
}

RelativeMetrics
DesignEvaluator::evaluateRelative(const DesignConfig &design,
                                  const DesignConfig &baseline,
                                  workloads::Benchmark benchmark)
{
    return relativeTo(evaluate(design, benchmark),
                      evaluate(baseline, benchmark));
}

RelativeMetrics
DesignEvaluator::aggregateRelative(const DesignConfig &design,
                                   const DesignConfig &baseline)
{
    // One batch covering both designs across the suite, so the
    // underlying simulations run in parallel on first touch.
    std::vector<EvalCell> cells;
    for (auto b : workloads::allBenchmarks) {
        cells.push_back({design, b});
        cells.push_back({baseline, b});
    }
    auto metrics = evaluateBatch(cells);

    std::vector<RelativeMetrics> per_workload;
    for (std::size_t i = 0; i < cells.size(); i += 2)
        per_workload.push_back(
            relativeTo(metrics[i], metrics[i + 1]));
    return harmonicAggregate(per_workload);
}

} // namespace core
} // namespace wsc
