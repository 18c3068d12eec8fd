/**
 * @file
 * perfbench_driver: runs one step of a benchmark workload and prints
 * its simulated outputs as one JSON document on stdout.
 *
 * run.py starts a fresh driver process for every set-up and every job,
 * so each job begins with cold function-static caches (the flash
 * hit-rate cache in flashcache/storage.cc) and its wall time, CPU time
 * and peak RSS can be read from outside the process.
 *
 * Usage:
 *   perfbench_driver --workload W --step S --seed N [--threads T]
 *       [--trace-dir DIR] [--spans FILE]
 *       [--job-id K]
 *
 *   design-eval   setup | job
 *   trace-replay  setup | job | check    (all take --trace-dir)
 *
 * The document has two members: "outputs", the simulated results that
 * must repeat bit for bit, and "observed", execution observables
 * (evaluator counters, shard loads) that may differ between runs.
 *
 * --spans selects the traced path. The driver then calls each module's
 * public functions itself, in the order the library would, records a
 * span around every call, and writes the spans to FILE as a JSON array.
 * Its outputs must equal the untraced step's.
 */

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/design.hh"
#include "core/evaluator.hh"
#include "memblade/latency.hh"
#include "memblade/trace_stream.hh"
#include "obs/json.hh"
#include "util/args.hh"
#include "util/hash.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

using namespace wsc;
using namespace wsc::core;
using obs::JsonWriter;

namespace {

// ------------------------------------------------------------------
// Spans
// ------------------------------------------------------------------

/** One finished span. Times are ns since the tracer was created. */
struct SpanRecord {
    std::uint64_t id = 0;
    std::uint64_t parent = 0; //!< 0 = root
    std::string name;         //!< <module>.<function>
    unsigned thread = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::vector<std::pair<std::string, double>> counts;
};

/** Dense per-thread index, assigned on a thread's first span. */
unsigned
threadIndex()
{
    static std::atomic<unsigned> next{0};
    thread_local unsigned index = next++;
    return index;
}

/**
 * In-memory span store. Spans are appended under a mutex (a job makes
 * a few hundred) and written out once, after the measured work.
 */
class Tracer
{
  public:
    explicit Tracer(std::uint64_t job) : job_(job) {}

    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - epoch)
            .count();
    }

    std::uint64_t newId() { return nextId++; }

    void
    record(SpanRecord &&span)
    {
        std::lock_guard<std::mutex> lock(mu);
        spans.push_back(std::move(span));
    }

    void
    write(const std::string &path) const
    {
        JsonWriter w;
        w.beginArray();
        {
            std::lock_guard<std::mutex> lock(mu);
            for (const auto &s : spans) {
                w.beginObject()
                    .key("id").value(s.id)
                    .key("parent").value(s.parent)
                    .key("name").value(s.name)
                    .key("job").value(job_)
                    .key("thread").value(std::uint64_t(s.thread))
                    .key("start_ns").value(std::uint64_t(s.startNs))
                    .key("end_ns").value(std::uint64_t(s.endNs))
                    .key("counts").beginObject();
                for (const auto &[k, v] : s.counts)
                    w.key(k).value(v);
                w.endObject().endObject();
            }
        }
        w.endArray();
        std::ofstream out(path);
        out << w.str() << "\n";
        if (!out)
            fatal("cannot write spans to '" + path + "'");
    }

  private:
    const std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
    const std::uint64_t job_;
    std::atomic<std::uint64_t> nextId{1};
    mutable std::mutex mu;
    std::vector<SpanRecord> spans;
};

/** RAII span; a no-op when the tracer is null (untraced runs). */
class Span
{
  public:
    Span(Tracer *tracer, std::string name, std::uint64_t parent)
        : tracer_(tracer)
    {
        if (!tracer_)
            return;
        rec.id = tracer_->newId();
        rec.parent = parent;
        rec.name = std::move(name);
        rec.thread = threadIndex();
        rec.startNs = tracer_->nowNs();
    }

    ~Span()
    {
        if (!tracer_)
            return;
        rec.endNs = tracer_->nowNs();
        tracer_->record(std::move(rec));
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    std::uint64_t id() const { return rec.id; }

    void
    count(const std::string &key, double value)
    {
        if (tracer_)
            rec.counts.emplace_back(key, value);
    }

  private:
    Tracer *tracer_;
    SpanRecord rec;
};

// ------------------------------------------------------------------
// Command line and output
// ------------------------------------------------------------------

struct Options {
    std::string workload;
    std::string step;
    std::uint64_t seed = 0;
    unsigned threads = 1;
    std::string traceDir;
    std::string spansPath;
    std::uint64_t jobId = 0;
};

/** Strict unsigned decimal: digits only, so "-1" cannot wrap through
 * an unsigned conversion, and no overflow. */
std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text,
              std::uint64_t min, std::uint64_t max)
{
    std::uint64_t v = 0;
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (text.empty() || text[0] == '+' || ec != std::errc() ||
        ptr != end || v < min || v > max)
        fatal("--" + flag + " must be an integer in [" +
              std::to_string(min) + ", " + std::to_string(max) +
              "], got '" + text + "'");
    return v;
}

/** Parsed options, or nullopt when --help was printed. */
std::optional<Options>
parseOptions(int argc, char **argv)
{
    ArgParser args("perfbench_driver",
                   "run one step of a wsc benchmark workload");
    args.addOption("workload", "design-eval|trace-replay", "")
        .addOption("step", "setup|job (trace-replay also: check)", "")
        .addOption("seed", "workload seed, an integer in [0, 2^64)", "")
        .addOption("threads", "threads computing at once (pool + caller)",
                   "1")
        .addOption("trace-dir", "directory of the .strace files", "")
        .addOption("spans", "traced path: write spans to this file", "")
        .addOption("job-id", "job id stamped on every span", "0");
    if (!args.parse(argc, argv))
        return std::nullopt;

    Options o;
    o.workload = args.get("workload");
    o.step = args.get("step");
    if (!args.given("seed"))
        fatal("--seed is required");
    const std::uint64_t u64max = ~std::uint64_t(0);
    o.seed = parseUnsigned("seed", args.get("seed"), 0, u64max);
    o.threads =
        unsigned(parseUnsigned("threads", args.get("threads"), 1, 64));
    o.jobId = parseUnsigned("job-id", args.get("job-id"), 0, u64max);
    o.traceDir = args.get("trace-dir");
    o.spansPath = args.get("spans");
    return o;
}

// ------------------------------------------------------------------
// Design evaluation
// ------------------------------------------------------------------

/** The EvaluatorParams wsc_eval builds from its default flags. */
EvaluatorParams
evalParams(std::uint64_t seed)
{
    EvaluatorParams p;
    p.burden.tariffPerMWh = 100.0;
    p.burden.activityFactor = 0.75;
    p.search.window.warmupSeconds = 10.0;
    p.search.window.measureSeconds = 40.0;
    p.search.iterations = 9;
    p.search.window.fastMode.enabled = false;
    p.seed = seed;
    return p;
}

/**
 * Traced equivalent of DesignEvaluator::evaluateBatch on cells that
 * are all distinct and uncached: the calls computeCell and
 * metricsWithPerf make, in their order, each inside a span.
 */
std::vector<EfficiencyMetrics>
tracedBatch(const std::vector<EvalCell> &cells,
            const EvaluatorParams &params, ThreadPool &pool,
            Tracer &tracer, std::uint64_t parent)
{
    const DesignEvaluator evaluator(params);
    const perfsim::PerfEvaluator perf;
    std::vector<double> perfs(cells.size());
    {
        Span pf(&tracer, "util.parallelFor", parent);
        // parallelFor's calling thread drains cells beside the pool's.
        pf.count("threads", double(pool.threads() + 1));
        std::uint64_t pfId = pf.id();
        parallelFor(
            cells.size(),
            [&](std::size_t i) {
                const auto &c = cells[i];
                Span task(&tracer, "util.task", pfId);
                perfsim::PerfOptions opts;
                {
                    Span s(&tracer, "core.DesignEvaluator::perfOptionsFor",
                           task.id());
                    // A storage design's benchmark-independent options
                    // come from the websearch flash replay.
                    if (c.design.storage)
                        s.count("flash_key",
                                double(workloads::Benchmark::Websearch));
                    opts = evaluator.perfOptionsFor(c.design);
                }
                opts.seed = seedFor(params.seed, c.design.name,
                                    std::uint64_t(c.benchmark));
                if (c.design.storage) {
                    Span s(&tracer, "flashcache.perfOptionsFor", task.id());
                    s.count("flash_key", double(c.benchmark));
                    opts.flashCacheHitRate =
                        flashcache::perfOptionsFor(*c.design.storage,
                                                   c.benchmark)
                            .flashCacheHitRate;
                    s.count("hit_ratio", opts.flashCacheHitRate);
                }
                Span s(&tracer, "perfsim.PerfEvaluator::measure",
                       task.id());
                auto m = perf.measure(c.design.server, c.benchmark, opts);
                s.count("search_probes", double(m.searchProbes));
                s.count("events_dispatched", double(m.kernel.dispatched));
                s.count("events_cancelled", double(m.kernel.cancelled));
                s.count("peak_heap", double(m.kernel.peakHeap));
                perfs[i] = m.perf;
            },
            &pool);
    }

    std::vector<EfficiencyMetrics> out;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto &design = cells[i].design;
        platform::ServerConfig server;
        cost::BurdenedPowerParams burden;
        {
            Span s(&tracer, "core.DesignEvaluator::adjustedServer", parent);
            server = evaluator.adjustedServer(design);
        }
        {
            Span s(&tracer, "core.DesignEvaluator::burdenFor", parent);
            burden = evaluator.burdenFor(design);
        }
        Span s(&tracer, "cost.TcoModel::evaluate", parent);
        cost::TcoModel tco(params.rackCost, params.rackPower, burden);
        auto r = tco.evaluate(server.hardwareCost(), server.hardwarePower());
        EfficiencyMetrics m;
        m.perf = perfs[i];
        m.watts = r.wattsWithSwitch;
        m.infDollars = r.infrastructure();
        m.pcDollars = r.powerCooling();
        m.tcoDollars = r.tco();
        out.push_back(m);
    }
    return out;
}

/** Traced equivalent of DesignEvaluator::aggregateRelative, given the
 * metrics tracedBatch returned for @p cells. */
RelativeMetrics
tracedAggregate(const std::vector<EvalCell> &cells,
                const std::vector<EfficiencyMetrics> &metrics,
                const std::string &design, const std::string &baseline,
                Tracer &tracer, std::uint64_t parent)
{
    auto find = [&](const std::string &name, workloads::Benchmark b) {
        for (std::size_t i = 0; i < cells.size(); ++i)
            if (cells[i].design.name == name && cells[i].benchmark == b)
                return metrics[i];
        panic("no cell for " + name);
    };
    Span s(&tracer, "core.harmonicAggregate", parent);
    std::vector<RelativeMetrics> perWorkload;
    for (auto b : workloads::allBenchmarks)
        perWorkload.push_back(relativeTo(find(design, b), find(baseline, b)));
    return harmonicAggregate(perWorkload);
}

/** "observed": the evaluator's cache counters (for
 * core.cache_hit_ratio) when an untraced evaluator ran, else empty. */
void
writeObserved(JsonWriter &w, const DesignEvaluator *evaluator)
{
    w.key("observed").beginObject();
    if (evaluator) {
        w.key("evaluator").beginObject();
        for (const auto &c : evaluator->metrics().counters())
            if (c.name == "eval.cache_hits" ||
                c.name == "eval.cells_simulated")
                w.key(c.name).value(c.value);
        w.endObject();
    }
    w.endObject();
}

// ------------------------------------------------------------------
// design-eval
// ------------------------------------------------------------------

/** Fig. 5's two unified designs followed by the three baselines. */
std::vector<DesignConfig>
figure5Designs()
{
    using platform::SystemClass;
    return {DesignConfig::n1(), DesignConfig::n2(),
            DesignConfig::baseline(SystemClass::Srvr1),
            DesignConfig::baseline(SystemClass::Srvr2),
            DesignConfig::baseline(SystemClass::Desk)};
}

std::string
designEval(const Options &o, Tracer *tracer)
{
    const auto designs = figure5Designs();
    const auto params = evalParams(o.seed);
    JsonWriter w;
    w.beginObject().key("outputs").beginObject();
    if (o.step == "setup") {
        // Everything a job builds before its first simulation.
        DesignEvaluator evaluator(params);
        w.key("designs").value(std::uint64_t(designs.size())).endObject();
        writeObserved(w, nullptr);
        return w.endObject().str();
    }
    if (o.step != "job")
        fatal("design-eval steps: setup | job");

    std::vector<EvalCell> cells;
    for (const auto &d : designs)
        for (auto b : workloads::allBenchmarks)
            cells.push_back({d, b});
    // N1 and N2 against each baseline.
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    for (std::size_t d = 0; d < 2; ++d)
        for (std::size_t b = 2; b < designs.size(); ++b)
            pairs.emplace_back(d, b);

    ThreadPool &pool = ThreadPool::global();
    std::vector<EfficiencyMetrics> metrics;
    std::vector<RelativeMetrics> hmean;
    std::unique_ptr<DesignEvaluator> evaluator;
    if (tracer) {
        Span job(tracer, "core.job", 0);
        metrics = tracedBatch(cells, params, pool, *tracer, job.id());
        for (auto [d, b] : pairs)
            hmean.push_back(tracedAggregate(cells, metrics, designs[d].name,
                                            designs[b].name, *tracer,
                                            job.id()));
    } else {
        evaluator = std::make_unique<DesignEvaluator>(params);
        metrics = evaluator->evaluateBatch(cells, &pool);
        for (auto [d, b] : pairs)
            hmean.push_back(
                evaluator->aggregateRelative(designs[d], designs[b]));
    }

    w.key("cells").beginArray();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto &m = metrics[i];
        w.beginObject()
            .key("design").value(cells[i].design.name)
            .key("benchmark").value(workloads::to_string(cells[i].benchmark))
            .key("perf").value(m.perf)
            .key("watts").value(m.watts)
            .key("inf_dollars").value(m.infDollars)
            .key("pc_dollars").value(m.pcDollars)
            .key("tco_dollars").value(m.tcoDollars)
            .endObject();
    }
    w.endArray().key("hmean").beginArray();
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        const auto &r = hmean[i];
        w.beginObject()
            .key("design").value(designs[pairs[i].first].name)
            .key("baseline").value(designs[pairs[i].second].name)
            .key("perf").value(r.perf)
            .key("perf_per_watt").value(r.perfPerWatt)
            .key("perf_per_inf_dollar").value(r.perfPerInfDollar)
            .key("perf_per_pc_dollar").value(r.perfPerPcDollar)
            .key("perf_per_tco_dollar").value(r.perfPerTcoDollar)
            .endObject();
    }
    w.endArray().endObject();
    writeObserved(w, evaluator.get());
    return w.endObject().str();
}

// ------------------------------------------------------------------
// trace-replay
// ------------------------------------------------------------------

constexpr std::uint64_t kTraceAccesses = 2000000;

/** One replay of each trace file per job. */
struct ReplayConfig {
    const char *name;
    memblade::PolicyKind kind;
    double localFraction;
};

constexpr ReplayConfig kReplays[] = {
    {"random-25", memblade::PolicyKind::Random, 0.25},
    {"random-12", memblade::PolicyKind::Random, 0.125},
    {"clock-25", memblade::PolicyKind::Clock, 0.25},
    {"arc-25", memblade::PolicyKind::Arc, 0.25},
};

std::size_t
framesFor(const memblade::TraceProfile &profile, double localFraction)
{
    return std::size_t(
        std::ceil(double(profile.footprintPages) * localFraction));
}

/** The kernel and generator streams replayProfile derives from a
 * seed, so a job at seed 42 reproduces bench_fig4's replays. */
struct SeededStreams {
    Rng kernel;
    Rng generator;
};

SeededStreams
streamsFor(std::uint64_t seed)
{
    Rng rng(seed);
    Rng kernel = rng.split();
    return {kernel, rng.split()};
}

std::string
tracePath(const Options &o, workloads::Benchmark b)
{
    return o.traceDir + "/" + workloads::to_string(b) + ".strace";
}

void
writeStats(JsonWriter &w, const memblade::ReplayStats &s)
{
    w.beginObject()
        .key("accesses").value(s.accesses)
        .key("hits").value(s.hits)
        .key("misses").value(s.misses)
        .key("cold_misses").value(s.coldMisses)
        .endObject();
}

bool
sameStats(const memblade::ReplayStats &a, const memblade::ReplayStats &b)
{
    return a.accesses == b.accesses && a.hits == b.hits &&
           a.misses == b.misses && a.coldMisses == b.coldMisses;
}

/** What one job measures on one trace file. The LRU curve is kept
 * as a digest, so a job holds one curve at a time. */
struct FileResult {
    workloads::Benchmark benchmark;
    std::vector<memblade::ReplayStats> replays; //!< kReplays order
    double pcieSlowdown = 0.0; //!< random-25 over PCIe x4
    std::uint64_t curvePoints = 0;
    std::uint64_t curveHash = 0; //!< over every cumulative hit count
    memblade::ReplayStats curveAt25;
};

std::string
traceReplay(const Options &o, Tracer *tracer)
{
    using namespace memblade;
    if (o.traceDir.empty())
        fatal("trace-replay needs --trace-dir");
    JsonWriter w;
    w.beginObject().key("outputs").beginObject();

    if (o.step == "setup") {
        Span setup(tracer, "core.setup", 0);
        for (auto b : workloads::allBenchmarks) {
            std::vector<PageId> trace;
            {
                Span s(tracer, "memblade.generateTrace", setup.id());
                trace = generateTrace(profileFor(b), kTraceAccesses,
                                      streamsFor(o.seed).generator);
            }
            Span s(tracer, "memblade.writeTraceStream", setup.id());
            writeTraceStream(tracePath(o, b), trace);
        }
        w.key("accesses_per_file").value(kTraceAccesses).endObject();
        writeObserved(w, nullptr);
        return w.endObject().str();
    }

    if (o.step == "check") {
        // Streaming replay vs the materialized oracle on every file.
        bool identical = true;
        for (auto b : workloads::allBenchmarks) {
            auto profile = profileFor(b);
            auto path = tracePath(o, b);
            auto pages = readTraceStreamPages(path);
            TraceStream ts(path);
            for (const auto &cfg : kReplays) {
                auto frames = framesFor(profile, cfg.localFraction);
                ts.rewind();
                auto streamed = replayStream(ts, cfg.kind, frames,
                                             streamsFor(o.seed).kernel);
                auto oracle = replayPages(pages.data(), pages.size(),
                                          cfg.kind, frames, ts.pageBound(),
                                          streamsFor(o.seed).kernel);
                identical = identical && sameStats(streamed, oracle);
            }
            // The curve's LRU point vs a direct LRU replay.
            ts.rewind();
            auto frames = framesFor(profile, 0.25);
            auto curve = lruCurveFromStream(ts);
            auto lru = replayPages(pages.data(), pages.size(),
                                   PolicyKind::Lru, frames, ts.pageBound(),
                                   streamsFor(o.seed).kernel);
            identical = identical && sameStats(curve.statsAt(frames), lru);
        }
        w.key("identical").value(identical).endObject();
        writeObserved(w, nullptr);
        return w.endObject().str();
    }
    if (o.step != "job")
        fatal("trace-replay steps: setup | job | check");

    std::vector<FileResult> results;
    {
        Span job(tracer, "core.job", 0);
        for (auto b : workloads::allBenchmarks) {
            auto profile = profileFor(b);
            FileResult r{b, {}, 0.0, 0, 0, {}};
            std::unique_ptr<TraceStream> ts;
            {
                Span s(tracer, "memblade.TraceStream", job.id());
                ts = std::make_unique<TraceStream>(tracePath(o, b));
            }
            for (const auto &cfg : kReplays) {
                ts->rewind();
                Span s(tracer, "memblade.replayStream", job.id());
                auto st = replayStream(*ts, cfg.kind,
                                       framesFor(profile, cfg.localFraction),
                                       streamsFor(o.seed).kernel);
                s.count("replay", double(&cfg - kReplays));
                s.count("accesses", double(st.accesses));
                s.count("warm_miss_rate", st.warmMissRate());
                r.replays.push_back(st);
            }
            {
                Span s(tracer, "memblade.slowdown", job.id());
                r.pcieSlowdown =
                    slowdown(r.replays[0], profile, RemoteLink::pcieX4());
            }
            ts->rewind();
            StackDistanceCurve curve;
            {
                Span s(tracer, "memblade.lruCurveFromStream", job.id());
                curve = lruCurveFromStream(*ts);
            }
            r.curvePoints = curve.cumHits.size();
            for (auto h : curve.cumHits)
                r.curveHash = hashCombine(r.curveHash, h);
            r.curveAt25 = curve.statsAt(framesFor(profile, 0.25));
            results.push_back(std::move(r));
        }
    }

    w.key("files").beginArray();
    for (const auto &r : results) {
        w.beginObject()
            .key("benchmark").value(workloads::to_string(r.benchmark))
            .key("replays").beginObject();
        for (std::size_t i = 0; i < r.replays.size(); ++i) {
            w.key(kReplays[i].name);
            writeStats(w, r.replays[i]);
        }
        w.endObject()
            .key("pcie_x4_slowdown_random_25").value(r.pcieSlowdown)
            .key("lru_curve").beginObject()
            .key("points").value(r.curvePoints)
            .key("hash").value(std::to_string(r.curveHash))
            .key("at_25");
        writeStats(w, r.curveAt25);
        w.endObject().endObject();
    }
    w.endArray().endObject();
    writeObserved(w, nullptr);
    return w.endObject().str();
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        auto o = parseOptions(argc, argv);
        if (!o)
            return 0;
        // Size the global pool before anything touches it, so no
        // library call runs wider than the benchmark's thread budget.
        // parallelFor's caller drains cells too, so T threads at once
        // is a pool of T - 1 (a pool of 1 runs serially on the caller).
        ThreadPool::setGlobalThreads(std::max(1u, o->threads - 1));
        std::unique_ptr<Tracer> tracer;
        if (!o->spansPath.empty())
            tracer = std::make_unique<Tracer>(o->jobId);

        std::string result;
        if (o->workload == "design-eval")
            result = designEval(*o, tracer.get());
        else if (o->workload == "trace-replay")
            result = traceReplay(*o, tracer.get());
        else
            fatal("unknown workload '" + o->workload +
                  "' (design-eval|trace-replay)");

        if (tracer)
            tracer->write(o->spansPath);
        std::cout << result << std::endl;
        return 0;
    } catch (const std::exception &e) {
        // FatalError (bad flags, unreadable traces) and library panics.
        std::cerr << "perfbench_driver: " << e.what() << "\n";
        return 1;
    }
}
