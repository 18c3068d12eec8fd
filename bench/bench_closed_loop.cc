/**
 * @file
 * Closed-loop driver throughput: the seed lambda-chain driver (kept
 * compiled as runClosedLoopOracle) vs the pooled request-arena driver
 * (runClosedLoop), across the interactive workloads with both the
 * classic and the timeout/retry client protocols.
 *
 * Every comparison is gated on a bit-identical ClosedLoopResult —
 * same sustained throughput, same per-epoch traces, same protocol
 * counters, same DES kernel counters — and the bench exits nonzero on
 * any mismatch, so CI catches a driver that got fast by getting
 * wrong. Timings land in BENCH_closed_loop.json for the perf
 * trajectory.
 *
 * The --fast-mode half of the bench compares the exact pooled driver
 * against the batched fast path (sim/fast_mode.hh). Fast mode gives
 * up bit-identity by construction, so its gate is statistical
 * (stats/equivalence.hh): two-sample KS on service-demand and latency
 * distributions plus CI-overlap on per-seed sustained-RPS/p95 across
 * several seeds, and the gate's verdict joins bit-identity in the
 * exit code.
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perfsim/closed_loop.hh"
#include "perfsim/perf_eval.hh"
#include "platform/catalog.hh"
#include "stats/equivalence.hh"
#include "util/args.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "workloads/suite.hh"

using namespace wsc;
using namespace wsc::perfsim;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

bool
sameKernel(const sim::EventQueue::Counters &a,
           const sim::EventQueue::Counters &b)
{
    return a.scheduled == b.scheduled && a.dispatched == b.dispatched &&
           a.cancelled == b.cancelled && a.peakHeap == b.peakHeap;
}

/** Field-by-field bit comparison (doubles compared exactly). */
bool
sameResult(const ClosedLoopResult &a, const ClosedLoopResult &b)
{
    return a.sustainedRps == b.sustainedRps &&
           a.clientsAtBest == b.clientsAtBest &&
           a.finalClients == b.finalClients &&
           a.finalLiveClients == b.finalLiveClients &&
           a.p95AtBest == b.p95AtBest && a.epochRps == b.epochRps &&
           a.epochPassed == b.epochPassed &&
           a.epochCompleted == b.epochCompleted &&
           a.epochViolations == b.epochViolations &&
           a.epochGiveups == b.epochGiveups &&
           a.epochP95 == b.epochP95 && a.timeouts == b.timeouts &&
           a.retries == b.retries && a.giveups == b.giveups &&
           a.lateCompletions == b.lateCompletions &&
           sameKernel(a.kernel, b.kernel);
}

std::uint64_t
totalCompleted(const ClosedLoopResult &r)
{
    std::uint64_t n = 0;
    for (auto c : r.epochCompleted)
        n += c;
    return n;
}

struct Comparison {
    std::string name;
    double oracleSec = 0.0;
    double pooledSec = 0.0;
    std::uint64_t requests = 0;
    std::uint64_t events = 0;
    bool identical = false;

    double
    speedup() const
    {
        return pooledSec > 0.0 ? oracleSec / pooledSec : 0.0;
    }
    double
    oracleReqPerSec() const
    {
        return oracleSec > 0.0 ? double(requests) / oracleSec : 0.0;
    }
    double
    pooledReqPerSec() const
    {
        return pooledSec > 0.0 ? double(requests) / pooledSec : 0.0;
    }
    double
    pooledEventsPerSec() const
    {
        return pooledSec > 0.0 ? double(events) / pooledSec : 0.0;
    }
};

/** Best-of-N timing: the minimum discards interference from a noisy
 * shared host, which the mean does not. */
constexpr int kTimedReps = 3;

Comparison
compareDrivers(workloads::Benchmark b, const StationConfig &st,
               const ClosedLoopParams &params, std::uint64_t seed,
               const std::string &tag)
{
    Comparison c;
    c.name = workloads::to_string(b) + " " + tag;

    auto wl = workloads::makeBenchmark(b);
    auto *iw = dynamic_cast<workloads::InteractiveWorkload *>(wl.get());
    WSC_ASSERT(iw, "closed-loop bench needs an interactive workload");

    ClosedLoopResult oracle, pooled;
    for (int rep = 0; rep < kTimedReps; ++rep) {
        Rng rng(seed);
        auto t0 = std::chrono::steady_clock::now();
        oracle = runClosedLoopOracle(*iw, st, params, rng);
        double sec = secondsSince(t0);
        if (rep == 0 || sec < c.oracleSec)
            c.oracleSec = sec;
    }
    for (int rep = 0; rep < kTimedReps; ++rep) {
        Rng rng(seed);
        auto t0 = std::chrono::steady_clock::now();
        pooled = runClosedLoop(*iw, st, params, rng);
        double sec = secondsSince(t0);
        if (rep == 0 || sec < c.pooledSec)
            c.pooledSec = sec;
    }

    c.requests = totalCompleted(pooled);
    c.events = pooled.kernel.dispatched;
    c.identical = sameResult(oracle, pooled);
    return c;
}

/** Exact pooled vs fast pooled timing for one workload. */
struct FastRow {
    std::string name;
    double exactSec = 0.0;
    double fastSec = 0.0;
    std::uint64_t exactRequests = 0;
    std::uint64_t fastRequests = 0;

    double
    exactReqPerSec() const
    {
        return exactSec > 0.0 ? double(exactRequests) / exactSec : 0.0;
    }
    double
    fastReqPerSec() const
    {
        return fastSec > 0.0 ? double(fastRequests) / fastSec : 0.0;
    }
    /** Requests/sec ratio (request counts differ between the modes). */
    double
    speedup() const
    {
        double ex = exactReqPerSec();
        return ex > 0.0 ? fastReqPerSec() / ex : 0.0;
    }
};

FastRow
compareFastMode(workloads::Benchmark b, const StationConfig &st,
                const ClosedLoopParams &params, std::uint64_t seed)
{
    FastRow row;
    row.name = workloads::to_string(b);

    auto wl = workloads::makeBenchmark(b);
    auto *iw = dynamic_cast<workloads::InteractiveWorkload *>(wl.get());
    WSC_ASSERT(iw, "closed-loop bench needs an interactive workload");

    ClosedLoopParams exact = params;
    ClosedLoopParams fast = params;
    fast.fastMode.enabled = true;

    // One run is only ~15 ms of wall time — too close to scheduler
    // noise for a stable ratio — so each timed sample is a burst of
    // identical runs and the best-of-kTimedReps picks the cleanest.
    constexpr int kBurst = 6;
    ClosedLoopResult er, fr;
    for (int rep = 0; rep < kTimedReps; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < kBurst; ++i) {
            Rng rng(seed);
            er = runClosedLoop(*iw, st, exact, rng);
        }
        double sec = secondsSince(t0) / kBurst;
        if (rep == 0 || sec < row.exactSec)
            row.exactSec = sec;
    }
    for (int rep = 0; rep < kTimedReps; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < kBurst; ++i) {
            Rng rng(seed);
            fr = runClosedLoop(*iw, st, fast, rng);
        }
        double sec = secondsSince(t0) / kBurst;
        if (rep == 0 || sec < row.fastSec)
            row.fastSec = sec;
    }
    row.exactRequests = totalCompleted(er);
    row.fastRequests = totalCompleted(fr);
    return row;
}

/** Thin every sample set to at most @p cap points (uniform stride).
 * Latency sequences are autocorrelated through the queues, so the KS
 * test runs on thinned sets: the reduced count keeps the test's
 * effective-sample-size assumption honest and the threshold lenient
 * against realization noise, while real distribution shifts still
 * drive D far past it. */
std::vector<double>
thinned(const std::vector<double> &xs, std::size_t cap)
{
    if (xs.size() <= cap)
        return xs;
    std::vector<double> out;
    out.reserve(cap);
    double stride = double(xs.size()) / double(cap);
    for (std::size_t i = 0; i < cap; ++i)
        out.push_back(xs[std::size_t(double(i) * stride)]);
    return out;
}

/**
 * The statistical-equivalence gate for one workload: across
 * @p seeds seeds, run exact and fast closed loops, then compare
 *  - KS: i.i.d. service-demand draws (cpuWork, diskReadBytes) from
 *    the scalar vs the batched generator,
 *  - KS: pooled (thinned) request-latency samples,
 *  - CI-overlap: per-seed sustained RPS and p95-at-best.
 */
stats::GateVerdict
equivalenceGateFor(workloads::Benchmark b, const StationConfig &st,
                   const ClosedLoopParams &params,
                   const std::vector<std::uint64_t> &seeds)
{
    auto wl = workloads::makeBenchmark(b);
    auto *iw = dynamic_cast<workloads::InteractiveWorkload *>(wl.get());
    WSC_ASSERT(iw, "closed-loop bench needs an interactive workload");
    std::string name = workloads::to_string(b);

    // Demand-law check on i.i.d. draws: scalar path vs batched path,
    // independent streams, no queueing in the way.
    constexpr std::size_t kDemandDraws = 20000;
    std::vector<workloads::ServiceDemand> ed(kDemandDraws),
        fd(kDemandDraws);
    {
        Rng er(seeds.front() ^ 0xE0E0E0E0ULL);
        for (auto &d : ed)
            d = iw->nextRequest(er);
        workloads::BatchStream fr(Rng(seeds.front() ^ 0xF0F0F0F0ULL));
        iw->nextRequestBatch(fr, fd.data(), fd.size());
    }
    auto field = [](const std::vector<workloads::ServiceDemand> &v,
                    double workloads::ServiceDemand::*m) {
        std::vector<double> out;
        out.reserve(v.size());
        for (const auto &d : v)
            out.push_back(d.*m);
        return out;
    };

    stats::NamedSamples cpuWork{
        name + " demand.cpuWork",
        field(ed, &workloads::ServiceDemand::cpuWork),
        field(fd, &workloads::ServiceDemand::cpuWork)};
    stats::NamedSamples diskBytes{
        name + " demand.diskReadBytes",
        field(ed, &workloads::ServiceDemand::diskReadBytes),
        field(fd, &workloads::ServiceDemand::diskReadBytes)};

    // Closed-loop runs per seed, both modes, retaining latencies.
    stats::NamedSamples latency{name + " latency", {}, {}};
    stats::NamedSamples rps{name + " sustainedRps", {}, {}};
    stats::NamedSamples p95{name + " p95AtBest", {}, {}};
    constexpr std::size_t kLatencyCapPerSeed = 400;
    for (auto seed : seeds) {
        ClosedLoopParams exact = params;
        exact.collectLatencySamples = true;
        ClosedLoopParams fast = exact;
        fast.fastMode.enabled = true;

        Rng er(seed);
        auto exactRun = runClosedLoop(*iw, st, exact, er);
        Rng fr(seed);
        auto fastRun = runClosedLoop(*iw, st, fast, fr);

        auto el = thinned(exactRun.latencySamples, kLatencyCapPerSeed);
        auto fl = thinned(fastRun.latencySamples, kLatencyCapPerSeed);
        latency.exact.insert(latency.exact.end(), el.begin(), el.end());
        latency.fast.insert(latency.fast.end(), fl.begin(), fl.end());
        rps.exact.push_back(exactRun.sustainedRps);
        rps.fast.push_back(fastRun.sustainedRps);
        p95.exact.push_back(exactRun.p95AtBest);
        p95.fast.push_back(fastRun.p95AtBest);
    }

    return stats::equivalenceGate({cpuWork, diskBytes, latency},
                                  {rps, p95});
}

} // namespace

int
run(int argc, char **argv)
{
    ArgParser args("bench_closed_loop",
                   "oracle (lambda-chain) vs pooled (request-arena) "
                   "closed-loop drivers, classic and timeout paths");
    args.addOption("epochs", "adaptation epochs per run", "14")
        .addOption("epoch-seconds", "simulated seconds per epoch", "15")
        .addOption("gate-seeds",
                   "seeds for the fast-mode equivalence gate", "5")
        .addOption("out", "JSON output path", "BENCH_closed_loop.json");
    if (!args.parse(argc, argv))
        return 0;

    auto epochs = unsigned(args.getCount("epochs", 1, 1000));
    double epochSecArg = args.getDouble("epoch-seconds");
    if (epochSecArg <= 0.0 || epochSecArg > 1e6)
        fatal("--epoch-seconds must be in (0, 1e6]");
    auto gateSeedCount = unsigned(args.getCount("gate-seeds", 2, 64));

    PerfEvaluator ev;
    auto srvr2 = platform::makeSystem(platform::SystemClass::Srvr2);

    ClosedLoopParams classic;
    classic.epochs = epochs;
    classic.epochSeconds = epochSecArg;

    ClosedLoopParams timeout = classic;
    timeout.requestTimeoutSeconds = 0.05;
    timeout.maxRetries = 2;
    timeout.retryBackoffSeconds = 0.01;

    const std::vector<workloads::Benchmark> benches{
        workloads::Benchmark::Websearch, workloads::Benchmark::Webmail,
        workloads::Benchmark::Ytube};

    std::cout << "=== Closed-loop driver throughput (srvr2, "
              << classic.epochs << " epochs x " << classic.epochSeconds
              << "s) ===\n\n";

    std::vector<Comparison> rows;
    bool allIdentical = true;
    for (auto b : benches) {
        auto wl = workloads::makeBenchmark(b);
        auto *iw =
            dynamic_cast<workloads::InteractiveWorkload *>(wl.get());
        WSC_ASSERT(iw, "interactive workload expected");
        auto st = ev.stationsFor(srvr2, iw->traits(), {});
        rows.push_back(
            compareDrivers(b, st, classic, 101, "classic"));
        allIdentical = allIdentical && rows.back().identical;
        rows.push_back(
            compareDrivers(b, st, timeout, 202, "timeout"));
        allIdentical = allIdentical && rows.back().identical;
    }

    Table t({"Driver run", "Requests", "Oracle req/s", "Pooled req/s",
             "Pooled Mev/s", "Speedup", "Result"});
    for (const auto &c : rows) {
        t.addRow({c.name, std::to_string(c.requests),
                  fmtF(c.oracleReqPerSec() / 1e3, 1) + "k",
                  fmtF(c.pooledReqPerSec() / 1e3, 1) + "k",
                  fmtF(c.pooledEventsPerSec() / 1e6, 2),
                  fmtF(c.speedup(), 2) + "x",
                  c.identical ? "bit-identical" : "MISMATCH"});
    }
    t.print(std::cout);

    // Acceptance target: >= 3x requests per wallclock second on the
    // classic websearch and webmail runs.
    bool target = true;
    for (const auto &c : rows)
        if (c.name == "websearch classic" || c.name == "webmail classic")
            target = target && c.speedup() >= 3.0;
    std::cout << "\nTarget: websearch+webmail classic >= 3x "
              << (target ? "met" : "NOT MET") << "\n";

    // ---- Fast mode: exact pooled vs batched fast path ----
    std::cout << "\n=== Fast mode ("
              << sim::FastModeConfig::contractVersion()
              << ", batched demand sampling) ===\n\n";

    std::vector<FastRow> fastRows;
    for (auto b : benches) {
        auto wl = workloads::makeBenchmark(b);
        auto *iw =
            dynamic_cast<workloads::InteractiveWorkload *>(wl.get());
        WSC_ASSERT(iw, "interactive workload expected");
        auto st = ev.stationsFor(srvr2, iw->traits(), {});
        fastRows.push_back(compareFastMode(b, st, classic, 101));
    }

    Table ft({"Workload", "Exact req/s", "Fast req/s", "Speedup"});
    for (const auto &f : fastRows)
        ft.addRow({f.name, fmtF(f.exactReqPerSec() / 1e3, 1) + "k",
                   fmtF(f.fastReqPerSec() / 1e3, 1) + "k",
                   fmtF(f.speedup(), 2) + "x"});
    ft.print(std::cout);

    // Demand sampling is ~34% of the exact closed loop (EXPERIMENTS.md
    // "Closed-loop driver rebuild"), so Amdahl caps end-to-end fast-mode
    // gains near 1.5x even with free sampling; the >= 2x claim lives at
    // the sampling kernel itself (bench_sampler splitmix64 rows). Here
    // the target is the end-to-end share of that ceiling.
    bool fastTarget = false;
    for (const auto &f : fastRows)
        fastTarget = fastTarget || f.speedup() >= 1.25;
    std::cout << "\nTarget: fast mode >= 1.25x end-to-end on at least "
                 "one workload (sampling kernel >= 2x: see "
                 "bench_sampler) "
              << (fastTarget ? "met" : "NOT MET") << "\n";

    // ---- Statistical-equivalence gate ----
    std::vector<std::uint64_t> gateSeeds;
    for (unsigned i = 0; i < gateSeedCount; ++i)
        gateSeeds.push_back(1001 + 7 * i);

    std::cout << "\n=== Equivalence gate (" << gateSeeds.size()
              << " seeds: KS on demand/latency, CI-overlap on "
                 "RPS/p95) ===\n\n";

    std::vector<stats::GateCheck> gateChecks;
    bool gatePassed = true;
    for (auto b : benches) {
        auto wl = workloads::makeBenchmark(b);
        auto *iw =
            dynamic_cast<workloads::InteractiveWorkload *>(wl.get());
        WSC_ASSERT(iw, "interactive workload expected");
        auto st = ev.stationsFor(srvr2, iw->traits(), {});
        auto verdict = equivalenceGateFor(b, st, classic, gateSeeds);
        gatePassed = gatePassed && verdict.passed;
        gateChecks.insert(gateChecks.end(), verdict.checks.begin(),
                          verdict.checks.end());
    }

    Table gt({"Check", "Kind", "Statistic", "p-value", "Verdict"});
    for (const auto &c : gateChecks)
        gt.addRow({c.name, c.kind, fmtF(c.statistic, 4),
                   c.kind == "ks" ? fmtF(c.pValue, 4) : std::string("-"),
                   c.passed ? "pass" : "FAIL"});
    gt.print(std::cout);
    std::cout << "\nEquivalence gate: "
              << (gatePassed ? "PASSED" : "FAILED") << "\n";

    std::ostringstream json;
    json.setf(std::ios::fixed);
    json.precision(6);
    json << "{\n"
         << "  \"bench\": \"closed_loop\",\n"
         << "  \"schema_version\": 1,\n"
         << "  \"config\": {\n"
         << "    \"system\": \"srvr2\",\n"
         << "    \"epochs\": " << classic.epochs << ",\n"
         << "    \"epoch_seconds\": " << classic.epochSeconds << ",\n"
         << "    \"timeout_seconds\": "
         << timeout.requestTimeoutSeconds << ",\n"
         << "    \"hardware_threads\": "
         << std::thread::hardware_concurrency() << "\n"
         << "  },\n"
         << "  \"runs\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto &c = rows[i];
        json << "    {\"run\": \"" << c.name
             << "\", \"requests\": " << c.requests
             << ", \"events\": " << c.events
             << ", \"oracle_seconds\": " << c.oracleSec
             << ", \"pooled_seconds\": " << c.pooledSec
             << ", \"oracle_req_per_sec\": " << c.oracleReqPerSec()
             << ", \"pooled_req_per_sec\": " << c.pooledReqPerSec()
             << ", \"pooled_events_per_sec\": "
             << c.pooledEventsPerSec()
             << ", \"speedup\": " << c.speedup()
             << ", \"bit_identical\": "
             << (c.identical ? "true" : "false") << "}"
             << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"fast_mode\": {\n"
         << "    \"contract\": \""
         << sim::FastModeConfig::contractVersion() << "\",\n"
         << "    \"gate_seeds\": " << gateSeeds.size() << ",\n"
         << "    \"runs\": [\n";
    for (std::size_t i = 0; i < fastRows.size(); ++i) {
        const auto &f = fastRows[i];
        json << "      {\"workload\": \"" << f.name
             << "\", \"exact_seconds\": " << f.exactSec
             << ", \"fast_seconds\": " << f.fastSec
             << ", \"exact_requests\": " << f.exactRequests
             << ", \"fast_requests\": " << f.fastRequests
             << ", \"exact_req_per_sec\": " << f.exactReqPerSec()
             << ", \"fast_req_per_sec\": " << f.fastReqPerSec()
             << ", \"speedup\": " << f.speedup() << "}"
             << (i + 1 < fastRows.size() ? "," : "") << "\n";
    }
    json << "    ],\n"
         << "    \"gate\": [\n";
    for (std::size_t i = 0; i < gateChecks.size(); ++i) {
        const auto &c = gateChecks[i];
        json << "      {\"check\": \"" << c.name << "\", \"kind\": \""
             << c.kind << "\", \"statistic\": " << c.statistic
             << ", \"p_value\": " << c.pValue << ", \"passed\": "
             << (c.passed ? "true" : "false") << "}"
             << (i + 1 < gateChecks.size() ? "," : "") << "\n";
    }
    json << "    ],\n"
         << "    \"gate_passed\": " << (gatePassed ? "true" : "false")
         << "\n"
         << "  },\n"
         << "  \"targets\": {\n"
         << "    \"classic_3x\": " << (target ? "true" : "false")
         << ",\n"
         << "    \"fast_end_to_end_1_25x\": "
         << (fastTarget ? "true" : "false")
         << "\n"
         << "  }\n"
         << "}\n";

    std::ofstream out(args.get("out"));
    out << json.str();
    std::cout << "\nWrote " << args.get("out") << "\n";

    // Bit-identity (exact mode) and the statistical gate (fast mode)
    // are both correctness contracts; either failing fails the bench.
    return (allIdentical && gatePassed) ? 0 : 1;
}

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
}
