/**
 * @file
 * Parallel design-space evaluation: serial vs N-thread wall-clock.
 *
 * Runs the full 216-design screening sweep (the stage-1 scan of
 * bench_design_space) twice — once on a single thread, once on the
 * requested pool width — verifies the two produce bit-identical
 * metrics, and reports the speedup. Also microbenchmarks the DES
 * kernel's dispatch and cancel-heavy throughput, the fast path the
 * generation-stamped event queue targets.
 *
 * Emits machine-readable BENCH_parallel_sweep.json (schema documented
 * in README.md) so later PRs can track the perf trajectory.
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include <optional>

#include "core/design_space.hh"
#include "sim/event_queue.hh"
#include "util/args.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace wsc;
using namespace wsc::core;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Exact double equality across two metric sets (bitwise identity is
 * the determinism contract, not approximate agreement). */
bool
bitIdentical(const std::vector<EfficiencyMetrics> &a,
             const std::vector<EfficiencyMetrics> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::memcmp(&a[i].perf, &b[i].perf, sizeof(double)) ||
            std::memcmp(&a[i].watts, &b[i].watts, sizeof(double)) ||
            std::memcmp(&a[i].tcoDollars, &b[i].tcoDollars,
                        sizeof(double)))
            return false;
    }
    return true;
}

/** Pure schedule/dispatch churn: the kernel's common case. */
double
dispatchEventsPerSec()
{
    sim::EventQueue eq;
    std::uint64_t sink = 0;
    const int rounds = 200, burst = 1024;
    auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < rounds; ++r) {
        for (int i = 0; i < burst; ++i)
            eq.scheduleAfter(double(i), [&sink] { ++sink; });
        eq.runAll();
    }
    return double(sink) / secondsSince(start);
}

/**
 * Cancel-heavy churn modeled on the QoS-timer pattern: every request
 * schedules a deadline event that is almost always cancelled before
 * firing. Dispatched events are the denominator — the cancelled
 * bookkeeping is pure overhead the fast path must absorb.
 */
double
cancelHeavyEventsPerSec()
{
    sim::EventQueue eq;
    std::uint64_t sink = 0;
    const int rounds = 200, burst = 1024;
    auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < rounds; ++r) {
        std::vector<sim::EventId> deadlines;
        deadlines.reserve(burst);
        for (int i = 0; i < burst; ++i) {
            eq.scheduleAfter(double(i), [&sink] { ++sink; });
            deadlines.push_back(
                eq.scheduleAfter(1e6 + double(i), [&sink] { ++sink; }));
        }
        // 15/16 deadlines met: cancel before the timer fires.
        for (int i = 0; i < burst; ++i)
            if (i % 16 != 0)
                eq.cancel(deadlines[std::size_t(i)]);
        eq.runAll();
    }
    return double(eq.dispatched()) / secondsSince(start);
}

} // namespace

int
run(int argc, char **argv)
{
    ArgParser args("bench_parallel_sweep",
                   "serial vs parallel design-space sweep, with DES "
                   "kernel microbenchmarks");
    args.addOption("threads",
                   "pool width for the parallel run "
                   "(0 = hardware concurrency / WSC_THREADS)",
                   "0")
        .addOption("benchmark",
                   "workload swept per design; websearch exercises "
                   "the full sustainable-rate search, mapred-wc is "
                   "the quick batch screen",
                   "websearch")
        .addOption("out", "JSON output path",
                   "BENCH_parallel_sweep.json");
    if (!args.parse(argc, argv))
        return 0;

    auto threads = unsigned(args.getCount("threads", 0, 4096));
    if (threads == 0)
        threads = ThreadPool::defaultThreads();
    unsigned hw = std::thread::hardware_concurrency();

    EvaluatorParams params;
    params.search.window.warmupSeconds = 4.0;
    params.search.window.measureSeconds = 20.0;
    params.search.iterations = 7;

    auto designs = enumerateDesigns();
    std::optional<workloads::Benchmark> chosen;
    for (auto b : workloads::allBenchmarks)
        if (workloads::to_string(b) == args.get("benchmark"))
            chosen = b;
    if (!chosen)
        fatal("unknown benchmark '" + args.get("benchmark") + "'");
    auto benchmark = *chosen;

    std::cout << "=== Parallel sweep: " << designs.size()
              << " designs x " << workloads::to_string(benchmark)
              << " ===\n\n";

    // Untimed warmup: pays the one-time lazy initialization (platform
    // catalogs, calibration tables, allocator growth) so neither
    // timed run is charged for it.
    ThreadPool serialPool(1);
    {
        DesignEvaluator warmup(params);
        evaluateSweep(warmup, designs, benchmark, &serialPool);
    }

    // Serial reference: a one-thread pool, fresh evaluator (cold
    // cache), wall-clocked.
    DesignEvaluator serialEval(params);
    auto t0 = std::chrono::steady_clock::now();
    auto serial =
        evaluateSweep(serialEval, designs, benchmark, &serialPool);
    double serialSec = secondsSince(t0);

    // Parallel run: same work, N-thread pool, fresh evaluator.
    ThreadPool pool(threads);
    DesignEvaluator parallelEval(params);
    t0 = std::chrono::steady_clock::now();
    auto parallel =
        evaluateSweep(parallelEval, designs, benchmark, &pool);
    double parallelSec = secondsSince(t0);

    bool identical = bitIdentical(serial.metrics, parallel.metrics);
    double speedup = serialSec / parallelSec;

    double dispatchEps = dispatchEventsPerSec();
    double cancelEps = cancelHeavyEventsPerSec();

    Table t({"Configuration", "Wall-clock (s)", "Cells/s"});
    t.addRow({"serial (1 thread)", fmtF(serialSec, 3),
              fmtF(double(designs.size()) / serialSec, 1)});
    t.addRow({"parallel (" + std::to_string(threads) + " threads)",
              fmtF(parallelSec, 3),
              fmtF(double(designs.size()) / parallelSec, 1)});
    t.addSeparator();
    t.addRow({"speedup", fmtF(speedup, 2) + "x",
              identical ? "bit-identical" : "MISMATCH"});
    t.print(std::cout);

    std::cout << "\nDES kernel: " << fmtF(dispatchEps / 1e6, 2)
              << "M events/s dispatch, " << fmtF(cancelEps / 1e6, 2)
              << "M events/s under 15/16 cancel load\n";
    if (hw < 2) {
        std::cout << "\nNote: only " << std::max(hw, 1u)
                  << " hardware thread(s) visible; speedup is "
                     "bounded by the machine, not the engine.\n";
    }

    std::ostringstream json;
    json.setf(std::ios::fixed);
    json.precision(6);
    json << "{\n"
         << "  \"bench\": \"parallel_sweep\",\n"
         << "  \"schema_version\": 1,\n"
         << "  \"config\": {\n"
         << "    \"designs\": " << designs.size() << ",\n"
         << "    \"benchmark\": \""
         << workloads::to_string(benchmark) << "\",\n"
         << "    \"base_seed\": " << params.seed << ",\n"
         << "    \"threads\": " << threads << ",\n"
         << "    \"hardware_threads\": " << hw << "\n"
         << "  },\n"
         << "  \"serial_seconds\": " << serialSec << ",\n"
         << "  \"parallel_seconds\": " << parallelSec << ",\n"
         << "  \"speedup\": " << speedup << ",\n"
         << "  \"bit_identical\": "
         << (identical ? "true" : "false") << ",\n"
         << "  \"event_queue\": {\n"
         << "    \"dispatch_events_per_sec\": " << dispatchEps
         << ",\n"
         << "    \"cancel_heavy_events_per_sec\": " << cancelEps
         << "\n"
         << "  }\n"
         << "}\n";

    std::ofstream out(args.get("out"));
    out << json.str();
    std::cout << "\nWrote " << args.get("out") << "\n";

    return identical ? 0 : 1;
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
