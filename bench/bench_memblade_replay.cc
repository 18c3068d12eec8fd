/**
 * @file
 * Replay-engine throughput: seed kernels vs allocation-free kernels,
 * N-replay sweeps vs the single-pass stack-distance curve, and the
 * sharded parallel replay.
 *
 * Every comparison is gated on bit-identical statistics — the bench
 * exits nonzero on any mismatch, so CI catches a kernel that got fast
 * by getting wrong. Timings and speedups land in
 * BENCH_memblade_replay.json for the perf trajectory.
 */

#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "memblade/replay.hh"
#include "memblade/stack_distance.hh"
#include "memblade/two_level.hh"
#include "util/args.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

using namespace wsc;
using namespace wsc::memblade;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

bool
sameStats(const ReplayStats &a, const ReplayStats &b)
{
    return a.accesses == b.accesses && a.hits == b.hits &&
           a.misses == b.misses && a.coldMisses == b.coldMisses;
}

struct KernelResult {
    std::string policy;
    double oldPagesPerSec = 0.0;
    double newPagesPerSec = 0.0;
    bool identical = false;

    double
    speedup() const
    {
        return oldPagesPerSec > 0.0 ? newPagesPerSec / oldPagesPerSec
                                    : 0.0;
    }
};

/**
 * Pure-kernel comparison: the same pregenerated page sequence through
 * the seed TwoLevelMemory (virtual dispatch, std::list LRU,
 * unordered_map cold tracking) and through replayPages. Each side is
 * timed kTimedReps times and the fastest run is reported — the
 * minimum discards interference from a noisy shared host, which the
 * mean does not.
 */
constexpr int kTimedReps = 3;

KernelResult
compareKernels(const std::vector<PageId> &trace, PolicyKind kind,
               std::size_t frames, std::uint64_t pageBound)
{
    KernelResult r;
    r.policy = to_string(kind);

    double oldSec = 0.0;
    ReplayStats oldStats;
    for (int rep = 0; rep < kTimedReps; ++rep) {
        TwoLevelMemory mem(frames, kind, Rng(4));
        auto t0 = std::chrono::steady_clock::now();
        for (PageId p : trace)
            mem.access(p);
        double sec = secondsSince(t0);
        if (rep == 0 || sec < oldSec)
            oldSec = sec;
        oldStats = mem.stats();
    }

    double newSec = 0.0;
    ReplayStats newStats;
    for (int rep = 0; rep < kTimedReps; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        auto st = replayPages(trace.data(), trace.size(), kind, frames,
                              pageBound, Rng(4));
        double sec = secondsSince(t0);
        if (rep == 0 || sec < newSec)
            newSec = sec;
        newStats = st;
    }

    r.oldPagesPerSec = double(trace.size()) / oldSec;
    r.newPagesPerSec = double(trace.size()) / newSec;
    r.identical = sameStats(oldStats, newStats);
    return r;
}

} // namespace

int
run(int argc, char **argv)
{
    ArgParser args("bench_memblade_replay",
                   "seed vs fast replay kernels, sweep vs "
                   "stack-distance curve, sharded replay");
    args.addOption("accesses", "trace length per comparison", "2000000")
        .addOption("out", "JSON output path",
                   "BENCH_memblade_replay.json");
    if (!args.parse(argc, argv))
        return 0;

    const std::uint64_t accesses =
        args.getCount("accesses", 1, 1000000000);
    const std::uint64_t seed = 42;
    auto profile = profileFor(workloads::Benchmark::Websearch);
    auto frames =
        std::size_t(std::ceil(double(profile.footprintPages) * 0.25));
    bool allIdentical = true;

    std::cout << "=== Replay-engine throughput (websearch, "
              << accesses << " accesses, 25% local) ===\n\n";

    // --- Kernel throughput, old vs new, same pregenerated trace. ---
    auto trace = generateTrace(profile, accesses, Rng(3));
    std::vector<KernelResult> kernels;
    for (auto kind :
         {PolicyKind::Lru, PolicyKind::Random, PolicyKind::Clock}) {
        kernels.push_back(compareKernels(trace, kind, frames,
                                         profile.footprintPages));
        allIdentical = allIdentical && kernels.back().identical;
    }

    Table t({"Policy", "Seed Mpages/s", "Fast Mpages/s", "Speedup",
             "Stats"});
    for (const auto &k : kernels) {
        t.addRow({k.policy, fmtF(k.oldPagesPerSec / 1e6, 2),
                  fmtF(k.newPagesPerSec / 1e6, 2),
                  fmtF(k.speedup(), 2) + "x",
                  k.identical ? "bit-identical" : "MISMATCH"});
    }
    t.print(std::cout);

    // --- 5-fraction LRU sweep: N direct replays vs one pass. ---
    const std::vector<double> fractions{0.05, 0.1, 0.25, 0.5, 0.75};
    std::vector<ReplayStats> direct;
    double directSec = 0.0;
    for (int rep = 0; rep < kTimedReps; ++rep) {
        direct.clear();
        auto t0 = std::chrono::steady_clock::now();
        for (double f : fractions)
            direct.push_back(replayProfile(profile, f, PolicyKind::Lru,
                                           accesses, seed));
        double sec = secondsSince(t0);
        if (rep == 0 || sec < directSec)
            directSec = sec;
    }

    std::vector<ReplayStats> swept;
    double sweepSec = 0.0;
    for (int rep = 0; rep < kTimedReps; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        swept = replayProfileSweep(profile, fractions, accesses, seed);
        double sec = secondsSince(t0);
        if (rep == 0 || sec < sweepSec)
            sweepSec = sec;
    }

    bool sweepIdentical = direct.size() == swept.size();
    for (std::size_t i = 0; sweepIdentical && i < direct.size(); ++i)
        sweepIdentical = sameStats(direct[i], swept[i]);
    allIdentical = allIdentical && sweepIdentical;
    double sweepSpeedup = directSec / sweepSec;

    std::cout << "\n" << fractions.size()
              << "-point LRU local-fraction sweep: "
              << fmtF(directSec, 3) << "s direct replays vs "
              << fmtF(sweepSec, 3) << "s single pass ("
              << fmtF(sweepSpeedup, 2) << "x, "
              << (sweepIdentical ? "bit-identical" : "MISMATCH")
              << ")\n";

    // --- Sharded replay: serial pool vs default-width pool. ---
    const unsigned shards = 8;
    ThreadPool serialPool(1);
    auto t0 = std::chrono::steady_clock::now();
    auto serialSharded =
        shardedReplayProfile(profile, 0.25, PolicyKind::Lru, accesses,
                             seed, shards, &serialPool);
    double shardSerialSec = secondsSince(t0);

    ThreadPool widePool(ThreadPool::defaultThreads());
    t0 = std::chrono::steady_clock::now();
    auto wideSharded =
        shardedReplayProfile(profile, 0.25, PolicyKind::Lru, accesses,
                             seed, shards, &widePool);
    double shardWideSec = secondsSince(t0);

    bool shardIdentical = sameStats(serialSharded, wideSharded);
    allIdentical = allIdentical && shardIdentical;
    double shardSpeedup = shardSerialSec / shardWideSec;

    std::cout << shards << "-shard replay: " << fmtF(shardSerialSec, 3)
              << "s serial vs " << fmtF(shardWideSec, 3) << "s on "
              << ThreadPool::defaultThreads() << " threads ("
              << fmtF(shardSpeedup, 2) << "x, "
              << (shardIdentical ? "bit-identical" : "MISMATCH")
              << ")\n";

    bool lruTarget = false;
    for (const auto &k : kernels)
        if (k.policy == "lru")
            lruTarget = k.speedup() >= 5.0;
    bool sweepTarget = sweepSpeedup >= 3.0;
    std::cout << "\nTargets: LRU kernel >= 5x "
              << (lruTarget ? "met" : "NOT MET")
              << "; sweep >= 3x over 5 replays "
              << (sweepTarget ? "met" : "NOT MET") << "\n";

    std::ostringstream json;
    json.setf(std::ios::fixed);
    json.precision(6);
    json << "{\n"
         << "  \"bench\": \"memblade_replay\",\n"
         << "  \"schema_version\": 1,\n"
         << "  \"config\": {\n"
         << "    \"profile\": \"" << profile.name << "\",\n"
         << "    \"accesses\": " << accesses << ",\n"
         << "    \"local_fraction\": 0.25,\n"
         << "    \"seed\": " << seed << ",\n"
         << "    \"hardware_threads\": "
         << std::thread::hardware_concurrency() << "\n"
         << "  },\n"
         << "  \"kernels\": [\n";
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        const auto &k = kernels[i];
        json << "    {\"policy\": \"" << k.policy
             << "\", \"old_pages_per_sec\": " << k.oldPagesPerSec
             << ", \"new_pages_per_sec\": " << k.newPagesPerSec
             << ", \"speedup\": " << k.speedup()
             << ", \"bit_identical\": "
             << (k.identical ? "true" : "false") << "}"
             << (i + 1 < kernels.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"sweep\": {\n"
         << "    \"points\": " << fractions.size() << ",\n"
         << "    \"direct_seconds\": " << directSec << ",\n"
         << "    \"single_pass_seconds\": " << sweepSec << ",\n"
         << "    \"speedup\": " << sweepSpeedup << ",\n"
         << "    \"bit_identical\": "
         << (sweepIdentical ? "true" : "false") << "\n"
         << "  },\n"
         << "  \"sharded\": {\n"
         << "    \"shards\": " << shards << ",\n"
         << "    \"serial_seconds\": " << shardSerialSec << ",\n"
         << "    \"parallel_seconds\": " << shardWideSec << ",\n"
         << "    \"speedup\": " << shardSpeedup << ",\n"
         << "    \"bit_identical\": "
         << (shardIdentical ? "true" : "false") << "\n"
         << "  },\n"
         << "  \"targets\": {\n"
         << "    \"lru_kernel_5x\": " << (lruTarget ? "true" : "false")
         << ",\n"
         << "    \"sweep_3x\": " << (sweepTarget ? "true" : "false")
         << "\n"
         << "  }\n"
         << "}\n";

    std::ofstream out(args.get("out"));
    out << json.str();
    std::cout << "\nWrote " << args.get("out") << "\n";

    return allIdentical ? 0 : 1;
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
