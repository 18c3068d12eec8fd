/**
 * @file
 * Guide-table sampling throughput: scalar draws vs the batched
 * SampleBatcher (sim/batch_sampler.hh).
 *
 * The scalar path pays two dependent cache misses per draw on large
 * tables (the uniformly-hit guide cell, then the CDF resolution line);
 * the batcher issues a block of prefetches per pass so the misses
 * overlap. Two comparisons per table:
 *
 *  - mt19937 rows: batched draws from the same Rng must reproduce the
 *    scalar sequence exactly (the batcher consumes one uniform per
 *    draw in draw order) — gated on bit-identity;
 *  - splitmix64 rows: the fast-mode engine (util/random.hh), same
 *    uniform law but different bits, so the gate is a two-sample KS
 *    test on the drawn ranks instead (stats/equivalence.hh).
 *
 * The bench exits nonzero if any gate fails. Timings land in
 * BENCH_sampler.json.
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/batch_sampler.hh"
#include "sim/distributions.hh"
#include "stats/equivalence.hh"
#include "util/args.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace wsc;
using namespace wsc::sim;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Best-of-N timing: the minimum discards interference from a noisy
 * shared host, which the mean does not. */
constexpr int kTimedReps = 3;

struct SamplerRow {
    std::string name;
    std::string engine;  //!< uniform source of the batched side
    std::string gate;    //!< "bit-identity" or "ks"
    std::size_t tableEntries = 0;
    std::size_t draws = 0;
    double scalarSec = 0.0;
    double batchedSec = 0.0;
    bool ok = false;
    double ksP = 1.0; //!< KS-gated rows only

    double
    scalarDrawsPerSec() const
    {
        return scalarSec > 0.0 ? double(draws) / scalarSec : 0.0;
    }
    double
    batchedDrawsPerSec() const
    {
        return batchedSec > 0.0 ? double(draws) / batchedSec : 0.0;
    }
    double
    speedup() const
    {
        return batchedSec > 0.0 ? scalarSec / batchedSec : 0.0;
    }
};

SamplerRow
compareZipf(const std::string &name, std::uint64_t items,
            double exponent, std::size_t draws, std::uint64_t seed)
{
    SamplerRow row;
    row.name = name;
    row.engine = "mt19937";
    row.gate = "bit-identity";
    row.tableEntries = std::size_t(items);
    row.draws = draws;

    ZipfDist dist(items, exponent);
    std::vector<std::uint64_t> scalarOut(draws), batchedOut(draws);

    for (int rep = 0; rep < kTimedReps; ++rep) {
        Rng rng(seed);
        auto t0 = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < draws; ++i)
            scalarOut[i] = dist.sampleRank(rng);
        double sec = secondsSince(t0);
        if (rep == 0 || sec < row.scalarSec)
            row.scalarSec = sec;
    }

    SampleBatcher batcher;
    for (int rep = 0; rep < kTimedReps; ++rep) {
        Rng rng(seed);
        auto t0 = std::chrono::steady_clock::now();
        batcher.drawZipfRanks(dist, rng, batchedOut.data(), draws);
        double sec = secondsSince(t0);
        if (rep == 0 || sec < row.batchedSec)
            row.batchedSec = sec;
    }

    row.ok = scalarOut == batchedOut;
    return row;
}

/**
 * The fast-mode configuration: batched draws over SplitMix64 uniforms
 * vs the scalar mt19937 path. Not bit-comparable, so the gate is a
 * two-sample KS test on the drawn ranks — with millions of draws per
 * side any law mismatch drives the p-value to ~0.
 */
SamplerRow
compareZipfFast(const std::string &name, std::uint64_t items,
                double exponent, std::size_t draws, std::uint64_t seed)
{
    SamplerRow row;
    row.name = name;
    row.engine = "splitmix64";
    row.gate = "ks";
    row.tableEntries = std::size_t(items);
    row.draws = draws;

    ZipfDist dist(items, exponent);
    std::vector<std::uint64_t> scalarOut(draws), batchedOut(draws);

    for (int rep = 0; rep < kTimedReps; ++rep) {
        Rng rng(seed);
        auto t0 = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < draws; ++i)
            scalarOut[i] = dist.sampleRank(rng);
        double sec = secondsSince(t0);
        if (rep == 0 || sec < row.scalarSec)
            row.scalarSec = sec;
    }

    SampleBatcher batcher;
    std::uint64_t fastSeed = Rng(seed).stream("uniforms").seed();
    for (int rep = 0; rep < kTimedReps; ++rep) {
        SplitMix64 rng(fastSeed);
        auto t0 = std::chrono::steady_clock::now();
        batcher.drawZipfRanks(dist, rng, batchedOut.data(), draws);
        double sec = secondsSince(t0);
        if (rep == 0 || sec < row.batchedSec)
            row.batchedSec = sec;
    }

    // KS on (subsampled) ranks: the test is O(n log n) in sample size
    // and saturates in power long before millions of points.
    constexpr std::size_t kKsCap = 200000;
    std::size_t stride = draws > kKsCap ? draws / kKsCap : 1;
    std::vector<double> a, b;
    a.reserve(draws / stride + 1);
    b.reserve(draws / stride + 1);
    for (std::size_t i = 0; i < draws; i += stride) {
        a.push_back(double(scalarOut[i]));
        b.push_back(double(batchedOut[i]));
    }
    auto ks = stats::ksTwoSample(std::move(a), std::move(b));
    row.ksP = ks.pValue;
    row.ok = ks.passes(stats::EquivalenceSpec{}.ksAlpha);
    return row;
}

SamplerRow
compareEmpirical(const std::string &name, std::size_t draws,
                 std::uint64_t seed)
{
    SamplerRow row;
    row.name = name;
    row.engine = "mt19937";
    row.gate = "bit-identity";
    row.draws = draws;

    // The websearch keyword-count mix: a 5-entry table, fully
    // cache-resident — the case where batching must at least not lose.
    EmpiricalDist dist({1.0, 2.0, 3.0, 4.0, 5.0},
                       {0.28, 0.36, 0.22, 0.10, 0.04});
    row.tableEntries = dist.size();
    std::vector<std::uint32_t> scalarOut(draws), batchedOut(draws);

    for (int rep = 0; rep < kTimedReps; ++rep) {
        Rng rng(seed);
        auto t0 = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < draws; ++i)
            scalarOut[i] = std::uint32_t(dist.sampleIndex(rng));
        double sec = secondsSince(t0);
        if (rep == 0 || sec < row.scalarSec)
            row.scalarSec = sec;
    }

    SampleBatcher batcher;
    for (int rep = 0; rep < kTimedReps; ++rep) {
        Rng rng(seed);
        auto t0 = std::chrono::steady_clock::now();
        batcher.drawEmpiricalIndices(dist, rng, batchedOut.data(),
                                     draws);
        double sec = secondsSince(t0);
        if (rep == 0 || sec < row.batchedSec)
            row.batchedSec = sec;
    }

    row.ok = scalarOut == batchedOut;
    return row;
}

} // namespace

int
run(int argc, char **argv)
{
    ArgParser args("bench_sampler",
                   "scalar vs batched guide-table sampling, gated on "
                   "sequence bit-identity");
    args.addOption("draws", "draws per comparison", "2000000")
        .addOption("out", "JSON output path", "BENCH_sampler.json");
    if (!args.parse(argc, argv))
        return 0;

    auto draws = std::size_t(args.getCount("draws", 1000, 1000000000));

    std::cout << "=== Guide-table sampling throughput (" << draws
              << " draws, best of " << kTimedReps << ") ===\n\n";

    std::vector<SamplerRow> rows;
    // The closed-loop suite's actual tables: websearch terms (200k,
    // ~2.4 MB guide+cdf, misses on every draw) and ytube popularity
    // (100k), plus the tiny cache-resident keyword mix. The mt19937
    // rows isolate the batching win (bit-identical draws); the
    // splitmix64 rows measure the full fast-mode configuration.
    rows.push_back(
        compareZipf("zipf-200k (websearch terms)", 200000, 0.95, draws,
                    11));
    rows.push_back(
        compareZipf("zipf-100k (ytube popularity)", 100000, 0.9, draws,
                    22));
    rows.push_back(
        compareZipf("zipf-10k (small table)", 10000, 0.9, draws, 33));
    rows.push_back(
        compareEmpirical("empirical-5 (keyword mix)", draws, 44));
    rows.push_back(compareZipfFast("zipf-200k fast (websearch terms)",
                                   200000, 0.95, draws, 11));
    rows.push_back(compareZipfFast("zipf-100k fast (ytube popularity)",
                                   100000, 0.9, draws, 22));

    Table t({"Table", "Engine", "Entries", "Scalar Mdraw/s",
             "Batched Mdraw/s", "Speedup", "Result"});
    bool allOk = true;
    for (const auto &r : rows) {
        allOk = allOk && r.ok;
        std::string result;
        if (r.gate == "bit-identity")
            result = r.ok ? "bit-identical" : "MISMATCH";
        else
            result = (r.ok ? "KS pass p=" : "KS FAIL p=") +
                     fmtF(r.ksP, 3);
        t.addRow({r.name, r.engine, std::to_string(r.tableEntries),
                  fmtF(r.scalarDrawsPerSec() / 1e6, 2),
                  fmtF(r.batchedDrawsPerSec() / 1e6, 2),
                  fmtF(r.speedup(), 2) + "x", result});
    }
    t.print(std::cout);

    // Acceptance target: >= 2x on at least one workload-sized table
    // (the splitmix64 rows are the fast-mode configuration).
    bool target = false;
    for (const auto &r : rows)
        if (r.tableEntries >= 100000)
            target = target || r.speedup() >= 2.0;
    std::cout << "\nTarget: >= 2x on a workload-sized table "
              << (target ? "met" : "NOT MET") << "\n";

    std::ostringstream json;
    json.setf(std::ios::fixed);
    json.precision(6);
    json << "{\n"
         << "  \"bench\": \"sampler\",\n"
         << "  \"schema_version\": 1,\n"
         << "  \"config\": {\n"
         << "    \"draws\": " << draws << ",\n"
         << "    \"reps\": " << kTimedReps << "\n"
         << "  },\n"
         << "  \"runs\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto &r = rows[i];
        json << "    {\"table\": \"" << r.name
             << "\", \"engine\": \"" << r.engine
             << "\", \"gate\": \"" << r.gate
             << "\", \"entries\": " << r.tableEntries
             << ", \"scalar_seconds\": " << r.scalarSec
             << ", \"batched_seconds\": " << r.batchedSec
             << ", \"scalar_draws_per_sec\": " << r.scalarDrawsPerSec()
             << ", \"batched_draws_per_sec\": "
             << r.batchedDrawsPerSec()
             << ", \"speedup\": " << r.speedup()
             << ", \"ks_p_value\": " << r.ksP
             << ", \"gate_passed\": " << (r.ok ? "true" : "false")
             << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"targets\": {\n"
         << "    \"workload_table_2x\": " << (target ? "true" : "false")
         << "\n"
         << "  }\n"
         << "}\n";

    std::ofstream out(args.get("out"));
    out << json.str();
    std::cout << "\nWrote " << args.get("out") << "\n";

    return allOk ? 0 : 1;
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
