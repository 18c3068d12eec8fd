/**
 * @file
 * Unit tests for the flash disk-cache subsystem (Table 3).
 */

#include <gtest/gtest.h>

#include "flashcache/devices.hh"
#include "flashcache/io_trace.hh"
#include "flashcache/storage.hh"
#include "platform/catalog.hh"
#include "util/units.hh"

namespace {

using namespace wsc;
using namespace wsc::flashcache;

TEST(Devices, Table3aParameters)
{
    auto lap = laptopDisk();
    EXPECT_DOUBLE_EQ(lap.capacityGB, 200.0);
    EXPECT_DOUBLE_EQ(lap.bandwidthMBs, 20.0);
    EXPECT_DOUBLE_EQ(lap.avgAccessMs, 15.0);
    EXPECT_DOUBLE_EQ(lap.watts, 2.0);
    EXPECT_DOUBLE_EQ(lap.dollars, 80.0);
    EXPECT_TRUE(lap.remote);

    auto lap2 = laptop2Disk();
    EXPECT_DOUBLE_EQ(lap2.dollars, 40.0);
    EXPECT_DOUBLE_EQ(lap2.bandwidthMBs, lap.bandwidthMBs);

    auto desk = desktopDisk();
    EXPECT_DOUBLE_EQ(desk.capacityGB, 500.0);
    EXPECT_DOUBLE_EQ(desk.bandwidthMBs, 70.0);
    EXPECT_DOUBLE_EQ(desk.avgAccessMs, 4.0);
    EXPECT_DOUBLE_EQ(desk.watts, 10.0);
    EXPECT_DOUBLE_EQ(desk.dollars, 120.0);
    EXPECT_FALSE(desk.remote);

    FlashSpec flash;
    EXPECT_DOUBLE_EQ(flash.capacityGB, 1.0);
    EXPECT_DOUBLE_EQ(flash.dollars, 14.0);
    EXPECT_DOUBLE_EQ(flash.watts, 0.5);
    EXPECT_DOUBLE_EQ(flash.bandwidthMBs, 50.0);
    EXPECT_DOUBLE_EQ(flash.readLatencyUs, 20.0);
    EXPECT_DOUBLE_EQ(flash.writeLatencyUs, 200.0);
    EXPECT_DOUBLE_EQ(flash.eraseLatencyMs, 1.2);
}

TEST(IoTrace, ProfilesForAllBenchmarks)
{
    for (auto b : workloads::allBenchmarks) {
        auto p = ioProfileFor(b);
        EXPECT_GT(p.footprintPages, 0u);
    }
}

TEST(IoTrace, InteractiveWorkloadsCacheWell)
{
    // The flash cache pays off on the skewed interactive workloads;
    // streaming mapreduce barely reuses blocks (its 5 GB corpus blows
    // through the 1 GB device).
    FlashSpec spec;
    auto ws = evaluateFlashCache(workloads::Benchmark::Websearch, spec,
                                 400000, 5e6, 1);
    auto wc = evaluateFlashCache(workloads::Benchmark::MapredWc, spec,
                                 400000, 5e6, 1);
    EXPECT_GT(ws.hitRate, 0.6);
    EXPECT_LT(wc.hitRate, 0.5);
    EXPECT_GT(ws.hitRate, wc.hitRate);
}

TEST(IoTrace, LifetimeWithinDepreciationForInteractive)
{
    // Paper Section 3.5: 3-year depreciation makes flash viable for
    // the interactive workloads.
    FlashSpec spec;
    auto ws = evaluateFlashCache(workloads::Benchmark::Websearch, spec,
                                 400000, 5e6, 2);
    EXPECT_GT(ws.lifetimeYears, 3.0);
}

TEST(IoTrace, LifetimeIsClosedFormOfHitRate)
{
    // Read-allocate: flash absorbs one block write per miss, so the
    // write rate is the missed share of the disk-read traffic and the
    // device lasts capacity / rate * endurance. Exact, not near: the
    // projection is plain arithmetic on the measured hit rate.
    FlashSpec spec;
    const double readBytesPerSecond = 5e6;
    for (auto b : {workloads::Benchmark::Websearch,
                   workloads::Benchmark::Ytube}) {
        auto out = evaluateFlashCache(b, spec, 200000,
                                      readBytesPerSecond, 4);
        ASSERT_GT(out.hitRate, 0.0);
        ASSERT_LT(out.hitRate, 1.0);
        double writeRate = readBytesPerSecond * (1.0 - out.hitRate);
        double seconds = spec.capacityGB * units::GiB / writeRate *
                         spec.enduranceCycles;
        EXPECT_EQ(out.lifetimeYears,
                  seconds / (units::hoursPerYear *
                             units::secondsPerHour))
            << workloads::to_string(b);
    }
}

TEST(IoTrace, SweepMatchesPerSpecEvaluationExactly)
{
    // The single-pass stack-distance sweep must report exactly what
    // per-capacity replays report — bitwise on the doubles, since
    // both sides run the same arithmetic on the same integer counts.
    std::vector<FlashSpec> specs;
    for (double gb : {0.25, 0.5, 1.0, 2.0, 4.0}) {
        FlashSpec s;
        s.capacityGB = gb;
        specs.push_back(s);
    }
    for (auto b : {workloads::Benchmark::Websearch,
                   workloads::Benchmark::Webmail}) {
        auto swept = evaluateFlashCacheSweep(b, specs, 300000, 5e6, 3);
        ASSERT_EQ(swept.size(), specs.size());
        for (std::size_t i = 0; i < specs.size(); ++i) {
            SCOPED_TRACE(specs[i].capacityGB);
            auto direct =
                evaluateFlashCache(b, specs[i], 300000, 5e6, 3);
            EXPECT_EQ(swept[i].hitRate, direct.hitRate);
            EXPECT_EQ(swept[i].wearCyclesPerBlock,
                      direct.wearCyclesPerBlock);
            EXPECT_EQ(swept[i].lifetimeYears, direct.lifetimeYears);
        }
    }
}

TEST(Storage, FourOptionsInOrder)
{
    auto all = StorageOption::all();
    ASSERT_EQ(all.size(), 4u);
    EXPECT_EQ(all[0].name, "Local Desktop");
    EXPECT_EQ(all[1].name, "Remote Laptop");
    EXPECT_EQ(all[2].name, "Remote Laptop + Flash");
    EXPECT_EQ(all[3].name, "Remote Laptop-2 + Flash");
    EXPECT_FALSE(all[0].hasFlashCache);
    EXPECT_TRUE(all[2].hasFlashCache);
}

TEST(Storage, PerfOptionsCarrySanOverhead)
{
    auto opts = perfOptionsFor(StorageOption::remoteLaptop(),
                               workloads::Benchmark::Ytube);
    ASSERT_TRUE(opts.diskOverride.has_value());
    EXPECT_DOUBLE_EQ(opts.extraDiskAccessMs, sanAccessOverheadMs);
    EXPECT_DOUBLE_EQ(opts.flashCacheHitRate, 0.0);

    auto local = perfOptionsFor(StorageOption::localDesktop(),
                                workloads::Benchmark::Ytube);
    EXPECT_DOUBLE_EQ(local.extraDiskAccessMs, 0.0);
}

TEST(Storage, FlashOptionsCarryHitRate)
{
    auto opts = perfOptionsFor(StorageOption::remoteLaptopFlash(),
                               workloads::Benchmark::Websearch);
    EXPECT_GT(opts.flashCacheHitRate, 0.5);
    EXPECT_LT(opts.flashCacheHitRate, 1.0);
    EXPECT_DOUBLE_EQ(opts.flashReadMBs, 50.0);
}

TEST(Storage, OverridesMatchPerfOptionsWithoutAHitRate)
{
    // The benchmark-independent part of perfOptionsFor, applied on
    // top of existing options: everything but the flash hit rate.
    for (const auto &option : StorageOption::all()) {
        SCOPED_TRACE(option.name);
        auto full =
            perfOptionsFor(option, workloads::Benchmark::Websearch);
        perfsim::PerfOptions opts;
        opts.flashCacheHitRate = 0.125;
        applyStorageOverrides(option, opts);
        ASSERT_TRUE(opts.diskOverride.has_value());
        EXPECT_EQ(opts.diskOverride->cls, full.diskOverride->cls);
        EXPECT_EQ(opts.diskOverride->remote, full.diskOverride->remote);
        EXPECT_EQ(opts.extraDiskAccessMs, full.extraDiskAccessMs);
        EXPECT_EQ(opts.flashAccessMs, full.flashAccessMs);
        EXPECT_EQ(opts.flashReadMBs, full.flashReadMBs);
        EXPECT_EQ(opts.flashCacheHitRate, 0.125);
    }
}

TEST(Storage, CostApplicationReplacesDiskAddsFlash)
{
    auto emb1 = platform::makeSystem(platform::SystemClass::Emb1);
    auto cfg = withStorage(emb1, StorageOption::remoteLaptopFlash());
    EXPECT_DOUBLE_EQ(cfg.disk.dollars, 80.0);
    EXPECT_DOUBLE_EQ(cfg.disk.watts, 2.0);
    EXPECT_DOUBLE_EQ(cfg.boardMgmtDollars,
                     emb1.boardMgmtDollars + 14.0);
    EXPECT_DOUBLE_EQ(cfg.boardMgmtWatts, emb1.boardMgmtWatts + 0.5);

    auto plain = withStorage(emb1, StorageOption::remoteLaptop());
    EXPECT_DOUBLE_EQ(plain.boardMgmtDollars, emb1.boardMgmtDollars);
}

TEST(Storage, Laptop2CheaperSamePerformance)
{
    auto a = StorageOption::remoteLaptopFlash();
    auto b = StorageOption::remoteLaptop2Flash();
    EXPECT_LT(b.disk.dollars, a.disk.dollars);
    EXPECT_DOUBLE_EQ(b.disk.bandwidthMBs, a.disk.bandwidthMBs);
    EXPECT_DOUBLE_EQ(b.disk.avgAccessMs, a.disk.avgAccessMs);
}

} // namespace
