/**
 * @file
 * Replay-engine correctness: the allocation-free kernels against the
 * legacy policies (the per-access oracle), batched generation against
 * scalar, the stack-distance curve against direct LRU replays, and
 * sharded-replay determinism across thread counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "flashcache/io_trace.hh"
#include "memblade/replay.hh"
#include "memblade/stack_distance.hh"
#include "memblade/trace_io.hh"
#include "util/thread_pool.hh"

namespace {

using namespace wsc;
using namespace wsc::memblade;

void
expectSameStats(const ReplayStats &a, const ReplayStats &b)
{
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.coldMisses, b.coldMisses);
    // Integer identity implies the derived doubles are bit-identical
    // too; spot-check the arithmetic anyway.
    EXPECT_EQ(a.missRate(), b.missRate());
    EXPECT_EQ(a.warmMissRate(), b.warmMissRate());
}

/** The seed implementation of replayProfile, kept as the oracle. */
ReplayStats
legacyReplayProfile(const TraceProfile &profile, double f,
                    PolicyKind kind, std::uint64_t accesses,
                    std::uint64_t seed)
{
    auto frames = std::size_t(
        std::ceil(double(profile.footprintPages) * f));
    Rng rng(seed);
    TwoLevelMemory mem(frames, kind, rng.split());
    TraceGenerator gen(profile, rng.split());
    mem.replay(gen, accesses);
    return mem.stats();
}

TEST(ReplayKernels, MatchLegacyPoliciesBitForBit)
{
    for (auto b : {workloads::Benchmark::Websearch,
                   workloads::Benchmark::Webmail,
                   workloads::Benchmark::MapredWc}) {
        auto profile = profileFor(b);
        for (auto kind : {PolicyKind::Lru, PolicyKind::Random,
                          PolicyKind::Clock}) {
            SCOPED_TRACE(profile.name + "/" + to_string(kind));
            auto fast =
                replayProfile(profile, 0.25, kind, 200000, 7);
            auto oracle =
                legacyReplayProfile(profile, 0.25, kind, 200000, 7);
            expectSameStats(fast, oracle);
        }
    }
}

TEST(ReplayKernels, SingleFrameCacheMatchesLegacy)
{
    // frames == 1 exercises the LRU eviction path where the list
    // empties completely on every miss.
    auto profile = profileFor(workloads::Benchmark::Websearch);
    auto trace = generateTrace(profile, 20000, Rng(11));
    for (auto kind :
         {PolicyKind::Lru, PolicyKind::Random, PolicyKind::Clock}) {
        SCOPED_TRACE(to_string(kind));
        TwoLevelMemory mem(1, kind, Rng(5));
        for (PageId p : trace)
            mem.access(p);
        auto fast = replayPages(trace.data(), trace.size(), kind, 1,
                                profile.footprintPages, Rng(5));
        expectSameStats(mem.stats(), fast);
    }
}

TEST(ReplayKernels, ReplayTraceMatchesLegacyPath)
{
    auto profile = profileFor(workloads::Benchmark::Ytube);
    auto trace = generateTrace(profile, 50000, Rng(21));
    for (auto kind :
         {PolicyKind::Lru, PolicyKind::Random, PolicyKind::Clock}) {
        SCOPED_TRACE(to_string(kind));
        TwoLevelMemory mem(20000, kind, Rng(9));
        for (PageId p : trace)
            mem.access(p);
        expectSameStats(mem.stats(),
                        replayTrace(trace, 20000, kind, 9));
    }
}

/**
 * Every calibrated page and block profile, plus a small footprint
 * whose sequential runs wrap past the last page many times.
 */
std::vector<TraceProfile>
generatorProfiles()
{
    std::vector<TraceProfile> out;
    for (auto b : workloads::allBenchmarks) {
        out.push_back(profileFor(b));
        out.push_back(flashcache::ioProfileFor(b));
    }
    TraceProfile wrap;
    wrap.name = "tiny-wrapping-runs";
    wrap.footprintPages = 37;
    wrap.hotSetFraction = 0.2;
    wrap.hotProb = 0.5;
    wrap.seqRunMean = 20.0;
    out.push_back(wrap);
    return out;
}

TEST(TraceBatch, NextBatchMatchesScalarNext)
{
    for (const auto &profile : generatorProfiles()) {
        SCOPED_TRACE(profile.name);
        {
            TraceGenerator scalar(profile, Rng(33));
            TraceGenerator batched(profile, Rng(33));

            // Ragged batch sizes, including 1 and sizes larger than
            // the longest sequential run, to hit every drain path.
            const std::size_t sizes[] = {1, 2, 3, 7, 64, 1000, 4096, 5};
            std::vector<PageId> buf(4096);
            std::size_t si = 0;
            std::uint64_t checked = 0;
            while (checked < 60000) {
                std::size_t n = sizes[si++ % (sizeof(sizes) /
                                              sizeof(sizes[0]))];
                batched.nextBatch(buf.data(), n);
                for (std::size_t i = 0; i < n; ++i)
                    ASSERT_EQ(buf[i], scalar.next())
                        << "at access " << checked + i;
                checked += n;
            }
            // Both generators must land in the same state: interleave.
            for (int i = 0; i < 100; ++i)
                ASSERT_EQ(batched.next(), scalar.next());
        }
        // generateTrace fills through nextBatch; n is prime, so it is
        // no multiple of any block or run length.
        const std::uint64_t n = 30011;
        auto trace = generateTrace(profile, n, Rng(34));
        ASSERT_EQ(trace.size(), n);
        TraceGenerator scalar(profile, Rng(34));
        for (std::uint64_t i = 0; i < n; ++i)
            ASSERT_EQ(trace[i], scalar.next()) << "at access " << i;
    }
}

TEST(StackDistance, CurveMatchesDirectLruReplayEverywhere)
{
    const double fractions[] = {0.05, 0.1, 0.25, 0.5, 1.0};
    for (auto b : workloads::allBenchmarks) {
        auto profile = profileFor(b);
        SCOPED_TRACE(profile.name);
        const std::uint64_t n = 100000;
        auto curve = lruCurveForProfile(profile, n, 13);
        for (double f : fractions) {
            SCOPED_TRACE(f);
            auto frames = std::size_t(
                std::ceil(double(profile.footprintPages) * f));
            expectSameStats(
                curve.statsAt(frames),
                replayProfile(profile, f, PolicyKind::Lru, n, 13));
        }
    }
}

TEST(StackDistance, SweepMatchesIndividualReplays)
{
    auto profile = profileFor(workloads::Benchmark::Webmail);
    const std::vector<double> fractions{0.0625, 0.125, 0.25, 0.5,
                                        0.9};
    auto swept = replayProfileSweep(profile, fractions, 80000, 17);
    ASSERT_EQ(swept.size(), fractions.size());
    for (std::size_t i = 0; i < fractions.size(); ++i) {
        SCOPED_TRACE(fractions[i]);
        expectSameStats(swept[i],
                        replayProfile(profile, fractions[i],
                                      PolicyKind::Lru, 80000, 17));
    }
}

TEST(StackDistance, MeasuredWindowMatchesWindowedReplay)
{
    auto profile = profileFor(workloads::Benchmark::Websearch);
    const std::uint64_t n = 60000, warm = n / 2;
    TraceGenerator curveGen(profile, Rng(23));
    auto curve = lruCurve(curveGen, profile.footprintPages, n, warm);
    auto frames = std::size_t(
        std::ceil(double(profile.footprintPages) * 0.25));

    TraceGenerator replayGen(profile, Rng(23));
    auto w = replayWindowed(replayGen, PolicyKind::Lru, frames,
                            profile.footprintPages, n, warm, Rng(0));
    expectSameStats(curve.statsAt(frames), w.total);
    EXPECT_EQ(curve.measuredAccesses, w.measured.accesses);
    EXPECT_EQ(curve.measuredHitsAt(frames), w.measured.hits);
    EXPECT_EQ(curve.measuredColdMisses, w.measured.coldMisses);
}

/** Page draws for the engine's differential test. */
enum class Draw { Skewed, Uniform, Cyclic, Mirror };

/**
 * @p n page ids. Skewed: mostly 8 hot pages, plus a cold tail whose
 * rarest pages recur only after several 32768-timestamp superblocks
 * at small stack distances. Uniform: 300 pages. Cyclic: a 600-page
 * scan, so every reuse sits at the largest distance. Mirror: the same
 * scan up then down, so a reuse after each turn ranks behind a dense
 * run of live marks (full words and blocks before it).
 */
std::vector<PageId>
drawTrace(Draw draw, std::uint64_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<PageId> trace(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        switch (draw) {
          case Draw::Skewed:
            if (rng.bernoulli(0.95)) {
                trace[i] = rng.uniformInt(0, 7);
            } else {
                double u = rng.uniform();
                trace[i] = 8 + PageId(500.0 * u * u * u);
            }
            break;
          case Draw::Uniform:
            trace[i] = rng.uniformInt(0, 299);
            break;
          case Draw::Cyclic:
            trace[i] = i % 600;
            break;
          case Draw::Mirror:
            trace[i] = i % 1200 < 600 ? i % 1200 : 1199 - i % 1200;
            break;
        }
    }
    return trace;
}

/** Cumulative hits from a distance histogram, trimmed the way
 * StackDistanceCurve documents: one entry past the largest distance. */
std::vector<std::uint64_t>
cumulativeHits(std::vector<std::uint64_t> hist)
{
    while (!hist.empty() && hist.back() == 0)
        hist.pop_back();
    std::vector<std::uint64_t> cum(hist.size() + 1, 0);
    for (std::size_t d = 0; d < hist.size(); ++d)
        cum[d + 1] = cum[d] + hist[d];
    return cum;
}

/**
 * The oracle: a move-to-front LRU stack. A page's depth in the stack
 * is its stack distance; accesses at index >= @p warmup also count
 * toward the measured window.
 */
StackDistanceCurve
naiveLruCurve(const std::vector<PageId> &trace, std::uint64_t warmup)
{
    StackDistanceCurve c;
    std::vector<PageId> stack;
    std::vector<std::uint64_t> hist, measuredHist;
    for (std::uint64_t i = 0; i < trace.size(); ++i) {
        bool measured = i >= warmup;
        ++c.accesses;
        c.measuredAccesses += measured;
        auto it = std::find(stack.begin(), stack.end(), trace[i]);
        if (it == stack.end()) {
            ++c.coldMisses;
            c.measuredColdMisses += measured;
            stack.insert(stack.begin(), trace[i]);
            continue;
        }
        auto d = std::size_t(it - stack.begin());
        for (auto *h : {&hist, &measuredHist}) {
            if (h == &measuredHist && !measured)
                continue;
            if (h->size() <= d)
                h->resize(d + 1, 0);
            ++(*h)[d];
        }
        std::rotate(stack.begin(), it, it + 1);
    }
    c.cumHits = cumulativeHits(hist);
    c.measuredCumHits = cumulativeHits(measuredHist);
    return c;
}

TEST(StackDistance, MatchesMoveToFrontStackAcrossCountBoundaries)
{
    // Trace lengths straddle every count level (64-timestamp words,
    // 512 and 4096 spans, 32768 superblocks) and reach several closed
    // superblocks, so tree prefixes take more than one step.
    const std::uint64_t lengths[] = {
        63,    64,    65,    511,   512,   513,    4095,  4096,
        4097,  32767, 32768, 32769, 98305, 163843};
    for (auto draw :
         {Draw::Skewed, Draw::Uniform, Draw::Cyclic, Draw::Mirror}) {
        for (std::uint64_t n : lengths) {
            SCOPED_TRACE(testing::Message()
                         << "draw " << int(draw) << ", n " << n);
            auto trace = drawTrace(draw, n, 1000 + n);
            std::uint64_t warmup = n / 3;
            auto want = naiveLruCurve(trace, warmup);

            StackDistanceEngine eng(600, n);
            for (std::uint64_t i = 0; i < n; ++i) {
                if (i == warmup)
                    eng.beginMeasurement();
                eng.access(trace[i]);
            }
            auto got = eng.finish();
            EXPECT_EQ(got.accesses, want.accesses);
            EXPECT_EQ(got.coldMisses, want.coldMisses);
            EXPECT_EQ(got.measuredAccesses, want.measuredAccesses);
            EXPECT_EQ(got.measuredColdMisses, want.measuredColdMisses);
            EXPECT_EQ(got.cumHits, want.cumHits);
            EXPECT_EQ(got.measuredCumHits, want.measuredCumHits);
        }
    }
}

TEST(ShardedReplay, IdenticalAcrossThreadCounts)
{
    auto profile = profileFor(workloads::Benchmark::Websearch);
    for (auto kind : {PolicyKind::Lru, PolicyKind::Random}) {
        SCOPED_TRACE(to_string(kind));
        ThreadPool one(1);
        auto ref = shardedReplayProfile(profile, 0.25, kind, 100001,
                                        42, 8, &one);
        // 100001 accesses over 8 shards: the remainder spreads over
        // the first shard, so uneven splits are covered too.
        for (unsigned threads : {2u, 8u}) {
            SCOPED_TRACE(threads);
            ThreadPool pool(threads);
            auto got = shardedReplayProfile(profile, 0.25, kind,
                                            100001, 42, 8, &pool);
            expectSameStats(ref, got);
        }
    }
}

TEST(PageSlotMap, ChurnMatchesUnorderedMapReference)
{
    // Randomized insert/erase/find churn against std::unordered_map,
    // in both representations: hash mode (pageBound 0) with a working
    // set near the table's load limit so backshift deletion runs
    // constantly, and direct-mapped mode with the same operations.
    for (std::uint64_t pageBound : {std::uint64_t(0),
                                    std::uint64_t(1001)}) {
        SCOPED_TRACE(pageBound);
        const std::size_t entries = 300;
        PageSlotMap map(entries, pageBound);
        std::unordered_map<PageId, std::uint32_t> ref;
        Rng rng(99);
        for (int op = 0; op < 20000; ++op) {
            PageId page = rng.uniformInt(0, 1000);
            auto it = ref.find(page);
            ASSERT_EQ(map.find(page), it == ref.end()
                                          ? PageSlotMap::kNoSlot
                                          : it->second)
                << "op " << op;
            if (it != ref.end()) {
                map.erase(page);
                ref.erase(it);
            } else if (ref.size() < entries) {
                auto slot = std::uint32_t(op);
                map.insert(page, slot);
                ref.emplace(page, slot);
            }
            ASSERT_EQ(map.size(), ref.size());
        }
    }
}

TEST(ColdTracker, BitsetAndSparseAgree)
{
    ColdTracker dense(4096); // bitset path
    ColdTracker sparse(0);   // hash-set path
    Rng rng(5);
    for (int i = 0; i < 20000; ++i) {
        PageId page = rng.uniformInt(0, 4095);
        ASSERT_EQ(dense.firstTouch(page), sparse.firstTouch(page));
    }
}

TEST(ReplayWindowed, ZeroWarmupMeasuresEverything)
{
    auto profile = profileFor(workloads::Benchmark::Webmail);
    TraceGenerator gen(profile, Rng(3));
    auto w = replayWindowed(gen, PolicyKind::Lru, 10000,
                            profile.footprintPages, 30000, 0, Rng(0));
    expectSameStats(w.total, w.measured);
}

} // namespace
