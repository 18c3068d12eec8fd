/**
 * @file
 * Unit tests for the benchmark-suite workload models (Table 1).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "sim/distributions.hh"
#include "workloads/mapreduce.hh"
#include "workloads/suite.hh"
#include "workloads/webmail.hh"
#include "workloads/websearch.hh"
#include "workloads/ytube.hh"

namespace {

using namespace wsc;
using namespace wsc::workloads;

TEST(Suite, AllFiveBenchmarksInstantiable)
{
    for (auto b : allBenchmarks) {
        auto w = makeBenchmark(b);
        ASSERT_NE(w, nullptr);
        EXPECT_EQ(w->name(), to_string(b));
    }
}

TEST(Suite, KindsMatchPaperTable1)
{
    EXPECT_EQ(makeBenchmark(Benchmark::Websearch)->kind(),
              WorkloadKind::Interactive);
    EXPECT_EQ(makeBenchmark(Benchmark::Webmail)->kind(),
              WorkloadKind::Interactive);
    EXPECT_EQ(makeBenchmark(Benchmark::Ytube)->kind(),
              WorkloadKind::Interactive);
    EXPECT_EQ(makeBenchmark(Benchmark::MapredWc)->kind(),
              WorkloadKind::Batch);
    EXPECT_EQ(makeBenchmark(Benchmark::MapredWr)->kind(),
              WorkloadKind::Batch);
}

TEST(Websearch, QosMatchesTable1)
{
    Websearch ws;
    EXPECT_DOUBLE_EQ(ws.qos().quantile, 0.95);
    EXPECT_DOUBLE_EQ(ws.qos().latencyLimit, 0.5);
}

TEST(Websearch, SampleMeanTracksMeanDemand)
{
    Websearch ws;
    Rng rng(5);
    ServiceDemand acc;
    const int n = 40000;
    for (int i = 0; i < n; ++i) {
        auto d = ws.nextRequest(rng);
        acc.cpuWork += d.cpuWork;
        acc.diskReadBytes += d.diskReadBytes;
        acc.netBytes += d.netBytes;
    }
    auto mean = ws.meanDemand();
    EXPECT_NEAR(acc.cpuWork / n, mean.cpuWork, 0.10 * mean.cpuWork);
    EXPECT_NEAR(acc.diskReadBytes / n, mean.diskReadBytes,
                0.15 * mean.diskReadBytes);
    EXPECT_DOUBLE_EQ(acc.netBytes / n, mean.netBytes);
}

TEST(Websearch, PopularTermsAreCached)
{
    Websearch ws;
    EXPECT_TRUE(ws.termIsCached(1));
    EXPECT_FALSE(ws.termIsCached(ws.params().vocabularyTerms));
}

bool
sameBits(const ServiceDemand &a, const ServiceDemand &b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** The next few raw engine words agree (same Rng state). */
void
expectSameRngState(Rng &a, Rng &b)
{
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(a.raw()(), b.raw()());
}

TEST(Websearch, CachedCompareMatchesRankInversion)
{
    // nextRequest tests a term's uniform against the Zipf CDF at the
    // cached-rank limit instead of inverting it to a rank. Reference:
    // the rank formulation, spelled out with same-parameter tables.
    for (double fraction : {0.0, 0.25, 1.0}) {
        WebsearchParams wp;
        wp.cachedTermFraction = fraction;
        Websearch ws(wp), reference(wp);
        sim::ZipfDist terms(wp.vocabularyTerms, wp.termZipfExponent);
        sim::LognormalDist shape(1.0, wp.covCpu);
        for (std::uint64_t seed : {3u, 17u, 2024u}) {
            SCOPED_TRACE(testing::Message() << "fraction " << fraction
                                            << " seed " << seed);
            Rng a(seed), b(seed);
            std::size_t mismatches = 0;
            double coldBytes = 0.0;
            for (int i = 0; i < 200000; ++i) {
                ServiceDemand got = ws.nextRequest(a);
                unsigned keywords = reference.sampleKeywordCount(b);
                ServiceDemand want;
                double work = wp.cpuWorkBase +
                              wp.cpuWorkPerTerm * double(keywords);
                want.cpuWork = work * shape.sampleImpl(b);
                for (unsigned k = 0; k < keywords; ++k)
                    if (!reference.termIsCached(terms.sampleRank(b)))
                        want.diskReadBytes += wp.postingListBytes;
                want.netBytes = wp.responseBytes;
                mismatches += !sameBits(got, want);
                coldBytes += got.diskReadBytes;
            }
            EXPECT_EQ(mismatches, 0u);
            expectSameRngState(a, b);
            // The edge fractions are really exercised.
            if (fraction == 1.0)
                EXPECT_EQ(coldBytes, 0.0);
            else
                EXPECT_GT(coldBytes, 0.0);
        }
    }
}

TEST(Websearch, KeywordCountsInObservedRange)
{
    Websearch ws;
    Rng rng(6);
    for (int i = 0; i < 1000; ++i) {
        unsigned k = ws.sampleKeywordCount(rng);
        EXPECT_GE(k, 1u);
        EXPECT_LE(k, 5u);
    }
}

TEST(Websearch, DiskReadsOnlyForColdTerms)
{
    // With everything cached there must be no disk demand.
    WebsearchParams p;
    p.cachedTermFraction = 1.0;
    Websearch ws(p);
    Rng rng(7);
    for (int i = 0; i < 200; ++i)
        EXPECT_DOUBLE_EQ(ws.nextRequest(rng).diskReadBytes, 0.0);
    EXPECT_DOUBLE_EQ(ws.meanDemand().diskReadOps, 0.0);
}

TEST(Webmail, QosMatchesTable1)
{
    Webmail wm;
    EXPECT_DOUBLE_EQ(wm.qos().quantile, 0.95);
    EXPECT_DOUBLE_EQ(wm.qos().latencyLimit, 0.8);
}

TEST(Webmail, ActionMixCoversAllActions)
{
    Webmail wm;
    Rng rng(8);
    int counts[8] = {};
    for (int i = 0; i < 20000; ++i)
        ++counts[int(wm.sampleAction(rng))];
    for (int i = 0; i < 8; ++i)
        EXPECT_GT(counts[i], 0) << "action " << i << " never drawn";
    // ReadMessage dominates the heavy-usage mix.
    EXPECT_GT(counts[int(MailAction::ReadMessage)],
              counts[int(MailAction::Login)]);
}

TEST(Webmail, MeanDemandConsistentWithSamples)
{
    Webmail wm;
    Rng rng(9);
    double cpu = 0, net = 0;
    const int n = 60000;
    for (int i = 0; i < n; ++i) {
        auto d = wm.nextRequest(rng);
        cpu += d.cpuWork;
        net += d.netBytes;
    }
    auto mean = wm.meanDemand();
    EXPECT_NEAR(cpu / n, mean.cpuWork, 0.10 * mean.cpuWork);
    EXPECT_NEAR(net / n, mean.netBytes, 0.10 * mean.netBytes);
}

TEST(Webmail, BackendTrafficIncluded)
{
    // Network bytes must exceed the raw body size: IMAP/SMTP backend
    // chatter is part of the workload (paper Section 2.1).
    Webmail wm;
    auto mean = wm.meanDemand();
    EXPECT_GT(mean.netBytes,
              (mean.diskReadBytes + mean.diskWriteBytes));
}

TEST(Ytube, StreamingTraits)
{
    Ytube yt;
    auto t = yt.traits();
    EXPECT_GT(t.streamPacingCapMBs, 0.0);
    EXPECT_GT(t.diskCacheHitRate, 0.5); // Zipf head cached
    EXPECT_DOUBLE_EQ(t.cpuScalingGamma, 1.0);
}

TEST(Ytube, TransferSizesHeavyTailed)
{
    Ytube yt;
    Rng rng(10);
    double max_mb = 0, sum = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        auto d = yt.nextRequest(rng);
        double mb = d.netBytes / 1e6;
        max_mb = std::max(max_mb, mb);
        sum += mb;
    }
    double mean = sum / n;
    EXPECT_NEAR(mean, yt.params().meanTransferMB,
                0.15 * yt.params().meanTransferMB);
    // Heavy tail: the max is many times the mean.
    EXPECT_GT(max_mb, 5.0 * mean);
}

TEST(Ytube, DiskDemandEqualsNetworkDemand)
{
    // Whole objects are read and streamed.
    Ytube yt;
    Rng rng(11);
    auto d = yt.nextRequest(rng);
    EXPECT_DOUBLE_EQ(d.diskReadBytes, d.netBytes);
}

TEST(Ytube, PopularityRanksValid)
{
    Ytube yt;
    Rng rng(12);
    for (int i = 0; i < 2000; ++i) {
        auto r = yt.sampleVideoRank(rng);
        EXPECT_GE(r, 1u);
        EXPECT_LE(r, yt.params().catalogSize);
    }
}

TEST(Ytube, RequestsMatchRankDrawingFormulation)
{
    // nextRequest draws the unused popularity rank's uniform without
    // the lookup. Reference: draw the rank, then the transfer size.
    YtubeParams yp;
    Ytube yt(yp);
    sim::ZipfDist popularity(yp.catalogSize, yp.popularityZipf);
    sim::LognormalDist size(yp.meanTransferMB, yp.covTransfer);
    for (std::uint64_t seed : {3u, 17u, 2024u}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        Rng a(seed), b(seed);
        std::size_t mismatches = 0;
        for (int i = 0; i < 200000; ++i) {
            ServiceDemand got = yt.nextRequest(a);
            (void)popularity.sampleRank(b);
            double mb = size.sampleImpl(b);
            ServiceDemand want;
            want.cpuWork = yp.cpuWorkBase + yp.cpuWorkPerMB * mb;
            want.diskReadBytes = mb * 1.0e6;
            want.netBytes = mb * 1.0e6;
            mismatches += !sameBits(got, want);
        }
        EXPECT_EQ(mismatches, 0u);
        expectSameRngState(a, b);
    }
}

TEST(MapReduce, WordCountTaskStructure)
{
    MapReduce wc(MapReduceApp::WordCount);
    Rng rng(13);
    auto tasks = wc.tasks(rng);
    // 5 GB in 64 MB splits = 80 maps, plus 8 reduces.
    EXPECT_EQ(wc.mapTaskCount(), 80u);
    EXPECT_EQ(tasks.size(), 88u);
    unsigned reduces = 0;
    for (const auto &t : tasks) {
        if (t.isReduce) {
            ++reduces;
            EXPECT_GT(t.diskWriteBytes, 0.0);
            EXPECT_DOUBLE_EQ(t.diskReadBytes, 0.0);
        } else {
            EXPECT_GT(t.diskReadBytes, 0.0);
            EXPECT_DOUBLE_EQ(t.diskWriteBytes, 0.0);
            EXPECT_GT(t.cpuWork, 0.0);
        }
    }
    EXPECT_EQ(reduces, 8u);
}

TEST(MapReduce, FileWriteTaskStructure)
{
    MapReduce wr(MapReduceApp::FileWrite);
    Rng rng(14);
    auto tasks = wr.tasks(rng);
    // 2 GB in 64 MB splits = 32 write maps, no reduces.
    EXPECT_EQ(tasks.size(), 32u);
    for (const auto &t : tasks) {
        EXPECT_FALSE(t.isReduce);
        EXPECT_GT(t.diskWriteBytes, 0.0);
        EXPECT_DOUBLE_EQ(t.diskReadBytes, 0.0);
    }
}

TEST(MapReduce, FourThreadsPerCore)
{
    MapReduce wc(MapReduceApp::WordCount);
    EXPECT_EQ(wc.threadsPerCore(), 4u); // paper: Hadoop, 4 per CPU
}

TEST(MapReduce, JitterPreservesMeanWork)
{
    MapReduce wc(MapReduceApp::WordCount);
    Rng rng(15);
    double total = 0;
    unsigned maps = 0;
    for (int rep = 0; rep < 20; ++rep) {
        for (const auto &t : wc.tasks(rng)) {
            if (!t.isReduce) {
                total += t.cpuWork;
                ++maps;
            }
        }
    }
    EXPECT_NEAR(total / maps, wc.params().wcCpuPerTask,
                0.05 * wc.params().wcCpuPerTask);
}

/** All interactive workloads expose positive mean demands. */
class MeanDemandTest
    : public ::testing::TestWithParam<Benchmark>
{};

TEST_P(MeanDemandTest, PositiveAndFinite)
{
    auto w = makeBenchmark(GetParam());
    auto &iw = dynamic_cast<InteractiveWorkload &>(*w);
    auto mean = iw.meanDemand();
    EXPECT_GT(mean.cpuWork, 0.0);
    EXPECT_GT(mean.netBytes, 0.0);
    EXPECT_GE(mean.diskReadBytes, 0.0);
    EXPECT_LT(mean.cpuWork, 10.0); // sanity: under 10 GHz-seconds
}

INSTANTIATE_TEST_SUITE_P(Interactive, MeanDemandTest,
                         ::testing::Values(Benchmark::Websearch,
                                           Benchmark::Webmail,
                                           Benchmark::Ytube));

} // namespace
