#include "memblade/trace.hh"

#include <algorithm>

#include "util/logging.hh"

namespace wsc {
namespace memblade {

TraceProfile
profileFor(workloads::Benchmark b)
{
    using workloads::Benchmark;
    TraceProfile p;
    switch (b) {
      case Benchmark::Websearch:
        // Large index footprint scanned with modest locality: the
        // workload with the largest memory usage and slowdown (4.7%
        // at 25% local in the paper).
        p.name = "websearch";
        p.footprintPages = 480000; // ~1.9 GB of 4 KB pages
        p.hotSetFraction = 0.12;
        p.hotProb = 0.62;
        p.zipfS = 0.7;
        p.seqRunMean = 6.0;
        p.touchesPerSecond = 7.0e4;
        break;
      case Benchmark::Webmail:
        // Small per-request state, highly reused PHP/runtime pages:
        // near-zero slowdown in the paper (0.2%).
        p.name = "webmail";
        p.footprintPages = 300000;
        p.hotSetFraction = 0.08;
        p.hotProb = 0.93;
        p.zipfS = 1.1;
        p.seqRunMean = 2.0;
        p.touchesPerSecond = 6.0e4;
        break;
      case Benchmark::Ytube:
        // Media in page cache with Zipf popularity; moderate reuse,
        // big streamed objects (1.4% slowdown).
        p.name = "ytube";
        p.footprintPages = 460000;
        p.hotSetFraction = 0.15;
        p.hotProb = 0.80;
        p.zipfS = 0.9;
        p.seqRunMean = 24.0;
        p.touchesPerSecond = 8.3e4;
        break;
      case Benchmark::MapredWc:
        // Streaming splits: sequential runs over a large footprint,
        // but a compact hot heap (0.7% slowdown).
        p.name = "mapred-wc";
        p.footprintPages = 420000;
        p.hotSetFraction = 0.10;
        p.hotProb = 0.88;
        p.zipfS = 0.6;
        p.seqRunMean = 32.0;
        p.touchesPerSecond = 4.6e4;
        break;
      case Benchmark::MapredWr:
        p.name = "mapred-wr";
        p.footprintPages = 380000;
        p.hotSetFraction = 0.10;
        p.hotProb = 0.88;
        p.zipfS = 0.6;
        p.seqRunMean = 32.0;
        p.touchesPerSecond = 4.2e4;
        break;
    }
    return p;
}

TraceGenerator::TraceGenerator(TraceProfile profile, Rng rng_in)
    : p(std::move(profile)), rng(rng_in),
      hotDist(std::max<std::uint64_t>(
                  1, std::uint64_t(double(p.footprintPages) *
                                   p.hotSetFraction)),
              p.zipfS),
      coldDist(std::max<std::uint64_t>(
                   1, p.footprintPages -
                          std::uint64_t(double(p.footprintPages) *
                                        p.hotSetFraction)),
               p.zipfS)
{
    WSC_ASSERT(p.footprintPages > 0, "empty footprint");
    WSC_ASSERT(p.hotSetFraction > 0.0 && p.hotSetFraction < 1.0,
               "hot-set fraction out of (0,1)");
    hotPages = std::uint64_t(double(p.footprintPages) * p.hotSetFraction);
}

PageId
TraceGenerator::startPage(bool hot, double u) const
{
    // Hot pages occupy the low ids; Zipf rank 1 is hottest.
    const sim::ZipfDist &dist = hot ? hotDist : coldDist;
    return (hot ? 0 : hotPages) + (dist.rankForUniform(u) - 1);
}

std::uint64_t
TraceGenerator::drawRunLength()
{
    if (!(p.seqRunMean > 1.0))
        return 0;
    // Geometric run length with the configured mean.
    double continue_prob = 1.0 - 1.0 / p.seqRunMean;
    std::uint64_t len = 0;
    while (rng.bernoulli(continue_prob) && len < 4096)
        ++len;
    return len;
}

PageId
TraceGenerator::next()
{
    if (runLeft > 0) {
        --runLeft;
        runPage = runPage + 1 == p.footprintPages ? 0 : runPage + 1;
        return runPage;
    }
    bool hot = rng.bernoulli(p.hotProb);
    runPage = startPage(hot, rng.uniform());
    runLeft = drawRunLength();
    return runPage;
}

std::size_t
TraceGenerator::drainRun(PageId *out, std::size_t n)
{
    auto take = std::size_t(std::min<std::uint64_t>(runLeft, n));
    if (runPage + take < p.footprintPages) {
        PageId page = runPage;
        for (std::size_t j = 0; j < take; ++j)
            out[j] = ++page;
        runPage = page;
    } else {
        for (std::size_t j = 0; j < take; ++j) {
            runPage = runPage + 1 == p.footprintPages ? 0 : runPage + 1;
            out[j] = runPage;
        }
    }
    runLeft -= take;
    return take;
}

namespace {

/** One run start's draws, resolved later by nextBatch. */
struct RunStart {
    double u;          //!< the Zipf uniform
    std::uint64_t len; //!< pages after the start page
    bool hot;
};

/** Run starts drawn per nextBatch pass. */
constexpr std::size_t kStartBlock = 64;

} // namespace

void
TraceGenerator::nextBatch(PageId *out, std::size_t n)
{
    RunStart starts[kStartBlock];
    std::size_t i = drainRun(out, n);
    while (i < n) {
        // Pass 1: draw a block of run starts. A run's draws (hot coin,
        // Zipf uniform, length) never depend on the page it resolves
        // to, so they come off the Rng in exactly the order n scalar
        // next() calls take them, stopping at the run that reaches n.
        // Each start's guide cell is prefetched.
        std::size_t k = 0;
        for (std::size_t covered = i; k < kStartBlock && covered < n;
             ++k) {
            RunStart &s = starts[k];
            s.hot = rng.bernoulli(p.hotProb);
            s.u = rng.uniform();
            s.len = drawRunLength();
            covered += 1 + s.len;
            const auto &guide = (s.hot ? hotDist : coldDist).guideTable();
            __builtin_prefetch(guide.cellPtr(guide.bucketOf(s.u)));
        }
        // Pass 2: read the guide cells and prefetch the CDF lines the
        // scans start at.
        for (std::size_t j = 0; j < k; ++j) {
            const RunStart &s = starts[j];
            const sim::ZipfDist &dist = s.hot ? hotDist : coldDist;
            std::uint32_t at = dist.guideTable().startOf(
                dist.guideTable().bucketOf(s.u));
            __builtin_prefetch(dist.cdfTable().data() + at);
        }
        // Pass 3: resolve each start and emit its run.
        for (std::size_t j = 0; j < k; ++j) {
            runPage = startPage(starts[j].hot, starts[j].u);
            runLeft = starts[j].len;
            out[i++] = runPage;
            i += drainRun(out + i, n - i);
        }
    }
}

std::vector<PageId>
generateTrace(const TraceProfile &profile, std::uint64_t n, Rng rng)
{
    TraceGenerator gen(profile, rng);
    std::vector<PageId> out(n);
    gen.nextBatch(out.data(), out.size());
    return out;
}

} // namespace memblade
} // namespace wsc
