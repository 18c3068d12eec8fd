#include "workloads/websearch.hh"

#include <cmath>

#include "util/logging.hh"

namespace wsc {
namespace workloads {

Websearch::Websearch(WebsearchParams params)
    : p(params),
      // Keyword-count mix after Xie & O'Hallaron: short queries
      // dominate web search traffic.
      keywordCountDist({1.0, 2.0, 3.0, 4.0, 5.0},
                       {0.28, 0.36, 0.22, 0.10, 0.04}),
      cpuShape(1.0, p.covCpu)
{
    WSC_ASSERT(p.cachedTermFraction >= 0.0 && p.cachedTermFraction <= 1.0,
               "cached fraction out of range");
    cachedRankLimit =
        std::uint64_t(double(p.vocabularyTerms) * p.cachedTermFraction);
    meanKeywords = keywordCountDist.mean();
    sim::ZipfDist termDist(p.vocabularyTerms, p.termZipfExponent);
    // A term's rank is the first i + 1 with cdf[i] >= u for its
    // uniform u, and the CDF is nondecreasing, so rank <= L exactly
    // when u <= cdf[L - 1]. L = 0 caches nothing; L = n caches every
    // term (cdf.back() is 1.0 and u < 1).
    cachedTermCdf = cachedRankLimit == 0
                        ? -1.0
                        : termDist.cdfTable()[cachedRankLimit - 1];
    // P(term cached) = CDF of the Zipf at the cached-rank limit.
    double cached_mass = 0.0;
    for (std::uint64_t k = 1; k <= cachedRankLimit; ++k)
        cached_mass += termDist.pmf(k);
    coldTermProb = 1.0 - cached_mass;
}

unsigned
Websearch::sampleKeywordCount(Rng &rng)
{
    return unsigned(keywordCountDist.sampleImpl(rng));
}

bool
Websearch::termIsCached(std::uint64_t rank) const
{
    return rank <= cachedRankLimit;
}

ServiceDemand
Websearch::nextRequest(Rng &rng)
{
    unsigned keywords = sampleKeywordCount(rng);
    ServiceDemand d;
    double work = p.cpuWorkBase + p.cpuWorkPerTerm * double(keywords);
    // Shape per-query variability with a lognormal multiplier around 1.
    d.cpuWork = work * cpuShape.sampleImpl(rng);
    // Each term draws the uniform its Zipf rank would invert; the
    // cached test is a compare against that rank limit's CDF value.
    for (unsigned i = 0; i < keywords; ++i)
        if (rng.uniform() > cachedTermCdf)
            d.diskReadBytes += p.postingListBytes;
    d.netBytes = p.responseBytes;
    return d;
}

void
Websearch::nextRequestBatch(BatchStream &s, ServiceDemand *out,
                            std::size_t n)
{
    // Pass 1: every query's keyword count (batched empirical draw from
    // the fast engine — the table is tiny but the draw law matches).
    countIdx.resize(n);
    batcher.drawEmpiricalIndices(keywordCountDist, s.fast,
                                 countIdx.data(), n);
    for (std::size_t i = 0; i < n; ++i)
        countIdx[i] = unsigned(keywordCountDist.valueAt(countIdx[i]));

    // Pass 2: one uniform per term, query by query, compared against
    // the cached rank limit's CDF value (see the constructor).
    for (std::size_t i = 0; i < n; ++i) {
        ServiceDemand d;
        for (unsigned k = 0; k < countIdx[i]; ++k)
            if (s.fast.uniform() > cachedTermCdf)
                d.diskReadBytes += p.postingListBytes;
        d.netBytes = p.responseBytes;
        out[i] = d;
    }

    // Pass 3: CPU shaping multipliers (batched Box-Muller over the
    // fast engine — exact lognormal law).
    shapeBuf.resize(n);
    batcher.drawLognormal(cpuShape, s.fast, shapeBuf.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
        double work =
            p.cpuWorkBase + p.cpuWorkPerTerm * double(countIdx[i]);
        out[i].cpuWork = work * shapeBuf[i];
    }
}

ServiceDemand
Websearch::meanDemand() const
{
    ServiceDemand d;
    d.cpuWork = p.cpuWorkBase + p.cpuWorkPerTerm * meanKeywords;
    d.diskReadBytes = meanKeywords * coldTermProb * p.postingListBytes;
    // One access per query that has at least one cold term.
    d.diskReadOps = 1.0 - std::pow(1.0 - coldTermProb, meanKeywords);
    d.netBytes = p.responseBytes;
    return d;
}

} // namespace workloads
} // namespace wsc
