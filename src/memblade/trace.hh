/**
 * @file
 * Synthetic page-access traces for the memory-sharing study.
 *
 * The paper gathered memory traces from full-system simulation of the
 * benchmarks on the emb1 model and replayed them through a two-level
 * memory simulator (Section 3.4). We substitute a synthetic trace
 * generator whose streams have the workloads' page-grain reuse
 * structure: a hot working set that captures most touches, a Zipf-
 * distributed warm region, and sequential scan runs (mapreduce's
 * streaming splits, websearch's posting scans).
 *
 * Each benchmark also carries a page-touch rate (TLB-visible distinct-
 * page touches per second of execution) used to convert remote-miss
 * rates into execution slowdowns; these are calibrated against the
 * paper's Figure 4(b) and documented in EXPERIMENTS.md.
 */

#ifndef WSC_MEMBLADE_TRACE_HH
#define WSC_MEMBLADE_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/distributions.hh"
#include "util/random.hh"
#include "workloads/suite.hh"

namespace wsc {
namespace memblade {

/** A page identifier within a workload's footprint. */
using PageId = std::uint64_t;

/** Parameters shaping one workload's page-access stream. */
struct TraceProfile {
    std::string name;
    std::uint64_t footprintPages = 1 << 18; //!< distinct pages touched
    double hotSetFraction = 0.1;  //!< fraction of footprint that is hot
    double hotProb = 0.8;         //!< probability a touch hits the hot set
    double zipfS = 0.8;           //!< skew within each region
    double seqRunMean = 1.0;      //!< mean sequential run length (pages)
    /** Distinct-page touches per second of execution on emb1. */
    double touchesPerSecond = 1.0e5;
};

/** The calibrated profile for one benchmark. */
TraceProfile profileFor(workloads::Benchmark b);

/**
 * Streaming generator of page ids following a TraceProfile.
 */
class TraceGenerator
{
  public:
    TraceGenerator(TraceProfile profile, Rng rng);

    /** Next page id in [0, footprintPages). */
    PageId next();

    /**
     * Fill @p out[0..n) with the next @p n page ids.
     *
     * Draws the RNG in exactly the same order as @p n scalar next()
     * calls — the generator state and every subsequent id are
     * identical whichever way the trace is pulled — but drains
     * sequential runs in blocks, so batched replay loops avoid the
     * per-access call and branch overhead, and draws run starts in
     * blocks whose Zipf table lookups are prefetched together.
     */
    void nextBatch(PageId *out, std::size_t n);

    const TraceProfile &profile() const { return p; }

  private:
    TraceProfile p;
    Rng rng;
    sim::ZipfDist hotDist;
    sim::ZipfDist coldDist;
    std::uint64_t hotPages;
    // Sequential-run state.
    PageId runPage = 0;
    std::uint64_t runLeft = 0;

    PageId startPage(bool hot, double u) const;
    std::uint64_t drawRunLength();
    /** Write up to @p n pages of the pending run; returns how many. */
    std::size_t drainRun(PageId *out, std::size_t n);
};

/** Materialize @p n accesses (for tests and offline analysis). */
std::vector<PageId> generateTrace(const TraceProfile &profile,
                                  std::uint64_t n, Rng rng);

} // namespace memblade
} // namespace wsc

#endif // WSC_MEMBLADE_TRACE_HH
