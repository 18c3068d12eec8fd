/**
 * @file
 * Exact percentile tracking over retained samples.
 *
 * The QoS definitions in the benchmark suite are expressed as "95% of
 * requests complete within X seconds"; this tracker retains all samples
 * from a (bounded) measurement window and answers exact quantile
 * queries, which keeps the QoS checks free of approximation artifacts.
 */

#ifndef WSC_STATS_PERCENTILE_HH
#define WSC_STATS_PERCENTILE_HH

#include <cstddef>
#include <vector>

namespace wsc {
namespace stats {

/**
 * Retains samples and computes exact quantiles on demand.
 *
 * quantile() selects its order statistic with std::nth_element (O(n))
 * unless the samples are already sorted; fractionAbove() and
 * fractionAtLeast() sort lazily, after which every query is a lookup or
 * a binary search until the next out-of-order insert.
 */
class PercentileTracker
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Number of samples retained. */
    std::size_t count() const { return samples.size(); }

    /**
     * Exact quantile using nearest-rank: the ceil(q * n)-th smallest
     * sample (the smallest for q = 0).
     * @param q Quantile in [0, 1]; q=0.95 is the 95th percentile.
     */
    double quantile(double q) const;

    /**
     * Fraction of samples strictly above @p threshold.
     *
     * Not suitable for the paper's strict QoS checks ("95% of requests
     * complete in < X seconds"): a sample exactly at the threshold
     * does NOT satisfy `latency < X` and must count as a violation —
     * use fractionAtLeast() for those.
     */
    double fractionAbove(double threshold) const;

    /**
     * Fraction of samples at or above @p threshold (inclusive). This
     * is the violation fraction for a strict "latency < threshold"
     * QoS definition.
     */
    double fractionAtLeast(double threshold) const;

    /**
     * Remove all samples. Capacity is retained, so a tracker reused
     * across measurement epochs stops allocating once it has seen its
     * largest epoch.
     */
    void clear();

    /**
     * Pre-size sample storage for @p n samples. A no-op when capacity
     * already suffices; lets epoch drivers (perfsim::runClosedLoop)
     * keep steady-state accounting allocation-free.
     */
    void reserve(std::size_t n);

  private:
    mutable std::vector<double> samples;
    /**
     * Sortedness is tracked across inserts, not just queries: add()
     * only clears the flag when the new sample actually breaks the
     * order, so nondecreasing streams (and repeated queries on
     * unchanged data, via the mutable flag) never pay a re-sort.
     */
    mutable bool sorted = true;
    void ensureSorted() const;
};

} // namespace stats
} // namespace wsc

#endif // WSC_STATS_PERCENTILE_HH
