#include "stats/percentile.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace wsc {
namespace stats {

void
PercentileTracker::add(double x)
{
    if (sorted && !samples.empty() && x < samples.back())
        sorted = false;
    samples.push_back(x);
}

void
PercentileTracker::ensureSorted() const
{
    if (!sorted) {
        std::sort(samples.begin(), samples.end());
        sorted = true;
    }
}

double
PercentileTracker::quantile(double q) const
{
    WSC_ASSERT(q >= 0.0 && q <= 1.0, "quantile out of range: " << q);
    WSC_ASSERT(!samples.empty(), "quantile of empty tracker");
    // Nearest-rank: ceil(q * n) converted to a zero-based index.
    std::size_t rank = std::size_t(std::ceil(q * double(samples.size())));
    if (rank == 0)
        rank = 1;
    if (rank > samples.size())
        rank = samples.size();
    auto nth = samples.begin() + std::ptrdiff_t(rank - 1);
    // Unsorted samples: select the one order statistic in O(n) rather
    // than sorting all of them. The samples stay a permutation of what
    // was added, so later queries (and the sorting ones) are unchanged.
    if (!sorted)
        std::nth_element(samples.begin(), nth, samples.end());
    return *nth;
}

double
PercentileTracker::fractionAbove(double threshold) const
{
    if (samples.empty())
        return 0.0;
    ensureSorted();
    // upper_bound: strictly greater than the threshold.
    auto it = std::upper_bound(samples.begin(), samples.end(), threshold);
    return double(samples.end() - it) / double(samples.size());
}

double
PercentileTracker::fractionAtLeast(double threshold) const
{
    if (samples.empty())
        return 0.0;
    ensureSorted();
    // lower_bound: greater than or equal, so samples exactly at the
    // threshold count (they fail a strict "< threshold" QoS).
    auto it = std::lower_bound(samples.begin(), samples.end(), threshold);
    return double(samples.end() - it) / double(samples.size());
}

void
PercentileTracker::clear()
{
    samples.clear();
    sorted = true;
}

void
PercentileTracker::reserve(std::size_t n)
{
    samples.reserve(n);
}

} // namespace stats
} // namespace wsc
