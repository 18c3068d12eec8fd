#include "memblade/stack_distance.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace wsc {
namespace memblade {

namespace {

/** Set bits in @p x: portable SWAR, so baseline x86-64 builds make no
 * library call for it. */
inline std::uint32_t
popcount64(std::uint64_t x)
{
    x -= (x >> 1) & 0x5555555555555555u;
    x = (x & 0x3333333333333333u) + ((x >> 2) & 0x3333333333333333u);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fu;
    return std::uint32_t((x * 0x0101010101010101u) >> 56);
}

/** The low @p n (0..4) 16-bit lanes of a word. */
inline std::uint64_t
lowLanes16(std::uint32_t n)
{
    // Two shifts so that n == 4 wraps to all ones without a 64-bit
    // shift.
    return (std::uint64_t(1) << (8 * n) << (8 * n)) - 1;
}

/** Sum of a word's four 16-bit lanes (the sum must fit in 16 bits). */
inline std::uint32_t
laneSum16(std::uint64_t x)
{
    return std::uint32_t((x * 0x0001000100010001u) >> 48);
}

/** Sum of the first @p k (0..7) of eight 16-bit lanes in two words. */
inline std::uint32_t
lanePrefix16(const std::uint64_t *pair, std::uint32_t k)
{
    std::uint32_t lo = std::min(k, 4u), hi = std::max(k, 4u) - 4;
    return laneSum16(pair[0] & lowLanes16(lo)) +
           laneSum16(pair[1] & lowLanes16(hi));
}

/** Sum of the first @p k (0..7) byte lanes of @p x. */
inline std::uint32_t
bytePrefix(std::uint64_t x, std::uint32_t k)
{
    x &= (std::uint64_t(1) << (8 * k)) - 1;
    // Widen to 16-bit lanes: seven full words hold up to 448 marks.
    x = (x & 0x00ff00ff00ff00ffu) + ((x >> 8) & 0x00ff00ff00ff00ffu);
    return laneSum16(x);
}

} // namespace

StackDistanceEngine::StackDistanceEngine(std::uint64_t pageBound,
                                         std::uint64_t maxAccesses)
{
    WSC_ASSERT(pageBound > 0, "empty page-id space");
    // Timestamps are uint32; one slot per access plus the unused 0.
    WSC_ASSERT(maxAccesses < ~std::uint32_t(0),
               "trace too long for 32-bit timestamps");
    last.assign(std::size_t(pageBound), 0);
    capacity_ = std::uint32_t(maxAccesses);
    // One mark bit per timestamp (1-based; slot 0 unused) plus every
    // count level, all sized for the whole trace up front. The lane
    // arrays round up to whole 8-lane groups so that a prefix may read
    // its sibling word.
    auto t = std::size_t(maxAccesses);
    live.assign((t >> kWordShift) + 1, 0);
    wordCnt.assign((t >> kBlockShift) + 1, 0);
    blockCnt.assign(((t >> kGroupShift) + 1) * 2, 0);
    groupCnt.assign(((t >> kSuperShift) + 1) * 2, 0);
    superCnt.assign((t >> kSuperShift) + 1, 0);
    closedTree.assign(superCnt.size() + 1, 0);
    // Distances are < min(pageBound, maxAccesses).
    hist.assign(std::size_t(std::min(pageBound, maxAccesses)) + 1, 0);
}

void
StackDistanceEngine::addMark(std::uint32_t t, std::uint64_t delta)
{
    // Only a live mark is removed, so no lane borrows from its
    // neighbour; -1 << s is the lane's -1 in two's complement.
    live[t >> kWordShift] ^= std::uint64_t(1) << (t & 63);
    wordCnt[t >> kBlockShift] += delta << (8 * ((t >> kWordShift) & 7));
    blockCnt[t >> (kBlockShift + 2)] +=
        delta << (16 * ((t >> kBlockShift) & 3));
    groupCnt[t >> (kGroupShift + 2)] +=
        delta << (16 * ((t >> kGroupShift) & 3));
    superCnt[t >> kSuperShift] += std::uint32_t(delta);
    if ((t >> kSuperShift) != (now >> kSuperShift))
        closedAdd(t >> kSuperShift, std::uint32_t(delta));
}

std::uint32_t
StackDistanceEngine::rankInSuper(std::uint32_t t) const
{
    // Partial word: bits 0 .. (t & 63) inclusive; then the earlier
    // words of t's block, blocks of its group and groups of its
    // superblock, each a masked sum of sibling counts.
    std::uint64_t mask = ~std::uint64_t(0) >> (63 - (t & 63));
    return popcount64(live[t >> kWordShift] & mask) +
           bytePrefix(wordCnt[t >> kBlockShift],
                      (t >> kWordShift) & 7) +
           lanePrefix16(&blockCnt[(t >> kGroupShift) * 2],
                        (t >> kBlockShift) & 7) +
           lanePrefix16(&groupCnt[(t >> kSuperShift) * 2],
                        (t >> kGroupShift) & 7);
}

void
StackDistanceEngine::closedAdd(std::size_t s, std::uint32_t delta)
{
    for (std::size_t i = s + 1; i < closedTree.size(); i += i & -i)
        closedTree[i] += delta;
}

std::uint32_t
StackDistanceEngine::closedPrefix(std::size_t s) const
{
    std::uint32_t sum = 0;
    for (std::size_t i = s; i > 0; i -= i & -i)
        sum += closedTree[i];
    return sum;
}

void
StackDistanceEngine::beginMeasurement()
{
    if (!measuring)
        measuredHist.assign(hist.size(), 0);
    measuring = true;
}

void
StackDistanceEngine::access(PageId page)
{
    WSC_ASSERT(page < last.size(), "page id beyond declared bound");
    WSC_ASSERT(now < capacity_, "engine capacity exceeded");
    ++now;
    if ((now & ((1u << kSuperShift) - 1)) == 0) {
        // The clock left a superblock: fold it into the tree.
        std::size_t done = (now >> kSuperShift) - 1;
        closedAdd(done, superCnt[done]);
    }
    if (measuring)
        ++measuredAccesses_;
    std::uint32_t prev = last[page];
    if (prev == 0) {
        // First touch: infinite distance, a miss at every capacity.
        ++cold;
        if (measuring)
            ++measuredCold;
    } else {
        // Marks in (prev, now-1] = distinct other pages since the
        // previous access; a C-frame LRU cache hits iff d < C. Every
        // distinct page seen so far holds exactly one live mark at a
        // time <= now-1. In the newest superblock the marks after
        // prev are its count minus prev's rank; further back they
        // are all marks (the cold-miss count) minus those up to prev.
        std::uint32_t super = prev >> kSuperShift;
        std::uint64_t below = super == (now >> kSuperShift)
                                  ? cold - superCnt[super]
                                  : closedPrefix(super);
        std::uint64_t d = cold - below - rankInSuper(prev);
        WSC_ASSERT(d < hist.size(), "stack distance out of range");
        ++hist[d];
        if (measuring)
            ++measuredHist[d];
        // The page's mark moves from its old time to now.
        addMark(prev, kRemove);
    }
    addMark(now, 1);
    last[page] = now;
}

namespace {

std::vector<std::uint64_t>
cumulate(const std::vector<std::uint32_t> &hist)
{
    std::size_t top = hist.size();
    while (top > 0 && hist[top - 1] == 0)
        --top;
    std::vector<std::uint64_t> cum(top + 1, 0);
    for (std::size_t d = 0; d < top; ++d)
        cum[d + 1] = cum[d] + hist[d];
    return cum;
}

} // namespace

StackDistanceCurve
StackDistanceEngine::finish() const
{
    StackDistanceCurve c;
    c.accesses = now;
    c.coldMisses = cold;
    c.measuredAccesses = measuredAccesses_;
    c.measuredColdMisses = measuredCold;
    c.cumHits = cumulate(hist);
    c.measuredCumHits = cumulate(measuredHist);
    return c;
}

StackDistanceCurve
lruCurve(TraceGenerator &gen, std::uint64_t pageBound,
         std::uint64_t accesses, std::uint64_t warmup)
{
    StackDistanceEngine eng(pageBound, accesses);
    constexpr std::size_t kChunk = 4096;
    std::vector<PageId> buf(kChunk);
    std::uint64_t done = 0;
    while (done < accesses) {
        auto n = std::size_t(
            std::min<std::uint64_t>(kChunk, accesses - done));
        gen.nextBatch(buf.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
            if (i + 16 < n)
                eng.prefetchPage(buf[i + 16]);
            if (i + 6 < n)
                eng.prefetchPaths(buf[i + 6]);
            if (done + i == warmup)
                eng.beginMeasurement();
            eng.access(buf[i]);
        }
        done += n;
    }
    return eng.finish();
}

StackDistanceCurve
lruCurveForProfile(const TraceProfile &profile, std::uint64_t accesses,
                   std::uint64_t seed)
{
    // Mirror replayProfile's Rng derivation: the kernel split is
    // drawn (and discarded — LRU consumes no randomness) so the
    // generator sees the identical stream.
    Rng rng(seed);
    (void)rng.split();
    TraceGenerator gen(profile, rng.split());
    return lruCurve(gen, profile.footprintPages, accesses, accesses);
}

std::vector<ReplayStats>
replayProfileSweep(const TraceProfile &profile,
                   const std::vector<double> &localFractions,
                   std::uint64_t accesses, std::uint64_t seed)
{
    auto curve = lruCurveForProfile(profile, accesses, seed);
    std::vector<ReplayStats> out;
    out.reserve(localFractions.size());
    for (double f : localFractions) {
        WSC_ASSERT(f > 0.0 && f <= 1.0,
                   "local fraction out of (0, 1]");
        auto frames = std::size_t(
            std::ceil(double(profile.footprintPages) * f));
        out.push_back(curve.statsAt(frames));
    }
    return out;
}

} // namespace memblade
} // namespace wsc
