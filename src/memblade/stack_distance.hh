/**
 * @file
 * Mattson stack-distance engine: exact LRU hit rates at every
 * capacity from one trace pass.
 *
 * LRU has the inclusion property (Mattson et al. 1970): a reference
 * hits in a C-frame LRU cache iff its stack distance — one plus the
 * number of distinct other pages touched since its previous access —
 * is at most C. Histogramming those distances over one pass therefore
 * yields the exact hit count of a *direct* LRU replay at *every*
 * capacity simultaneously, so sweeps over local-memory fractions
 * (Figure 4b style curves) or flash-cache sizes collapse from N
 * replays to a single pass per workload.
 *
 * Reuse distances are counted on a bitmap over last-access
 * timestamps: each live page holds one mark (bit) at the time of its
 * most recent access, so the distance of a reuse is the number of
 * marks in (prev, now-1]. Fixed 8-ary count levels sit above the
 * bitmap — a byte count per 64-timestamp word, then 16-bit counts per
 * 512- and 4096-timestamp span, packed several to a 64-bit word so
 * that one masked multiply sums a prefix of siblings — and a count per
 * 32768-timestamp superblock. A reuse inside the newest superblock is
 * counted down from that superblock's total; an older one subtracts a
 * Fenwick-tree prefix over the closed superblocks from the running
 * distinct-page count. Either way a query is four masked lane sums,
 * one inline popcount and at most log2(n / 32768) tree steps, and an
 * access costs about the same at any trace length or reuse distance.
 * The structure is ~1.16 bits per trace access (~290 KB for a
 * 2M-access trace) and stays cache-resident; with the last-access
 * table the engine takes ~n/7 bytes plus 4 bytes per page.
 *
 * Determinism contract: lruCurveForProfile consumes its Rng in
 * exactly the order replayProfile does, so curve.statsAt(frames) is
 * bit-identical — same integer hit/miss/cold counts, hence the same
 * double rates — to replayProfile(profile, fraction, Lru, accesses,
 * seed) for every fraction, and the measured window matches the
 * flash-cache warmup/measure split the same way. The per-access LRU
 * kernel stays in the tree as the validation oracle (test_replay).
 */

#ifndef WSC_MEMBLADE_STACK_DISTANCE_HH
#define WSC_MEMBLADE_STACK_DISTANCE_HH

#include <cstdint>
#include <vector>

#include "memblade/trace.hh"
#include "memblade/two_level.hh"

namespace wsc {
namespace memblade {

/**
 * The finished product of a stack-distance pass: cumulative hit
 * counts indexed by capacity, for the whole trace and for the
 * measured (post-warmup) window.
 */
struct StackDistanceCurve {
    std::uint64_t accesses = 0;
    std::uint64_t coldMisses = 0;
    std::uint64_t measuredAccesses = 0;
    std::uint64_t measuredColdMisses = 0;

    /** cumHits[c] = hits of a c-frame LRU cache (clamped at the
     * largest observed distance; larger capacities change nothing). */
    std::vector<std::uint64_t> cumHits;
    std::vector<std::uint64_t> measuredCumHits;

    /** Exact LRU hits over the whole trace at @p frames frames. */
    std::uint64_t
    hitsAt(std::size_t frames) const
    {
        return cumHits[std::min(frames, cumHits.size() - 1)];
    }

    /** Exact LRU hits over the measured window at @p frames frames. */
    std::uint64_t
    measuredHitsAt(std::size_t frames) const
    {
        return measuredCumHits[std::min(frames,
                                        measuredCumHits.size() - 1)];
    }

    /**
     * Whole-trace replay statistics at @p frames frames;
     * bit-identical to a direct LRU replay of the same trace.
     */
    ReplayStats
    statsAt(std::size_t frames) const
    {
        ReplayStats st;
        st.accesses = accesses;
        st.hits = hitsAt(frames);
        st.misses = accesses - st.hits;
        st.coldMisses = coldMisses;
        return st;
    }

    /** Measured-window hit rate at @p frames frames. */
    double
    measuredHitRateAt(std::size_t frames) const
    {
        return measuredAccesses ? double(measuredHitsAt(frames)) /
                                      double(measuredAccesses)
                                : 0.0;
    }
};

/**
 * Streaming stack-distance accumulator. Feed it the trace in access
 * order; call beginMeasurement() where the measured window starts
 * (never, for whole-trace curves); finish() builds the curve.
 */
class StackDistanceEngine
{
  public:
    /**
     * @param pageBound Page ids are < pageBound.
     * @param maxAccesses Capacity: at most this many access() calls.
     */
    StackDistanceEngine(std::uint64_t pageBound,
                        std::uint64_t maxAccesses);

    /** Record the next reference. */
    void access(PageId page);

    /** Pull @p page's last-access slot toward the cache; issue ~16
     * accesses ahead of the access() that uses it. */
    void
    prefetchPage(PageId page) const
    {
#if defined(__GNUC__) || defined(__clang__)
        if (page < last.size())
            __builtin_prefetch(last.data() + page);
#else
        (void)page;
#endif
    }

    /**
     * Second prefetch stage, issued once the last-access slot has had
     * time to arrive: read the page's previous timestamp and pull its
     * bitmap line — the only randomly-indexed line in the query (the
     * count levels, under a seventh of the bitmap's size, mostly stay
     * resident). Purely a hint: a stale timestamp only mistrains the
     * prefetch.
     */
    void
    prefetchPaths(PageId page) const
    {
#if defined(__GNUC__) || defined(__clang__)
        std::uint32_t prev = page < last.size()
                                 ? last[std::size_t(page)]
                                 : 0;
        if (prev != 0)
            __builtin_prefetch(live.data() + (prev >> kWordShift));
#else
        (void)page;
#endif
    }

    /** Subsequent accesses also count toward the measured window. */
    void beginMeasurement();

    /** Build the cumulative curve from the histograms. */
    StackDistanceCurve finish() const;

  private:
    /** Count-level geometry: 64-timestamp words, then 8-ary levels of
     * 512 (block), 4096 (group) and 32768 (superblock) timestamps. */
    static constexpr std::uint32_t kWordShift = 6;
    static constexpr std::uint32_t kBlockShift = 9;
    static constexpr std::uint32_t kGroupShift = 12;
    static constexpr std::uint32_t kSuperShift = 15;

    /** addMark's delta that removes a mark: -1 mod 2^64. */
    static constexpr std::uint64_t kRemove = ~std::uint64_t(0);

    /** Set (@p delta 1) or clear (kRemove) the mark at @p t and move
     * every count level with it. */
    void addMark(std::uint32_t t, std::uint64_t delta);
    /** Live marks at times <= @p t within t's superblock. */
    std::uint32_t rankInSuper(std::uint32_t t) const;
    /** Fenwick tree over closed superblocks: add @p delta at @p s. */
    void closedAdd(std::size_t s, std::uint32_t delta);
    /** Marks in the closed superblocks below @p s. */
    std::uint32_t closedPrefix(std::size_t s) const;

    std::vector<std::uint32_t> last; //!< last[p] = time (1-based); 0 = never
    std::vector<std::uint64_t> live; //!< mark bit per timestamp
    /** Byte lane j of wordCnt[b] = marks in word j of block b. */
    std::vector<std::uint64_t> wordCnt;
    /** 16-bit lanes, four per word: marks per block, per group. */
    std::vector<std::uint64_t> blockCnt, groupCnt;
    std::vector<std::uint32_t> superCnt; //!< marks per superblock
    /** Fenwick tree (1-based) over superCnt of the superblocks the
     * clock has left; each is folded in when the clock leaves it.
     * Removals add -1 mod 2^32. */
    std::vector<std::uint32_t> closedTree;
    /** hist[d] counts, sized for every possible distance; uint32
     * suffices (counts <= maxAccesses < 2^32) and halves the
     * randomly-indexed footprint. measuredHist is allocated by
     * beginMeasurement. */
    std::vector<std::uint32_t> hist, measuredHist;
    std::uint32_t now = 0;
    std::uint32_t capacity_ = 0; //!< max access() calls
    std::uint64_t cold = 0, measuredCold = 0, measuredAccesses_ = 0;
    bool measuring = false;
};

/**
 * Drain @p accesses pages from @p gen (batched) through the engine.
 *
 * Accesses at index >= @p warmup form the measured window (pass
 * warmup == accesses for a whole-trace curve with no window).
 */
StackDistanceCurve lruCurve(TraceGenerator &gen,
                            std::uint64_t pageBound,
                            std::uint64_t accesses,
                            std::uint64_t warmup);

/**
 * Single-pass exact-LRU curve for a synthetic profile, mirroring
 * replayProfile's RNG derivation: statsAt(ceil(footprint * f)) is
 * bit-identical to replayProfile(profile, f, PolicyKind::Lru,
 * accesses, seed) for any fraction f.
 */
StackDistanceCurve lruCurveForProfile(const TraceProfile &profile,
                                      std::uint64_t accesses,
                                      std::uint64_t seed);

/**
 * Exact-LRU replay stats at every requested local fraction from one
 * trace pass (the N-replay sweep collapsed). Only LRU has the
 * inclusion property; Random/Clock sweeps still replay per fraction.
 */
std::vector<ReplayStats> replayProfileSweep(
    const TraceProfile &profile,
    const std::vector<double> &localFractions, std::uint64_t accesses,
    std::uint64_t seed);

} // namespace memblade
} // namespace wsc

#endif // WSC_MEMBLADE_STACK_DISTANCE_HH
