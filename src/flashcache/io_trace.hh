/**
 * @file
 * Block-level disk I/O traces for the flash-cache study.
 *
 * Only page-cache misses reach the disk, so these traces model the
 * post-page-cache reference stream: a skewed hot region (documents,
 * mailboxes, and videos that cycle in and out of DRAM) plus sequential
 * runs. Profiles reuse the memblade trace generator with block-space
 * parameters; per-workload flash hit rates come from replaying these
 * traces through the memblade replay kernels, with the device modelled
 * as a 4 KB-block LRU cache with read-allocate (after Kgil & Mudge's
 * FlashCache, applied per paper Section 3.5).
 */

#ifndef WSC_FLASHCACHE_IO_TRACE_HH
#define WSC_FLASHCACHE_IO_TRACE_HH

#include <cstdint>
#include <vector>

#include "flashcache/devices.hh"
#include "memblade/replacement.hh"
#include "memblade/trace.hh"
#include "workloads/suite.hh"

namespace wsc {
namespace flashcache {

/**
 * Disk-block reference profile of one benchmark (4 KB blocks over the
 * workload's on-disk dataset).
 */
memblade::TraceProfile ioProfileFor(workloads::Benchmark b);

/** Result of replaying a benchmark's I/O trace through a flash cache. */
struct FlashCacheOutcome {
    double hitRate = 0.0;
    double wearCyclesPerBlock = 0.0;
    /** Projected device lifetime at the observed write rate, years. */
    double lifetimeYears = 0.0;
};

/**
 * Replay @p accesses post-page-cache disk reads of benchmark @p b
 * through a flash cache of the given spec and report the steady-state
 * hit rate (the cold warm-up fraction is excluded by measuring only
 * the second half of the replay).
 *
 * @param diskReadBytesPerSecond Sustained disk-read traffic used for
 *        the wear/lifetime projection.
 */
FlashCacheOutcome evaluateFlashCache(workloads::Benchmark b,
                                     const FlashSpec &spec,
                                     std::uint64_t accesses,
                                     double diskReadBytesPerSecond,
                                     std::uint64_t seed);

/**
 * evaluateFlashCache generalized over the replacement-policy zoo: the
 * flash front runs @p kind instead of the device's native LRU.
 * PolicyKind::Lru reproduces evaluateFlashCache bit for bit.
 */
FlashCacheOutcome evaluateFlashCachePolicy(
    workloads::Benchmark b, const FlashSpec &spec,
    std::uint64_t accesses, double diskReadBytesPerSecond,
    memblade::PolicyKind kind, std::uint64_t seed);

/**
 * Evaluate one benchmark at every flash capacity in @p specs from a
 * single stack-distance pass over the trace (the cache is LRU, so
 * each spec's outcome is exactly what evaluateFlashCache would
 * report, bit for bit, at one-pass cost instead of specs.size()
 * replays).
 */
std::vector<FlashCacheOutcome> evaluateFlashCacheSweep(
    workloads::Benchmark b, const std::vector<FlashSpec> &specs,
    std::uint64_t accesses, double diskReadBytesPerSecond,
    std::uint64_t seed);

} // namespace flashcache
} // namespace wsc

#endif // WSC_FLASHCACHE_IO_TRACE_HH
