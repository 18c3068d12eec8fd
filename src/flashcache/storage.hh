/**
 * @file
 * Storage configuration options for the Section 3.5 study (Table 3).
 *
 * Four configurations are compared on the emb1 platform:
 *   - local desktop disk (baseline),
 *   - remote laptop disk over a basic SAN,
 *   - remote laptop disk + 1 GB on-board flash disk cache,
 *   - remote laptop-2 (cheaper) disk + flash cache.
 *
 * Each option yields (a) performance-model overrides (disk parameters,
 * SAN latency, flash hit rate) and (b) cost/power deltas for the TCO
 * model.
 */

#ifndef WSC_FLASHCACHE_STORAGE_HH
#define WSC_FLASHCACHE_STORAGE_HH

#include <string>
#include <vector>

#include "flashcache/devices.hh"
#include "flashcache/io_trace.hh"
#include "perfsim/perf_eval.hh"
#include "platform/server_config.hh"

namespace wsc {
namespace flashcache {

/** One storage configuration under study. */
struct StorageOption {
    std::string name;
    platform::DiskModel disk;
    bool hasFlashCache = false;
    FlashSpec flash;

    /** The baseline: local desktop disk, no flash. */
    static StorageOption localDesktop();
    /** Remote laptop disk on the SAN. */
    static StorageOption remoteLaptop();
    /** Remote laptop disk + flash disk cache. */
    static StorageOption remoteLaptopFlash();
    /** Remote cheaper laptop-2 disk + flash disk cache. */
    static StorageOption remoteLaptop2Flash();

    /** All four, in Table 3(b) order (baseline first). */
    static std::vector<StorageOption> all();
};

/**
 * Apply @p option's benchmark-independent overrides to @p opts: the
 * disk model, the SAN access overhead of a remote disk and the flash
 * device's latency and bandwidth. Leaves the flash hit rate alone and
 * replays nothing.
 */
void applyStorageOverrides(const StorageOption &option,
                           perfsim::PerfOptions &opts);

/**
 * Performance-model overrides for @p option when running benchmark
 * @p b: applyStorageOverrides plus the flash hit rate, which comes
 * from replaying the benchmark's I/O trace (cached internally per
 * benchmark).
 */
perfsim::PerfOptions perfOptionsFor(const StorageOption &option,
                                    workloads::Benchmark b);

/**
 * Apply the option's storage cost/power to a server configuration:
 * the disk line item is replaced, and flash cost/power is added to the
 * board category.
 */
platform::ServerConfig withStorage(const platform::ServerConfig &server,
                                   const StorageOption &option);

} // namespace flashcache
} // namespace wsc

#endif // WSC_FLASHCACHE_STORAGE_HH
