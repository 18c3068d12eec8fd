#include "flashcache/storage.hh"

#include <map>
#include <mutex>

#include "util/logging.hh"

namespace wsc {
namespace flashcache {

StorageOption
StorageOption::localDesktop()
{
    StorageOption o;
    o.name = "Local Desktop";
    o.disk = desktopDisk();
    return o;
}

StorageOption
StorageOption::remoteLaptop()
{
    StorageOption o;
    o.name = "Remote Laptop";
    o.disk = laptopDisk();
    return o;
}

StorageOption
StorageOption::remoteLaptopFlash()
{
    StorageOption o;
    o.name = "Remote Laptop + Flash";
    o.disk = laptopDisk();
    o.hasFlashCache = true;
    return o;
}

StorageOption
StorageOption::remoteLaptop2Flash()
{
    StorageOption o;
    o.name = "Remote Laptop-2 + Flash";
    o.disk = laptop2Disk();
    o.hasFlashCache = true;
    return o;
}

std::vector<StorageOption>
StorageOption::all()
{
    return {localDesktop(), remoteLaptop(), remoteLaptopFlash(),
            remoteLaptop2Flash()};
}

namespace {

/** Steady-state flash hit rate per benchmark (replayed once, cached). */
double
flashHitRateFor(workloads::Benchmark b, const FlashSpec &spec)
{
    // Called from DesignEvaluator's pool workers: the cache needs a
    // lock, and keying on capacity keeps distinct specs distinct.
    static std::mutex mutex;
    static std::map<std::pair<workloads::Benchmark, double>, double>
        cache;
    auto key = std::make_pair(b, spec.capacityGB);

    {
        std::lock_guard<std::mutex> lock(mutex);
        auto it = cache.find(key);
        if (it != cache.end())
            return it->second;
    }
    // 2M post-page-cache accesses: enough to warm a 262144-block
    // cache and measure a stable second-half hit rate. Replayed
    // outside the lock; a racing duplicate replay computes the same
    // deterministic value.
    auto outcome = evaluateFlashCache(b, spec, 2000000,
                                      /* bytes/s */ 5.0e6, 777);
    std::lock_guard<std::mutex> lock(mutex);
    cache.emplace(key, outcome.hitRate);
    return outcome.hitRate;
}

} // namespace

void
applyStorageOverrides(const StorageOption &option,
                      perfsim::PerfOptions &opts)
{
    opts.diskOverride = option.disk;
    if (option.disk.remote)
        opts.extraDiskAccessMs = sanAccessOverheadMs;
    if (option.hasFlashCache) {
        opts.flashAccessMs = option.flash.readLatencyUs * 1e-3;
        opts.flashReadMBs = option.flash.bandwidthMBs;
    }
}

perfsim::PerfOptions
perfOptionsFor(const StorageOption &option, workloads::Benchmark b)
{
    perfsim::PerfOptions opts;
    applyStorageOverrides(option, opts);
    if (option.hasFlashCache)
        opts.flashCacheHitRate = flashHitRateFor(b, option.flash);
    return opts;
}

platform::ServerConfig
withStorage(const platform::ServerConfig &server,
            const StorageOption &option)
{
    platform::ServerConfig cfg = server;
    cfg.disk = option.disk;
    if (option.hasFlashCache) {
        // The flash lives on the server board (Section 3.5).
        cfg.boardMgmtDollars += option.flash.dollars;
        cfg.boardMgmtWatts += option.flash.watts;
    }
    return cfg;
}

} // namespace flashcache
} // namespace wsc
