#include "flashcache/io_trace.hh"

#include "memblade/replay.hh"
#include "memblade/stack_distance.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace wsc {
namespace flashcache {

memblade::TraceProfile
ioProfileFor(workloads::Benchmark b)
{
    using workloads::Benchmark;
    memblade::TraceProfile p;
    // Footprints are on-disk datasets in 4 KB blocks; a 1 GB flash
    // holds 262144 blocks.
    switch (b) {
      case Benchmark::Websearch:
        // 1.3 GB index + cold postings; strong skew toward hot terms.
        p.name = "websearch-io";
        p.footprintPages = 500000; // ~2 GB
        p.hotSetFraction = 0.3;
        p.hotProb = 0.82;
        p.zipfS = 0.9;
        p.seqRunMean = 8.0;
        break;
      case Benchmark::Webmail:
        // 7 GB of stored mail; recent messages dominate accesses.
        p.name = "webmail-io";
        p.footprintPages = 1750000;
        p.hotSetFraction = 0.08;
        p.hotProb = 0.75;
        p.zipfS = 1.0;
        p.seqRunMean = 4.0;
        break;
      case Benchmark::Ytube:
        // 20 GB media set; Zipf popularity with long sequential reads.
        p.name = "ytube-io";
        p.footprintPages = 5000000;
        p.hotSetFraction = 0.04;
        p.hotProb = 0.7;
        p.zipfS = 0.9;
        p.seqRunMean = 128.0;
        break;
      case Benchmark::MapredWc:
        // Streaming scan of the 5 GB corpus: almost no block reuse.
        p.name = "mapred-wc-io";
        p.footprintPages = 1250000;
        p.hotSetFraction = 0.01;
        p.hotProb = 0.02;
        p.zipfS = 0.5;
        p.seqRunMean = 512.0;
        break;
      case Benchmark::MapredWr:
        // Write stream; reads are negligible.
        p.name = "mapred-wr-io";
        p.footprintPages = 500000;
        p.hotSetFraction = 0.01;
        p.hotProb = 0.02;
        p.zipfS = 0.5;
        p.seqRunMean = 512.0;
        break;
    }
    return p;
}

namespace {

/** 4 KB-block frame count of a flash device. */
std::size_t
flashFrames(const FlashSpec &spec)
{
    WSC_ASSERT(spec.capacityGB > 0.0, "flash capacity must be positive");
    auto frames = std::size_t(spec.capacityGB * units::GiB / 4096.0);
    WSC_ASSERT(frames > 0, "flash too small for one block");
    return frames;
}

/**
 * Assemble an outcome from replay counts. Every miss is a
 * read-allocate insertion of one 4 KB block, so wear = misses *
 * blockBytes spread over the device, under ideal wear leveling.
 */
FlashCacheOutcome
outcomeFrom(const FlashSpec &spec, std::uint64_t totalMisses,
            std::uint64_t measuredHits, std::uint64_t measuredAccesses,
            double diskReadBytesPerSecond)
{
    FlashCacheOutcome out;
    out.hitRate = measuredAccesses
                      ? double(measuredHits) / double(measuredAccesses)
                      : 0.0;
    double capacity_bytes = spec.capacityGB * units::GiB;
    out.wearCyclesPerBlock =
        double(totalMisses * std::uint64_t(4096)) / capacity_bytes;
    // Flash absorbs one write per miss (read-allocate): the write rate
    // is the miss fraction of the disk-read byte rate.
    double write_rate = diskReadBytesPerSecond * (1.0 - out.hitRate);
    if (write_rate > 0.0) {
        double seconds = capacity_bytes / write_rate *
                         spec.enduranceCycles;
        out.lifetimeYears =
            seconds / (units::hoursPerYear * units::secondsPerHour);
    } else {
        out.lifetimeYears = 1e9;
    }
    return out;
}

} // namespace

FlashCacheOutcome
evaluateFlashCache(workloads::Benchmark b, const FlashSpec &spec,
                   std::uint64_t accesses,
                   double diskReadBytesPerSecond, std::uint64_t seed)
{
    return evaluateFlashCachePolicy(b, spec, accesses,
                                    diskReadBytesPerSecond,
                                    memblade::PolicyKind::Lru, seed);
}

FlashCacheOutcome
evaluateFlashCachePolicy(workloads::Benchmark b, const FlashSpec &spec,
                         std::uint64_t accesses,
                         double diskReadBytesPerSecond,
                         memblade::PolicyKind kind, std::uint64_t seed)
{
    WSC_ASSERT(accesses >= 2, "need at least two accesses");
    auto profile = ioProfileFor(b);
    memblade::TraceGenerator gen(profile, Rng(seed));

    // Warm up on the first half; measure the second half. The device's
    // native policy is LRU with read-allocate, which the batched LRU
    // kernel replays exactly; the zoo policies model replacing the
    // device's front-end policy wholesale.
    auto w = memblade::replayWindowed(gen, kind, flashFrames(spec),
                                      profile.footprintPages, accesses,
                                      accesses / 2, Rng(seed));
    return outcomeFrom(spec, w.total.misses, w.measured.hits,
                       w.measured.accesses, diskReadBytesPerSecond);
}

std::vector<FlashCacheOutcome>
evaluateFlashCacheSweep(workloads::Benchmark b,
                        const std::vector<FlashSpec> &specs,
                        std::uint64_t accesses,
                        double diskReadBytesPerSecond,
                        std::uint64_t seed)
{
    WSC_ASSERT(accesses >= 2, "need at least two accesses");
    auto profile = ioProfileFor(b);
    memblade::TraceGenerator gen(profile, Rng(seed));
    auto curve = memblade::lruCurve(gen, profile.footprintPages,
                                    accesses, accesses / 2);

    std::vector<FlashCacheOutcome> out;
    out.reserve(specs.size());
    for (const FlashSpec &spec : specs) {
        auto frames = flashFrames(spec);
        out.push_back(outcomeFrom(
            spec, curve.accesses - curve.hitsAt(frames),
            curve.measuredHitsAt(frames), curve.measuredAccesses,
            diskReadBytesPerSecond));
    }
    return out;
}

} // namespace flashcache
} // namespace wsc
