#include "workloads/ytube.hh"

namespace wsc {
namespace workloads {

Ytube::Ytube(YtubeParams params)
    : p(params), popularity(p.catalogSize, p.popularityZipf),
      transferSize(p.meanTransferMB, p.covTransfer)
{
}

std::uint64_t
Ytube::sampleVideoRank(Rng &rng)
{
    return popularity.sampleRank(rng);
}

ServiceDemand
Ytube::nextRequest(Rng &rng)
{
    // Popularity drives cache behavior via the trait-level hit rate, so
    // the rank itself is unused: draw its uniform, skip the lookup.
    (void)rng.uniform();
    double mb = transferSize.sampleImpl(rng);
    ServiceDemand d;
    d.cpuWork = p.cpuWorkBase + p.cpuWorkPerMB * mb;
    d.diskReadBytes = mb * 1.0e6;
    d.netBytes = mb * 1.0e6;
    return d;
}

void
Ytube::nextRequestBatch(BatchStream &s, ServiceDemand *out,
                        std::size_t n)
{
    // One discarded fast uniform per request stands in for the unused
    // popularity rank (as in nextRequest), then demands come from
    // batched Box-Muller transfer-size draws (exact lognormal law).
    for (std::size_t i = 0; i < n; ++i)
        (void)s.fast.uniform();
    sizeBuf.resize(n);
    batcher.drawLognormal(transferSize, s.fast, sizeBuf.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
        double mb = sizeBuf[i];
        ServiceDemand d;
        d.cpuWork = p.cpuWorkBase + p.cpuWorkPerMB * mb;
        d.diskReadBytes = mb * 1.0e6;
        d.netBytes = mb * 1.0e6;
        out[i] = d;
    }
}

ServiceDemand
Ytube::meanDemand() const
{
    ServiceDemand d;
    d.cpuWork = p.cpuWorkBase + p.cpuWorkPerMB * p.meanTransferMB;
    d.diskReadBytes = p.meanTransferMB * 1.0e6;
    d.diskReadOps = 1.0;
    d.netBytes = p.meanTransferMB * 1.0e6;
    return d;
}

} // namespace workloads
} // namespace wsc
