/**
 * @file
 * The versioned fast-mode execution contract.
 *
 * Exact mode (the default, and the only mode CI's bit-identity gates
 * run in) pins everything: the RNG draw sequence, the event schedule,
 * and the floating-point accumulation order. That contract is what
 * made the PR-5 rebuild verifiable — and what caps its speedup, since
 * even reordering two independent draws changes the bits.
 *
 * Fast mode trades that bit-identity for *statistical* equivalence,
 * verified by the stats/equivalence gate (two-sample KS on latency and
 * service-time distributions, CI-overlap on throughput and percentile
 * metrics across seeds). What fast mode is allowed to change and what
 * it must preserve is a declared, versioned contract (DESIGN.md "Fast
 * mode"):
 *
 * Pinned (fast mode MUST preserve):
 *  - every sampled quantity's distribution, exactly (the batched
 *    samplers resolve the same inverse-CDF tables through the same
 *    shared routine as the scalar path);
 *  - the queueing/event model: stations, service demands' semantics,
 *    QoS accounting;
 *  - per-seed determinism: the same seed always reproduces the same
 *    fast-mode run bit for bit.
 *
 * Relaxed (fast mode MAY change):
 *  - the global RNG draw order — demand draws move to a dedicated
 *    stream (Rng::stream) consumed in blocks, so they interleave
 *    differently with think-time/arrival draws;
 *  - draw interleaving across requests — a block of requests' demands
 *    is generated structure-of-arrays (all keyword counts, then all
 *    term ranks, then all work multipliers) instead of per request;
 *  - the uniform generator behind bulk guide-table draws — the batch
 *    path inverts the same tables over SplitMix64 uniforms
 *    (util/random.hh), same law on the 53-bit grid as Rng::uniform
 *    but different bit patterns, several times cheaper per draw;
 *  - FP accumulation order inside demand assembly (sums over batched
 *    draws may associate differently than the scalar chain).
 *
 * Any run that used fast mode stamps contractVersion() into its JSON
 * report; exact-mode reports omit the field entirely and stay
 * byte-identical to pre-fast-mode output. Bump kVersion whenever the
 * set of relaxations changes.
 */

#ifndef WSC_SIM_FAST_MODE_HH
#define WSC_SIM_FAST_MODE_HH

#include <string>

namespace wsc {
namespace sim {

/** Fast-mode switch and knobs, threaded through the simulators. */
struct FastModeConfig {
    /** Off by default: exact mode, bit-identical to the oracle. */
    bool enabled = false;

    /**
     * Requests whose demands are generated per batched refill. Larger
     * blocks amortize the per-block virtual call and deepen the
     * prefetch pipeline; the block must stay small enough that its
     * SoA scratch stays cache-resident (256 requests ~ a few KB).
     */
    unsigned demandBlock = 256;

    /** Contract revision; bump when the relaxation set changes. */
    static constexpr unsigned kVersion = 1;

    /** Version string stamped into JSON reports of fast-mode runs. */
    static std::string
    contractVersion()
    {
        return "fast-mode/" + std::to_string(kVersion);
    }
};

/**
 * The "fast-mode/2" contract: macro-event arrival coalescing for the
 * ensemble DES (perfsim/ensemble_fast.cc). Instead of one DES event
 * per request arrival (~30M for a 100k-server day), each dispatch
 * cell runs one macro-event per conservative lookahead window that
 *
 *  - synthesizes the window's arrivals segment by segment: Poisson
 *    counts drawn in one shot per constant-rate segment
 *    (SplitMix64::poisson, per-cell identity-seeded streams exactly
 *    as the exact engine), placed at sorted uniform order statistics
 *    via exponential spacings — exact for a piecewise-constant
 *    Poisson process. Segment boundaries are the window end, MMPP
 *    phase flips, and incoming cross-cell spill deliveries, so rate
 *    changes land mid-window exactly and spilled jobs interleave
 *    into the destination's FCFS order at their true delivery
 *    times (lookahead == network latency means every delivery into
 *    window W+1 is known when W's spills are staged at the barrier),
 *  - advances each server's queue with the Kiefer–Wolfowitz slot
 *    recursion (exact M/M/c FCFS start/completion times given the
 *    sampled arrivals and services), and
 *  - integrates energy and sleep-state residency lazily over a
 *    per-server timeline (transition → active → idle → sleep
 *    segments), with the idle-to-sleep governor evaluated as a
 *    deadline instead of a timer event.
 *
 * Sleep/wake/boot control, autoscaling and power-cap hour barriers,
 * MMPP phase flips, and cross-cell spill stay *real* DES events, so
 * sim::ShardedEventQueue's conservative windowed execution (and its
 * shard/worker bit-invariance) is untouched.
 *
 * Pinned (fast-mode/2 MUST preserve):
 *  - the arrival law: per-hour Poisson rates, MMPP burst modulation,
 *    exponential service draws — same distributions, same per-cell
 *    identity-seeded streams;
 *  - the energy model: per-state watts, transition energy, hour-bucket
 *    attribution, and the policy/autoscaler control plane at hour
 *    barriers;
 *  - QoS semantics: latency measured arrival→completion against the
 *    same deadline, attainment over the same population;
 *  - per-seed determinism: a seed reproduces the same fast run bit for
 *    bit at any shard/worker count.
 *
 * Relaxed (fast-mode/2 MAY change):
 *  - event granularity: per-request arrival/completion/governor events
 *    are replaced by per-(cell, window) macro-events;
 *  - RNG draw order: segment counts then spacings then services, not
 *    the exact engine's per-arrival interleaving (same laws, different
 *    bits — gated statistically, stats/equivalence.hh);
 *  - arrival realizations at MMPP flips: the exact engine cancels the
 *    pending inter-arrival gap and redraws at the new rate
 *    (memoryless, so an exact rate change); fast-mode/2 closes the
 *    old-rate segment and opens a new-rate segment at the flip time —
 *    the same law, but a different realization from the same seed;
 *  - FP accumulation order of energy/latency aggregates.
 *
 * Verified by bench_ensemble's equivalence gate. Because cross-cell
 * spills and shared burst luck correlate every per-cell sample within
 * one seed's run, naive pooled-KS p-values are anti-conservative
 * (exact-vs-exact A/A pools fail them); the gate therefore uses
 * seed-block permutation KS tests (stats::blockPermutationKs — runs
 * are the exchangeable unit, per-run blocks mean-centered) on
 * per-cell day-aggregate utilization/latency at the bench config and
 * on per-cell-hour samples at a dynamics-resolving timescale
 * (secondsPerHour = 60), plus 95% CI overlap on per-seed kWh/day and
 * QoS attainment, and preservation of the policy energy ordering —
 * the gate's verdict is the bench exit code.
 */
struct EnsembleFastConfig {
    /** Off by default: exact per-arrival DES, bit-identical to PR-9. */
    bool enabled = false;

    /** Contract revision; bump when the relaxation set changes. */
    static constexpr unsigned kVersion = 2;

    /** Version string stamped into JSON reports of fast-mode runs. */
    static std::string
    contractVersion()
    {
        return "fast-mode/" + std::to_string(kVersion);
    }
};

} // namespace sim
} // namespace wsc

#endif // WSC_SIM_FAST_MODE_HH
