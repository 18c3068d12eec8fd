/**
 * @file
 * The fast-mode/2 ensemble engine: macro-event arrival coalescing.
 *
 * The exact engine (ensemble_sim.cc) schedules one DES event per
 * request arrival, completion, and governor timer — ~30M events for a
 * 100k-server day. This engine replaces all of them with one
 * macro-event per (cell, lookahead-window):
 *
 *  - the window's arrival count is drawn in one shot from the hourly
 *    Poisson/MMPP law (SplitMix64::poisson over the same per-cell
 *    identity-seeded streams), and arrival instants are placed at
 *    sorted uniform order statistics via exponential spacings — both
 *    exact for a Poisson process, so the pinned arrival law is
 *    preserved distribution-for-distribution;
 *  - each arrival is dispatched with the same power-of-two-choices
 *    policy logic, evaluated against the server's *instantaneous*
 *    state at the arrival time, reconstructed from per-server
 *    timelines instead of materialized by events;
 *  - per-server queueing is the Kiefer–Wolfowitz slot recursion: a
 *    sorted vector of slot-free times per server gives the exact
 *    M/M/c FCFS start/completion times for the sampled arrivals and
 *    services (start = max(arrival, earliest slot, transition end));
 *  - energy and sleep-state residency integrate lazily over a
 *    per-server segment timeline (transition -> active -> idle ->
 *    sleep), with the idle-to-sleep governor evaluated as a deadline
 *    (busy-end + governor timeout) instead of a timer event. Virtual
 *    sleepers are materialized onto the asleep list at window starts
 *    and hour barriers, so dispatch and the autoscaler see the same
 *    membership the exact engine's timer events would produce, at
 *    most one window late (a declared fast-mode/2 relaxation).
 *
 * What stays *real* DES events — so sim::ShardedEventQueue's
 * conservative windowed execution and its shard/worker bit-invariance
 * carry over unchanged — is exactly the cross-cell and control-plane
 * traffic: macro-events themselves (scheduled from the barrier at
 * every window start), MMPP phase flips, cross-cell spill posts, and
 * the autoscaling/power-cap hour barriers.
 *
 * Determinism: all stochastic state is per-cell (identity-seeded
 * streams, consumed in a fixed order: window count, spacings, then
 * per-arrival service), all accumulators merge in cell-index order,
 * and all cross-cell interaction rides the barrier-ordered message
 * path — so a seed reproduces the same bytes at any shard/worker
 * count, which test_ensemble asserts.
 */

#include "perfsim/ensemble_sim.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <vector>

#include "sim/sharded_queue.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/thread_pool.hh"

namespace wsc {
namespace perfsim {

namespace {

constexpr unsigned kLatencyBins = 1024; // same binning as exact mode

/** Coarse per-server mode. Timeline servers carry their full state
 * implicitly (slot-free times + transition end + governor deadline);
 * SleepM/Off are materialized endpoints with flat power draw. */
enum class FMode : std::uint8_t { Timeline, SleepM, Off };

/** One dispatch cell of the fast engine: same topology, streams, and
 * accumulator shapes as the exact engine's Cell, but per-server state
 * is a timeline, not an event-driven state machine. */
struct FastCell {
    std::uint32_t idx = 0;
    std::uint32_t n = 0;
    SplitMix64 rng{0}; //!< dispatch draws (p2c, wake picks, spills)
    SplitMix64 arr{0}; //!< arrival draws (counts, spacings, services)

    // Per-server timeline state, SoA.
    std::vector<double> slotFree;     //!< n * slots, sorted ascending per server
    std::vector<double> transEnd;     //!< wake/boot transition end
    std::vector<std::uint8_t> transBoot; //!< transition was a boot
    std::vector<double> lastMark;     //!< energy-integration mark
    std::vector<FMode> mode;
    /** FIFO of queued-job start times per server (starts are
     * nondecreasing under FCFS, so a head index pops them in order;
     * the live queue depth at time t is the tail past t). */
    std::vector<std::vector<double>> pendStart;
    std::vector<std::uint32_t> pendHead;

    /** Dense membership lists, exactly as the exact engine: awake =
     * Timeline, asleep = SleepM, off = Off. */
    std::vector<std::uint32_t> awake, asleep, off, pos;

    /** Lazy min-heap of (governor deadline, server): draining it as
     * dispatch time advances materializes sleepers at the same
     * instants the exact engine's timer events fire, so the p2c pool
     * and the wake-on-demand asleep list track the exact engine's
     * membership promptly instead of lagging a whole window. A
     * server's deadline max(busy end, transition end) + timeout is
     * monotone nondecreasing, so each server keeps at most one entry
     * (inGov flag) holding a lower bound; a pop whose recomputed
     * deadline is still in the future re-pushes instead of sleeping.
     * That caps heap traffic at ~one op per server per window instead
     * of one per arrival. */
    std::vector<std::pair<double, std::uint32_t>> govHeap;
    std::vector<std::uint8_t> inGov;

    double baseRate = 0.0;
    double rate = 0.0;
    bool inBurst = false;
    /** End of the window the last macro event opened, and the cell's
     * next scheduled MMPP flip (+inf when MMPP is off). Together with
     * the pending spill-delivery times below they bound the
     * constant-rate segments arrival synthesis runs over: each lane
     * event (macro open, flip, spill delivery) synthesizes from
     * synthMark up to the nearest of window end / next flip / next
     * spill, so MMPP phase changes land mid-window with full
     * fidelity and a spilled job joins its target's queue in true
     * arrival order instead of behind the whole window's backlog. */
    double winEnd = 0.0;
    double nextFlip = std::numeric_limits<double>::infinity();
    /** How far this cell's arrival stream has been synthesized. */
    double synthMark = 0.0;
    /** Spills this cell posted during the current window, staged as
     * (target cell, delivery time); the barrier merges them into the
     * targets' inSpills. Lookahead equals the network latency, so a
     * spill posted in window W is always delivered in window W+1 —
     * every delivery time is known before its window opens. */
    std::vector<std::pair<std::uint32_t, double>> outSpills;
    /** Delivery times landing in the currently open window, sorted;
     * synthesis never crosses inSpills[inSpillHead]. */
    std::vector<double> inSpills;
    std::uint32_t inSpillHead = 0;

    // Accumulators, merged in cell order (same shapes as exact).
    std::array<double, kServerStates> stateSeconds{};
    double energyWs = 0.0;
    std::vector<double> hourEnergyWs, hourLatencySum,
        hourActiveSeconds;
    double sweptActiveSeconds = 0.0;
    std::uint64_t offered = 0, completed = 0, violations = 0,
                  spilled = 0, wakes = 0, boots = 0, sleeps = 0,
                  offs = 0;
    std::vector<std::uint64_t> hourCompleted, hourViolations, latBins;
    std::uint64_t latOverflow = 0;

    std::vector<double> arrTimes; //!< window-arrival scratch
};

struct EnsembleFastSim {
    const EnsembleConfig &cfg;
    sim::ShardedEventQueue sq;
    std::vector<FastCell> cells;
    double hourSeconds;
    double horizon;
    double lookahead;
    double binWidth;
    double invHourSeconds;
    double invBinWidth;
    double peakRate;
    unsigned slots;
    bool sleepsEligible; //!< the governor runs (policy != AlwaysOn)
    std::array<double, kServerStates> wattsTable{};
    unsigned nextBoundary = 1;
    std::uint64_t capClamps = 0;

    explicit EnsembleFastSim(const EnsembleConfig &cfg)
        : cfg(cfg), sq(cfg.cells, cfg.shards),
          hourSeconds(cfg.secondsPerHour),
          horizon(double(cfg.hours) * cfg.secondsPerHour),
          lookahead(cfg.networkLatencySeconds),
          binWidth(4.0 * cfg.qosLatencySeconds / kLatencyBins),
          invHourSeconds(1.0 / hourSeconds),
          invBinWidth(1.0 / binWidth),
          peakRate(cfg.peakUtilization * double(cfg.servers) *
                   double(cfg.serverSlots) / cfg.meanServiceSeconds),
          slots(cfg.serverSlots),
          sleepsEligible(cfg.policy != EnsemblePolicy::AlwaysOn)
    {
        wattsTable[unsigned(ServerState::Active)] =
            cfg.power.busyWatts;
        wattsTable[unsigned(ServerState::Idle)] = cfg.power.idleWatts;
        wattsTable[unsigned(ServerState::Sleep)] =
            cfg.power.sleepWatts;
        wattsTable[unsigned(ServerState::Off)] = cfg.power.offWatts;
        wattsTable[unsigned(ServerState::Waking)] =
            cfg.power.transitionWatts;
        wattsTable[unsigned(ServerState::Booting)] =
            cfg.power.transitionWatts;
    }

    unsigned
    hourOf(double now) const
    {
        auto h = unsigned(now * invHourSeconds);
        return std::min(h, cfg.hours - 1);
    }

    double *
    slotsOf(FastCell &c, std::uint32_t s)
    {
        return c.slotFree.data() + std::size_t(s) * slots;
    }

    /** Time the server's last busy period drains (max slot-free). */
    double
    busyEnd(FastCell &c, std::uint32_t s)
    {
        return slotsOf(c, s)[slots - 1];
    }

    /** When the idle-to-sleep governor would have fired: the exact
     * engine arms the timer when the server drains (or finishes a
     * transition with nothing queued), which in timeline terms is
     * max(busy end, transition end) + the governor timeout. */
    double
    govDeadline(FastCell &c, std::uint32_t s)
    {
        return std::max(busyEnd(c, s), c.transEnd[s]) +
               cfg.power.idleToSleepSeconds;
    }

    /** A Timeline server that drained more than a governor timeout
     * ago is *virtually* asleep: the exact engine's timer would have
     * moved it to the asleep list already. */
    bool
    virtuallyAsleep(FastCell &c, std::uint32_t s, double t)
    {
        return sleepsEligible && c.mode[s] == FMode::Timeline &&
               t >= govDeadline(c, s);
    }

    /** Busy slots at time t: slot-free entries past t. Monotone
     * arrival processing keeps this exact — every counted slot is
     * continuously occupied through t (queued jobs start back-to-
     * back, and any drain gap ends at an arrival we already saw). */
    unsigned
    busyAt(FastCell &c, std::uint32_t s, double t)
    {
        const double *w = slotsOf(c, s);
        unsigned b = 0;
        for (unsigned i = 0; i < slots; ++i)
            b += w[i] > t;
        return b;
    }

    /** Queued jobs at time t: pending starts past t. Pops the FIFO
     * head as time advances (amortized O(1)). */
    std::uint32_t
    queuedAt(FastCell &c, std::uint32_t s, double t)
    {
        auto &pend = c.pendStart[s];
        std::uint32_t &head = c.pendHead[s];
        while (head < pend.size() && pend[head] <= t)
            ++head;
        if (head == pend.size() && head > 0) {
            pend.clear();
            head = 0;
        }
        return std::uint32_t(pend.size()) - head;
    }

    bool
    openAt(FastCell &c, std::uint32_t s, double t)
    {
        return c.mode[s] == FMode::Timeline && t >= c.transEnd[s] &&
               busyAt(c, s, t) < slots && !virtuallyAsleep(c, s, t);
    }

    std::uint64_t
    loadAt(FastCell &c, std::uint32_t s, double t)
    {
        return std::uint64_t(busyAt(c, s, t)) + queuedAt(c, s, t);
    }

    /** One-pass candidate snapshot for the p2c pick: open / load /
     * queued computed from a single read of the server's slots and
     * transition state (openAt + loadAt share busyAt and the
     * governor-deadline read, so fusing them halves the dispatch
     * loop's random-access traffic). */
    struct Probe {
        bool open;
        std::uint64_t load;
        std::uint32_t queued;
    };

    Probe
    probeAt(FastCell &c, std::uint32_t s, double t)
    {
        const double *w = slotsOf(c, s);
        unsigned b = 0;
        for (unsigned i = 0; i < slots; ++i)
            b += w[i] > t;
        std::uint32_t q = queuedAt(c, s, t);
        double tE = c.transEnd[s];
        bool open = c.mode[s] == FMode::Timeline && t >= tE &&
                    b < slots;
        if (open && sleepsEligible &&
            t >= std::max(w[slots - 1], tE) +
                     cfg.power.idleToSleepSeconds)
            open = false;  // virtually asleep
        return {open, std::uint64_t(b) + q, q};
    }

    void
    account(FastCell &c, ServerState st, double dt)
    {
        c.energyWs += dt * wattsTable[unsigned(st)];
        c.stateSeconds[unsigned(st)] += dt;
    }

    /**
     * Integrate server @p s's energy and state residency over
     * [lastMark, x). Timeline servers walk the segment sequence
     * transition -> active -> idle -> (sleep past the governor
     * deadline); materialized servers integrate flat. Exact given
     * the sampled trajectory: the segment boundaries are the same
     * instants the exact engine's events would have flipped state at.
     */
    void
    integrateTo(FastCell &c, std::uint32_t s, double x)
    {
        double t = c.lastMark[s];
        if (x <= t)
            return;
        c.lastMark[s] = x;
        if (c.mode[s] == FMode::SleepM) {
            account(c, ServerState::Sleep, x - t);
            return;
        }
        if (c.mode[s] == FMode::Off) {
            account(c, ServerState::Off, x - t);
            return;
        }
        double tE = c.transEnd[s];
        double bE = busyEnd(c, s);
        if (tE > t) {
            double e = std::min(tE, x);
            account(c,
                    c.transBoot[s] ? ServerState::Booting
                                   : ServerState::Waking,
                    e - t);
            t = e;
        }
        if (bE > t && t < x) {
            double e = std::min(bE, x);
            account(c, ServerState::Active, e - t);
            t = e;
        }
        if (t >= x)
            return;
        if (sleepsEligible) {
            double gov = std::max(bE, tE) +
                         cfg.power.idleToSleepSeconds;
            if (gov > t) {
                double e = std::min(gov, x);
                account(c, ServerState::Idle, e - t);
                t = e;
            }
            if (t < x)
                account(c, ServerState::Sleep, x - t);
        } else {
            account(c, ServerState::Idle, x - t);
        }
    }

    void
    pushGov(FastCell &c, std::uint32_t s)
    {
        if (!sleepsEligible || c.inGov[s])
            return;
        c.inGov[s] = 1;
        c.govHeap.emplace_back(govDeadline(c, s), s);
        std::push_heap(c.govHeap.begin(), c.govHeap.end(),
                       std::greater<>());
    }

    /** Materialize every server whose governor deadline passed by
     * @p t onto the asleep list (the exact engine's sleepTimer). */
    void
    drainGov(FastCell &c, double t)
    {
        if (!sleepsEligible)
            return;
        while (!c.govHeap.empty() && c.govHeap.front().first <= t) {
            auto [d, s] = c.govHeap.front();
            std::pop_heap(c.govHeap.begin(), c.govHeap.end(),
                          std::greater<>());
            c.govHeap.pop_back();
            c.inGov[s] = 0;
            if (c.mode[s] != FMode::Timeline)
                continue;
            double cur = govDeadline(c, s);
            if (cur > t) {
                // Later work extended the deadline past t: the entry
                // was a lower bound; re-arm at the current one.
                c.inGov[s] = 1;
                c.govHeap.emplace_back(cur, s);
                std::push_heap(c.govHeap.begin(), c.govHeap.end(),
                               std::greater<>());
                continue;
            }
            integrateTo(c, s, t);
            c.mode[s] = FMode::SleepM;
            moveList(c, s, c.awake, c.asleep);
            ++c.sleeps;
        }
    }

    void
    moveList(FastCell &c, std::uint32_t s,
             std::vector<std::uint32_t> &from,
             std::vector<std::uint32_t> &to)
    {
        std::uint32_t i = c.pos[s];
        from[i] = from.back();
        c.pos[from[i]] = i;
        from.pop_back();
        c.pos[s] = std::uint32_t(to.size());
        to.push_back(s);
    }

    void
    beginWake(FastCell &c, std::uint32_t s, double now)
    {
        integrateTo(c, s, now);
        if (c.mode[s] == FMode::SleepM)
            moveList(c, s, c.asleep, c.awake);
        c.mode[s] = FMode::Timeline;
        c.transEnd[s] = now + cfg.power.sleepWakeSeconds;
        c.transBoot[s] = 0;
        ++c.wakes;
        pushGov(c, s);
    }

    void
    beginBoot(FastCell &c, std::uint32_t s, double now)
    {
        integrateTo(c, s, now);
        moveList(c, s, c.off, c.awake);
        c.mode[s] = FMode::Timeline;
        c.transEnd[s] = now + cfg.power.bootSeconds;
        c.transBoot[s] = 1;
        ++c.boots;
        pushGov(c, s);
    }

    std::uint32_t
    wakeOne(FastCell &c, double now)
    {
        if (!c.asleep.empty()) {
            std::uint32_t s =
                c.asleep.size() == 1
                    ? c.asleep[0]
                    : c.asleep[c.rng.pick(c.asleep.size())];
            beginWake(c, s, now);
            return s;
        }
        WSC_ASSERT(!c.off.empty(), "cell lost all its servers");
        std::uint32_t s = c.off.size() == 1
                              ? c.off[0]
                              : c.off[c.rng.pick(c.off.size())];
        beginBoot(c, s, now);
        return s;
    }

    /** Power-of-two-choices pick: the exact engine's policy logic,
     * evaluated against instantaneous timeline state at time t. Fills
     * @p pr with the winner's snapshot so the caller never re-probes. */
    std::uint32_t
    pickServer(FastCell &c, double t, Probe &pr)
    {
        if (c.awake.empty()) {
            // Freshly woken/booted: transitioning, empty queue.
            pr = {false, 0, 0};
            return wakeOne(c, t);
        }
        if (c.awake.size() == 1) {
            std::uint32_t s = c.awake[0];
            pr = probeAt(c, s, t);
            return s;
        }
        std::uint32_t a = c.awake[c.rng.pick(c.awake.size())];
        std::uint32_t b = c.awake[c.rng.pick(c.awake.size())];
        if (a == b) {
            pr = probeAt(c, a, t);
            return a;
        }
        Probe pa = probeAt(c, a, t), pb = probeAt(c, b, t);
        if (cfg.policy == EnsemblePolicy::AlwaysOn) {
            if (pb.load < pa.load || (pb.load == pa.load && b < a)) {
                pr = pb;
                return b;
            }
            pr = pa;
            return a;
        }
        if (pa.open != pb.open) {
            pr = pa.open ? pa : pb;
            return pa.open ? a : b;
        }
        if (pa.open) {
            if (pb.load > pa.load || (pb.load == pa.load && b < a)) {
                pr = pb;
                return b;
            }
            pr = pa;
            return a;
        }
        if (pb.queued < pa.queued ||
            (pb.queued == pa.queued && b < a)) {
            pr = pb;
            return b;
        }
        pr = pa;
        return a;
    }

    void
    recordLatency(FastCell &c, double latency, double completion)
    {
        ++c.completed;
        unsigned h = hourOf(completion);
        ++c.hourCompleted[h];
        c.hourLatencySum[h] += latency;
        if (latency >= cfg.qosLatencySeconds) {
            ++c.violations;
            ++c.hourViolations[h];
        }
        auto bin = std::size_t(latency * invBinWidth);
        if (bin < kLatencyBins)
            ++c.latBins[bin];
        else
            ++c.latOverflow;
    }

    /**
     * Assign one job to server @p s: close the server's timeline up
     * to the arrival, then run the slot recursion. @p t is the
     * dispatch instant (clamped to the server's integration mark for
     * barrier-delivered spills, which may trail fresh arrivals by up
     * to one window); @p arrival is the job's original arrival time,
     * which is what latency is measured from.
     */
    void
    assign(FastCell &c, std::uint32_t s, double t, double arrival,
           double service)
    {
        double tc = std::max(t, c.lastMark[s]);
        if (virtuallyAsleep(c, s, tc)) {
            // The governor had put this server to sleep; the job
            // wakes it and eats the wake latency, exactly the
            // consolidation QoS cost the exact engine charges.
            integrateTo(c, s, tc);
            ++c.sleeps;
            ++c.wakes;
            c.transEnd[s] = tc + cfg.power.sleepWakeSeconds;
            c.transBoot[s] = 0;
        } else {
            integrateTo(c, s, tc);
        }
        double *w = slotsOf(c, s);
        double start = std::max({tc, w[0], c.transEnd[s]});
        double completion = start + service;
        if (start > tc)
            c.pendStart[s].push_back(start);
        // Replace the earliest slot and restore sorted order.
        w[0] = completion;
        for (unsigned i = 1;
             i < slots && w[i - 1] > w[i]; ++i)
            std::swap(w[i - 1], w[i]);
        pushGov(c, s);
        if (completion <= horizon)
            recordLatency(c, completion - arrival, completion);
    }

    void
    dispatch(std::uint32_t ci, double t, double arrival,
             double service, bool forwarded)
    {
        FastCell &c = cells[ci];
        drainGov(c, t);
        Probe pr;
        std::uint32_t s = pickServer(c, t, pr);
        if (!pr.open) {
            if (sleepsEligible && !c.asleep.empty()) {
                s = c.asleep.size() == 1
                        ? c.asleep[0]
                        : c.asleep[c.rng.pick(c.asleep.size())];
                beginWake(c, s, t);
            } else if (!forwarded && cfg.cells > 1 &&
                       pr.queued >= cfg.spillDepth) {
                auto tgt = std::uint32_t(c.rng.pick(cfg.cells - 1));
                if (tgt >= ci)
                    ++tgt;
                ++c.spilled;
                double at = t + cfg.networkLatencySeconds;
                c.outSpills.emplace_back(tgt, at);
                EnsembleFastSim *sim = this;
                sq.post(ci, tgt, at,
                        [sim, tgt, arrival, service] {
                            sim->spillDeliver(tgt, arrival,
                                              service);
                        });
                return;
            }
        }
        assign(c, s, t, arrival, service);
    }

    /** Synthesize and dispatch the arrivals of one constant-rate
     * segment [from, to) in one shot: count from a single Poisson
     * draw, placement via exponential spacings (sorted uniform order
     * statistics — exact for a Poisson process). */
    void
    synthSegment(std::uint32_t ci, FastCell &c, double from,
                 double to)
    {
        if (c.rate <= 0.0 || to <= from)
            return;
        std::uint64_t n = c.arr.poisson(c.rate * (to - from));
        if (n == 0)
            return;
        c.arrTimes.resize(n);
        double acc = 0.0;
        for (std::uint64_t i = 0; i < n; ++i) {
            acc += c.arr.exponential(1.0);
            c.arrTimes[i] = acc;
        }
        acc += c.arr.exponential(1.0);
        double scale = (to - from) / acc;
        for (std::uint64_t i = 0; i < n; ++i) {
            double tau = from + c.arrTimes[i] * scale;
            ++c.offered;
            double service =
                c.arr.exponential(cfg.meanServiceSeconds);
            dispatch(ci, tau, tau, service, false);
        }
    }

    /** Next spill-delivery split point, +inf when none remain. */
    double
    nextSpill(const FastCell &c) const
    {
        return c.inSpillHead < c.inSpills.size()
                   ? c.inSpills[c.inSpillHead]
                   : std::numeric_limits<double>::infinity();
    }

    /** Advance the cell's arrival synthesis to @p to, clamped to the
     * nearest rate change or interleaving point (window end, MMPP
     * flip, spill delivery). Each lane event calls this after
     * updating its own bound, so segments tile the window exactly
     * and every dispatch happens in arrival order. */
    void
    synthUpTo(std::uint32_t ci, FastCell &c, double to)
    {
        to = std::min(std::min(to, c.winEnd),
                      std::min(c.nextFlip, nextSpill(c)));
        if (to > c.synthMark) {
            synthSegment(ci, c, c.synthMark, to);
            c.synthMark = to;
        }
    }

    /** The per-(cell, window) macro event: open the window and
     * synthesize arrivals up to the first split point; flips and
     * spill deliveries inside the window extend the synthesis as
     * they fire. */
    void
    macroEvent(std::uint32_t ci)
    {
        FastCell &c = cells[ci];
        double t = sq.laneQueue(ci).now();
        c.winEnd = std::min(t + lookahead, horizon);
        drainGov(c, t);
        synthUpTo(ci, c, c.winEnd);
    }

    void
    mmppFlip(std::uint32_t ci)
    {
        FastCell &c = cells[ci];
        double now = sq.laneQueue(ci).now();
        synthUpTo(ci, c, now);
        c.inBurst = !c.inBurst;
        c.rate = c.baseRate *
                 (c.inBurst ? cfg.mmpp.burstMultiplier : 1.0);
        double dwell = c.arr.exponential(
            c.inBurst ? cfg.mmpp.burstMeanSeconds
                      : cfg.mmpp.calmMeanSeconds);
        c.nextFlip = now + dwell;
        EnsembleFastSim *sim = this;
        sq.laneQueue(ci).schedule(
            c.nextFlip, [sim, ci] { sim->mmppFlip(ci); });
        // The open window's remainder runs at the new rate from the
        // flip instant: exact MMPP modulation, not a window-start
        // snapshot.
        synthUpTo(ci, c, c.winEnd);
    }

    /** A spilled job lands: close synthesis at the delivery instant,
     * retire its split point, and dispatch it — in exact arrival
     * order relative to the target's own synthesized stream. */
    void
    spillDeliver(std::uint32_t ci, double arrival, double service)
    {
        FastCell &c = cells[ci];
        double d = sq.laneQueue(ci).now();
        synthUpTo(ci, c, d);
        if (c.inSpillHead < c.inSpills.size() &&
            c.inSpills[c.inSpillHead] <= d)
            ++c.inSpillHead;
        dispatch(ci, d, arrival, service, true);
        synthUpTo(ci, c, c.winEnd);
    }

    std::uint32_t
    autoscaleTarget(const FastCell &c)
    {
        double needBusy = c.baseRate * cfg.meanServiceSeconds /
                          (double(cfg.serverSlots) *
                           cfg.autoscaleUtilization);
        auto target = std::uint32_t(
            std::ceil(needBusy * (1.0 + cfg.reserveMargin)));
        auto floor_ = std::uint32_t(std::max(
            1.0, std::ceil(cfg.reserveMargin * double(c.n))));
        target = std::max(target, floor_);
        target = std::min(target, c.n);
        if (cfg.powerCapWatts > 0.0) {
            double maxTotal = std::floor(cfg.powerCapWatts /
                                         cfg.power.busyWatts);
            auto maxCell = std::uint32_t(std::max(
                1.0, std::floor(maxTotal * double(c.n) /
                                double(cfg.servers))));
            if (target > maxCell) {
                target = maxCell;
                ++capClamps;
            }
        }
        return target;
    }

    void
    autoscale(FastCell &c, double now)
    {
        std::uint32_t target = autoscaleTarget(c);
        auto cur = std::uint32_t(c.awake.size());
        if (cur < target) {
            std::uint32_t need = target - cur;
            while (need > 0 && !c.asleep.empty()) {
                beginWake(c, c.asleep.back(), now);
                --need;
            }
            while (need > 0 && !c.off.empty()) {
                beginBoot(c, c.off.back(), now);
                --need;
            }
        } else if (cur > target) {
            std::uint32_t excess = cur - target;
            while (excess > 0 && !c.asleep.empty()) {
                std::uint32_t s = c.asleep.back();
                integrateTo(c, s, now);
                c.mode[s] = FMode::Off;
                moveList(c, s, c.asleep, c.off);
                ++c.offs;
                --excess;
            }
            if (excess > 0) {
                // Only idle servers power off: drained, out of any
                // transition, and not yet past the governor deadline
                // (those were materialized asleep in the hour sweep).
                std::vector<std::uint32_t> idlers;
                for (std::uint32_t s : c.awake) {
                    if (now >= c.transEnd[s] &&
                        now >= busyEnd(c, s)) {
                        idlers.push_back(s);
                        if (idlers.size() == excess)
                            break;
                    }
                }
                for (std::uint32_t s : idlers) {
                    integrateTo(c, s, now);
                    c.mode[s] = FMode::Off;
                    moveList(c, s, c.awake, c.off);
                    ++c.offs;
                }
            }
        }
    }

    /** Close every server's integral at @p now and credit the energy
     * since the last sweep to @p hour (the exact engine's sweepCell,
     * over timelines). */
    void
    hourSweep(FastCell &c, double now, unsigned hour)
    {
        drainGov(c, now);
        for (std::uint32_t s = 0; s < c.n; ++s)
            integrateTo(c, s, now);
        c.hourEnergyWs[hour] += c.energyWs;
        c.energyWs = 0.0;
        double active = c.stateSeconds[unsigned(ServerState::Active)];
        c.hourActiveSeconds[hour] += active - c.sweptActiveSeconds;
        c.sweptActiveSeconds = active;
    }

    void
    programHour(FastCell &c, unsigned hour, double now)
    {
        c.baseRate = peakRate * cfg.profile[hour] * double(c.n) /
                     double(cfg.servers);
        c.rate = c.baseRate *
                 (c.inBurst ? cfg.mmpp.burstMultiplier : 1.0);
        if (cfg.policy == EnsemblePolicy::PowerOff)
            autoscale(c, now);
    }

    /** Barrier callback: hour control plane when a boundary passed,
     * then seed every cell's next macro event at the window start
     * (it runs first thing inside the next shard window, so the
     * arrival synthesis itself executes in parallel). */
    void
    onBarrier(double now)
    {
        while (nextBoundary <= cfg.hours &&
               double(nextBoundary) * hourSeconds <= now) {
            unsigned k = nextBoundary++;
            for (FastCell &c : cells) {
                hourSweep(c, now, k - 1);
                if (k < cfg.hours)
                    programHour(c, k, now);
            }
        }
        // Single-threaded point: publish last window's staged spill
        // deliveries to their targets as synthesis split points for
        // the window about to open (lane order, so the merge is
        // shard- and worker-count invariant).
        for (FastCell &c : cells) {
            c.inSpills.clear();
            c.inSpillHead = 0;
        }
        for (FastCell &src : cells) {
            for (const auto &[tgt, at] : src.outSpills)
                cells[tgt].inSpills.push_back(at);
            src.outSpills.clear();
        }
        for (FastCell &c : cells)
            std::sort(c.inSpills.begin(), c.inSpills.end());
        if (now >= horizon)
            return;
        EnsembleFastSim *sim = this;
        for (std::uint32_t ci = 0; ci < cfg.cells; ++ci)
            sq.laneQueue(ci).schedule(
                now, [sim, ci] { sim->macroEvent(ci); });
    }

    void
    setup()
    {
        cells.resize(cfg.cells);
        for (std::uint32_t ci = 0; ci < cfg.cells; ++ci) {
            FastCell &c = cells[ci];
            c.idx = ci;
            std::uint32_t lo =
                std::uint32_t(std::uint64_t(cfg.servers) * ci /
                              cfg.cells);
            std::uint32_t hi =
                std::uint32_t(std::uint64_t(cfg.servers) *
                              (ci + 1) / cfg.cells);
            c.n = hi - lo;
            // The same identity-seeded streams as the exact engine
            // (pinned by the fast-mode/2 contract).
            c.rng = SplitMix64(seedFor(cfg.seed, "ensemble-dispatch",
                                       std::uint64_t(ci)));
            c.arr = SplitMix64(seedFor(cfg.seed, "ensemble-arrivals",
                                       std::uint64_t(ci)));
            c.slotFree.assign(std::size_t(c.n) * slots, 0.0);
            c.transEnd.assign(c.n, 0.0);
            c.transBoot.assign(c.n, 0);
            c.lastMark.assign(c.n, 0.0);
            c.mode.assign(c.n, FMode::Timeline);
            c.pendStart.resize(c.n);
            c.pendHead.assign(c.n, 0);
            c.inGov.assign(c.n, 0);
            c.pos.resize(c.n);
            c.hourEnergyWs.assign(cfg.hours, 0.0);
            c.hourCompleted.assign(cfg.hours, 0);
            c.hourViolations.assign(cfg.hours, 0);
            c.hourLatencySum.assign(cfg.hours, 0.0);
            c.hourActiveSeconds.assign(cfg.hours, 0.0);
            c.latBins.assign(kLatencyBins, 0);

            // Initial condition mirrors the exact engine: everyone
            // awake and idle (governor deadline = idleToSleepSeconds
            // from t=0), except PowerOff starts at its hour-0 target.
            c.baseRate = peakRate * cfg.profile[0] * double(c.n) /
                         double(cfg.servers);
            c.rate = c.baseRate;
            std::uint32_t awakeN = c.n;
            if (cfg.policy == EnsemblePolicy::PowerOff)
                awakeN = autoscaleTarget(c);
            for (std::uint32_t s = 0; s < c.n; ++s) {
                if (s < awakeN) {
                    c.pos[s] = std::uint32_t(c.awake.size());
                    c.awake.push_back(s);
                    // The exact engine arms every awake server's idle
                    // governor at t=0.
                    pushGov(c, s);
                } else {
                    c.mode[s] = FMode::Off;
                    c.pos[s] = std::uint32_t(c.off.size());
                    c.off.push_back(s);
                }
            }
            if (cfg.mmpp.enabled) {
                double dwell =
                    c.arr.exponential(cfg.mmpp.calmMeanSeconds);
                c.nextFlip = dwell;
                EnsembleFastSim *sim = this;
                sq.laneQueue(ci).schedule(
                    dwell, [sim, ci] { sim->mmppFlip(ci); });
            }
            // First window's macro event.
            EnsembleFastSim *sim = this;
            sq.laneQueue(ci).schedule(
                0.0, [sim, ci] { sim->macroEvent(ci); });
        }
    }
};

} // namespace

EnsembleResult
runEnsembleFast(const EnsembleConfig &cfg)
{
    validateEnsembleConfig(cfg);

    EnsembleFastSim sim(cfg);
    // Event population is tiny: one macro event per cell in flight,
    // plus MMPP flips and spill posts.
    sim.sq.reserve(4096);
    sim.setup();

    unsigned workers = cfg.workers;
    if (workers == 0)
        workers = std::min(cfg.shards,
                           std::max(1u, ThreadPool::defaultThreads()));

    auto t0 = std::chrono::steady_clock::now();
    auto stats = sim.sq.run(
        sim.horizon, cfg.networkLatencySeconds, workers,
        [&](sim::Time now) { sim.onBarrier(now); });
    double wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();

    EnsembleResult r;
    r.servers = cfg.servers;
    r.cells = cfg.cells;
    r.hours = cfg.hours;
    r.secondsPerHour = cfg.secondsPerHour;
    r.policy = cfg.policy;
    r.capClamps = sim.capClamps;

    std::array<double, kServerStates> stateSeconds{};
    std::vector<std::uint64_t> bins(kLatencyBins, 0);
    std::uint64_t overflow = 0;
    r.hourKWh.assign(cfg.hours, 0.0);
    r.hourViolationFraction.assign(cfg.hours, 0.0);
    std::vector<std::uint64_t> hourCompleted(cfg.hours, 0);
    std::vector<std::uint64_t> hourViolations(cfg.hours, 0);

    for (const FastCell &c : sim.cells) {
        r.offered += c.offered;
        r.completed += c.completed;
        r.violations += c.violations;
        r.spilled += c.spilled;
        r.wakes += c.wakes;
        r.boots += c.boots;
        r.sleeps += c.sleeps;
        r.offs += c.offs;
        overflow += c.latOverflow;
        for (unsigned k = 0; k < kServerStates; ++k)
            stateSeconds[k] += c.stateSeconds[k];
        for (unsigned i = 0; i < kLatencyBins; ++i)
            bins[i] += c.latBins[i];
        for (unsigned h = 0; h < cfg.hours; ++h) {
            r.hourKWh[h] += c.hourEnergyWs[h];
            hourCompleted[h] += c.hourCompleted[h];
            hourViolations[h] += c.hourViolations[h];
            r.meanLatency += c.hourLatencySum[h];
        }
    }

    double wsToKWh = 1.0 / (1000.0 * cfg.secondsPerHour);
    for (unsigned h = 0; h < cfg.hours; ++h) {
        r.hourKWh[h] *= wsToKWh;
        r.kWhPerDay += r.hourKWh[h];
        if (hourCompleted[h] > 0)
            r.hourViolationFraction[h] =
                double(hourViolations[h]) /
                double(hourCompleted[h]);
    }

    double daySeconds = sim.horizon;
    r.meanActiveServers =
        stateSeconds[unsigned(ServerState::Active)] / daySeconds;
    r.meanAwakeServers =
        (stateSeconds[unsigned(ServerState::Active)] +
         stateSeconds[unsigned(ServerState::Idle)] +
         stateSeconds[unsigned(ServerState::Waking)] +
         stateSeconds[unsigned(ServerState::Booting)]) /
        daySeconds;
    for (unsigned k = 0; k < kServerStates; ++k)
        r.stateFractions[k] =
            stateSeconds[k] / (daySeconds * double(cfg.servers));

    if (r.completed > 0) {
        r.meanLatency /= double(r.completed);
        auto quantile = [&](double q) {
            double need = q * double(r.completed);
            std::uint64_t cum = 0;
            for (unsigned i = 0; i < kLatencyBins; ++i) {
                cum += bins[i];
                if (double(cum) >= need)
                    return (double(i) + 0.5) * sim.binWidth;
            }
            return double(kLatencyBins) * sim.binWidth;
        };
        r.p50 = quantile(0.50);
        r.p95 = quantile(0.95);
        r.p99 = quantile(0.99);
        r.qosViolationFraction =
            double(r.violations) / double(r.completed);
    } else {
        r.meanLatency = 0.0;
    }
    std::uint64_t onTime = r.completed - r.violations;
    r.qosAttainment =
        r.offered > 0 ? double(onTime) / double(r.offered) : 1.0;
    r.score = r.kWhPerDay / std::max(r.qosAttainment, 0.01);

    auto kernel = sim.sq.counters();
    r.eventsScheduled = kernel.scheduled;
    r.eventsDispatched = kernel.dispatched;
    r.crossCellMessages = stats.messages;
    r.windows = stats.windows;
    r.shardEvents = std::move(stats.shardDispatched);
    r.meanWindowImbalance = stats.meanWindowImbalance;

    r.fastMode = true;
    r.cellHourUtilization.assign(std::size_t(cfg.cells) * cfg.hours,
                                 0.0);
    r.cellHourLatencyMean.assign(std::size_t(cfg.cells) * cfg.hours,
                                 0.0);
    r.cellHourCompleted.assign(std::size_t(cfg.cells) * cfg.hours, 0);
    for (unsigned ci = 0; ci < cfg.cells; ++ci) {
        const FastCell &c = sim.cells[ci];
        for (unsigned h = 0; h < cfg.hours; ++h) {
            std::size_t i = std::size_t(ci) * cfg.hours + h;
            r.cellHourUtilization[i] =
                c.hourActiveSeconds[h] /
                (double(c.n) * cfg.secondsPerHour);
            r.cellHourCompleted[i] = c.hourCompleted[h];
            if (c.hourCompleted[h] > 0)
                r.cellHourLatencyMean[i] =
                    c.hourLatencySum[h] /
                    double(c.hourCompleted[h]);
        }
    }

    r.wallSeconds = wall;
    return r;
}

} // namespace perfsim
} // namespace wsc
