#include "perfsim/ensemble_sim.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "perfsim/request_arena.hh"
#include "sim/sharded_queue.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/thread_pool.hh"

namespace wsc {
namespace perfsim {

std::string
to_string(ServerState s)
{
    switch (s) {
      case ServerState::Active:
        return "active";
      case ServerState::Idle:
        return "idle";
      case ServerState::Sleep:
        return "sleep";
      case ServerState::Waking:
        return "waking";
      case ServerState::Off:
        return "off";
      case ServerState::Booting:
        return "booting";
    }
    panic("unknown server state");
}

std::string
to_string(EnsemblePolicy p)
{
    switch (p) {
      case EnsemblePolicy::AlwaysOn:
        return "always-on";
      case EnsemblePolicy::ConsolidateIdle:
        return "consolidate-idle";
      case EnsemblePolicy::PowerOff:
        return "power-off";
    }
    panic("unknown ensemble policy");
}

namespace {

constexpr unsigned kLatencyBins = 1024;

/**
 * Batched unit-exponential pregeneration. The hot path draws one
 * inter-arrival gap and one service time per job, and every
 * hour-barrier reprogram cancels and redraws each cell's pending
 * arrival; refilling in blocks keeps the SplitMix64 mixing and the
 * log1p calls in a tight loop the compiler can schedule instead of a
 * call per event. Storing UNIT exponentials and scaling at use makes
 * the buffer reprogram-safe — a rate change rescales future draws
 * without discarding anything (exponentials are memoryless) — and
 * exact: exponential(mean) computes -log1p(-u) * mean, and
 * (-log1p(-u) * 1.0) * mean is the same double, so batched results
 * are bit-identical to unbatched ones, draw for draw.
 */
struct ExpBatch {
    std::array<double, 256> buf{};
    std::uint32_t idx = std::uint32_t(buf.size());

    double
    next(SplitMix64 &g)
    {
        if (idx == buf.size()) {
            for (double &v : buf)
                v = g.exponential(1.0);
            idx = 0;
        }
        return buf[idx++];
    }
};

/** Pooled per-job state; queued jobs chain through `next`. */
struct Job {
    double arrival = 0.0;
    double service = 0.0;
    RequestHandle next = 0;
};

/**
 * One dispatch domain: a contiguous block of servers with its own
 * RNG stream, job arena, arrival process, and accumulators. A cell
 * is a lane of the sharded queue; within a window only the thread
 * executing the cell's shard touches it, and every accumulator is
 * merged in cell-index order, which is what makes the run's
 * observables shard-count-invariant.
 */
struct Cell {
    std::uint32_t idx = 0;
    std::uint32_t n = 0;
    /** Dispatch-side draws: p2c picks, wake picks, spill targets.
     * Split from the arrival stream so every policy faces the
     * bit-identical arrival process (policies differ only in how
     * many dispatch draws they burn). SplitMix64 (the sanctioned
     * fast generator, util/random.hh) rather than Rng: these streams
     * draw once or twice per event, and the counter-based generator
     * is cheaper than Rng (about 2.5x per uniform) while keeping the
     * identity-seeded determinism contract. */
    SplitMix64 rng{0};
    /** Arrival-side draws: inter-arrival delays, service times, MMPP
     * dwells. All of them are exponential, so they share one batch of
     * pregenerated unit draws scaled at use. */
    SplitMix64 arr{0};
    ExpBatch unitExp;

    // Per-server state, SoA.
    std::vector<ServerState> state;
    std::vector<std::uint8_t> busy;    //!< slots in service
    std::vector<std::uint32_t> queued; //!< jobs waiting
    std::vector<RequestHandle> qHead, qTail;
    std::vector<sim::EventId> timer;   //!< pending idle->sleep timer
    std::vector<double> lastChange;    //!< energy-integration mark

    /** Dense membership lists (swap-remove, O(1) moves): awake =
     * Active/Idle/Waking/Booting, asleep = Sleep, off = Off. pos[s]
     * is s's index within its current list. */
    std::vector<std::uint32_t> awake, asleep, off, pos;

    RequestArena<Job> arena;

    double baseRate = 0.0; //!< this hour's arrival rate, calm
    double rate = 0.0;     //!< with the burst multiplier applied
    double meanGap = 0.0;  //!< 1 / rate, cached off the arrival path
    sim::EventId arrivalEvent = 0;
    bool inBurst = false;

    // Accumulators, merged in cell order.
    std::array<double, kServerStates> stateSeconds{};
    double energyWs = 0.0; //!< watt-seconds since the last sweep
    std::vector<double> hourEnergyWs;
    std::uint64_t offered = 0, completed = 0, violations = 0,
                  spilled = 0, wakes = 0, boots = 0, sleeps = 0,
                  offs = 0;
    std::vector<std::uint64_t> hourCompleted, hourViolations;
    double latencySum = 0.0;
    std::vector<std::uint64_t> latBins;
    std::uint64_t latOverflow = 0;

    /** Equivalence-gate samples (never serialized): per-hour latency
     * mass and active-server-seconds, swept alongside hourEnergyWs. */
    std::vector<double> hourLatencySum;
    std::vector<double> hourActiveSeconds;
    double sweptActiveSeconds = 0.0;
};

struct EnsembleSim {
    const EnsembleConfig &cfg;
    sim::ShardedEventQueue sq;
    std::vector<Cell> cells;
    double hourSeconds;
    double horizon;
    double binWidth;
    /** Reciprocals of hourSeconds/binWidth: hourOf and the latency
     * histogram run once per completion, and the two divides were
     * measurable there. */
    double invHourSeconds;
    double invBinWidth;
    double peakRate;
    /** watts() as a flat table indexed by ServerState. */
    std::array<double, kServerStates> wattsTable{};
    unsigned nextBoundary = 1;
    std::uint64_t capClamps = 0;

    explicit EnsembleSim(const EnsembleConfig &cfg)
        : cfg(cfg), sq(cfg.cells, cfg.shards),
          hourSeconds(cfg.secondsPerHour),
          horizon(double(cfg.hours) * cfg.secondsPerHour),
          binWidth(4.0 * cfg.qosLatencySeconds / kLatencyBins),
          invHourSeconds(1.0 / hourSeconds),
          invBinWidth(1.0 / binWidth),
          peakRate(cfg.peakUtilization * double(cfg.servers) *
                   double(cfg.serverSlots) / cfg.meanServiceSeconds)
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

    double
    watts(ServerState s) const
    {
        return wattsTable[unsigned(s)];
    }

    std::vector<std::uint32_t> &
    listFor(Cell &c, ServerState s)
    {
        switch (s) {
          case ServerState::Sleep:
            return c.asleep;
          case ServerState::Off:
            return c.off;
          default:
            return c.awake;
        }
    }

    /** Close the energy/state-time integral for @p s at @p now and
     * transition to @p ns (same-state calls just close the integral). */
    void
    setState(Cell &c, std::uint32_t s, ServerState ns, double now)
    {
        ServerState os = c.state[s];
        double dt = now - c.lastChange[s];
        c.energyWs += dt * watts(os);
        c.stateSeconds[unsigned(os)] += dt;
        c.lastChange[s] = now;
        if (os == ns)
            return;
        auto &from = listFor(c, os);
        auto &to = listFor(c, ns);
        if (&from != &to) {
            std::uint32_t i = c.pos[s];
            from[i] = from.back();
            c.pos[from[i]] = i;
            from.pop_back();
            c.pos[s] = std::uint32_t(to.size());
            to.push_back(s);
        }
        c.state[s] = ns;
    }

    /** Rate changes are control-plane (hour boundaries, MMPP
     * flips); the per-arrival draw uses the cached mean gap. */
    static void
    setRate(Cell &c, double rate)
    {
        c.rate = rate;
        c.meanGap = rate > 0.0 ? 1.0 / rate : 0.0;
    }

    unsigned
    hourOf(double now) const
    {
        auto h = unsigned(now * invHourSeconds);
        return std::min(h, cfg.hours - 1);
    }

    void
    cancelTimer(Cell &c, std::uint32_t s)
    {
        if (c.timer[s]) {
            sq.laneQueue(c.idx).cancel(c.timer[s]);
            c.timer[s] = 0;
        }
    }

    bool
    open(const Cell &c, std::uint32_t s) const
    {
        return c.busy[s] < cfg.serverSlots &&
               (c.state[s] == ServerState::Active ||
                c.state[s] == ServerState::Idle);
    }

    std::uint64_t
    load(const Cell &c, std::uint32_t s) const
    {
        return std::uint64_t(c.busy[s]) + c.queued[s];
    }

    void
    recordLatency(Cell &c, double latency, double now)
    {
        ++c.completed;
        unsigned h = hourOf(now);
        ++c.hourCompleted[h];
        c.latencySum += latency;
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

    void
    scheduleCompletion(Cell &c, std::uint32_t s, RequestHandle h,
                       double now)
    {
        EnsembleSim *sim = this;
        std::uint32_t ci = c.idx;
        sq.laneQueue(ci).schedule(
            now + c.arena.get(h).service,
            [sim, ci, s, h] { sim->complete(ci, s, h); });
    }

    void
    beginWake(Cell &c, std::uint32_t s, double now)
    {
        setState(c, s, ServerState::Waking, now);
        ++c.wakes;
        EnsembleSim *sim = this;
        std::uint32_t ci = c.idx;
        sq.laneQueue(ci).schedule(
            now + cfg.power.sleepWakeSeconds,
            [sim, ci, s] { sim->transitionDone(ci, s); });
    }

    void
    beginBoot(Cell &c, std::uint32_t s, double now)
    {
        setState(c, s, ServerState::Booting, now);
        ++c.boots;
        EnsembleSim *sim = this;
        std::uint32_t ci = c.idx;
        sq.laneQueue(ci).schedule(
            now + cfg.power.bootSeconds,
            [sim, ci, s] { sim->transitionDone(ci, s); });
    }

    /** Wake capacity on demand: suspend resume if possible, else a
     * full boot. Only called when the awake list is empty, so one of
     * the other lists is not. */
    std::uint32_t
    wakeOne(Cell &c, double now)
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
        std::uint32_t s =
            c.off.size() == 1
                ? c.off[0]
                : c.off[c.rng.pick(c.off.size())];
        beginBoot(c, s, now);
        return s;
    }

    /** Power-of-two-choices pick over the awake list. AlwaysOn
     * spreads (less loaded wins); the consolidating policies pack
     * (fuller-but-open wins), so idle servers drain and sleep. */
    std::uint32_t
    pickServer(Cell &c, double now)
    {
        if (c.awake.empty())
            return wakeOne(c, now);
        std::uint32_t a, b;
        if (c.awake.size() == 1) {
            return c.awake[0];
        }
        a = c.awake[c.rng.pick(c.awake.size())];
        b = c.awake[c.rng.pick(c.awake.size())];
        if (a == b)
            return a;
        if (cfg.policy == EnsemblePolicy::AlwaysOn) {
            std::uint64_t la = load(c, a), lb = load(c, b);
            if (lb < la || (lb == la && b < a))
                return b;
            return a;
        }
        bool oa = open(c, a), ob = open(c, b);
        if (oa != ob)
            return oa ? a : b;
        if (oa) {
            std::uint64_t la = load(c, a), lb = load(c, b);
            if (lb > la || (lb == la && b < a))
                return b;
            return a;
        }
        if (c.queued[b] < c.queued[a] ||
            (c.queued[b] == c.queued[a] && b < a))
            return b;
        return a;
    }

    void
    assign(Cell &c, std::uint32_t s, double arrival, double service,
           double now)
    {
        RequestHandle h = c.arena.acquire();
        Job &j = c.arena.get(h);
        j.arrival = arrival;
        j.service = service;
        if (open(c, s)) {
            if (c.state[s] == ServerState::Idle) {
                cancelTimer(c, s);
                setState(c, s, ServerState::Active, now);
            }
            ++c.busy[s];
            scheduleCompletion(c, s, h, now);
        } else {
            if (c.qTail[s])
                c.arena.get(c.qTail[s]).next = h;
            else
                c.qHead[s] = h;
            c.qTail[s] = h;
            ++c.queued[s];
        }
    }

    void
    dispatch(std::uint32_t ci, double arrival, double service,
             bool forwarded)
    {
        Cell &c = cells[ci];
        double now = sq.laneQueue(ci).now();
        std::uint32_t s = pickServer(c, now);
        if (!open(c, s)) {
            // Demand signal: the picked server has no free slot.
            if (cfg.policy != EnsemblePolicy::AlwaysOn &&
                !c.asleep.empty()) {
                // Wake a sleeper and hand it the job; the job eats
                // the wake latency, which is exactly the QoS cost of
                // consolidation the analytical model cannot see.
                s = c.asleep.size() == 1
                        ? c.asleep[0]
                        : c.asleep[c.rng.pick(c.asleep.size())];
                beginWake(c, s, now);
            } else if (!forwarded && cfg.cells > 1 &&
                       c.queued[s] >= cfg.spillDepth) {
                // No local capacity left: pay the network latency
                // and hand the job to a random remote cell.
                // Forwarded jobs never re-spill, so no ping-pong.
                auto t = std::uint32_t(
                    c.rng.pick(cfg.cells - 1));
                if (t >= ci)
                    ++t;
                ++c.spilled;
                EnsembleSim *sim = this;
                sq.post(ci, t, now + cfg.networkLatencySeconds,
                        [sim, t, arrival, service] {
                            sim->dispatch(t, arrival, service, true);
                        });
                return;
            }
        }
        assign(c, s, arrival, service, now);
    }

    void
    enterIdle(Cell &c, std::uint32_t s, double now)
    {
        setState(c, s, ServerState::Idle, now);
        if (cfg.policy != EnsemblePolicy::AlwaysOn) {
            cancelTimer(c, s);
            EnsembleSim *sim = this;
            std::uint32_t ci = c.idx;
            c.timer[s] = sq.laneQueue(ci).schedule(
                now + cfg.power.idleToSleepSeconds,
                [sim, ci, s] { sim->sleepTimer(ci, s); });
        }
    }

    /** Start queued jobs into free slots, then settle the server's
     * state (Active if serving, Idle + governor timer otherwise). */
    void
    pump(Cell &c, std::uint32_t s, double now)
    {
        while (c.busy[s] < cfg.serverSlots && c.qHead[s]) {
            RequestHandle h = c.qHead[s];
            Job &j = c.arena.get(h);
            c.qHead[s] = j.next;
            if (!c.qHead[s])
                c.qTail[s] = 0;
            j.next = 0;
            --c.queued[s];
            ++c.busy[s];
            scheduleCompletion(c, s, h, now);
        }
        if (c.busy[s] > 0) {
            if (c.state[s] != ServerState::Active)
                setState(c, s, ServerState::Active, now);
        } else {
            enterIdle(c, s, now);
        }
    }

    void
    complete(std::uint32_t ci, std::uint32_t s, RequestHandle h)
    {
        Cell &c = cells[ci];
        double now = sq.laneQueue(ci).now();
        double latency = now - c.arena.get(h).arrival;
        recordLatency(c, latency, now);
        c.arena.release(h);
        --c.busy[s];
        pump(c, s, now);
    }

    void
    transitionDone(std::uint32_t ci, std::uint32_t s)
    {
        Cell &c = cells[ci];
        pump(c, s, sq.laneQueue(ci).now());
    }

    void
    sleepTimer(std::uint32_t ci, std::uint32_t s)
    {
        Cell &c = cells[ci];
        c.timer[s] = 0;
        if (c.state[s] == ServerState::Idle) {
            setState(c, s, ServerState::Sleep,
                     sq.laneQueue(ci).now());
            ++c.sleeps;
        }
    }

    void
    rescheduleArrival(Cell &c, double now)
    {
        if (c.arrivalEvent) {
            sq.laneQueue(c.idx).cancel(c.arrivalEvent);
            c.arrivalEvent = 0;
        }
        if (c.rate > 0.0) {
            double delay = c.unitExp.next(c.arr) * c.meanGap;
            EnsembleSim *sim = this;
            std::uint32_t ci = c.idx;
            c.arrivalEvent = sq.laneQueue(ci).schedule(
                now + delay, [sim, ci] { sim->arrive(ci); });
        }
    }

    void
    arrive(std::uint32_t ci)
    {
        Cell &c = cells[ci];
        double now = sq.laneQueue(ci).now();
        c.arrivalEvent = 0;
        ++c.offered;
        double service =
            c.unitExp.next(c.arr) * cfg.meanServiceSeconds;
        dispatch(ci, now, service, false);
        rescheduleArrival(c, now);
    }

    void
    mmppFlip(std::uint32_t ci)
    {
        Cell &c = cells[ci];
        double now = sq.laneQueue(ci).now();
        c.inBurst = !c.inBurst;
        setRate(c, c.baseRate *
                       (c.inBurst ? cfg.mmpp.burstMultiplier : 1.0));
        // Exponential inter-arrivals are memoryless, so cancelling
        // the pending arrival and redrawing at the new rate is an
        // exact rate change, not an approximation.
        rescheduleArrival(c, now);
        double dwell = c.unitExp.next(c.arr) *
                       (c.inBurst ? cfg.mmpp.burstMeanSeconds
                                  : cfg.mmpp.calmMeanSeconds);
        EnsembleSim *sim = this;
        sq.laneQueue(ci).schedule(
            now + dwell, [sim, ci] { sim->mmppFlip(ci); });
    }

    /** Close every server's energy integral at @p now, crediting the
     * watt-seconds since the last sweep to @p hour. */
    void
    sweepCell(Cell &c, double now, unsigned hour)
    {
        for (std::uint32_t s = 0; s < c.n; ++s)
            setState(c, s, c.state[s], now);
        c.hourEnergyWs[hour] += c.energyWs;
        c.energyWs = 0.0;
        double active = c.stateSeconds[unsigned(ServerState::Active)];
        c.hourActiveSeconds[hour] += active - c.sweptActiveSeconds;
        c.sweptActiveSeconds = active;
    }

    std::uint32_t
    autoscaleTarget(const Cell &c)
    {
        // Forecast busy servers for the hour, sized so their slots
        // run at the autoscale utilization, plus the reserve margin.
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
    autoscale(Cell &c, double now)
    {
        std::uint32_t target = autoscaleTarget(c);
        auto cur = std::uint32_t(c.awake.size());
        if (cur < target) {
            std::uint32_t need = target - cur;
            // Suspend resume is seconds, boot is tens of seconds:
            // always drain the asleep pool first.
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
                setState(c, s, ServerState::Off, now);
                ++c.offs;
                --excess;
            }
            if (excess > 0) {
                // Only idle awake servers may power off; never a
                // serving or transitioning one. Collected in awake-
                // list order (deterministic), applied after.
                std::vector<std::uint32_t> idlers;
                for (std::uint32_t s : c.awake) {
                    if (c.state[s] == ServerState::Idle) {
                        idlers.push_back(s);
                        if (idlers.size() == excess)
                            break;
                    }
                }
                for (std::uint32_t s : idlers) {
                    cancelTimer(c, s);
                    setState(c, s, ServerState::Off, now);
                    ++c.offs;
                }
            }
        }
    }

    void
    programHour(Cell &c, unsigned hour, double now)
    {
        c.baseRate = peakRate * cfg.profile[hour] * double(c.n) /
                     double(cfg.servers);
        setRate(c, c.baseRate *
                       (c.inBurst ? cfg.mmpp.burstMultiplier : 1.0));
        rescheduleArrival(c, now);
        if (cfg.policy == EnsemblePolicy::PowerOff)
            autoscale(c, now);
    }

    /** Hour-boundary control plane, run single-threaded at the first
     * barrier at or past each boundary. */
    void
    onBarrier(double now)
    {
        while (nextBoundary <= cfg.hours &&
               double(nextBoundary) * hourSeconds <= now) {
            unsigned k = nextBoundary++;
            for (Cell &c : cells) {
                sweepCell(c, now, k - 1);
                if (k < cfg.hours)
                    programHour(c, k, now);
            }
        }
    }

    void
    setup()
    {
        cells.resize(cfg.cells);
        for (std::uint32_t ci = 0; ci < cfg.cells; ++ci) {
            Cell &c = cells[ci];
            c.idx = ci;
            std::uint32_t lo =
                std::uint32_t(std::uint64_t(cfg.servers) * ci /
                              cfg.cells);
            std::uint32_t hi =
                std::uint32_t(std::uint64_t(cfg.servers) *
                              (ci + 1) / cfg.cells);
            c.n = hi - lo;
            c.rng = SplitMix64(seedFor(cfg.seed, "ensemble-dispatch",
                                       std::uint64_t(ci)));
            c.arr = SplitMix64(seedFor(cfg.seed, "ensemble-arrivals",
                                       std::uint64_t(ci)));
            c.state.assign(c.n, ServerState::Idle);
            c.busy.assign(c.n, 0);
            c.queued.assign(c.n, 0);
            c.qHead.assign(c.n, 0);
            c.qTail.assign(c.n, 0);
            c.timer.assign(c.n, 0);
            c.lastChange.assign(c.n, 0.0);
            c.pos.resize(c.n);
            c.hourEnergyWs.assign(cfg.hours, 0.0);
            c.hourCompleted.assign(cfg.hours, 0);
            c.hourViolations.assign(cfg.hours, 0);
            c.hourLatencySum.assign(cfg.hours, 0.0);
            c.hourActiveSeconds.assign(cfg.hours, 0.0);
            c.latBins.assign(kLatencyBins, 0);
            // Expected arena occupancy: every slot of every server
            // can hold an in-service job, plus queued headroom.
            c.arena.reserve(std::size_t(c.n) * cfg.serverSlots + 256);

            // Initial condition: everyone awake and idle, except that
            // PowerOff starts with only its hour-0 target on (no boot
            // latency charged for the initial state).
            c.baseRate = peakRate * cfg.profile[0] * double(c.n) /
                         double(cfg.servers);
            setRate(c, c.baseRate);
            std::uint32_t awakeN = c.n;
            if (cfg.policy == EnsemblePolicy::PowerOff)
                awakeN = autoscaleTarget(c);
            for (std::uint32_t s = 0; s < c.n; ++s) {
                if (s < awakeN) {
                    c.pos[s] = std::uint32_t(c.awake.size());
                    c.awake.push_back(s);
                } else {
                    c.state[s] = ServerState::Off;
                    c.pos[s] = std::uint32_t(c.off.size());
                    c.off.push_back(s);
                }
            }
            // Idle governors start armed under the sleeping policies.
            if (cfg.policy != EnsemblePolicy::AlwaysOn) {
                EnsembleSim *sim = this;
                for (std::uint32_t s = 0; s < awakeN; ++s) {
                    c.timer[s] = sq.laneQueue(ci).schedule(
                        cfg.power.idleToSleepSeconds,
                        [sim, ci, s] { sim->sleepTimer(ci, s); });
                }
            }
            rescheduleArrival(c, 0.0);
            if (cfg.mmpp.enabled) {
                double dwell = c.unitExp.next(c.arr) *
                               cfg.mmpp.calmMeanSeconds;
                EnsembleSim *sim = this;
                sq.laneQueue(ci).schedule(
                    dwell, [sim, ci] { sim->mmppFlip(ci); });
            }
        }
    }
};

} // namespace

void
validateEnsembleConfig(const EnsembleConfig &cfg)
{
    WSC_ASSERT(cfg.servers >= 1, "empty ensemble");
    WSC_ASSERT(cfg.cells >= 1 && cfg.cells <= cfg.servers,
               "cells out of [1, servers]");
    WSC_ASSERT(cfg.hours >= 1 && cfg.hours <= 24,
               "hours out of [1, 24]");
    WSC_ASSERT(cfg.secondsPerHour > 0.0,
               "secondsPerHour must be positive");
    WSC_ASSERT(cfg.peakUtilization > 0.0 && cfg.peakUtilization <= 1.0,
               "peak utilization out of (0, 1]");
    WSC_ASSERT(cfg.serverSlots >= 1 && cfg.serverSlots <= 255,
               "server slots out of [1, 255]");
    WSC_ASSERT(cfg.meanServiceSeconds > 0.0,
               "service mean must be positive");
    WSC_ASSERT(cfg.qosLatencySeconds > 0.0,
               "QoS deadline must be positive");
    WSC_ASSERT(cfg.networkLatencySeconds > 0.0 &&
                   cfg.networkLatencySeconds <= cfg.secondsPerHour,
               "network latency out of (0, secondsPerHour]");
    WSC_ASSERT(cfg.spillDepth >= 1, "spill depth must be positive");
    WSC_ASSERT(cfg.reserveMargin >= 0.0, "negative reserve margin");
    WSC_ASSERT(cfg.autoscaleUtilization > 0.0 &&
                   cfg.autoscaleUtilization <= 1.0,
               "autoscale utilization out of (0, 1]");
    WSC_ASSERT(cfg.powerCapWatts >= 0.0, "negative power cap");
    for (double load : cfg.profile)
        WSC_ASSERT(load >= 0.0 && load <= 1.0,
                   "hourly load out of [0, 1]");
    if (cfg.mmpp.enabled) {
        WSC_ASSERT(cfg.mmpp.burstMultiplier > 0.0,
                   "burst multiplier must be positive");
        WSC_ASSERT(cfg.mmpp.calmMeanSeconds > 0.0 &&
                       cfg.mmpp.burstMeanSeconds > 0.0,
                   "MMPP dwell means must be positive");
    }
}

EnsembleResult
runEnsemble(const EnsembleConfig &cfg)
{
    validateEnsembleConfig(cfg);
    if (cfg.fast.enabled)
        return runEnsembleFast(cfg);

    EnsembleSim sim(cfg);
    // Expected per-shard event occupancy: a completion per busy slot
    // plus a governor timer per awake server, split across shards.
    sim.sq.reserve(std::size_t(cfg.servers) *
                       (std::size_t(cfg.serverSlots) + 1) /
                       std::max(1u, std::min(cfg.shards, cfg.cells)) +
                   1024);
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

    for (const Cell &c : sim.cells) {
        r.offered += c.offered;
        r.completed += c.completed;
        r.violations += c.violations;
        r.spilled += c.spilled;
        r.wakes += c.wakes;
        r.boots += c.boots;
        r.sleeps += c.sleeps;
        r.offs += c.offs;
        r.meanLatency += c.latencySum;
        overflow += c.latOverflow;
        for (unsigned k = 0; k < kServerStates; ++k)
            stateSeconds[k] += c.stateSeconds[k];
        for (unsigned i = 0; i < kLatencyBins; ++i)
            bins[i] += c.latBins[i];
        for (unsigned h = 0; h < cfg.hours; ++h) {
            r.hourKWh[h] += c.hourEnergyWs[h];
            hourCompleted[h] += c.hourCompleted[h];
            hourViolations[h] += c.hourViolations[h];
        }
    }

    // Each simulated hour stands for a real 3600-second hour: mean
    // watts over the compressed hour times 3600 s.
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

    r.fastMode = false;
    r.cellHourUtilization.assign(std::size_t(cfg.cells) * cfg.hours,
                                 0.0);
    r.cellHourLatencyMean.assign(std::size_t(cfg.cells) * cfg.hours,
                                 0.0);
    r.cellHourCompleted.assign(std::size_t(cfg.cells) * cfg.hours, 0);
    for (unsigned ci = 0; ci < cfg.cells; ++ci) {
        const Cell &c = sim.cells[ci];
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
