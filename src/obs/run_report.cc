#include "obs/run_report.hh"

#include <algorithm>
#include <map>

#include "obs/json.hh"

namespace wsc {
namespace obs {

namespace {

void
writeStation(JsonWriter &w, const StationReport &s)
{
    w.beginObject();
    w.key("name").value(s.name);
    w.key("utilization").value(s.utilization);
    w.key("completed").value(s.completed);
    w.key("peak_depth").value(s.peakDepth);
    w.key("mean_depth").value(s.meanDepth);
    w.endObject();
}

void
writeKernel(JsonWriter &w, const KernelReport &k)
{
    w.beginObject();
    w.key("scheduled").value(k.scheduled);
    w.key("dispatched").value(k.dispatched);
    w.key("cancelled").value(k.cancelled);
    w.key("peak_heap").value(k.peakHeap);
    w.endObject();
}

void
writeCell(JsonWriter &w, const CellReport &c, const ReportOptions &opts)
{
    w.beginObject();
    w.key("design").value(c.design);
    w.key("benchmark").value(c.benchmark);
    w.key("interactive").value(c.interactive);
    w.key("perf").value(c.perf);
    w.key("sustainable_rps").value(c.sustainableRps);
    w.key("makespan_seconds").value(c.makespanSeconds);
    w.key("latency");
    w.beginObject();
    w.key("mean").value(c.latency.mean);
    w.key("p50").value(c.latency.p50);
    w.key("p95").value(c.latency.p95);
    w.key("p99").value(c.latency.p99);
    w.endObject();
    w.key("qos_violation_fraction").value(c.qosViolationFraction);
    w.key("qos_latency_limit").value(c.qosLatencyLimit);
    w.key("bottleneck").value(c.bottleneck);
    w.key("stations");
    w.beginArray();
    for (const auto &s : c.stations)
        writeStation(w, s);
    w.endArray();
    w.key("kernel");
    writeKernel(w, c.kernel);
    w.key("search_probes").value(c.searchProbes);
    if (opts.includeTimings)
        w.key("wall_seconds").value(c.wallSeconds);
    w.endObject();
}

void
writeAvail(JsonWriter &w, const AvailReport &a)
{
    w.beginObject();
    w.key("design").value(a.design);
    w.key("benchmark").value(a.benchmark);
    w.key("spec").value(a.spec);
    w.key("mttf_scale").value(a.mttfScale);
    w.key("servers").value(a.servers);
    w.key("offered_rps").value(a.offeredRps);
    w.key("horizon_seconds").value(a.horizonSeconds);
    w.key("avail");
    w.beginObject();
    w.key("availability").value(a.availability);
    w.key("epochs_total").value(a.epochsTotal);
    w.key("epochs_passed").value(a.epochsPassed);
    w.key("goodput_rps").value(a.goodputRps);
    w.key("goodput_fraction").value(a.goodputFraction);
    w.key("mean_time_to_qos_violation_seconds")
        .value(a.meanTimeToQosViolationSeconds);
    w.endObject();
    w.key("protocol");
    w.beginObject();
    w.key("offered").value(a.offered);
    w.key("completions").value(a.completions);
    w.key("qos_violations").value(a.qosViolations);
    w.key("timeouts").value(a.timeouts);
    w.key("retries").value(a.retries);
    w.key("giveups").value(a.giveups);
    w.key("late_completions").value(a.lateCompletions);
    w.endObject();
    w.key("faults");
    w.beginObject();
    w.key("per_component");
    w.beginArray();
    for (const auto &f : a.faults) {
        w.beginObject();
        w.key("component").value(f.component);
        w.key("failures").value(f.failures);
        w.key("repairs").value(f.repairs);
        w.endObject();
    }
    w.endArray();
    w.key("server_crashes").value(a.serverCrashes);
    w.key("thermal_throttles").value(a.thermalThrottles);
    w.key("thermal_shutdowns").value(a.thermalShutdowns);
    w.key("server_down_fraction").value(a.serverDownFraction);
    w.key("server_degraded_fraction").value(a.serverDegradedFraction);
    w.key("blast_radius_mean").value(a.blastRadiusMean);
    w.key("blast_radius_max").value(a.blastRadiusMax);
    w.endObject();
    w.key("kernel");
    writeKernel(w, a.kernel);
    w.endObject();
}

void
writeEnsemble(JsonWriter &w, const EnsembleReport &e,
              const ReportOptions &opts)
{
    w.beginObject();
    w.key("policy").value(e.policy);
    // Omitted when empty: plain (design-free) ensemble runs keep
    // their byte layout.
    if (!e.design.empty())
        w.key("design").value(e.design);
    w.key("servers").value(e.servers);
    w.key("cells").value(e.cells);
    w.key("hours").value(e.hours);
    w.key("seconds_per_hour").value(e.secondsPerHour);
    w.key("offered").value(e.offered);
    w.key("completed").value(e.completed);
    w.key("violations").value(e.violations);
    w.key("spilled").value(e.spilled);
    w.key("wakes").value(e.wakes);
    w.key("boots").value(e.boots);
    w.key("sleeps").value(e.sleeps);
    w.key("offs").value(e.offs);
    w.key("cap_clamps").value(e.capClamps);
    w.key("kwh_per_day").value(e.kWhPerDay);
    w.key("analytical_kwh_per_day").value(e.analyticalKWhPerDay);
    w.key("mean_active_servers").value(e.meanActiveServers);
    w.key("mean_awake_servers").value(e.meanAwakeServers);
    w.key("state_fractions");
    w.beginObject();
    w.key("active").value(e.activeFraction);
    w.key("idle").value(e.idleFraction);
    w.key("sleep").value(e.sleepFraction);
    w.key("waking").value(e.wakingFraction);
    w.key("off").value(e.offFraction);
    w.key("booting").value(e.bootingFraction);
    w.endObject();
    w.key("latency");
    w.beginObject();
    w.key("mean").value(e.latency.mean);
    w.key("p50").value(e.latency.p50);
    w.key("p95").value(e.latency.p95);
    w.key("p99").value(e.latency.p99);
    w.endObject();
    w.key("qos_violation_fraction").value(e.qosViolationFraction);
    w.key("qos_attainment").value(e.qosAttainment);
    w.key("score").value(e.score);
    w.key("hour_kwh");
    w.beginArray();
    for (double v : e.hourKWh)
        w.value(v);
    w.endArray();
    w.key("hour_violation_fraction");
    w.beginArray();
    for (double v : e.hourViolationFraction)
        w.value(v);
    w.endArray();
    w.key("kernel");
    w.beginObject();
    w.key("scheduled").value(e.eventsScheduled);
    w.key("dispatched").value(e.eventsDispatched);
    w.key("cross_cell_messages").value(e.crossCellMessages);
    w.key("windows").value(e.windows);
    w.endObject();
    // Omitted when empty: exact-mode reports keep their byte layout.
    if (!e.fastMode.empty())
        w.key("fast_mode").value(e.fastMode);
    if (opts.includeTimings)
        w.key("wall_seconds").value(e.wallSeconds);
    w.endObject();
}

} // namespace

SweepRollup
SweepReport::rollup() const
{
    SweepRollup r;
    r.cells = cells.size();
    std::map<std::string, std::uint64_t> byStation;
    for (const auto &c : cells) {
        r.eventsDispatched += c.kernel.dispatched;
        r.searchProbes += c.searchProbes;
        if (!c.bottleneck.empty())
            ++byStation[c.bottleneck];
    }
    for (const auto &[station, count] : byStation)
        r.bottlenecks.push_back({station, count});
    return r;
}

void
SweepReport::captureMetrics(const MetricRegistry &registry)
{
    counters = registry.counters();
    gauges = registry.gauges();
    timers = registry.timers();
}

std::string
toJson(const CellReport &cell, const ReportOptions &opts)
{
    JsonWriter w;
    writeCell(w, cell, opts);
    return w.str();
}

std::string
toJson(const AvailReport &avail, const ReportOptions &)
{
    JsonWriter w;
    writeAvail(w, avail);
    return w.str();
}

std::string
toJson(const EnsembleReport &ensemble, const ReportOptions &opts)
{
    JsonWriter w;
    writeEnsemble(w, ensemble, opts);
    return w.str();
}

std::string
toJson(const SweepReport &report, const ReportOptions &opts)
{
    JsonWriter w;
    w.beginObject();
    w.key("tool").value(report.tool);
    w.key("base_seed").value(report.baseSeed);
    w.key("threads").value(report.threads);
    // Omitted when empty: exact-mode reports keep their pre-fast-mode
    // byte layout.
    if (!report.fastMode.empty())
        w.key("fast_mode").value(report.fastMode);

    w.key("cells");
    w.beginArray();
    for (const auto &c : report.cells)
        writeCell(w, c, opts);
    w.endArray();

    // Omitted when empty: zero-fault reports keep their pre-fault
    // byte layout.
    if (!report.avail.empty()) {
        w.key("avail");
        w.beginArray();
        for (const auto &a : report.avail)
            writeAvail(w, a);
        w.endArray();
    }

    // Omitted when empty: non-ensemble reports keep their byte layout.
    if (!report.ensemble.empty()) {
        w.key("ensemble");
        w.beginArray();
        for (const auto &e : report.ensemble)
            writeEnsemble(w, e, opts);
        w.endArray();
    }

    SweepRollup roll = report.rollup();
    w.key("rollup");
    w.beginObject();
    w.key("cells").value(roll.cells);
    w.key("events_dispatched").value(roll.eventsDispatched);
    w.key("search_probes").value(roll.searchProbes);
    w.key("bottlenecks");
    w.beginArray();
    for (const auto &b : roll.bottlenecks) {
        w.beginObject();
        w.key("station").value(b.station);
        w.key("cells").value(b.cells);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    w.key("counters");
    w.beginObject();
    for (const auto &c : report.counters)
        w.key(c.name).value(c.value);
    w.endObject();
    w.key("gauges");
    w.beginObject();
    for (const auto &g : report.gauges)
        w.key(g.name).value(g.value);
    w.endObject();
    if (opts.includeTimings) {
        w.key("timers");
        w.beginObject();
        for (const auto &t : report.timers) {
            w.key(t.name);
            w.beginObject();
            w.key("seconds").value(t.seconds);
            w.key("count").value(t.count);
            w.endObject();
        }
        w.endObject();
    }
    w.endObject();
    return w.str();
}

} // namespace obs
} // namespace wsc
