/**
 * @file
 * Unit tests for the observability layer (metrics, JSON, run reports).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/run_report.hh"
#include "util/logging.hh"

namespace {

using namespace wsc;
using namespace wsc::obs;

TEST(Json, ScalarsAndNesting)
{
    JsonWriter w;
    w.beginObject();
    w.key("name").value("websearch");
    w.key("rps").value(1234.5);
    w.key("count").value(std::uint64_t(7));
    w.key("ok").value(true);
    w.key("missing").null();
    w.key("inner");
    w.beginArray();
    w.value(std::uint64_t(1));
    w.value(std::uint64_t(2));
    w.endArray();
    w.endObject();
    const std::string &s = w.str();
    EXPECT_NE(s.find("\"name\": \"websearch\""), std::string::npos);
    EXPECT_NE(s.find("\"rps\": 1234.5"), std::string::npos);
    EXPECT_NE(s.find("\"ok\": true"), std::string::npos);
    EXPECT_NE(s.find("\"missing\": null"), std::string::npos);
    EXPECT_EQ(s.front(), '{');
    EXPECT_EQ(s.back(), '}');
}

TEST(Json, EscapesControlAndQuoteCharacters)
{
    EXPECT_EQ(JsonWriter::escape("a\"b"), "a\\\"b");
    EXPECT_EQ(JsonWriter::escape("a\\b"), "a\\\\b");
    EXPECT_EQ(JsonWriter::escape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(JsonWriter::escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, NonFiniteDoublesSerializeAsNull)
{
    JsonWriter w;
    w.beginArray();
    w.value(std::nan(""));
    w.value(1.0 / 0.0);
    w.value(0.25);
    w.endArray();
    const std::string &s = w.str();
    EXPECT_NE(s.find("null"), std::string::npos);
    EXPECT_NE(s.find("0.25"), std::string::npos);
    EXPECT_EQ(s.find("nan"), std::string::npos);
    EXPECT_EQ(s.find("inf"), std::string::npos);
}

TEST(Json, DoublesRoundTripAtFullPrecision)
{
    JsonWriter w;
    double x = 0.1 + 0.2; // not representable as "0.3"
    w.beginArray().value(x).endArray();
    double parsed = std::stod(w.str().substr(1));
    EXPECT_EQ(parsed, x);
}

TEST(Json, MisusePanics)
{
    {
        JsonWriter w;
        w.beginObject();
        EXPECT_THROW(w.value(1.0), PanicError); // value without key
    }
    {
        JsonWriter w;
        w.beginArray();
        EXPECT_THROW(w.endObject(), PanicError); // mismatched close
    }
    {
        JsonWriter w;
        w.beginObject();
        EXPECT_THROW(w.str(), PanicError); // incomplete document
    }
    {
        JsonWriter w;
        EXPECT_THROW(w.key("k"), PanicError); // key at root
    }
}

TEST(Metrics, CounterGaugeTimerBasics)
{
    MetricRegistry reg;
    Counter &c = reg.counter("events");
    c.add();
    c.add(4);
    EXPECT_EQ(c.value(), 5u);
    // Find-or-create returns the same instance.
    EXPECT_EQ(&reg.counter("events"), &c);

    Gauge &g = reg.gauge("depth");
    g.set(3.0);
    g.raise(1.0); // below: no-op
    EXPECT_DOUBLE_EQ(g.value(), 3.0);
    g.raise(7.0);
    EXPECT_DOUBLE_EQ(g.value(), 7.0);

    Timer &t = reg.timer("eval");
    t.record(0.5);
    t.record(0.25);
    EXPECT_NEAR(t.totalSeconds(), 0.75, 1e-9);
    EXPECT_EQ(t.count(), 2u);
}

TEST(Metrics, ScopedTimerRecordsOneSample)
{
    MetricRegistry reg;
    {
        ScopedTimer st(reg.timer("scope"));
    }
    EXPECT_EQ(reg.timer("scope").count(), 1u);
    EXPECT_GE(reg.timer("scope").totalSeconds(), 0.0);
}

TEST(Metrics, SnapshotsAreNameSorted)
{
    MetricRegistry reg;
    reg.counter("zeta").add(1);
    reg.counter("alpha").add(2);
    reg.counter("mid").add(3);
    auto snap = reg.counters();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].name, "alpha");
    EXPECT_EQ(snap[1].name, "mid");
    EXPECT_EQ(snap[2].name, "zeta");
}

TEST(Metrics, MergeIsOrderIndependent)
{
    // Sum for counters, max for gauges: any merge order of per-worker
    // registries must yield identical totals (the determinism contract
    // for parallel sweeps).
    auto fill = [](MetricRegistry &r, std::uint64_t n, double peak) {
        r.counter("cells").add(n);
        r.gauge("peak_rps").raise(peak);
        r.timer("eval").record(0.1);
    };
    MetricRegistry a1, b1, a2, b2;
    fill(a1, 3, 10.0);
    fill(b1, 5, 20.0);
    fill(a2, 5, 20.0);
    fill(b2, 3, 10.0);

    MetricRegistry m1, m2;
    m1.merge(a1);
    m1.merge(b1);
    m2.merge(a2);
    m2.merge(b2);
    EXPECT_EQ(m1.counter("cells").value(), 8u);
    EXPECT_EQ(m2.counter("cells").value(), 8u);
    EXPECT_DOUBLE_EQ(m1.gauge("peak_rps").value(), 20.0);
    EXPECT_DOUBLE_EQ(m2.gauge("peak_rps").value(), 20.0);
    EXPECT_EQ(m1.timer("eval").count(), 2u);
}

TEST(Metrics, ConcurrentUpdatesDoNotLose)
{
    MetricRegistry reg;
    Counter &c = reg.counter("hits");
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t)
        workers.emplace_back([&reg, &c] {
            for (int i = 0; i < 10000; ++i) {
                c.add();
                // Exercise the creation lock from several threads too.
                reg.counter("hits").add();
            }
        });
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(c.value(), 80000u);
}

CellReport
sampleCell(const std::string &design, const std::string &bottleneck)
{
    CellReport c;
    c.design = design;
    c.benchmark = "websearch";
    c.interactive = true;
    c.perf = 0.8;
    c.sustainableRps = 120.0;
    c.latency = {0.05, 0.04, 0.2, 0.4};
    c.qosViolationFraction = 0.03;
    c.qosLatencyLimit = 0.5;
    c.bottleneck = bottleneck;
    c.stations.push_back({"cpu", 0.9, 1000, 12, 3.5});
    c.stations.push_back({"disk", 0.4, 500, 4, 0.7});
    c.kernel = {5000, 4800, 200, 300};
    c.searchProbes = 9;
    c.wallSeconds = 1.25;
    return c;
}

TEST(RunReport, CellJsonCarriesAllSections)
{
    auto json = toJson(sampleCell("emb1", "cpu"));
    EXPECT_NE(json.find("\"design\": \"emb1\""), std::string::npos);
    EXPECT_NE(json.find("\"sustainable_rps\": 120"), std::string::npos);
    EXPECT_NE(json.find("\"p95\": 0.2"), std::string::npos);
    EXPECT_NE(json.find("\"bottleneck\": \"cpu\""), std::string::npos);
    EXPECT_NE(json.find("\"dispatched\": 4800"), std::string::npos);
    EXPECT_NE(json.find("\"peak_depth\": 12"), std::string::npos);
    EXPECT_NE(json.find("\"wall_seconds\""), std::string::npos);
}

TEST(RunReport, RollupCountsBottlenecksAndTotals)
{
    SweepReport r;
    r.cells.push_back(sampleCell("a", "cpu"));
    r.cells.push_back(sampleCell("b", "cpu"));
    r.cells.push_back(sampleCell("c", "disk"));
    auto roll = r.rollup();
    EXPECT_EQ(roll.cells, 3u);
    EXPECT_EQ(roll.eventsDispatched, 3u * 4800u);
    EXPECT_EQ(roll.searchProbes, 27u);
    ASSERT_EQ(roll.bottlenecks.size(), 2u);
    EXPECT_EQ(roll.bottlenecks[0].station, "cpu");
    EXPECT_EQ(roll.bottlenecks[0].cells, 2u);
    EXPECT_EQ(roll.bottlenecks[1].station, "disk");
    EXPECT_EQ(roll.bottlenecks[1].cells, 1u);
}

TEST(RunReport, TimingExclusionMakesReportsComparable)
{
    // Two sweeps with identical simulation content but different
    // wall-clock must serialize identically once timings are excluded
    // — this is what the parallel-determinism test relies on.
    SweepReport a, b;
    a.tool = b.tool = "wsc_eval";
    a.baseSeed = b.baseSeed = 42;
    a.threads = 1;
    b.threads = 8;
    a.cells.push_back(sampleCell("emb1", "cpu"));
    b.cells.push_back(sampleCell("emb1", "cpu"));
    a.cells[0].wallSeconds = 9.0;
    b.cells[0].wallSeconds = 0.5;

    MetricRegistry ra, rb;
    ra.counter("cells").add(1);
    rb.counter("cells").add(1);
    ra.timer("sweep").record(9.0);
    rb.timer("sweep").record(0.5);
    a.captureMetrics(ra);
    b.captureMetrics(rb);

    ReportOptions noTimings{false};
    a.threads = b.threads = 0; // thread count is run config, not data
    EXPECT_EQ(toJson(a, noTimings), toJson(b, noTimings));
    EXPECT_NE(toJson(a), toJson(b)); // timings differ when included
    EXPECT_EQ(toJson(a, noTimings).find("wall_seconds"),
              std::string::npos);
    EXPECT_EQ(toJson(a, noTimings).find("timers"), std::string::npos);
}

TEST(RunReport, SweepJsonIncludesMetricsSections)
{
    SweepReport r;
    r.tool = "wsc_eval";
    r.baseSeed = 7;
    r.threads = 2;
    r.cells.push_back(sampleCell("emb1", "cpu"));
    MetricRegistry reg;
    reg.counter("eval.cells").add(1);
    reg.gauge("eval.peak_rps").set(120.0);
    reg.timer("eval.wall").record(0.5);
    r.captureMetrics(reg);
    auto json = toJson(r);
    EXPECT_NE(json.find("\"tool\": \"wsc_eval\""), std::string::npos);
    EXPECT_NE(json.find("\"base_seed\": 7"), std::string::npos);
    EXPECT_NE(json.find("\"eval.cells\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"eval.peak_rps\": 120"), std::string::npos);
    EXPECT_NE(json.find("\"timers\""), std::string::npos);
    EXPECT_NE(json.find("\"rollup\""), std::string::npos);
}

} // namespace
