/**
 * @file
 * google-benchmark microbenchmarks of the simulation kernels: event
 * queue throughput, processor-sharing resource, one open-loop
 * websearch run, Rng draws, Zipf sampling, and the page-replacement
 * policies that dominate the trace studies.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "memblade/replacement.hh"
#include "memblade/replay.hh"
#include "memblade/stack_distance.hh"
#include "memblade/trace.hh"
#include "perfsim/perf_eval.hh"
#include "perfsim/server_sim.hh"
#include "perfsim/throughput.hh"
#include "platform/catalog.hh"
#include "sim/distributions.hh"
#include "sim/event_queue.hh"
#include "sim/resources.hh"
#include "util/random.hh"
#include "workloads/websearch.hh"

using namespace wsc;

namespace {

void
BM_EventQueueScheduleDispatch(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue eq;
        int sink = 0;
        for (int i = 0; i < 1024; ++i)
            eq.schedule(double(i), [&sink] { ++sink; });
        eq.runAll();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleDispatch);

void
BM_EventQueueCancelHeavy(benchmark::State &state)
{
    // Timer-wheel style churn: most scheduled events are cancelled
    // before firing, each an indexed removal from the heap.
    for (auto _ : state) {
        sim::EventQueue eq;
        int sink = 0;
        std::vector<sim::EventId> ids;
        ids.reserve(1024);
        for (int i = 0; i < 1024; ++i)
            ids.push_back(
                eq.schedule(double(i + 1), [&sink] { ++sink; }));
        for (int i = 0; i < 1024; ++i)
            if (i % 8 != 0)
                eq.cancel(ids[std::size_t(i)]);
        eq.runAll();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueCancelHeavy);

void
BM_EventQueueTraceEnabled(benchmark::State &state)
{
    // Same workload as BM_EventQueueScheduleDispatch but with a live
    // tracer installed. Compare against that baseline (which runs
    // with instrumentation compiled in but disabled) to measure the
    // tracing cost; the disabled-path overhead budget is < 2%.
    for (auto _ : state) {
        sim::EventQueue eq;
        std::uint64_t records = 0;
        eq.setTracer([&records](const sim::EventQueue::TraceRecord &) {
            ++records;
        });
        int sink = 0;
        for (int i = 0; i < 1024; ++i)
            eq.schedule(double(i), [&sink] { ++sink; });
        eq.runAll();
        benchmark::DoNotOptimize(sink);
        benchmark::DoNotOptimize(records);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueTraceEnabled);

void
BM_QueueHold(benchmark::State &state)
{
    // Classic hold model (Vaucher & Duval): keep the queue at a fixed
    // depth and alternate dispatch-one / schedule-one at an
    // exponential gap ahead. Sweeping the depth axis shows the
    // heap's O(log n) steady-state cost per event.
    const auto depth = std::size_t(state.range(0));
    sim::EventQueue eq;
    eq.reserve(depth + 16);
    SplitMix64 rng(42);
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < depth; ++i)
        eq.schedule(rng.exponential(1.0), [&sink] { ++sink; });
    for (auto _ : state) {
        eq.step();
        eq.schedule(eq.now() + rng.exponential(1.0),
                    [&sink] { ++sink; });
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueueHold)
    ->Arg(1 << 8)
    ->Arg(1 << 12)
    ->Arg(1 << 16)
    ->Arg(1 << 18);

void
BM_QueueEnsembleMix(benchmark::State &state)
{
    // Ensemble-shaped churn at fixed depth: completions arrive at
    // short exponential gaps while every server keeps one governor
    // timer pending at a fixed horizon, rescheduled (cancel + insert)
    // whenever its server sees traffic — the idle-to-sleep governor
    // racing arrivals in perfsim/ensemble_sim. Cancels exercise the
    // indexed removal at shard-sized depths.
    const auto depth = std::size_t(state.range(0)); // power of two
    sim::EventQueue eq;
    eq.reserve(2 * depth + 16);
    SplitMix64 rng(7);
    std::uint64_t sink = 0;
    std::vector<sim::EventId> timers(depth, 0);
    for (std::size_t i = 0; i < depth; ++i)
        eq.schedule(rng.exponential(0.25), [&sink] { ++sink; });
    std::size_t cursor = 0;
    for (auto _ : state) {
        eq.step();
        eq.schedule(eq.now() + rng.exponential(0.25),
                    [&sink] { ++sink; });
        sim::EventId &slot = timers[cursor];
        if (slot)
            eq.cancel(slot);
        slot = eq.schedule(eq.now() + 1.0, [&sink] { ++sink; });
        cursor = (cursor + 1) & (depth - 1);
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueueEnsembleMix)
    ->Arg(1 << 8)
    ->Arg(1 << 12)
    ->Arg(1 << 16);

void
BM_EventQueueRetime(benchmark::State &state)
{
    // A PS station's completion event moved on every arrival and
    // departure, among depth - 1 other pending events that never fire:
    // the cost of one in-place retime at a fixed heap depth.
    const auto depth = std::size_t(state.range(0));
    sim::EventQueue eq;
    eq.reserve(depth + 16);
    SplitMix64 rng(11);
    std::uint64_t sink = 0;
    for (std::size_t i = 1; i < depth; ++i)
        eq.schedule(rng.exponential(1.0), [&sink] { ++sink; });
    sim::EventId completion =
        eq.schedule(rng.exponential(1.0), [&sink] { ++sink; });
    for (auto _ : state)
        eq.retime(completion, rng.exponential(1.0));
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueRetime)->Arg(4)->Arg(4096);

void
BM_PsResourceChurn(benchmark::State &state)
{
    const auto jobs = std::size_t(state.range(0));
    for (auto _ : state) {
        sim::EventQueue eq;
        sim::PsResource cpu(eq, "cpu", 8.0, 8);
        Rng rng(1);
        std::uint64_t done = 0;
        for (std::size_t i = 0; i < jobs; ++i)
            cpu.submit(rng.uniform(0.001, 0.01), [&done] { ++done; });
        eq.runAll();
        benchmark::DoNotOptimize(done);
    }
    state.SetItemsProcessed(state.iterations() * jobs);
}
BENCHMARK(BM_PsResourceChurn)->Arg(64)->Arg(1024)->Arg(8192);

void
BM_OpenLoopWebsearch(benchmark::State &state)
{
    // One QoS-search probe as the design evaluator runs it: websearch
    // on srvr1 at 0.85x the analytic bound, 2 s warm-up plus 10 s
    // measured. Items are dispatched events, so items/s is the DES
    // kernel's end-to-end event rate with real model work attached.
    workloads::Websearch ws;
    auto st = perfsim::PerfEvaluator().stationsFor(
        platform::makeSystem(platform::SystemClass::Srvr1), ws.traits(),
        {});
    const double rps = 0.85 * perfsim::analyticBound(ws, st);
    perfsim::SimWindow w;
    w.warmupSeconds = 2.0;
    w.measureSeconds = 10.0;
    std::uint64_t events = 0;
    for (auto _ : state) {
        Rng rng(5);
        auto r = perfsim::simulateInteractive(ws, st, rps, w, rng);
        events += r.kernel.dispatched;
        benchmark::DoNotOptimize(r.p95Latency);
    }
    state.SetItemsProcessed(std::int64_t(events));
}
BENCHMARK(BM_OpenLoopWebsearch)->Unit(benchmark::kMillisecond);

void
BM_RngUniform(benchmark::State &state)
{
    Rng rng(6);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.uniform());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngUniform);

void
BM_RngExponential(benchmark::State &state)
{
    Rng rng(6);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.exponential(2.5));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngExponential);

void
BM_ZipfSample(benchmark::State &state)
{
    sim::ZipfDist zipf(std::uint64_t(state.range(0)), 0.9);
    Rng rng(2);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.sampleRank(rng));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(100000)->Arg(1000000);

void
BM_ReplacementReplay(benchmark::State &state)
{
    auto kind = memblade::PolicyKind(state.range(0));
    auto profile =
        memblade::profileFor(workloads::Benchmark::Websearch);
    Rng rng(3);
    memblade::TraceGenerator gen(profile, rng);
    auto policy = memblade::makePolicy(
        kind, std::size_t(double(profile.footprintPages) * 0.25),
        Rng(4));
    for (auto _ : state)
        benchmark::DoNotOptimize(policy->access(gen.next()));
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(memblade::to_string(kind));
}
BENCHMARK(BM_ReplacementReplay)
    ->Arg(int(memblade::PolicyKind::Lru))
    ->Arg(int(memblade::PolicyKind::Random))
    ->Arg(int(memblade::PolicyKind::Clock));

void
BM_TraceGeneration(benchmark::State &state)
{
    auto profile = memblade::profileFor(workloads::Benchmark::Ytube);
    Rng rng(5);
    memblade::TraceGenerator gen(profile, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(gen.next());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceGeneration);

void
BM_TraceGenerationBatch(benchmark::State &state)
{
    // Same stream as BM_TraceGeneration, pulled 4096 ids at a time.
    auto profile = memblade::profileFor(workloads::Benchmark::Ytube);
    memblade::TraceGenerator gen(profile, Rng(5));
    std::vector<memblade::PageId> buf(4096);
    for (auto _ : state) {
        gen.nextBatch(buf.data(), buf.size());
        benchmark::DoNotOptimize(buf[0]);
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_TraceGenerationBatch);

void
BM_KernelReplay(benchmark::State &state)
{
    // Allocation-free kernels over a pregenerated trace; compare with
    // BM_ReplacementReplay (the legacy virtual-dispatch policies).
    auto kind = memblade::PolicyKind(state.range(0));
    auto profile =
        memblade::profileFor(workloads::Benchmark::Websearch);
    auto trace = memblade::generateTrace(profile, 1 << 20, Rng(3));
    auto frames = std::size_t(double(profile.footprintPages) * 0.25);
    for (auto _ : state) {
        auto st = memblade::replayPages(trace.data(), trace.size(),
                                        kind, frames,
                                        profile.footprintPages, Rng(4));
        benchmark::DoNotOptimize(st.hits);
    }
    state.SetItemsProcessed(state.iterations() *
                            std::int64_t(trace.size()));
    state.SetLabel(memblade::to_string(kind));
}
BENCHMARK(BM_KernelReplay)
    ->Arg(int(memblade::PolicyKind::Lru))
    ->Arg(int(memblade::PolicyKind::Random))
    ->Arg(int(memblade::PolicyKind::Clock));

void
BM_StackDistancePass(benchmark::State &state)
{
    // One pass = the exact LRU curve at every capacity.
    auto profile =
        memblade::profileFor(workloads::Benchmark::Websearch);
    const std::uint64_t n = 1 << 19;
    for (auto _ : state) {
        auto curve = memblade::lruCurveForProfile(profile, n, 7);
        benchmark::DoNotOptimize(curve.accesses);
    }
    state.SetItemsProcessed(state.iterations() * std::int64_t(n));
}
BENCHMARK(BM_StackDistancePass);

} // namespace

BENCHMARK_MAIN();
