"""Per-layer metrics from the spans one traced driver process writes.

Each span is a dict with id, parent, name (<module>.<function>), job,
thread, start_ns, end_ns and counts. A process is one set-up or one
job; layer_metrics() returns the metrics its spans support, and the
harness takes each metric's median over the traced processes.
"""

import stats

NS = 1e-9

REPLAYS = ("random-25", "random-12", "clock-25", "arc-25")


def _dur(span):
    return (span["end_ns"] - span["start_ns"]) * NS


def _named(spans, *names):
    return [s for s in spans if s["name"] in names]


def per_layer_names():
    """Every per-layer metric the harness reports, with unit and the
    better direction, in BENCHMARK.json order."""
    m = [
        ("flashcache.hit_rate_s", "s", "lower"),
        ("flashcache.hit_rate_max_s", "s", "lower"),
        ("flashcache.hit_ratio", "ratio", "higher"),
        ("perfsim.measure_s", "s", "lower"),
        ("perfsim.measure_max_s", "s", "lower"),
        ("perfsim.search_probes", "count", "lower"),
        ("sim.events_dispatched", "count", "lower"),
        ("sim.events_cancelled", "count", "lower"),
        ("sim.peak_heap", "count", "lower"),
        ("sim.ns_per_event", "ns", "lower"),
        ("cost.metrics_s", "s", "lower"),
        ("core.cache_hit_ratio", "ratio", "higher"),
        ("util.pool_busy_frac", "ratio", "higher"),
    ]
    m += [
        ("memblade.trace_write_s", "s", "lower"),
        ("memblade.open_s", "s", "lower"),
    ]
    m += [(f"memblade.replay_s.{r}", "s", "lower") for r in REPLAYS]
    m += [(f"memblade.accesses_per_s.{r}", "1/s", "higher") for r in REPLAYS]
    m += [("memblade.curve_s", "s", "lower")]
    m += [(f"memblade.warm_miss_rate.{r}", "ratio", "lower") for r in REPLAYS]
    m += [
        ("model_err_pct", "%", "lower"),
        ("trace.job_s", "s", "lower"),
        ("trace.untraced_job_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.unattributed_frac", "ratio", "lower"),
    ]
    return m


def layer_metrics(spans, wall_s=None):
    """Metrics supported by one process's spans; wall_s is the
    process's wall time, measured from outside."""
    m = {}
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    by_id = {s["id"]: s for s in spans}

    def root_of(span):
        while span["parent"] in by_id:
            span = by_id[span["parent"]]
        return span

    # flashcache: replaying calls, whether the library reached the
    # cache directly or through DesignEvaluator::perfOptionsFor.
    flash_calls = [s for s in spans if "flash_key" in s["counts"]]
    replays = stats.flash_replays(flash_calls)
    if replays:
        m["flashcache.hit_rate_s"] = sum(_dur(s) for s in replays)
        m["flashcache.hit_rate_max_s"] = max(_dur(s) for s in replays)
    ratios = {s["counts"]["flash_key"]: s["counts"]["hit_ratio"]
              for s in _named(spans, "flashcache.perfOptionsFor")}
    if ratios:
        m["flashcache.hit_ratio"] = sum(ratios.values()) / len(ratios)

    # perfsim + sim: the QoS throughput search on the event queue.
    measures = _named(spans, "perfsim.PerfEvaluator::measure")
    if measures:
        total = sum(_dur(s) for s in measures)
        events = sum(s["counts"]["events_dispatched"] for s in measures)
        m["perfsim.measure_s"] = total
        m["perfsim.measure_max_s"] = max(_dur(s) for s in measures)
        m["perfsim.search_probes"] = sum(
            s["counts"]["search_probes"] for s in measures)
        m["sim.events_dispatched"] = events
        m["sim.events_cancelled"] = sum(
            s["counts"]["events_cancelled"] for s in measures)
        m["sim.peak_heap"] = max(s["counts"]["peak_heap"] for s in measures)
        if events:
            m["sim.ns_per_event"] = total / NS / events

    cost = _named(spans, "core.DesignEvaluator::adjustedServer",
                  "core.DesignEvaluator::burdenFor", "cost.TcoModel::evaluate")
    if cost:
        m["cost.metrics_s"] = sum(_dur(s) for s in cost)

    # util: share of the pool's thread-time spent inside cell tasks.
    loops = _named(spans, "util.parallelFor")
    if loops:
        busy = capacity = 0.0
        for loop in loops:
            busy += sum(_dur(t) for t in children.get(loop["id"], ()))
            capacity += loop["counts"]["threads"] * _dur(root_of(loop))
        m["util.pool_busy_frac"] = busy / capacity

    # memblade replay kernels and trace I/O.
    writes = _named(spans, "memblade.generateTrace", "memblade.writeTraceStream")
    if writes:
        m["memblade.trace_write_s"] = sum(_dur(s) for s in writes)
    opens = _named(spans, "memblade.TraceStream")
    if opens:
        m["memblade.open_s"] = sum(_dur(s) for s in opens)
    replays = _named(spans, "memblade.replayStream")
    for i, name in enumerate(REPLAYS):
        mine = [s for s in replays if int(s["counts"]["replay"]) == i]
        if not mine:
            continue
        secs = sum(_dur(s) for s in mine)
        m[f"memblade.replay_s.{name}"] = secs
        m[f"memblade.accesses_per_s.{name}"] = sum(
            s["counts"]["accesses"] for s in mine) / secs
        m[f"memblade.warm_miss_rate.{name}"] = sum(
            s["counts"]["warm_miss_rate"] for s in mine) / len(mine)
    curves = _named(spans, "memblade.lruCurveFromStream")
    if curves:
        m["memblade.curve_s"] = sum(_dur(s) for s in curves)

    # Share of the process's wall time no layer span accounts for:
    # start-up, output, and the driver's own glue inside the job.
    jobs = _named(spans, "core.job")
    if jobs and wall_s:
        attributed = sum(
            _dur(j) - stats.self_time(j, children.get(j["id"], ())) * NS
            for j in jobs)
        m["trace.unattributed_frac"] = 1.0 - attributed / wall_s
    return m
