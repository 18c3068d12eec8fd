#!/usr/bin/env python3
"""Benchmark harness for the wsc simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench_driver from source (perfbench/CMakeLists.txt compiles
the wsc libraries in ../src), sets the workload up, then runs its jobs
in a closed loop from one client (the next job starts when the last
returns) for --seconds seconds. Every set-up and every job is a fresh
driver process, timed from outside: wall clock around the process,
CPU time and peak RSS from wait4(). Each job's outputs are checked, and
the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs untraced and
traced jobs alternately and reports the per-layer metrics from the
traced jobs' spans. README.md describes the workloads and metrics.
"""

import argparse
import functools
import json
import os
import shutil
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import stats  # noqa: E402

WORKLOADS = ("design-eval", "trace-replay")
CPUS = len(os.sched_getaffinity(0))
# Threads a job computes on at once: one short of min(4, nproc), so the
# harness and the kernel never take a core from a job's threads. On a
# few shared vCPUs a job as wide as the machine times the scheduler.
THREADS = max(1, min(4, CPUS) - 1)
CHILD_TIMEOUT_S = 60


class Failure(Exception):
    """The run cannot produce a result (build or set-up failed)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    try:
        args.seed = stats.parse_seed(args.seed)
    except ValueError as e:
        ap.error(str(e))
    if not 1 <= args.seconds <= 3600:
        ap.error("--seconds must be in [1, 3600]")
    return args


def build_dir():
    # Shares the build root the benchmark runner hands to cargo-based
    # benchmarks; a relative path is taken from the checkout root.
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    out = build_dir()
    steps = [["cmake", "-S", HERE, "-B", out,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", out, "--target", "perfbench_driver",
              "-j", str(min(4, CPUS))]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise Failure("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench_driver")


class Proc:
    """One finished driver process."""

    def __init__(self, wall_s, cpu_s, rss_mb, code, result):
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.rss_mb = rss_mb
        self.ok = code == 0 and result is not None
        self.outputs = result["outputs"] if self.ok else None
        self.observed = result["observed"] if self.ok else None


def run_driver(driver, args):
    """Run the driver to completion; kill it past CHILD_TIMEOUT_S."""
    t0 = time.perf_counter()
    p = subprocess.Popen([driver] + args, stdout=subprocess.PIPE)
    timer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
    timer.start()
    try:
        out = p.stdout.read()
    except BaseException:
        p.kill()
        raise
    finally:
        p.stdout.close()
        _, status, ru = os.wait4(p.pid, 0)
        timer.cancel()
        p.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - t0
    result = None
    if p.returncode == 0:
        try:
            result = json.loads(out)
        except json.JSONDecodeError:
            pass
    return Proc(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
                p.returncode, result)


def _numbers(x):
    """Every number inside a JSON value; None stands for a non-finite
    value the driver refused to print."""
    if isinstance(x, dict):
        return [n for v in x.values() for n in _numbers(v)]
    if isinstance(x, list):
        return [n for v in x for n in _numbers(v)]
    if x is None or isinstance(x, (int, float)) and not isinstance(x, bool):
        return [x]
    return []


def _finite(outputs):
    return all(n is not None for n in _numbers(outputs))


class Workload:
    """One workload's driver steps and output checks."""

    # Set-up runs several times per run; setup_s is their median.
    setup_repeats = 5

    def __init__(self, name, seed, workdir):
        self.name = name
        self.seed = seed
        self.workdir = workdir

    def args(self, step, *extra, threads=THREADS):
        return ["--workload", self.name, "--step", step,
                "--seed", str(self.seed), "--threads", str(threads), *extra]

    def setup_args(self):
        return self.args("setup")

    def job_args(self):
        return self.args("job")

    def valid(self, outputs):
        """Per-job sanity beyond equality with the first job."""
        return _finite(outputs)

    def once_check(self, first, run):
        """The once-per-run cross-check, outside the timed jobs."""
        raise NotImplementedError

    def model_err_pct(self, outputs):
        raise NotImplementedError

    def cache_hit_ratio(self, job):
        return 0.0


def _hit_ratio(observed):
    counters = (observed or {}).get("evaluator", {})
    hits = counters.get("eval.cache_hits", 0)
    lookups = hits + counters.get("eval.cells_simulated", 0)
    return hits / lookups if lookups else 0.0


class DesignEval(Workload):
    # Set-up is only process start and evaluator construction, a few
    # milliseconds with a long tail, so take the median of many.
    setup_repeats = 31

    def valid(self, outputs):
        cells = outputs["cells"]
        return (_finite(outputs) and len(cells) == 25
                and len(outputs["hmean"]) == 6
                and all(c[k] > 0 for c in cells for k in
                        ("perf", "watts", "inf_dollars", "pc_dollars",
                         "tco_dollars")))

    def once_check(self, first, run):
        serial = run(self.args("job", threads=1))
        return serial.ok and serial.outputs == first

    def model_err_pct(self, outputs):
        hm = {(h["design"], h["baseline"]): h["perf_per_tco_dollar"]
              for h in outputs["hmean"]}
        return stats.design_eval_err_pct(hm[("N1", "srvr1")],
                                         hm[("N2", "srvr1")])

    def cache_hit_ratio(self, job):
        return _hit_ratio(job.observed)


class TraceReplay(Workload):
    def setup_args(self):
        return self.args("setup", "--trace-dir", self.workdir)

    def job_args(self):
        return self.args("job", "--trace-dir", self.workdir)

    def valid(self, outputs):
        files = outputs["files"]
        return (_finite(outputs) and len(files) == 5
                and all(r["accesses"] == 2000000
                        for f in files for r in f["replays"].values()))

    def once_check(self, first, run):
        check = run(self.args("check", "--trace-dir", self.workdir))
        return check.ok and check.outputs == {"identical": True}

    def model_err_pct(self, outputs):
        return stats.trace_replay_err_pct(
            [f["pcie_x4_slowdown_random_25"] for f in outputs["files"]])


WORKLOAD_CLASSES = {"design-eval": DesignEval, "trace-replay": TraceReplay}


def set_up(w, run, repeats):
    setups = [run(w.setup_args()) for _ in range(repeats)]
    if not all(s.ok for s in setups):
        raise Failure(f"{w.name} set-up failed")
    if any(s.outputs != setups[0].outputs for s in setups):
        raise Failure(f"{w.name} set-up outputs differ between repeats")
    return setups


def job_report(name, walls):
    n = len(walls)
    p = stats.highest_percentile(n)
    tail = (f"p{p:g} {stats.percentile(walls, p):.4f} s "
            f"({stats.samples_beyond(n, p)} jobs beyond)" if p is not None
            else "no percentile has 10 jobs beyond it")
    print(f"{name}: median {stats.median(walls):.4f} s over {n} jobs; {tail}")


class JobCheck:
    """Counts the jobs whose outputs are invalid or differ from the
    first valid reference job's."""

    def __init__(self, workload):
        self.workload = workload
        self.first = None
        self.failed = 0

    def __call__(self, p, reference=True):
        try:
            good = p.ok and self.workload.valid(p.outputs)
        except (KeyError, IndexError, TypeError):
            good = False
        if good and reference and self.first is None:
            self.first = p.outputs
        if not good or p.outputs != self.first:
            self.failed += 1


def timed_run(w, run, seconds):
    setups = set_up(w, run, w.setup_repeats)
    jobs, check = [], JobCheck(w)
    start = time.perf_counter()
    while not jobs or time.perf_counter() - start < seconds:
        jobs.append(run(w.job_args()))
        check(jobs[-1])
    first, failed = check.first, check.failed
    checked = first is not None and w.once_check(first, run)
    print(f"once-per-run check: {'passed' if checked else 'FAILED'}")

    walls = [p.wall_s for p in jobs]
    job_report("job_s", walls)
    print(f"failed_frac: {failed}/{len(jobs)} = {failed / len(jobs):.4f}")
    if first is not None:
        print(f"model_err_pct: {w.model_err_pct(first):.6f}")
    metrics = {
        "job_s": (stats.median(walls), "s"),
        "cpu_s": (stats.median([p.cpu_s for p in jobs]), "s"),
        "setup_s": (stats.median([s.wall_s for s in setups]), "s"),
        # Jobs only: each set-up is a process of its own. A job's peak
        # moves with its threads' timing, and the largest over a run
        # moves less between runs than the median job's.
        "peak_rss_mb": (max(p.rss_mb for p in jobs), "MiB"),
    }
    return checked and failed == 0, len(jobs), failed, metrics


def load_spans(path):
    with open(path) as f:
        spans = json.load(f)
    os.remove(path)
    return spans


def traced_run(w, run, seconds):
    """Untraced and traced jobs alternately; per-layer metrics from the
    traced ones, whose outputs must equal the untraced ones'."""
    spans_path = os.path.join(w.workdir, "spans.json")
    setup = set_up(w, run, 1)[0]
    traced_setup = run(w.setup_args() + ["--spans", spans_path])
    same = traced_setup.ok and traced_setup.outputs == setup.outputs
    per_process = []
    if traced_setup.ok:
        per_process.append(layers.layer_metrics(load_spans(spans_path)))

    untraced, traced, check = [], [], JobCheck(w)
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(run(w.job_args()))
        check(untraced[-1])
        p = run(w.job_args() + ["--spans", spans_path,
                                "--job-id", str(len(traced))])
        check(p, reference=False)
        traced.append(p)
        if p.ok:
            per_process.append(layers.layer_metrics(load_spans(spans_path),
                                                    p.wall_s))
    first, failed = check.first, check.failed

    attempted = len(untraced) + len(traced)
    print(f"traced outputs equal untraced: {same and failed == 0}")
    print(f"failed_frac: {failed}/{attempted} = {failed / attempted:.4f}")
    traced_s = stats.median([p.wall_s for p in traced])
    untraced_s = stats.median([p.wall_s for p in untraced])
    job_report("trace.job_s", [p.wall_s for p in traced])
    job_report("trace.untraced_job_s", [p.wall_s for p in untraced])

    values = {}
    for name, _, _ in layers.per_layer_names():
        seen = [m[name] for m in per_process if name in m]
        # A layer the workload never enters reads 0.
        values[name] = stats.median(seen) if seen else 0.0
    values["core.cache_hit_ratio"] = w.cache_hit_ratio(untraced[0])
    values["model_err_pct"] = w.model_err_pct(first) if first else 0.0
    values["trace.job_s"] = traced_s
    values["trace.untraced_job_s"] = untraced_s
    values["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    metrics = {name: (values[name], unit)
               for name, unit, _ in layers.per_layer_names()}
    return same and failed == 0, attempted, failed, metrics


def main(argv):
    args = parse_args(argv)
    try:
        driver = build()
    except Failure as e:
        log(str(e))
        return 1
    workdir = os.path.join(build_dir(), "runs",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    w = WORKLOAD_CLASSES[args.workload](args.workload, args.seed, workdir)
    run = functools.partial(run_driver, driver)
    try:
        body = traced_run if args.trace else timed_run
        correct, attempted, failed, metrics = body(w, run, args.seconds)
    except Failure as e:
        log(str(e))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
