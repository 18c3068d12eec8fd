"""Arithmetic of the wsc benchmark: order statistics, span self time,
flash-replay attribution, and the model-error formulas.

Kept free of I/O so test_stats.py can check every formula directly.
"""

import math
from fractions import Fraction
import re
import statistics

SEED_MAX = 2**64 - 1

# Paper reference values behind model_err_pct.
# Fig. 5: HMean Perf/TCO-$ of N1 and N2 relative to srvr1.
FIG5_HMEAN_PERF_PER_TCO = {"N1": 1.5, "N2": 2.0}
# Fig. 4(b): 25%-local, PCIe x4, random-replacement slowdowns in
# percent, in benchmark order (websearch, webmail, ytube, mapred-wc,
# mapred-wr).
FIG4B_SLOWDOWN_PCT = (4.7, 0.2, 1.4, 0.7, 0.7)


def parse_seed(text):
    """A seed is a plain decimal integer in [0, 2^64 - 1]. Signs,
    exponents, NaN and anything that overflows 64 bits are refused."""
    if not re.fullmatch(r"[0-9]+", text or ""):
        raise ValueError(f"seed must be a non-negative integer, got {text!r}")
    value = int(text)
    if value > SEED_MAX:
        raise ValueError(f"seed {text} overflows 64 bits")
    return value


def median(values):
    return statistics.median(values)


def _rank(n, p):
    """1-based nearest rank of the p-th percentile of n samples, in
    exact arithmetic (99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    return sorted(values)[_rank(len(values), p) - 1]


def samples_beyond(n, p):
    """Samples strictly ranked above the nearest-rank p-th percentile."""
    return n - _rank(n, p)


REPORTED_PERCENTILES = (99.9, 99, 95, 90, 75, 50)


def highest_percentile(n, min_beyond=10):
    """The highest reported percentile with at least min_beyond samples
    beyond it, or None when n is too small for any."""
    for p in REPORTED_PERCENTILES:
        if samples_beyond(n, p) >= min_beyond:
            return p
    return None


def covered(interval, others):
    """Length of the part of interval covered by the union of others.
    Intervals are (start, end) pairs; others may overlap each other."""
    lo, hi = interval
    clipped = sorted((max(lo, s), min(hi, e)) for s, e in others
                     if min(hi, e) > max(lo, s))
    total, cur_s, cur_e = 0, None, None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(span, children):
    """A span's duration minus the part its children cover. Children
    may run on other threads and overlap each other; overlapped time is
    counted once."""
    interval = (span["start_ns"], span["end_ns"])
    kids = [(c["start_ns"], c["end_ns"]) for c in children]
    return (interval[1] - interval[0]) - covered(interval, kids)


def flash_replays(calls):
    """The calls that ran a flash hit-rate replay.

    The flash cache keeps one value per benchmark (the call's
    `flash_key`). It is looked up when a call starts and filled when a
    replaying call returns, so a call replays unless some call on the
    same key had already returned when it started: exactly the calls
    that start before the earliest return on their key.
    """
    first_end = {}
    for c in calls:
        key = c["counts"]["flash_key"]
        first_end[key] = min(first_end.get(key, c["end_ns"]), c["end_ns"])
    return [c for c in calls
            if c["start_ns"] < first_end[c["counts"]["flash_key"]]]


def design_eval_err_pct(n1, n2):
    """Mean relative error (%) of N1's and N2's HMean Perf/TCO-$ vs
    srvr1 against Fig. 5's ~1.5X and ~2X."""
    ref = FIG5_HMEAN_PERF_PER_TCO
    return 100.0 * (abs(n1 / ref["N1"] - 1.0) + abs(n2 / ref["N2"] - 1.0)) / 2


def trace_replay_err_pct(slowdowns):
    """Mean absolute error, in percentage points, of fractional
    slowdowns against Fig. 4(b)'s PCIe x4 row at 25% local memory."""
    ref = FIG4B_SLOWDOWN_PCT
    if len(slowdowns) != len(ref):
        raise ValueError("need one slowdown per benchmark")
    return sum(abs(100.0 * s - r) for s, r in zip(slowdowns, ref)) / len(ref)

