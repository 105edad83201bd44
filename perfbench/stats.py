"""Arithmetic of the perfbench harness: percentiles, span self times,
failure shares.  Pure functions, unit-tested in test_stats.py."""

import math
import statistics

# Percentiles considered for a latency tail, highest last.
TAIL_LADDER = (0.5, 0.9, 0.99, 0.999)
MIN_BEYOND = 10


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least a
    share p of all samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 1:
        raise ValueError("p must be in (0, 1]")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p * len(ordered))) - 1]


def beyond(n, p):
    """How many of n samples lie strictly above the nearest-rank p
    percentile's rank."""
    return n - max(1, math.ceil(p * n))


def tail(values):
    """The highest percentile of TAIL_LADDER with at least MIN_BEYOND
    samples beyond it, as (label, value, n); None when even the median
    has fewer than MIN_BEYOND samples above it."""
    n = len(values)
    best = None
    for p in TAIL_LADDER:
        if beyond(n, p) >= MIN_BEYOND:
            best = (p, percentile(values, p))
    if best is None:
        return None
    p, value = best
    return ("p%g" % (p * 100), value, n)


def summary(values):
    """Median, the reportable tail and the sample count of a timing."""
    return {
        "n": len(values),
        "p50": statistics.median(values) if values else None,
        "tail": tail(values),
    }


# --------------------------------------------------------------------
# spans: (name, start, end, parent index or -1, request id)


def self_times(spans):
    """Per span, its duration minus the part of its interval covered by
    its direct children (overlapping children are counted once)."""
    children = [[] for _ in spans]
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    result = []
    for i, (_, t0, t1, _, _) in enumerate(spans):
        covered = 0.0
        reach = t0
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            c0 = max(spans[c][1], reach)
            c1 = min(spans[c][2], t1)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        result.append((t1 - t0) - covered)
    return result


def by_name(spans):
    """{name: (list of durations, list of self times)} in span order."""
    selfs = self_times(spans)
    out = {}
    for (name, t0, t1, _, _), s in zip(spans, selfs):
        durs, ss = out.setdefault(name, ([], []))
        durs.append(t1 - t0)
        ss.append(s)
    return out


# --------------------------------------------------------------------
# failures

OK = "ok"
FAILURES = ("failed", "timeout", "shed", "unknown", "wrong")


def fail_share(outcomes):
    """Share of attempted operations that did not come back OK: errors,
    time-outs, shed and UNKNOWN answers and wrong verdicts all count.
    Returns (attempted, failed, share)."""
    attempted = len(outcomes)
    if attempted == 0:
        raise ValueError("no operation attempted")
    for o in outcomes:
        if o != OK and o not in FAILURES:
            raise ValueError("unknown outcome %r" % (o,))
    failed = sum(1 for o in outcomes if o != OK)
    return attempted, failed, failed / attempted
