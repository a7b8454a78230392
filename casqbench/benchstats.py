"""Pure helpers of the repo benchmark: order statistics, span self
time, and failure accounting.  run.py reduces the driver's raw
samples with these; tests/test_benchstats.py pins their behaviour."""

import statistics


def percentile(values, q):
    """The q-th percentile (0 <= q <= 100), interpolating linearly
    between the two closest ranks (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile out of range: %r" % q)
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50.0)


def quartiles(values):
    """First quartile, median and third quartile, as
    statistics.quantiles(values, n=4) gives them (the definition the
    benchmark's steadiness is judged by)."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    return statistics.quantiles(values, n=4)


def spread(values):
    """Distance between the first and third quartile as a share of
    the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def _clip(span, window):
    lo, hi = window
    return max(span["start"], lo), min(span["end"], hi)


def layer_self_times(spans, window):
    """Self time per layer: each span's duration inside the window
    minus the part of it that its child spans cover, summed by layer.

    A span is a dict with keys id, parent, layer, start and end;
    children are the spans whose parent is its id."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    totals = {}
    for span in spans:
        lo, hi = _clip(span, window)
        if hi <= lo:
            own = 0.0
        else:
            inner = []
            for child in children.get(span["id"], []):
                clo, chi = _clip(child, (lo, hi))
                if chi > clo:
                    inner.append((clo, chi))
            own = (hi - lo) - union_length(inner)
        totals[span["layer"]] = totals.get(span["layer"], 0.0) + own
    return totals


def uncovered_time(spans, window):
    """Time inside the window that no span covers."""
    covered = [_clip(span, window) for span in spans]
    return (window[1] - window[0]) - union_length(covered)


def spans_from_chrome_trace(trace):
    """Spans of a Chrome trace-event object written by the driver."""
    out = []
    for event in trace.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        args = event.get("args", {})
        start = float(event["ts"])
        out.append({
            "id": args.get("id"),
            "parent": args.get("parent", -1),
            "layer": event.get("cat", ""),
            "name": event.get("name", ""),
            "start": start,
            "end": start + float(event.get("dur", 0.0)),
        })
    return out


def account(requests, request_failures, checks):
    """Attempted and failed operations of a run: every request plus
    every output check; a request fails when it threw, was refused
    or returned a wrong result, a check when its outputs mismatch."""
    if requests < 0 or request_failures < 0:
        raise ValueError("negative operation count")
    if request_failures > requests:
        raise ValueError("more failed requests than requests")
    attempted = requests + len(checks)
    failed = request_failures + sum(1 for c in checks if not c["ok"])
    return attempted, failed


def failed_ratio(attempted, failed):
    if attempted < 1:
        raise ValueError("no operation attempted")
    return failed / attempted
