"""The benchmark's own arithmetic: order statistics, the tail rule, the
VmHWM parse, and self time from spans. Pure functions, tested by
test_stats.py (python3 -m unittest discover -s perfbench)."""

import math
import re
import statistics

# Percentiles the tail rule may pick, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0)
# How many samples must lie beyond a reported percentile.
TAIL_BEYOND = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as statistics.quantiles(values, n=4) gives
    them (the 'exclusive' method)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def _rank(pct, n):
    # Rounded before the ceiling so that 99.9% of 10000 is 9990, not 9991.
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def percentile(values, pct):
    """Nearest-rank percentile: the smallest sample with at least pct% of
    the samples at or below it."""
    ordered = sorted(values)
    return ordered[_rank(pct, len(ordered)) - 1]


def tail(values):
    """The highest percentile of TAIL_LADDER with at least TAIL_BEYOND
    samples beyond it, as (pct, value); None when there are too few
    samples for any of them."""
    n = len(values)
    for pct in TAIL_LADDER:
        if n - _rank(pct, n) >= TAIL_BEYOND:
            return pct, percentile(values, pct)
    return None


_VMHWM = re.compile(r"^VmHWM:\s+(\d+)\s+kB\s*$")


def parse_vmhwm_kb(line):
    """Peak resident set in kB from a /proc/<pid>/status 'VmHWM:' line."""
    match = _VMHWM.match(line)
    if match is None:
        raise ValueError("not a VmHWM line: %r" % line)
    return int(match.group(1))


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Self time of every span: its duration minus the union of its
    children's intervals (children on two workers overlap; the union counts
    the overlap once). `spans` maps id -> (parent, start, end)."""
    children = {}
    for span_id, (parent, _, _) in spans.items():
        children.setdefault(parent, []).append(span_id)
    result = {}
    for span_id, (_, start, end) in spans.items():
        covered = [(max(spans[c][1], start), min(spans[c][2], end))
                   for c in children.get(span_id, ())]
        covered = [(a, b) for a, b in covered if b > a]
        result[span_id] = (end - start) - union_length(covered)
    return result


def busy_by_name(spans, names, workers):
    """A layer's busy time: the self time of its spans, summed per worker
    and then over workers. Returns {name: total}."""
    per_worker = {}
    for span_id, value in self_times(spans).items():
        key = (names[span_id], workers[span_id])
        per_worker[key] = per_worker.get(key, 0.0) + value
    totals = {}
    for (name, _), value in per_worker.items():
        totals[name] = totals.get(name, 0.0) + value
    return totals


def wall_by_name(spans, names, root):
    """Attributes the root span's wall time to span names: at every instant
    the innermost active spans (active, with no active child) split it
    equally. The shares sum to the root's duration; the root's own share is
    the time no child covers (the 'other' row)."""
    _, root_start, root_end = spans[root]
    depth = {span_id: _depth(spans, span_id) for span_id in spans}
    events = []
    for span_id, (parent, start, end) in spans.items():
        start, end = max(start, root_start), min(end, root_end)
        if end <= start and span_id != root:
            continue
        events.append((start, 1, depth[span_id], span_id, parent))
        events.append((end, 0, -depth[span_id], span_id, parent))
    # At equal times: ends before starts, children end before parents, and
    # parents start before children.
    events.sort(key=lambda e: (e[0], e[1], e[2]))
    active_children = {}
    leaves = set()
    totals = {}
    last = root_start
    for time, is_start, _, span_id, parent in events:
        if leaves and time > last:
            share = (time - last) / len(leaves)
            for leaf in leaves:
                totals[names[leaf]] = totals.get(names[leaf], 0.0) + share
        last = max(last, time)
        if is_start:
            active_children[span_id] = 0
            leaves.add(span_id)
            if parent in active_children:
                active_children[parent] += 1
                leaves.discard(parent)
        else:
            leaves.discard(span_id)
            active_children.pop(span_id, None)
            if parent in active_children:
                active_children[parent] -= 1
                if active_children[parent] == 0:
                    leaves.add(parent)
    return totals


def _depth(spans, span_id):
    depth = 0
    parent = spans[span_id][0]
    while parent in spans:
        depth += 1
        parent = spans[parent][0]
    return depth
