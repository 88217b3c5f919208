"""Pure statistics behind the benchmark: percentiles, the capacity search,
span self times, the result schema and the A/A compare verdicts.

Everything here is deterministic and free of I/O so that
perfbench/tests/test_stats.py can pin it down.
"""

import math
import statistics

# Latency limit of the capacity definition, and the share of requests that
# must resolve OK at a passing rate.
LATENCY_LIMIT_MS = 20.0
MIN_OK_SHARE = 0.999
TAIL_BEYOND = 10


def tail_quantile(n, beyond=TAIL_BEYOND, cap=0.99):
    """Highest quantile (at most `cap`) that leaves at least `beyond` of `n`
    samples above it under the nearest-rank rule, or None when n <= beyond.
    """
    if n <= beyond:
        return None
    return min(cap, (n - beyond) / n)


def percentile(values, q):
    """Nearest-rank percentile: the ceil(q*n)-th smallest value."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]


def tail(values, beyond=TAIL_BEYOND, cap=0.99):
    """Value at tail_quantile(len(values)); the maximum when too few."""
    q = tail_quantile(len(values), beyond, cap)
    return max(values) if q is None else percentile(values, q)


def segment_tails(values, segments):
    """The tail of each of `segments` consecutive equal slices."""
    size = len(values) // segments
    return [tail(values[i * size:(i + 1) * size]) for i in range(segments)]


def robust_tail(values, segments=5):
    """Median over consecutive segments of each segment's tail.

    A single stall of the host inflates one segment's tail, not the median,
    while a saturated service inflates every segment.
    """
    return statistics.median(segment_tails(values, segments))


def trial_passes(latency_ms, sent, ok, limit_ms=LATENCY_LIMIT_MS,
                 min_ok_share=MIN_OK_SHARE, segments=5):
    """Capacity criterion for one open-loop trial: enough requests OK, the
    tail within the limit, and no backlog still growing at the end (the
    median latency of the last tenth of the requests within the limit).
    Failed requests count as missing the limit."""
    if sent < 1 or ok / sent < min_ok_share:
        return False
    lat = list(latency_ms) + [math.inf] * (sent - ok)
    if robust_tail(lat, segments) > limit_ms:
        return False
    last = lat[len(lat) - max(1, len(lat) // 10):]
    return statistics.median(last) <= limit_ms


def capacity_search(passes, start, resolution, growth=2.0, max_trials=16):
    """Highest passing rate of a monotone pass/fail curve.

    Grows geometrically from `start` until a rate fails (or shrinks until
    one passes), then bisects geometrically until hi/lo <= 1 + resolution.
    Returns (capacity, [(rate, passed), ...]); capacity is the highest rate
    that passed, or start / growth**k below the lowest failing rate when
    nothing passed within max_trials.
    """
    trials = []

    def run(rate):
        ok = bool(passes(rate))
        trials.append((rate, ok))
        return ok

    lo = hi = None
    rate = start
    while len(trials) < max_trials:
        if run(rate):
            lo = rate
            if hi is not None:
                break
            rate *= growth
        else:
            hi = rate
            if lo is not None:
                break
            rate /= growth
    if lo is None:
        return min(r for r, _ in trials) / growth, trials
    if hi is None:
        return lo, trials
    while hi / lo > 1.0 + resolution and len(trials) < max_trials:
        mid = math.sqrt(lo * hi)
        if run(mid):
            lo = mid
        else:
            hi = mid
    return lo, trials


def union_length(intervals):
    """Total length covered by a set of [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_of(name):
    return name.split(".", 1)[0]


def self_times(spans):
    """Per-layer self time from spans [id, parent, request, name, start, end].

    A span's self time is its duration minus the part of it that its child
    spans cover. Returns ({layer: seconds}, unattributed seconds), where the
    unattributed remainder is the traced window (first start to last end)
    minus the time covered by root spans.
    """
    if not spans:
        return {}, 0.0
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)
    per_layer = {}
    for s in spans:
        start, end = s[4], s[5]
        kids = [(max(start, c[4]), min(end, c[5]))
                for c in children.get(s[0], []) if c[5] > start and c[4] < end]
        own = (end - start) - union_length(kids)
        per_layer[layer_of(s[3])] = per_layer.get(layer_of(s[3]), 0.0) + own
    roots = [(s[4], s[5]) for s in spans if s[1] < 0]
    window = max(s[5] for s in spans) - min(s[4] for s in spans)
    return per_layer, window - union_length(roots)


def validate_result(result, metric_specs):
    """Checks the final result line against the contract; returns a list of
    problems (empty when valid). metric_specs maps name -> unit."""
    problems = []
    if not isinstance(result, dict):
        return ["result is not an object"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("keys must be correct, attempted, failed, metrics")
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} must be a whole number")
    if isinstance(result.get("attempted"), int) and result["attempted"] < 1:
        problems.append("attempted must be at least 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict) or set(metrics) != set(metric_specs):
        problems.append("metrics must be exactly " + ", ".join(sorted(metric_specs)))
        return problems
    for name, entry in metrics.items():
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            problems.append(f"{name}: needs exactly value and unit")
            continue
        value = entry["value"]
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            problems.append(f"{name}: value must be a finite number")
        if entry["unit"] != metric_specs[name]:
            problems.append(f"{name}: unit {entry['unit']} != {metric_specs[name]}")
    return problems


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def at_zero_steal(samples):
    """Rate at zero host CPU steal: the intercept of the least-squares line
    through (rate, steal share) samples.

    On a shared VM a sample loses speed to the CPU time the hypervisor
    stole while it ran, several times over when every kernel dispatch
    waits for all pool workers; the intercept takes the host's share out.
    Steal can only slow a sample down, so a rising slope is noise and
    counts as none: the figure is then the mean, as it is when every sample
    saw the same steal.
    """
    xs = [s for _, s in samples]
    ys = [v for v, _ in samples]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx if sxx > 0 else 0.0
    slope = min(slope, 0.0)
    return my - slope * mx


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def verdict(base, change, better, bound):
    """Compares two sets of runs of one (workload, metric).

    Pairs runs in order. 'better' / 'worse' when one side wins at least nine
    tenths of the pairs (ties count for neither) and the medians differ by
    more than the base's inter-quartile distance; otherwise 'unresolved'.
    Also reports whether the change's median is within `bound` of the base's
    median in the bad direction.
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    losses = sum(1 for b, c in pairs if sign * (c - b) < 0)
    q1, base_med, q3 = quartiles(base)
    change_med = statistics.median(change)
    gap = abs(change_med - base_med)
    need = 0.9 * len(pairs)
    if pairs and wins >= need and gap > q3 - q1:
        outcome = "better"
    elif pairs and losses >= need and gap > q3 - q1:
        outcome = "worse"
    else:
        outcome = "unresolved"
    worse_by = sign * (base_med - change_med) / abs(base_med) if base_med else 0.0
    return {
        "verdict": outcome,
        "base_median": base_med,
        "base_q1": q1,
        "base_q3": q3,
        "change_median": change_med,
        "change_q1": quartiles(change)[0],
        "change_q3": quartiles(change)[2],
        "worse_by": worse_by,
        "within_bound": worse_by <= bound,
    }
