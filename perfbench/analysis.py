"""Statistics, span analysis and output verification for the benchmark."""

import hashlib
import json
import math


def tail_percentile(n):
    """The highest whole percentile with at least ten samples beyond it
    (nearest-rank), or None below eleven samples."""
    if n <= 10:
        return None
    return math.floor(100 * (n - 10) / n)


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of
    the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1]


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


# ---------------------------------------------------------------------------
# Spans


def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def _union_ns(intervals):
    """Total length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0, None, None
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


def span_table(spans):
    """Per span name under the single root span: count, busy (summed
    durations), self (duration minus the union of its children's
    intervals, children on any thread), and wall-attributed time.

    Wall attribution splits every instant of the root's interval evenly
    among the spans that are open then and have no open child; the root's
    own attributed time is reported as `unattributed`. The shares
    therefore add up to exactly the traced wall, however many threads run
    in parallel.
    """
    roots = [s for s in spans if s["parent"] == 0]
    if len(roots) != 1:
        raise ValueError(f"expected one root span, found {len(roots)}")
    root = roots[0]
    wall = root["end_ns"] - root["start_ns"]
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    table = {}
    for s in spans:
        if s is root:
            continue
        lo, hi = s["start_ns"], s["end_ns"]
        covered = _union_ns(
            (max(c["start_ns"], lo), min(c["end_ns"], hi))
            for c in children.get(s["id"], [])
            if c["end_ns"] > lo and c["start_ns"] < hi
        )
        row = table.setdefault(s["name"], {"count": 0, "busy_ns": 0, "self_ns": 0, "wall_ns": 0.0})
        row["count"] += 1
        row["busy_ns"] += hi - lo
        row["self_ns"] += (hi - lo) - covered

    # Sweep the root interval; at each boundary update which spans are
    # open and how many open children each has.
    by_id = {s["id"]: s for s in spans}
    events = []
    for s in spans:
        lo = max(s["start_ns"], root["start_ns"])
        hi = min(s["end_ns"], root["end_ns"])
        if hi > lo:
            events.append((lo, 1, s["id"]))
            events.append((hi, 0, s["id"]))
    events.sort()
    open_children = {}
    is_open = set()
    attributed = {}
    last = root["start_ns"]
    for t, kind, sid in events:
        if t > last and is_open:
            exposed = [i for i in is_open if open_children.get(i, 0) == 0]
            share = (t - last) / len(exposed)
            for i in exposed:
                attributed[i] = attributed.get(i, 0.0) + share
        last = max(last, t)
        parent = by_id[sid]["parent"]
        if kind == 1:
            is_open.add(sid)
            if parent in by_id:
                open_children[parent] = open_children.get(parent, 0) + 1
        else:
            is_open.discard(sid)
            if parent in by_id:
                open_children[parent] -= 1
    unattributed = attributed.get(root["id"], 0.0)
    for sid, ns in attributed.items():
        if sid != root["id"]:
            table[by_id[sid]["name"]]["wall_ns"] += ns
    for row in table.values():
        row["share"] = row["wall_ns"] / wall if wall else 0.0
    return {
        "wall_ns": wall,
        "unattributed_ns": unattributed,
        "unattributed_share": unattributed / wall if wall else 0.0,
        "names": table,
    }


def worker_busy_frac(spans, pool="cli.runner", worker="cli.runner.worker"):
    """Time pool workers spent inside their task spans, over the time the
    pools were open times their worker count."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    busy = capacity = 0
    for p in spans:
        if p["name"] != pool:
            continue
        workers = [w for w in children.get(p["id"], []) if w["name"] == worker]
        capacity += (p["end_ns"] - p["start_ns"]) * len(workers)
        for w in workers:
            busy += _union_ns((c["start_ns"], c["end_ns"]) for c in children.get(w["id"], []))
    return busy / capacity if capacity else 0.0


# ---------------------------------------------------------------------------
# Output verification


def sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def records_match(expected, actual, sampled):
    """Whether an exported records.csv agrees with recomputed records.

    Unsampled, the two texts must be identical. Sampled, `expected` holds
    only some injection points, and the rows of `actual` at those points
    must equal it row for row.
    """
    if not sampled:
        return expected == actual
    exp_lines = expected.splitlines()
    act_lines = actual.splitlines()
    if not exp_lines or not act_lines or exp_lines[0] != act_lines[0]:
        return False
    points = {",".join(line.split(",")[:2]) for line in exp_lines[1:]}
    selected = [line for line in act_lines[1:] if ",".join(line.split(",")[:2]) in points]
    return selected == exp_lines[1:]
