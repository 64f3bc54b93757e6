"""Turns the harness's raw output into metrics.

Pure functions over samples, Prometheus text, reclaim journals and spans,
so each rule is unit-tested on its own (see test_analysis.py).
"""

import json
import math
import os
import re
import statistics
from array import array

# ---- Samples and percentiles -------------------------------------------------

MIN_BEYOND = 10


def load_u64(path):
    """Reads a raw little-endian uint64 sample file written by the harness."""
    values = array("Q")
    with open(path, "rb") as f:
        values.frombytes(f.read())
    return values


def percentile(values, q):
    """The q-quantile (0 < q < 1) by the benchmark's percentile rule.

    Uses the nearest-rank definition on the sorted samples. If fewer than
    MIN_BEYOND samples lie beyond the requested rank, the rule reports the
    highest percentile that still has MIN_BEYOND samples beyond it instead,
    and says so through `q`. Returns a dict with the value, the quantile
    actually reported, and the sample count; value is None when there are
    not enough samples for any tail percentile (or none at all).
    """
    data = sorted(values)
    n = len(data)
    out = {"q": q, "value": None, "n": n}
    if n == 0:
        return out
    rank = max(1, math.ceil(q * n))  # 1-based nearest rank
    if n - rank < MIN_BEYOND and q > 0.5:
        rank = n - MIN_BEYOND
        if rank < 1:
            return out
        out["q"] = rank / n
    out["value"] = data[rank - 1]
    return out


def median(values):
    return statistics.median(values) if len(values) else None


SLICE_SHIFT = 40
_NS_MASK = (1 << SLICE_SHIFT) - 1


def split_slices(values):
    """Splits harness samples tagged with their slice in the top bits into
    {slice: [ns, ...]}."""
    out = {}
    for v in values:
        out.setdefault(v >> SLICE_SHIFT, []).append(v & _NS_MASK)
    return out


def sliced_percentile(slices, q):
    """Median across slices of each slice's q-quantile (by the percentile
    rule). Slices too small for the rule are left out; n counts the samples
    of the slices used, `slices` how many there were, and `q` is the lowest
    quantile the rule fell back to in any of them."""
    per, n, lowest = [], 0, q
    for values in slices.values():
        p = percentile(values, q)
        if p["value"] is not None:
            per.append(p["value"])
            n += p["n"]
            lowest = min(lowest, p["q"])
    return {"value": median(per), "n": n, "slices": len(per), "q": lowest}


# ---- Prometheus text exposition ----------------------------------------------

_SAMPLE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{([^}]*)\})?\s+(\S+)$")
_LABEL = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prom(text):
    """Parses exposition text into {(name, ((label, value), ...)): float}
    plus {family: type} from the TYPE lines."""
    samples, types = {}, {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        m = _SAMPLE.match(line)
        if not m:
            raise ValueError("malformed exposition line: %r" % line)
        labels = tuple(sorted(_LABEL.findall(m.group(3) or "")))
        samples[(m.group(1), labels)] = float(m.group(4))
    return samples, types


def _family(name, types):
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix) and types.get(name[: -len(suffix)]) == "histogram":
            return name[: -len(suffix)]
    return name


def prom_diff(pairs):
    """What happened over stretches of one process, each given as the
    (before, after) scrapes around it.

    Counters and histogram series become the sum over the stretches of
    after - before (a series absent before counts from 0), so whatever ran
    between the stretches is left out; gauges keep their value at the last
    scrape.
    """
    out = {}
    for before_text, after_text in pairs:
        before, _ = parse_prom(before_text)
        after, types = parse_prom(after_text)
        for key, value in after.items():
            kind = types.get(_family(key[0], types), "untyped")
            if kind in ("counter", "histogram"):
                out[key] = out.get(key, 0.0) + value - before.get(key, 0.0)
            else:
                out[key] = value
    return out


def _matches(labels, want):
    d = dict(labels)
    return all(d.get(k) == v for k, v in want.items())


def prom_sum(samples, name, **labels):
    """Sum of every series of `name` whose labels include `labels`."""
    return sum(v for (n, l), v in samples.items() if n == name and _matches(l, labels))


def hist_quantile(samples, name, q, **labels):
    """histogram_quantile over cumulative `le` buckets, linear within a
    bucket. None when the histogram recorded nothing."""
    buckets = {}
    for (n, l), v in samples.items():
        if n != name + "_bucket" or not _matches(l, labels):
            continue
        le = dict(l)["le"]
        bound = math.inf if le == "+Inf" else float(le)
        buckets[bound] = buckets.get(bound, 0.0) + v
    if not buckets:
        return None
    bounds = sorted(buckets)
    total = buckets[bounds[-1]]
    if total <= 0:
        return None
    target = q * total
    prev_bound, prev_count = 0.0, 0.0
    for b in bounds:
        count = buckets[b]
        if count >= target:
            if math.isinf(b):
                return prev_bound
            if count == prev_count:
                return b
            return prev_bound + (b - prev_bound) * (target - prev_count) / (count - prev_count)
        prev_bound, prev_count = b, count
    return prev_bound


# ---- Reclaim journal ---------------------------------------------------------


def parse_journal(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def new_passes(before, after):
    """Records of `after` with a seq beyond every record of `before`."""
    last = max((p["seq"] for p in before), default=-1)
    return [p for p in after if p["seq"] > last]


def lost_passes(before, after):
    """Passes the bounded ring dropped between two scrapes (seq gap)."""
    last = max((p["seq"] for p in before), default=-1)
    fresh = sorted(p["seq"] for p in after if p["seq"] > last)
    if not fresh:
        return 0
    return fresh[0] - last - 1


def conservation_violations(passes):
    """Passes whose per-target `got` values do not sum to recovered_pages."""
    bad = []
    for p in passes:
        if p.get("kind") != "smd_reclaim_pass":
            continue
        got = sum(t["got"] for t in p.get("targets", []))
        if got != p["recovered_pages"]:
            bad.append({"seq": p["seq"], "got_sum": got, "recovered": p["recovered_pages"]})
    return bad


def reclaimed_from(passes, process):
    """Pages passes took from targets named `process`."""
    return sum(t["got"] for p in passes for t in p.get("targets", []) if t.get("name") == process)


# ---- Spans -------------------------------------------------------------------


def read_spans(path):
    """CSV written by the harness: id,parent,req,kind,start_ns,end_ns."""
    spans = []
    with open(path) as f:
        next(f)
        for line in f:
            i, parent, req, kind, start, end = line.rstrip("\n").split(",")
            spans.append((int(i), int(parent), int(req), kind, int(start), int(end)))
    return spans


def covered(interval, children):
    """Length of [start, end] covered by the union of child intervals,
    each clipped to the parent's interval."""
    start, end = interval
    clipped = sorted((max(s, start), min(e, end)) for s, e in children if min(e, end) > max(s, start))
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


def self_times(spans):
    """Per span kind: count, total duration and total self time (duration
    minus the part covered by its children, overlaps counted once)."""
    children = {}
    for i, parent, _req, _kind, s, e in spans:
        if parent:
            children.setdefault(parent, []).append((s, e))
    out = {}
    for i, _parent, _req, kind, s, e in spans:
        entry = out.setdefault(kind, {"count": 0, "total_ns": 0, "self_ns": 0, "durations": []})
        dur = e - s
        entry["count"] += 1
        entry["total_ns"] += dur
        entry["self_ns"] += dur - covered((s, e), children.get(i, ()))
        entry["durations"].append(dur)
    return out


def blocking_shares(spans, root_kinds):
    """Each kind's share of the blocking path: self time of the spans under
    roots of `root_kinds` (client requests, sampled alloc/free calls),
    divided by those roots' total duration. Spans under other roots (e.g. a
    budget RPC of an unsampled alloc) are left out of both sides."""
    by_id = {s[0]: s for s in spans}
    root_of = {}

    def root(i):
        chain = []
        while i not in root_of:
            s = by_id.get(i)
            if s is None or not s[1] or s[1] not in by_id:
                root_of[i] = i
                break
            chain.append(i)
            i = s[1]
        r = root_of[i]
        for c in chain:
            root_of[c] = r
        return r

    keep = [s for s in spans if by_id[root(s[0])][3] in root_kinds]
    total = sum(s[5] - s[4] for s in keep if root(s[0]) == s[0])
    if not total:
        return {}
    return {k: e["self_ns"] / total for k, e in self_times(keep).items()}


def linked_outside(spans, parent_kind, child_kind):
    """Per parent span of `parent_kind`: its duration minus its children of
    `child_kind`, e.g. request time spent outside the handler."""
    by_id = {}
    for i, parent, _req, kind, s, e in spans:
        if kind == child_kind and parent:
            by_id.setdefault(parent, []).append((s, e))
    out = []
    for i, _parent, _req, kind, s, e in spans:
        if kind == parent_kind and i in by_id:
            out.append((e - s) - covered((s, e), by_id[i]))
    return out


def read_text(path):
    if not os.path.exists(path):
        return ""
    with open(path) as f:
        return f.read()
