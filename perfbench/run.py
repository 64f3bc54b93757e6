#!/usr/bin/env python3
"""End-to-end benchmark of softmem on real processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds softmemd, kv_server and the harness
from source (RelWithDebInfo, under $CARGO_TARGET_DIR or .bench_build), runs
one workload, checks its outputs, prints a report and, as the last line,
one JSON object with the end-to-end metrics (--trace 0) or the per-layer
metrics of the traced run (--trace 1). Exits non-zero if any check fails.
Workloads, metrics and findings are described in perfbench/NOTES.md.
"""

import argparse
import bisect
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing but .bench_* in the checkout

import analysis as A  # noqa: E402

WORKLOADS = {"ycsb_b_quiet": "kv", "ycsb_b_pressure": "kv", "sma_churn": "churn"}

# Set-ups per untraced run; setup_s is their median. The churn set-up is a
# few milliseconds, so it is repeated more often to steady the median.
SETUP_REPS = {"kv": 9, "churn": 25}

# Claims made from this benchmark are checked on this seed, which is never
# used while tuning a change.
HELD_OUT_SEED = 9001

# End-to-end metrics, reported on every workload (see NOTES.md for what
# each means on each workload): name -> (unit, better).
E2E = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "p50_us": ("us", "lower"),
    "p90_us": ("us", "lower"),
    "rss_mib": ("MiB", "lower"),
}
# Printed with them but not in BENCHMARK.json: on a shared host its spread
# between runs of the same code is wider than any bound (see NOTES.md).
E2E_UNGATED = {"p99_us": ("us", "lower")}

# The workload-specific metrics printed in the report by name.
REPORT = [
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("get_p50_us", "us"),
    ("get_p90_us", "us"), ("get_p99_us", "us"), ("set_p99_us", "us"), ("hit_rate", "ratio"),
    ("op_fail_ratio", "ratio"), ("kv_rss_mib", "MiB"), ("grant_p50_ms", "ms"),
    ("grant_p90_ms", "ms"), ("episode_ms", "ms"), ("alloc_mops_1t", "Mops/s"),
    ("alloc_mops_mt", "Mops/s"), ("alloc_vs_malloc", "ratio"),
]

SPAN_KINDS = ["kv.request", "kv.handle", "sma.budget_rpc", "kv.reclaim_callback",
              "sma.malloc", "sma.free"]
IPC_PROCS = ["kv", "antagonist", "churn"]

# Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {
    "kv.handle_us.p50": "us", "kv.handle_us.p99": "us",
    "kv.outside_handle_us.p50": "us", "kv.outside_handle_us.p99": "us",
    "kv.reactor_wakes_per_op": "ratio", "kv.dispatch_us.mean": "us",
    "kv.oom_replies": "count", "kv.reclaim_callbacks": "count",
    "kv.reclaim_callback_us.sum": "us",
    "sma.malloc_ns.p50": "ns", "sma.malloc_ns.p99": "ns",
    "sma.free_ns.p50": "ns", "sma.free_ns.p99": "ns",
    "sma.cache_hit_ratio": "ratio", "sma.transfer_hit_ratio": "ratio",
    "sma.cache_revocations": "count", "sma.budget_requests": "count",
    "sma.budget_request_failures": "count",
    "sma.budget_request_us.p50": "us", "sma.budget_request_us.p99": "us",
    "sma.reclaim_demand_ms.p50": "ms", "sma.reclaim_demand_ms.max": "ms",
    "sma.reclaim_phase_ms.revoke": "ms", "sma.reclaim_phase_ms.slack": "ms",
    "sma.reclaim_phase_ms.pool": "ms", "sma.reclaim_phase_ms.sds": "ms",
    "sma.reclaim_yield": "ratio",
    "pagealloc.pages_committed": "count", "pagealloc.pages_decommitted": "count",
    "smd.grant_rpc_ms.p50": "ms", "smd.grant_rpc_ms.p90": "ms",
    "smd.pass_ms.p50": "ms", "smd.pass_ms.max": "ms", "smd.passes": "count",
    "smd.denials": "count", "smd.pass_yield": "ratio",
}
for _p in IPC_PROCS:
    PER_LAYER.update({
        "ipc.%s.rpc_rtt_us.p50" % _p: "us", "ipc.%s.rpc_rtt_us.p99" % _p: "us",
        "ipc.%s.demands_served" % _p: "count", "ipc.%s.recv_timeouts" % _p: "count",
        "ipc.%s.rpc_retries" % _p: "count",
    })
for _k in SPAN_KINDS:
    PER_LAYER["self_us.%s" % _k] = "us"
    PER_LAYER["self_share.%s" % _k] = "ratio"
for _m in E2E:
    PER_LAYER["overhead.%s" % _m] = "ratio"

# A harness invocation that runs longer than this is killed: an allowance
# per set-up, four times the measured seconds (the pressure harness stops
# a stack at three times its share, refills between episodes included),
# and time for the scrapes and teardown. At --seconds 20 that is under
# 140 s, so a stuck run still ends within three minutes.
SETUP_ALLOWANCE_S = {"kv": 2, "churn": 1}


def harness_timeout(mode, seconds, reps):
    return SETUP_ALLOWANCE_S[mode] * reps + 4 * seconds + 30


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ---- Build -------------------------------------------------------------------


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")) or \
            not os.path.exists(os.path.join(ROOT, "examples", "kv_server.cpp")):
        raise BenchError("softmem sources (src/, examples/) not found next to perfbench/")
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(ROOT, base, "perfbench")
    cache = os.path.join(bdir, "CMakeCache.txt")
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            raise BenchError("cmake configure failed")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if subprocess.call(["cmake", "--build", bdir, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr) != 0:
        raise BenchError("build failed")
    build_type = ""
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    if build_type not in ("Release", "RelWithDebInfo"):
        raise BenchError("refusing unoptimised build (CMAKE_BUILD_TYPE=%r)" % build_type)
    return bdir, build_type


# ---- Harness invocation ---------------------------------------------------------


def steal_ticks():
    """CPU time the hypervisor has stolen from this machine so far, in
    USER_HZ ticks (the `steal` column of /proc/stat; 0 if absent)."""
    fields = A.read_text("/proc/stat").split("\n", 1)[0].split()
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else 0


def run_harness(bdir, mode, workload, seed, seconds, traced, reps, out):
    """Runs one harness invocation in its own process group; on timeout or
    interruption the whole group (harness and its children) is killed.
    Also records the share of the machine's CPU the hypervisor stole
    meanwhile: not the code's doing, but it moves every time metric."""
    cmd = [os.path.join(bdir, "perfbench_harness"), mode, "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "1" if traced else "0",
           "--setup-reps", str(reps), "--out", out, "--bin", bdir]
    start, stolen = time.monotonic(), steal_ticks()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=harness_timeout(mode, seconds, reps))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError("harness timed out or was interrupted")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stragglers of the group
        except ProcessLookupError:
            pass
    if code != 0:
        for name in sorted(os.listdir(os.path.join(ROOT, out))):
            if name.endswith(".log"):
                log("--- %s (last lines)\n%s" % (name, A.read_text(
                    os.path.join(ROOT, out, name))[-2000:]))
        raise BenchError("harness exited with code %d (logs in %s)" % (code, out))
    with open(os.path.join(ROOT, out, "raw.json")) as f:
        raw = json.load(f)
    raw["_dir"] = os.path.join(ROOT, out)
    raw["_steal_pct"] = 100.0 * (steal_ticks() - stolen) / os.sysconf("SC_CLK_TCK") / (
        (time.monotonic() - start) * os.cpu_count())
    return raw


def fresh_dir(name):
    base = os.path.join(ROOT, ".bench_run")
    os.makedirs(base, exist_ok=True)
    for old in os.listdir(base):
        if old.startswith(name + "-"):
            shutil.rmtree(os.path.join(base, old), ignore_errors=True)
    rel = os.path.join(".bench_run", "%s-%d" % (name, os.getpid()))
    os.makedirs(os.path.join(ROOT, rel))
    return rel


def samples(raw, name):
    return A.load_u64(os.path.join(raw["_dir"], raw["samples"][name]))


def text(raw, name):
    return A.read_text(os.path.join(raw["_dir"], name))


def windows(raw):
    w = list(samples(raw, "windows_ns"))
    return list(zip(w[0::2], w[1::2]))


def in_windows(t, wins):
    """Whether t lies in one of `wins`, [start, end) pairs in time order."""
    i = bisect.bisect_right(wins, (t, math.inf)) - 1
    return i >= 0 and t < wins[i][1]


def phase_diff(raws, proc):
    """/metrics of `proc` over the measured stretches only: each harness
    invocation (or antagonist) in `raws` scraped it before and after each
    one (see prom_diff)."""
    return A.prom_diff([
        (text(raw, "%s_before.%d.prom" % (proc, i)), text(raw, "%s_after.%d.prom" % (proc, i)))
        for raw in raws for i in range(int(raw["phases"]))])


# ---- End-to-end metrics ----------------------------------------------------------


def metric(value, unit, n, q=None):
    return {"value": value, "unit": unit, "n": n, "q": q}


def pct(values, q, scale, unit):
    p = A.percentile(values, q)
    value = None if p["value"] is None else p["value"] / scale
    return metric(value, unit, p["n"], p["q"])


def sliced(slices, q):
    p = A.sliced_percentile(slices, q)
    value = None if p["value"] is None else p["value"] / 1e3
    return metric(value, "us", p["n"], p["q"])


def setup_metric(raw):
    setup = samples(raw, "setup_ns")
    return metric(A.median(setup) / 1e9, "s", len(setup))


def antagonists(raw):
    """raw.json of the antagonist of each measured pressure stack."""
    out = []
    for rep in samples(raw, "measured_reps"):
        path = os.path.join(raw["_dir"], "antagonist%d" % rep, "raw.json")
        if os.path.exists(path):
            with open(path) as f:
                a = json.load(f)
            a["_dir"] = os.path.dirname(path)
            out.append(a)
    return out


def kv_report(raw):
    gets, sets = raw["gets"], raw["sets"]
    get_slices = A.split_slices(samples(raw, "get_ns"))
    set_slices = A.split_slices(samples(raw, "set_ns"))
    # GET percentiles are per slice of the measured phase, then the median
    # across slices; the rate is over the whole measured phase (see
    # NOTES.md, "Steadiness").
    measured_s = sum(end - start for start, end in windows(raw)) / 1e9
    set_ns = [v for s in set_slices.values() for v in s]
    rss = samples(raw, "kv_rss_kib")  # one per measured stack
    r = {
        "setup_s": setup_metric(raw),
        "ops_per_s": metric((gets + sets) / measured_s, "1/s", gets + sets),
        "get_p50_us": sliced(get_slices, 0.50),
        "get_p90_us": sliced(get_slices, 0.90),
        "get_p99_us": sliced(get_slices, 0.99),
        "set_p99_us": pct(set_ns, 0.99, 1e3, "us"),
        "hit_rate": metric(raw["hits"] / gets if gets else None, "ratio", gets),
        "kv_rss_mib": metric(A.median(rss) / 1024.0, "MiB", len(rss)),
    }
    # An operation fails if it never succeeds: an error reply, or a SET
    # still refused with -OOM after the client's retries (see NOTES.md).
    # op_fail_ratio counts every refused command, retries included.
    attempted, failed = gets + sets, raw["set_failed"] + raw["errors"]
    commands, refused = raw["commands"], raw["oom"] + raw["errors"]
    ants = raw["_antagonists"] = antagonists(raw)
    if ants:
        attempted += sum(int(a["attempted"]) for a in ants)
        failed += sum(int(a["failed"]) for a in ants)
        commands += sum(int(a["attempted"]) for a in ants)
        refused += sum(int(a["failed"]) for a in ants)
        grants = [v for a in ants for v in samples(a, "grant_ns")]
        episodes = [v for a in ants for v in samples(a, "episode_ns")]
        r["grant_p50_ms"] = pct(grants, 0.50, 1e6, "ms")
        r["grant_p90_ms"] = pct(grants, 0.90, 1e6, "ms")
        r["episode_ms"] = metric(A.median(episodes) / 1e6 if len(episodes) else None,
                                 "ms", len(episodes))
    r["op_fail_ratio"] = metric(refused / commands, "ratio", commands)
    e2e = {
        "setup_s": r["setup_s"], "ops_per_s": r["ops_per_s"], "p50_us": r["get_p50_us"],
        "p90_us": r["get_p90_us"], "rss_mib": r["kv_rss_mib"],
        "p99_us": r["get_p99_us"],
    }
    return r, e2e, attempted, failed


def churn_report(raw):
    sma_ns, sma_ops = samples(raw, "sma_round_ns"), samples(raw, "sma_round_ops")
    libc_ns = samples(raw, "libc_round_ns")
    mt_ns, mt_ops = samples(raw, "mt_round_ns"), samples(raw, "mt_round_ops")
    # Per-op time of the SMA calls at nproc threads: each batch is
    # batch_steps steps of one free plus one alloc. Batches are sliced by
    # round, and the percentiles are the median over rounds (see NOTES.md).
    batches = A.split_slices(samples(raw, "mt_batch_ns"))
    per_op = {r: [b / (2.0 * raw["batch_steps"]) for b in v] for r, v in batches.items()}
    mt_rates = [ops / ns * 1e3 for ops, ns in zip(mt_ops, mt_ns)]
    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    r = {
        "setup_s": setup_metric(raw),
        "alloc_mops_1t": metric(sum(sma_ops) / sum(sma_ns) * 1e3, "Mops/s", sum(sma_ops)),
        "alloc_mops_mt": metric(A.median(mt_rates), "Mops/s", len(mt_rates)),
        "alloc_vs_malloc": metric(A.median([s / g for s, g in zip(sma_ns, libc_ns)]),
                                  "ratio", len(sma_ns)),
        "op_fail_ratio": metric(failed / attempted, "ratio", attempted),
    }
    e2e = {
        "setup_s": r["setup_s"],
        "ops_per_s": metric(r["alloc_mops_mt"]["value"] * 1e6, "1/s", sum(mt_ops)),
        "p50_us": sliced(per_op, 0.50),
        "p90_us": sliced(per_op, 0.90),
        "rss_mib": metric(raw["rss_kib"] / 1024.0, "MiB", 1),
        "p99_us": sliced(per_op, 0.99),
    }
    return r, e2e, attempted, failed


# ---- Checks ----------------------------------------------------------------------


def journal_checks(raw, workload):
    """Conservation on every pass seen, and (pressure) a pass that took
    pages from kv_server in every episode. Also returns the passes that
    started in the measured windows, for the per-layer metrics."""
    checks, info = [], {}
    # One softmemd per measured stack (KV workloads: files prefixed with
    # its set-up rep), each with its own pass numbering.
    stacks = [("", 0)]
    if "measured_reps" in raw["samples"]:
        stacks = [("r%d_" % r, e) for r, e in zip(samples(raw, "measured_reps"),
                                                  samples(raw, "episodes"))]
    passes, lost = [], 0
    for prefix, episodes in stacks:
        names = ["journal_before.jsonl"]
        for i in range(episodes):
            names += ["journal_ep%d_grow.jsonl" % i, "journal_ep%d_free.jsonl" % i]
        names.append("journal_after.jsonl")
        snapshots = [A.parse_journal(text(raw, prefix + n)) for n in names]
        seen = {}
        for before, after in zip(snapshots, snapshots[1:]):
            lost += A.lost_passes(before, after) if A.new_passes(before, after) else 0
            for p in A.new_passes(before, after):
                seen[p["seq"]] = p
        passes += [seen[k] for k in sorted(seen)]
    bad = A.conservation_violations(passes)
    checks.append(("journal_conservation", not bad,
                   "%d passes seen, %d violate sum(got) == recovered_pages %s"
                   % (len(passes), len(bad), bad[:3])))
    # Passes are attributed to a window (an episode under pressure) by their
    # start time; softmemd and the harness both read the monotonic clock.
    wins = windows(raw)
    per_episode = []
    if workload == "ycsb_b_pressure":
        per_episode = [A.reclaimed_from([p for p in passes if s <= p["start_ns"] < e], "kv_server")
                       for s, e in wins]
        ok = len(per_episode) > 0 and all(p > 0 for p in per_episode)
        checks.append(("every_episode_reclaims_kv", ok,
                       "pages taken from kv_server per episode: %s" % per_episode))
    info["journal_passes_seen"] = len(passes)
    info["journal_passes_lost_to_ring"] = lost
    info["kv_pages_reclaimed_per_episode"] = per_episode
    return checks, info, [p for p in passes if in_windows(p["start_ns"], wins)]


# ---- Per-layer metrics (traced run) ----------------------------------------------


def _v(x, scale=1.0):
    return 0.0 if x is None else x / scale


def _pq(values, q, scale=1.0):
    return _v(A.percentile(values, q)["value"], scale)


def per_layer(traced, workload, e2e_plain, e2e_traced):
    out = {name: 0.0 for name in PER_LAYER}
    notes = {}
    wins = windows(traced)
    spans = []
    if "spans" in traced:
        spans = [s for s in A.read_spans(os.path.join(traced["_dir"], traced["spans"]))
                 if in_windows(s[4], wins)]
    durs = {}
    for s in spans:
        durs.setdefault(s[3], []).append(s[5] - s[4])
    st = A.self_times(spans)
    shares = A.blocking_shares(spans, ("kv.request", "sma.malloc", "sma.free"))
    for k in SPAN_KINDS:
        e = st.get(k)
        if e:
            out["self_us.%s" % k] = e["self_ns"] / e["count"] / 1e3
            out["self_share.%s" % k] = shares.get(k, 0.0)
    notes["spans"] = {k: {"count": e["count"], "self_ms": e["self_ns"] / 1e6,
                          "total_ms": e["total_ns"] / 1e6} for k, e in st.items()}

    outside = A.linked_outside(spans, "kv.request", "kv.handle")
    for q in (0.5, 0.99):
        tag = "p%d" % round(q * 100)
        out["kv.handle_us." + tag] = _pq(durs.get("kv.handle", []), q, 1e3)
        out["kv.outside_handle_us." + tag] = _pq(outside, q, 1e3)
        out["sma.budget_request_us." + tag] = _pq(durs.get("sma.budget_rpc", []), q, 1e3)
        out["sma.malloc_ns." + tag] = _pq(durs.get("sma.malloc", []), q)
        out["sma.free_ns." + tag] = _pq(durs.get("sma.free", []), q)

    kv = workload != "sma_churn"
    proc, instance = ("kv", "kv_server") if kv else ("churn", "churn")
    d = phase_diff([traced], proc)

    def c(name):
        return A.prom_sum(d, name, instance=instance)

    hits, misses = c("softmem_sma_cache_hits_total"), c("softmem_sma_cache_misses_total")
    out["sma.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["sma.transfer_hit_ratio"] = c("softmem_sma_transfer_hits_total") / misses if misses else 0.0
    out["sma.cache_revocations"] = c("softmem_sma_cache_revocations_total")
    out["sma.budget_requests"] = c("softmem_sma_budget_requests_total")
    out["sma.budget_request_failures"] = c("softmem_sma_budget_request_failures_total")
    out["pagealloc.pages_committed"] = c("softmem_sma_pages_committed_total")
    out["pagealloc.pages_decommitted"] = c("softmem_sma_pages_decommitted_total")
    out["ipc.%s.rpc_rtt_us.p50" % proc] = _v(A.hist_quantile(d, "softmem_ipc_rpc_rtt_ns", 0.5), 1e3)
    out["ipc.%s.rpc_rtt_us.p99" % proc] = _v(A.hist_quantile(d, "softmem_ipc_rpc_rtt_ns", 0.99), 1e3)
    out["ipc.%s.demands_served" % proc] = A.prom_sum(d, "softmem_ipc_demands_served_total")
    out["ipc.%s.recv_timeouts" % proc] = A.prom_sum(d, "softmem_ipc_recv_timeouts_total")
    out["ipc.%s.rpc_retries" % proc] = A.prom_sum(d, "softmem_ipc_rpc_retries_total")

    demands = [j for j in A.parse_journal(text(traced, "sma_journal.jsonl"))
               if in_windows(j["start_ns"], wins)]
    if demands:
        totals = [j["total_ns"] / 1e6 for j in demands]
        out["sma.reclaim_demand_ms.p50"] = statistics.median(totals)
        out["sma.reclaim_demand_ms.max"] = max(totals)
        for phase in ("revoke", "slack", "pool", "sds"):
            out["sma.reclaim_phase_ms.%s" % phase] = sum(j[phase + "_ns"] for j in demands) / 1e6
        asked = sum(j["demanded_pages"] for j in demands)
        out["sma.reclaim_yield"] = sum(j["produced_pages"] for j in demands) / asked if asked else 0.0
    notes["sma_reclaim_demands"] = len(demands)

    if kv:
        ops = traced["gets"] + traced["sets"]
        out["kv.reactor_wakes_per_op"] = A.prom_sum(d, "softmem_kv_reactor_iterations_total") / ops
        count = A.prom_sum(d, "softmem_kv_dispatch_ns_count")
        out["kv.dispatch_us.mean"] = A.prom_sum(d, "softmem_kv_dispatch_ns_sum") / count / 1e3 if count else 0.0
        out["kv.oom_replies"] = traced["oom"]
        callbacks = durs.get("kv.reclaim_callback", [])
        out["kv.reclaim_callbacks"] = len(callbacks)
        out["kv.reclaim_callback_us.sum"] = sum(callbacks) / 1e3

    sd = phase_diff([traced], "smd")
    out["smd.passes"] = A.prom_sum(sd, "softmem_smd_reclamations_total")
    out["smd.denials"] = A.prom_sum(sd, "softmem_smd_requests_denied_total")
    _checks, _info, passes = journal_checks(traced, workload)
    if passes:
        pass_ms = [p["total_ns"] / 1e6 for p in passes]
        out["smd.pass_ms.p50"] = statistics.median(pass_ms)
        out["smd.pass_ms.max"] = max(pass_ms)
        quota = sum(p["quota_pages"] for p in passes)
        out["smd.pass_yield"] = sum(p["recovered_pages"] for p in passes) / quota if quota else 0.0
        notes["smd_zero_yield_passes"] = sum(1 for p in passes if p["recovered_pages"] == 0)

    ants = traced.get("_antagonists")
    if ants:
        ad = phase_diff(ants, "antagonist")
        out["ipc.antagonist.rpc_rtt_us.p50"] = _v(A.hist_quantile(ad, "softmem_ipc_rpc_rtt_ns", 0.5), 1e3)
        out["ipc.antagonist.rpc_rtt_us.p99"] = _v(A.hist_quantile(ad, "softmem_ipc_rpc_rtt_ns", 0.99), 1e3)
        out["ipc.antagonist.demands_served"] = A.prom_sum(ad, "softmem_ipc_demands_served_total")
        out["ipc.antagonist.recv_timeouts"] = A.prom_sum(ad, "softmem_ipc_recv_timeouts_total")
        out["ipc.antagonist.rpc_retries"] = A.prom_sum(ad, "softmem_ipc_rpc_retries_total")
        rpc = [s[5] - s[4] for a in ants for s in A.read_spans(os.path.join(a["_dir"], a["spans"]))
               if s[3] == "sma.budget_rpc" and in_windows(s[4], wins)]
        out["smd.grant_rpc_ms.p50"] = _pq(rpc, 0.5, 1e6)
        out["smd.grant_rpc_ms.p90"] = _pq(rpc, 0.9, 1e6)

    for m in E2E:
        plain, tr = e2e_plain[m]["value"], e2e_traced[m]["value"]
        out["overhead.%s" % m] = (tr / plain - 1.0) if plain else 0.0
    return out, notes


# ---- Main ------------------------------------------------------------------------


def fmt(m):
    if m is None:
        return "n/a (not on this workload)"
    if m["value"] is None:
        return "n/a (too few samples, n=%d)" % m["n"]
    q = "" if m.get("q") in (None, 0.5, 0.9, 0.99) else " [reported at q=%.4f]" % m["q"]
    return "%.6g %s (n=%d)%s" % (m["value"], m["unit"], m["n"], q)


def stamp(raw, workload, build_type, seed):
    backend = "n/a"
    if workload != "sma_churn":
        d = phase_diff([raw], "kv")
        backend = "uring" if A.prom_sum(d, "softmem_kv_uring_sqes_total") > 0 else "epoll"
    return {
        "nproc": len(os.sched_getaffinity(0)), "kernel": platform.release(),
        "backend": backend, "reactors": raw.get("reactors", "n/a"),
        "build_type": build_type, "seed": seed, "held_out_seed": HELD_OUT_SEED,
        "host": raw.get("host", "benchmark process"),
        "host_steal_pct": round(raw["_steal_pct"], 2),
    }


def run(args):
    mode = WORKLOADS[args.workload]
    bdir, build_type = build()
    report = churn_report if mode == "churn" else kv_report
    checks, info = [], {}

    def gather(raw, prefix=""):
        found = list(raw["checks"]) + [c for a in raw.get("_antagonists", []) for c in a["checks"]]
        checks.extend((prefix + c["name"], c["ok"], c["detail"]) for c in found)
        jc, ji, _ = journal_checks(raw, args.workload)
        checks.extend((prefix + n, ok, d) for n, ok, d in jc)
        info.update({prefix + k: v for k, v in ji.items()})
        for k in ("preload_oom", "refill_oom"):  # -OOM replies that were retried
            if k in raw:
                info[prefix + k] = raw[k]
        for phase in ("refill", "free"):  # pressure: the unmeasured phases
            ns = samples(raw, phase + "_ns") if phase + "_ns" in raw["samples"] else ()
            if len(ns):
                info[prefix + phase + "_ms_median"] = A.median(ns) / 1e6

    if not args.trace:
        out = fresh_dir(args.workload)
        raw = run_harness(bdir, mode, args.workload, args.seed, args.seconds, False,
                         SETUP_REPS[mode], out)
        table, e2e, attempted, failed = report(raw)
        gather(raw)
        metrics = {k: {"value": e2e[k]["value"], "unit": E2E[k][0]} for k in E2E}
        layer = None
    else:
        half = args.seconds / 2.0
        plain_raw = run_harness(bdir, mode, args.workload, args.seed, half, False, 1,
                               fresh_dir(args.workload))
        _t, e2e_plain, _a, _f = report(plain_raw)
        raw = run_harness(bdir, mode, args.workload, args.seed, half, True, 1,
                         fresh_dir(args.workload + "-traced"))
        table, e2e, attempted, failed = report(raw)
        gather(plain_raw, "untraced.")
        gather(raw, "traced.")
        layer, notes = per_layer(raw, args.workload, e2e_plain, e2e)
        info["trace"] = notes
        info["span_file"] = os.path.relpath(os.path.join(raw["_dir"], raw.get("spans", "")), ROOT)
        metrics = {k: {"value": layer[k], "unit": PER_LAYER[k]} for k in PER_LAYER}

    st = stamp(raw, args.workload, build_type, args.seed)
    print("perfbench %s  seed=%d  seconds=%g  trace=%d" % (args.workload, args.seed, args.seconds, args.trace))
    print("stamp: " + json.dumps(st, sort_keys=True))
    print("metrics (%s run):" % ("traced" if args.trace else "untraced"))
    for name, unit in REPORT:
        print("  %-16s %s" % (name, fmt(table.get(name))))
    print("end-to-end:")
    for name in E2E:
        print("  %-16s %s" % (name, fmt(e2e[name])))
    for name in E2E_UNGATED:
        print("  %-16s %s  (not gated)" % (name, fmt(e2e[name])))
    if layer is not None:
        print("per-layer (traced run; self time is duration minus child spans):")
        for name in PER_LAYER:
            print("  %-34s %.6g %s" % (name, layer[name], PER_LAYER[name]))
    print("info: " + json.dumps(info, sort_keys=True))
    for name, ok, detail in checks:
        print("check %-28s %s  %s" % (name, "ok  " if ok else "FAIL", detail))
    correct = all(ok for _n, ok, _d in checks)
    for k, m in metrics.items():
        if m["value"] is None:
            correct = False
            print("missing value for %s" % k)
            m["value"] = 0.0
    result = {"correct": correct, "attempted": int(attempted), "failed": int(failed),
              "metrics": metrics}
    with open(os.path.join(raw["_dir"], "result.json"), "w") as f:
        json.dump({"stamp": st, "result": result, "report": table, "info": info}, f,
                  indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if correct else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    start = time.time()
    try:
        code = run(args)
    except BenchError as e:
        log("perfbench: %s" % e)
        return 2
    log("perfbench: done in %.1f s" % (time.time() - start))
    return code


if __name__ == "__main__":
    sys.exit(main())
