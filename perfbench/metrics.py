"""Metric arithmetic of the benchmark.

The runner (perfbench_runner) only measures and checks; every figure the
benchmark reports is derived here from its raw record and, for a traced
run, from the Chrome trace it wrote.  The functions are pure so that
tests/test_metrics.py can check them against hand-computed cases.
"""

import math
import statistics

# Percentiles a tail may be reported at; the tail is the highest of them
# that still has at least MIN_BEYOND samples above it.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10
# Latency statistics are taken per window of consecutive operations and the
# median over windows is reported, so that a burst of host CPU steal moves
# only the windows it falls in.  Windows hold at least this many samples
# (a run shorter than one window is one window).
P50_WINDOW = 500
TAIL_WINDOW = 1000

# Correctness bounds on a run's median posterior RMSD (Angstrom).  Each
# lies below the RMSD of the workload's initial estimate, which the runner
# records and correctness() checks against the bound, so a solver that
# returned its start unchanged fails.  ribo30S (anchored, plain RMSD)
# starts at 1.70 and lands at 1.21.  The helices carry distance data only,
# so their pose is free and their RMSD is taken after superposition; they
# start at 0.50-0.52 and land at about 0.27 (helix-rebind) and 0.38
# (helix-serve's mix, whose helix-3 responses under the default 1.0 A
# prior often land near the start).
RMSD_BOUND_A = {"ribo-solve": 1.5, "helix-serve": 0.45, "helix-rebind": 0.4}
# The low-rank answer is first order in the edits (1-3 slots set to their
# base value plus N(0, 0.02), 8 edits between commits); its distance to
# the exact commit must stay far below the observation noise.
APPROX_ERR_BOUND_A = 0.05
# helix-serve latency limit on the tail of the open-loop Phase A.
LATENCY_LIMIT_MS = 50.0

CATEGORIES = ("ds", "chol", "sys", "mm", "mv", "vec", "other")
BYTES_PER_DOUBLE = 8


def nearest_rank(n, q):
    """1-based rank of the nearest-rank q-th percentile of n samples.  The
    product is rounded first so that float noise (99.9 / 100 * 1000 =
    999.0000000000001) cannot push the rank up by one."""
    return max(1, math.ceil(round(q * n / 100.0, 6)))


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least q% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[nearest_rank(len(values), q) - 1]


def samples_beyond(n, q):
    """Samples strictly above the nearest-rank q-th percentile of n."""
    return n - nearest_rank(n, q)


def tail(values):
    """(q, value, n): the highest ladder percentile with at least
    MIN_BEYOND samples beyond it."""
    n = len(values)
    usable = [q for q in TAIL_LADDER if samples_beyond(n, q) >= MIN_BEYOND]
    if not usable:
        raise ValueError(
            f"{n} samples: no percentile has {MIN_BEYOND} samples beyond it")
    q = usable[-1]
    return q, percentile(values, q), n


def windows(values, size):
    """`values` cut into len // size consecutive windows of equal length
    (at least one window; a remainder shorter than a window is dropped)."""
    k = max(1, len(values) // size)
    w = len(values) // k
    return [values[i * w:(i + 1) * w] for i in range(k)]


def windowed_p50(values):
    """(median over windows of each window's nearest-rank median, window
    count).  Nearest-rank, like the tail, so that a tail that falls back
    to the 50th percentile equals the p50 instead of undercutting it."""
    parts = windows(values, P50_WINDOW)
    return (statistics.median(percentile(p, 50) for p in parts),
            len(parts))


def windowed_tail(values):
    """(q, median over windows of each window's tail, window size, window
    count): every window supports the same ladder percentile q with at
    least MIN_BEYOND samples beyond it."""
    parts = windows(values, TAIL_WINDOW)
    q = tail(parts[0])[0]
    return (q, statistics.median(percentile(p, q) for p in parts),
            len(parts[0]), len(parts))


def fail_frac(attempted, failed, rejected, expired):
    """Operations that failed, were refused at admission, or expired,
    over operations attempted."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    return (failed + rejected + expired) / attempted


def batch_sizes(constraints, batch_size):
    """Sizes of the batches a node's constraint sweep applies."""
    full, rest = divmod(constraints, batch_size)
    return [batch_size] * full + ([rest] if rest else [])


def downdate_counts(shape):
    """(flops, bytes) of every covariance downdate C -= W^T W in one full
    solve of a plan with this shape.

    Per batch of m constraints on a node of state dimension n the kernel
    does 2*m*n^2 flops, reads and writes C once and reads W once:
    8 * (2*n^2 + m*n) bytes.  Bytes are computed, not measured, so cache
    misses are not in them.
    """
    flops = 0
    moved = 0
    for dim, constraints in shape["nodes"]:
        for m in batch_sizes(constraints, shape["batch_size"]):
            flops += 2 * m * dim * dim
            moved += BYTES_PER_DOUBLE * (2 * dim * dim + m * dim)
    return flops, moved


def total_batches(shape):
    return sum(len(batch_sizes(c, shape["batch_size"]))
               for _, c in shape["nodes"])


def union_length(intervals):
    """Length of the union of (begin, end) intervals."""
    total = 0.0
    reach = -math.inf
    for b, e in sorted(intervals):
        if e <= reach:
            continue
        total += e - max(b, reach)
        reach = e
    return total


def self_times(spans):
    """{span id: self time}: each span's duration minus the part of its
    interval that its child spans cover.  `spans` maps id to a dict with
    begin, end and parent."""
    children = {}
    for sid, s in spans.items():
        if s["parent"]:
            children.setdefault(s["parent"], []).append(sid)
    out = {}
    for sid, s in spans.items():
        b, e = s["begin"], s["end"]
        covered = union_length(
            (max(b, spans[c]["begin"]), min(e, spans[c]["end"]))
            for c in children.get(sid, ())
            if spans[c]["begin"] < e and spans[c]["end"] > b)
        out[sid] = (e - b) - covered
    return out


def spans_from_chrome(doc):
    """Spans of a Chrome trace written by the runner: id -> dict with name,
    layer, begin and end (milliseconds), parent and op."""
    spans = {}
    for ev in doc["traceEvents"]:
        a = ev["args"]
        spans[a["id"]] = {
            "name": ev["name"], "layer": ev["cat"],
            "begin": ev["ts"] * 1e-3, "end": (ev["ts"] + ev["dur"]) * 1e-3,
            "parent": a["parent"], "op": a["op"]}
    return spans


def layer_self_ms_per_op(spans):
    """{layer: self milliseconds per timed operation}, over the spans of
    timed operations (op >= 1); set-up and verification spans are left
    out."""
    own = self_times(spans)
    ops = {s["op"] for s in spans.values() if s["op"] >= 1}
    totals = {}
    for sid, s in spans.items():
        if s["op"] >= 1:
            totals[s["layer"]] = totals.get(s["layer"], 0.0) + own[sid]
    return {layer: t / len(ops) for layer, t in totals.items()} if ops else {}


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def ratio_or_zero(num, den):
    return num / den if den else 0.0


def end_to_end(rec):
    """The gated end-to-end metrics of one untraced record, each as
    (value, unit, note)."""
    s = rec["samples"]
    v = rec["values"]
    ops = s["op_ms"]
    p50, p50_windows = windowed_p50(ops)
    q, tail_value, size, tail_windows = windowed_tail(ops)
    return {
        "setup_s": (statistics.median(rec["setup_s"]), "s",
                    f"median of {len(rec['setup_s'])} from-scratch set-ups"),
        "p50_ms": (p50, "ms",
                   f"n={len(ops)}, median over {p50_windows} window(s)"),
        "tail_ms": (tail_value, "ms",
                    f"p{q:g}, n={len(ops)}, median over {tail_windows} "
                    f"window(s) of {size} with {samples_beyond(size, q)} "
                    "beyond"),
        "rate_per_s": (v["rate_count"] / v["rate_seconds"], "1/s",
                       f"{v['rate_count']:g} in {v['rate_seconds']:.3f} s"),
        "rmsd_A": (statistics.median(s["rmsd_A"]), "angstrom",
                   f"n={len(s['rmsd_A'])}"),
        "peak_rss_mb": (v["peak_rss_mb"], "MB", "getrusage ru_maxrss"),
    }


def informational(rec):
    """End-to-end figures that exist only on some workloads, or that are
    zero on a clean run, so they are printed and checked but not gated."""
    s = rec["samples"]
    v = rec["values"]
    out = {"fail_frac": (fail_frac(rec["attempted"], rec["failed"],
                                   rec["rejected"], rec["expired"]), "1",
                         f"of {rec['attempted']} attempted")}
    if s.get("edit_ms"):
        edits = s["edit_ms"]
        q, value, n = tail(edits)
        out["edit.p50_ms"] = (statistics.median(edits), "ms",
                              f"helix-rebind edits, n={n}")
        out["edit.tail_ms"] = (value, "ms", f"p{q:g}, n={n}")
    commits = [x["wall_ms"] for x in rec["solves"] if x["kind"] == "commit"]
    if commits:
        out["commit_ms"] = (statistics.median(commits), "ms",
                            f"n={len(commits)}, the operation of p50_ms")
    if s.get("approx_err_A"):
        out["approx_err_A"] = (statistics.median(s["approx_err_A"]),
                               "angstrom", f"n={len(s['approx_err_A'])}")
    if s.get("phase_a_ms"):
        phase_a = s["phase_a_ms"]
        q, value, n = tail(phase_a)
        out["phase_a.p50_ms"] = (statistics.median(phase_a), "ms",
                                 f"open loop, from due time, n={n}")
        out["phase_a.tail_ms"] = (value, "ms", f"p{q:g}, n={n}, limit "
                                  f"{LATENCY_LIMIT_MS:g} ms, "
                                  + ("within" if value <= LATENCY_LIMIT_MS
                                     else "OVER") + " the limit")
    if "polls" in v:
        out["generator.slow_poll_frac"] = (
            ratio_or_zero(v["polls_over_100us"], v["polls"]), "1",
            "polls more than 0.1 ms after the previous one")
    return out


def breakdown_solves(rec):
    """Exact solves whose breakdown stands for the workload: its timed
    serial solves or commits, else (helix-serve, whose responses carry no
    breakdown) the verification re-solves."""
    timed = [x for x in rec["solves"] if x["kind"] in ("serial", "commit")]
    return timed or [x for x in rec["solves"] if x["kind"] == "verify"]


def full_solves(rec):
    """Solves that ran every node of their plan."""
    return [x for x in rec["solves"] if x["kind"] in ("serial", "verify")]


def per_layer(rec):
    """Per-layer metrics of one traced record, each as (value, unit).
    Layers a workload does not call report 0."""
    s = rec["samples"]
    v = rec["values"]
    shapes = rec["shapes"]
    out = {}

    gflops, intensity = [], []
    for x in full_solves(rec):
        flops, moved = downdate_counts(shapes[x["shape"]])
        mv_s = x["cat_ms"][CATEGORIES.index("mv")] * 1e-3
        if mv_s > 0:
            gflops.append(flops / mv_s * 1e-9)
        intensity.append(flops / moved)
    out["linalg.downdate_gflops"] = (median_or_zero(gflops), "GFLOP/s")
    out["linalg.downdate_flop_per_byte"] = (median_or_zero(intensity),
                                            "flop/B")

    solves = breakdown_solves(rec)
    for i, cat in enumerate(CATEGORIES):
        out[f"estimation.{cat}_ms"] = (
            median_or_zero([x["cat_ms"][i] for x in solves]), "ms")
    out["core.batches"] = (median_or_zero([x["batches"] for x in solves]),
                           "count")
    out["core.unattributed_ms"] = (median_or_zero(
        [x["wall_ms"] - sum(x["cat_ms"]) for x in solves]), "ms")
    out["core.nodes_recomputed"] = (median_or_zero(
        [x["nodes_recomputed"] for x in solves]), "count")
    out["core.nodes_reused"] = (median_or_zero(
        [x["nodes_reused"] for x in solves]), "count")

    compiles = rec["compiles"]
    out["engine.compile_ms"] = (median_or_zero(
        [c["total_ms"] for c in compiles]), "ms")
    for phase in ("decompose", "assign", "schedule", "workspace"):
        out[f"engine.compile.{phase}_ms"] = (median_or_zero(
            [c[f"{phase}_ms"] for c in compiles]), "ms")
    out["engine.set_observations_us"] = (median_or_zero(
        s.get("set_observations_us", [])), "us")
    out["engine.lowrank_us"] = (median_or_zero(s.get("lowrank_us", [])), "us")
    out["engine.lowrank_fallbacks"] = (v.get("lowrank_fallbacks", 0.0),
                                       "count")
    out["engine.commit_ms"] = (median_or_zero(
        [x["wall_ms"] for x in rec["solves"] if x["kind"] == "commit"]), "ms")
    out["engine.lowrank_err_A"] = (median_or_zero(s.get("approx_err_A", [])),
                                   "angstrom")

    def pct(name, q):
        return percentile(s[name], q) if s.get(name) else 0.0

    out["service.queue_ms.p50"] = (pct("queue_ms", 50), "ms")
    out["service.queue_ms.p99"] = (pct("queue_ms", 99), "ms")
    out["service.overhead_ms.p50"] = (pct("overhead_ms", 50), "ms")
    out["service.overhead_ms.p99"] = (pct("overhead_ms", 99), "ms")
    out["service.submit_us.p50"] = (pct("submit_us", 50), "us")
    out["service.solve_ms.p50"] = (pct("solve_ms", 50), "ms")
    hits = v.get("service.cache.hits", 0.0)
    misses = v.get("service.cache.misses", 0.0)
    out["service.cache.hit_ratio"] = (ratio_or_zero(hits, hits + misses), "1")
    out["service.cache.hits"] = (hits, "count")
    out["service.cache.misses"] = (misses, "count")
    out["service.cache.evictions"] = (v.get("service.cache.evictions", 0.0),
                                      "count")
    for name in ("failed", "rejected", "expired"):
        out[f"service.{name}"] = (v.get(f"service.{name}", 0.0), "count")
    out["service.nodes_reused_frac"] = (v.get("service.nodes_reused_frac",
                                              0.0), "1")

    speedup = median_or_zero(s.get("speedup_2lane", []))
    out["parallel.lane2_ms.p50"] = (median_or_zero(s.get("lane2_ms", [])),
                                    "ms")
    out["parallel.speedup_2lane"] = (speedup, "1")
    out["parallel.efficiency_2lane"] = (speedup / 2.0, "1")

    out.update(host_noise(rec))
    return out


def host_noise(rec):
    """The record that shows whether a run was disturbed by the host."""
    s = rec["samples"]
    v = rec["values"]
    late = s.get("generator_late_ms", [])
    return {
        "host.steal_s": (v["host.steal_s"], "s"),
        "host.cpu_s": (v["host.cpu_s"], "s"),
        "generator.late_ms.p99": (percentile(late, 99) if late else 0.0,
                                  "ms"),
    }


TRACE_LAYERS = ("benchmark", "service", "engine", "core", "estimation",
                "parallel")


def trace_metrics(spans, traced, untraced, traced_rec):
    """Self time per layer from the trace, and the tracing overhead: the
    traced run's end-to-end numbers against the untraced run's."""
    out = {}
    per_op = layer_self_ms_per_op(spans)
    for layer in TRACE_LAYERS:
        out[f"trace.self_ms.{layer}"] = (per_op.get(layer, 0.0), "ms")
    for name in ("p50_ms", "tail_ms", "rate_per_s"):
        base = untraced[name][0]
        out[f"trace.overhead.{name}"] = (
            ratio_or_zero(traced[name][0] - base, base), "1")
    out["trace.spans"] = (traced_rec["values"].get("trace.spans", 0.0),
                          "count")
    out["trace.dropped"] = (traced_rec["values"].get("trace.dropped", 0.0),
                            "count")
    return out


def correctness(rec):
    """[(check, ok, detail)]: the runner's own checks plus the bounds
    checked here."""
    out = [(name, c["failed"] == 0,
            f"{c['passed']} passed, {c['failed']} failed"
            + (f"; first: {c['first_failure']}" if c["failed"] else ""))
           for name, c in sorted(rec["checks"].items())]
    w = rec["workload"]
    rmsd = statistics.median(rec["samples"]["rmsd_A"])
    start = rec["values"]["initial_rmsd_A"]
    out.append(("rmsd_A within bound, and the bound below the start",
                rmsd <= RMSD_BOUND_A[w] < start,
                f"{rmsd:.4f} <= {RMSD_BOUND_A[w]} < {start:.4f} "
                "(initial estimate)"))
    if rec["samples"].get("approx_err_A"):
        err = statistics.median(rec["samples"]["approx_err_A"])
        out.append(("approx_err_A within bound", err <= APPROX_ERR_BOUND_A,
                    f"{err:.5f} <= {APPROX_ERR_BOUND_A}"))
    for x in full_solves(rec):
        expected = total_batches(rec["shapes"][x["shape"]])
        if x["batches"] != expected:
            out.append(("plan shape matches SolveReport.batches", False,
                        f"{x['batches']} != {expected} ({x['shape']})"))
            break
    else:
        out.append(("plan shape matches SolveReport.batches", True,
                    f"{len(full_solves(rec))} full solves"))
    return out
