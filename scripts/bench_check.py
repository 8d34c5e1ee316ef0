#!/usr/bin/env python3
"""Validate and compare phmse bench JSON documents.

Two document schemas are understood, distinguished by their "schema" key:

  phmse-kernel-bench-v1   — bench/kernels_regress and bench/solve_regress
                            (per-kernel best-rep timings, DESIGN.md §7);
  phmse-service-bench-v1  — bench/service_regress (multi-tenant solve
                            service throughput and latency, DESIGN.md §10).

Two modes:

  Validate only (schema + internal consistency):
      scripts/bench_check.py --validate BENCH_kernels.json
      scripts/bench_check.py --validate BENCH_service.json

  Compare a fresh run against the committed baseline:
      scripts/bench_check.py --baseline BENCH_kernels.json \
          --current build/BENCH_kernels.json [--tolerance 0.25] [--report-only]

Kernel records are matched by (kernel, impl, m, n, threads) and compared
on best-rep seconds (lower is better); service records are matched by
(workload, mode, tenants, requests, workers) and compared on solves/sec
(higher is better).  A configuration regresses when it degrades beyond
the tolerance band (default 25% — wide because the harness runs on shared
machines).  Matched configs that improved, and configs present on only one
side, are reported but never fail the check.  --report-only prints the
comparison but always exits 0 (used by the CI smoke job, whose tiny shapes
are not comparable to the committed full-scale baseline).

--max-robustness-overhead [FRACTION] (default 0.02 when given) adds an
INTRA-document check: wherever a kernel document contains both a
plan_solve_steady and a plan_solve_policy row for the same configuration,
the policy row must not exceed the steady row by more than the fraction
(DESIGN.md §9 — the always-on validation/report path must stay < 2%).

--min-warm-speedup [FACTOR] (default 5.0 when given) adds the service
analogue: wherever a service document contains both a cold and a warm row
for the same configuration, warm solves/sec must be at least FACTOR times
cold solves/sec (DESIGN.md §10 — the plan cache must pay for itself).

--max-deadline-overhead [FRACTION] (default 0.02 when given) gates the
deadline machinery: wherever a service document contains both a warm and
a deadline row for the same configuration, deadline solves/sec must not
fall below warm solves/sec by more than the fraction (DESIGN.md §13 —
the deadline row is the warm workload with a generous never-firing
budget on every request, so warm/deadline is the pure cost of arming the
cancel token and polling it at batch/node boundaries).

--min-simd-speedup [FACTOR] (default 1.5 when given) gates the simd
backend's microkernels: for each gemm-panel kernel (covariance_downdate,
gram) the geometric mean over the single-thread shapes of
blocked-seconds / simd-seconds must reach FACTOR (DESIGN.md §12 — the
explicit vector tiles must pay for themselves over the auto-vectorized
blocked kernels; the geometric mean keeps one memory-bound outlier shape
from hiding a regression at the compute-bound shapes and vice versa).

--min-incremental-speedup [FACTOR] (default 3.0 when given) gates the
incremental rebind fast path: wherever a kernel document contains both a
plan_solve_steady and a plan_solve_incremental row for the same
configuration, the incremental row must be at least FACTOR times faster
(DESIGN.md §11 — a single-constraint rebind takes the low-rank root
shift, O(k n) against the full tree's dense sweeps, falling back to the
exact dirty-subtree replay only when it cannot answer).

--max-refine-overhead [FRACTION] (default 0.02 when given) gates the
outer-loop refinement subsystem: wherever a kernel document contains
both a plan_solve_steady and a plan_solve_refine row for the same
configuration, the refine row must not exceed the steady row by more
than the fraction (DESIGN.md §14 — a single_pass refine::Refiner is the
plain solve plus convergence monitoring, and that monitoring must stay
< 2%).

Both intra-document rows come from the same interleaved run on the same
machine, so unlike the cross-run baseline comparison these checks are
meaningful at any scale and are NOT silenced by --report-only.

Passing an intra-document gate flag asserts that the named rows exist:
a document with no matching row pair, or of the wrong schema for the
gate, FAILS the check rather than skipping it — a renamed or dropped
bench row must not silently retire the gate.  The one exception is
--min-simd-speedup on a document recorded with simd_isa=scalar (no
vector unit on the recording machine), which skips with a note.

Exit status: 0 ok / report-only, 1 regression found, 2 invalid input.
"""

import argparse
import json
import math
import sys

KERNEL_SCHEMA = "phmse-kernel-bench-v1"
SERVICE_SCHEMA = "phmse-service-bench-v1"
KNOWN_KERNELS = {
    "covariance_downdate",
    "gram",
    "trsm_lower",
    "trsm_lower_transposed",
    "cholesky",
    "sparse_dense",
    "gain_times_residual",
    # One apply_all sweep of four root-shaped batches through a copy of the
    # simd table that always delays its downdates, and one that never does
    # (estimation/update.hpp); the smallest n where delayed beats eager is
    # linalg::simd::kDelayMinDim.
    "apply_all_root4_delayed",
    "apply_all_root4_eager",
    # Solver-level rows from bench/solve_regress: the two halves of the
    # plan/execute split (Engine::compile vs steady-state plan.solve()).
    "plan_compile",
    "plan_solve_steady",
    # Same steady-state solve under the heaviest degradation policy
    # (retry + gating); plan_solve_policy / plan_solve_steady is the
    # robustness overhead gated by --max-robustness-overhead.
    "plan_solve_policy",
    # Single-constraint dirty-subtree re-solve (DESIGN.md §11);
    # plan_solve_steady / plan_solve_incremental is the speedup gated by
    # --min-incremental-speedup.
    "plan_solve_incremental",
    # Same steady-state solve routed through a single_pass refine::Refiner
    # (DESIGN.md §14); plan_solve_refine / plan_solve_steady is the
    # refinement monitoring overhead gated by --max-refine-overhead.
    "plan_solve_refine",
}
KNOWN_IMPLS = {"simd", "blocked", "ref", "engine"}
KNOWN_MODES = {"cold", "warm", "deadline"}

KERNEL_FIELDS = {
    "kernel": str,
    "impl": str,
    "m": int,
    "n": int,
    "threads": int,
    "reps": int,
    "seconds": float,
    "flops": float,
    "bytes": float,
    "gflops": float,
    "gbytes_per_sec": float,
}

SERVICE_FIELDS = {
    "workload": str,
    "mode": str,
    "tenants": int,
    "requests": int,
    "workers": int,
    "solves_per_sec": float,
    "p50_ms": float,
    "p95_ms": float,
    "p99_ms": float,
    "queue_p50_ms": float,
    "queue_p95_ms": float,
    "queue_p99_ms": float,
    "cache_hits": int,
    "cache_misses": int,
}


def fail(msg):
    print(f"bench_check: error: {msg}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"{path}: {exc}")
    validate(doc, path)
    return doc


def is_service(doc):
    return doc.get("schema") == SERVICE_SCHEMA


def validate(doc, path):
    """Schema check; exits 2 with a pointed message on the first violation."""
    if not isinstance(doc, dict):
        fail(f"{path}: top level must be an object")
    if doc.get("schema") not in (KERNEL_SCHEMA, SERVICE_SCHEMA):
        fail(f"{path}: schema is {doc.get('schema')!r}, expected "
             f"{KERNEL_SCHEMA!r} or {SERVICE_SCHEMA!r}")
    if not isinstance(doc.get("bench_scale"), (int, float)):
        fail(f"{path}: missing numeric bench_scale")
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        fail(f"{path}: results must be a non-empty array")
    fields = SERVICE_FIELDS if is_service(doc) else KERNEL_FIELDS
    seen = set()
    for i, rec in enumerate(results):
        where = f"{path}: results[{i}]"
        if not isinstance(rec, dict):
            fail(f"{where}: must be an object")
        for field, ftype in fields.items():
            if field not in rec:
                fail(f"{where}: missing field {field!r}")
            value = rec[field]
            if ftype is float:
                if not isinstance(value, (int, float)):
                    fail(f"{where}: {field} must be a number")
            elif not isinstance(value, ftype):
                fail(f"{where}: {field} must be {ftype.__name__}")
        if is_service(doc):
            if rec["mode"] not in KNOWN_MODES:
                fail(f"{where}: unknown mode {rec['mode']!r}")
            if rec["solves_per_sec"] <= 0:
                fail(f"{where}: solves_per_sec must be positive")
            if min(rec["tenants"], rec["requests"], rec["workers"]) <= 0:
                fail(f"{where}: tenants/requests/workers must be positive")
        else:
            if rec["kernel"] not in KNOWN_KERNELS:
                fail(f"{where}: unknown kernel {rec['kernel']!r}")
            if rec["impl"] not in KNOWN_IMPLS:
                fail(f"{where}: unknown impl {rec['impl']!r}")
            if rec["seconds"] <= 0 or rec["reps"] <= 0:
                fail(f"{where}: seconds and reps must be positive")
        k = key(doc, rec)
        if k in seen:
            fail(f"{where}: duplicate configuration {k}")
        seen.add(k)


def key(doc, rec):
    if is_service(doc):
        return (rec["workload"], rec["mode"], rec["tenants"],
                rec["requests"], rec["workers"])
    return (rec["kernel"], rec["impl"], rec["m"], rec["n"], rec["threads"])


def gate_missing(path, what):
    """A gate flag was passed but its rows are absent: fail, don't skip.

    Silently returning 0 here would let a renamed or dropped bench row
    retire a CI gate without anyone noticing; the caller asserted the
    rows exist by passing the flag, so their absence is a violation.
    """
    print(f"bench_check: GATE FAILED: {path} {what}; the gate flag asserts "
          "those rows exist (rename/drop the flag if this is intentional)")
    return 1


def ratio_pair_check(doc, path, numer_kernel, denom_kernel, label, judge):
    """Shared walk for the intra-document solver-row ratio gates.

    Pairs numer_kernel against denom_kernel rows by configuration and
    lets `judge(ratio) -> (violated, line)` score each pair.  Returns
    the violation count; an empty pairing fails via gate_missing.
    """
    if is_service(doc):
        return gate_missing(
            path, f"is a service document ({label} needs kernel rows)")

    def config(rec):
        return (rec["impl"], rec["m"], rec["n"], rec["threads"])

    denom = {config(r): r for r in doc["results"]
             if r["kernel"] == denom_kernel}
    numer = {config(r): r for r in doc["results"]
             if r["kernel"] == numer_kernel}
    violations = 0
    checked = 0
    for cfg in sorted(denom.keys() & numer.keys()):
        checked += 1
        ratio = numer[cfg]["seconds"] / denom[cfg]["seconds"]
        tag = "{} m={} n={} t={}".format(*cfg)
        violated, line = judge(ratio)
        violations += 1 if violated else 0
        print("  {:8s} {} {} {}".format(
            "REGRESS" if violated else "ok", label, tag, line))
    if not checked:
        violations += gate_missing(
            path, f"has no {denom_kernel}/{numer_kernel} row pair")
    return violations


def check_robustness_overhead(doc, path, max_overhead):
    """Intra-document plan_solve_policy vs plan_solve_steady gate.

    Returns the number of violations.  The two rows are produced by the
    same interleaved run (bench/solve_regress), so their ratio is a
    machine-independent overhead measurement.
    """
    def judge(ratio):
        overhead = ratio - 1.0
        return overhead > max_overhead, "{:+.2f}% (limit {:+.2f}%)".format(
            100.0 * overhead, 100.0 * max_overhead)

    return ratio_pair_check(doc, path, "plan_solve_policy",
                            "plan_solve_steady", "robustness overhead",
                            judge)


def check_refine_overhead(doc, path, max_overhead):
    """Intra-document plan_solve_refine vs plan_solve_steady gate.

    Returns the number of violations.  The refine row routes the
    identical steady-state solve through a single_pass refine::Refiner
    in the same interleaved run (bench/solve_regress), so the ratio is
    the pure cost of the convergence monitoring (DESIGN.md §14).
    """
    def judge(ratio):
        overhead = ratio - 1.0
        return overhead > max_overhead, "{:+.2f}% (limit {:+.2f}%)".format(
            100.0 * overhead, 100.0 * max_overhead)

    return ratio_pair_check(doc, path, "plan_solve_refine",
                            "plan_solve_steady", "refine overhead", judge)


def check_incremental_speedup(doc, path, min_speedup):
    """Intra-document plan_solve_incremental vs plan_solve_steady gate.

    Returns the number of violations.  Both rows come from the same
    interleaved run in the same process (bench/solve_regress); the
    incremental row rebinds one constraint and re-solves via the low-rank
    fast path (solve_lowrank), so steady / incremental is the rebind
    payoff independent of the machine's absolute speed.
    """
    def judge(ratio):
        speedup = 1.0 / ratio
        return speedup < min_speedup, "{:.2f}x (floor {:.2f}x)".format(
            speedup, min_speedup)

    return ratio_pair_check(doc, path, "plan_solve_incremental",
                            "plan_solve_steady", "incremental speedup",
                            judge)


def check_simd_speedup(doc, path, min_speedup):
    """Intra-document simd vs blocked gate on the gemm-panel kernels.

    Returns the number of violations.  Both impl rows come from the same
    interleaved run (bench/kernels_regress) through pinned backend tables,
    so the ratio measures the microkernels' payoff independent of the
    machine's absolute speed.  Gated per kernel on the geometric mean over
    all matched single-thread shapes.
    """
    if is_service(doc):
        return gate_missing(
            path, "is a service document (simd speedup needs kernel rows)")

    # The one legitimate skip: the recording machine had no vector unit,
    # so the simd rows ran the scalar fallback and the ratio is
    # meaningless rather than missing.
    if doc.get("simd_isa") == "scalar":
        print(f"bench_check: note: {path} simd rows ran without vector "
              "microkernels (simd_isa=scalar); simd speedup not checked")
        return 0

    gemm_panel_kernels = ("covariance_downdate", "gram")
    blocked = {(r["kernel"], r["m"], r["n"]): r for r in doc["results"]
               if r["impl"] == "blocked" and r["threads"] == 1
               and r["kernel"] in gemm_panel_kernels}
    simd = {(r["kernel"], r["m"], r["n"]): r for r in doc["results"]
            if r["impl"] == "simd" and r["threads"] == 1
            and r["kernel"] in gemm_panel_kernels}
    matched = sorted(blocked.keys() & simd.keys())
    violations = 0
    checked = False
    for kernel in gemm_panel_kernels:
        cfgs = [k for k in matched if k[0] == kernel]
        if not cfgs:
            continue
        checked = True
        log_sum = 0.0
        for cfg in cfgs:
            speedup = blocked[cfg]["seconds"] / simd[cfg]["seconds"]
            log_sum += math.log(speedup)
            print("           simd speedup {} m={} n={} t=1 {:.2f}x"
                  .format(*cfg, speedup))
        geomean = math.exp(log_sum / len(cfgs))
        if geomean < min_speedup:
            violations += 1
            verdict = "REGRESS"
        else:
            verdict = "ok"
        print("  {:8s} simd speedup {} geomean {:.2f}x over {} shape(s) "
              "(floor {:.2f}x)".format(verdict, kernel, geomean, len(cfgs),
                                       min_speedup))
    if not checked:
        violations += gate_missing(
            path, "has no simd/blocked row pair on the gemm-panel kernels")
    return violations


def check_warm_speedup(doc, path, min_speedup):
    """Intra-document warm vs cold throughput gate for service documents.

    Returns the number of violations.  Both rows come from the same
    back-to-back run (bench/service_regress), so the ratio measures the
    plan cache's payoff independent of the machine's absolute speed.
    """
    if not is_service(doc):
        return gate_missing(
            path, "is a kernel document (warm speedup needs service rows)")

    def config(rec):
        return (rec["workload"], rec["tenants"], rec["requests"],
                rec["workers"])

    cold = {config(r): r for r in doc["results"] if r["mode"] == "cold"}
    warm = {config(r): r for r in doc["results"] if r["mode"] == "warm"}
    violations = 0
    checked = 0
    for cfg in sorted(cold.keys() & warm.keys()):
        checked += 1
        speedup = (warm[cfg]["solves_per_sec"] /
                   cold[cfg]["solves_per_sec"])
        tag = "{} tenants={} requests={} workers={}".format(*cfg)
        if speedup < min_speedup:
            violations += 1
            verdict = "REGRESS"
        else:
            verdict = "ok"
        print("  {:8s} warm speedup {} {:.2f}x (floor {:.2f}x)"
              .format(verdict, tag, speedup, min_speedup))
    if not checked:
        violations += gate_missing(path, "has no cold/warm row pair")
    return violations


def check_deadline_overhead(doc, path, max_overhead):
    """Intra-document deadline vs warm throughput gate for service docs.

    Returns the number of violations.  Both rows come from the same
    back-to-back run (bench/service_regress) over identical cached
    traffic — the deadline row merely arms a 30s budget that never
    fires — so warm/deadline - 1 is the cancel-token polling overhead
    independent of the machine's absolute speed.
    """
    if not is_service(doc):
        return gate_missing(
            path,
            "is a kernel document (deadline overhead needs service rows)")

    def config(rec):
        return (rec["workload"], rec["tenants"], rec["requests"],
                rec["workers"])

    warm = {config(r): r for r in doc["results"] if r["mode"] == "warm"}
    deadline = {config(r): r for r in doc["results"]
                if r["mode"] == "deadline"}
    violations = 0
    checked = 0
    for cfg in sorted(warm.keys() & deadline.keys()):
        checked += 1
        overhead = (warm[cfg]["solves_per_sec"] /
                    deadline[cfg]["solves_per_sec"] - 1.0)
        tag = "{} tenants={} requests={} workers={}".format(*cfg)
        if overhead > max_overhead:
            violations += 1
            verdict = "REGRESS"
        else:
            verdict = "ok"
        print("  {:8s} deadline overhead {} {:+.2f}% (limit {:+.2f}%)"
              .format(verdict, tag, 100.0 * overhead, 100.0 * max_overhead))
    if not checked:
        violations += gate_missing(path, "has no warm/deadline row pair")
    return violations


def compare(baseline, current, tolerance):
    """Returns (lines, regression_count) for the matched configurations."""
    service = is_service(baseline)
    base = {key(baseline, r): r for r in baseline["results"]}
    curr = {key(current, r): r for r in current["results"]}
    lines = []
    regressions = 0
    for k in sorted(base.keys() | curr.keys()):
        if service:
            tag = "{}/{} tenants={} requests={} workers={}".format(*k)
        else:
            tag = "{}/{} m={} n={} t={}".format(*k)
        if k not in curr:
            lines.append(f"  MISSING  {tag} (in baseline only)")
            continue
        if k not in base:
            lines.append(f"  NEW      {tag} (no baseline)")
            continue
        if service:
            # Throughput: higher is better; degradation ratio mirrors the
            # kernel seconds ratio so one tolerance band covers both.
            b = base[k]["solves_per_sec"]
            c = curr[k]["solves_per_sec"]
            ratio = b / c if c > 0 else float("inf")
            detail = "{:.1f}/s -> {:.1f}/s".format(b, c)
        else:
            b, c = base[k]["seconds"], curr[k]["seconds"]
            ratio = c / b
            detail = "{:.3e}s -> {:.3e}s".format(b, c)
        if ratio > 1.0 + tolerance:
            regressions += 1
            verdict = "REGRESS"
        elif ratio < 1.0 - tolerance:
            verdict = "faster"
        else:
            verdict = "ok"
        lines.append(
            "  {:8s} {} {} ({:+.1f}%)".format(
                verdict, tag, detail, 100.0 * (ratio - 1.0)
            )
        )
    return lines, regressions


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--validate", metavar="JSON",
                    help="validate a single document and exit")
    ap.add_argument("--baseline", metavar="JSON",
                    help="committed baseline document")
    ap.add_argument("--current", metavar="JSON",
                    help="freshly produced document to compare")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed degradation fraction (default 0.25)")
    ap.add_argument("--report-only", action="store_true",
                    help="print the comparison but always exit 0")
    ap.add_argument("--max-robustness-overhead", metavar="FRACTION",
                    type=float, nargs="?", const=0.02, default=None,
                    help="fail if plan_solve_policy exceeds plan_solve_steady "
                         "by more than FRACTION within a kernel document "
                         "(default 0.02 when the flag is given); "
                         "not silenced by --report-only")
    ap.add_argument("--min-warm-speedup", metavar="FACTOR",
                    type=float, nargs="?", const=5.0, default=None,
                    help="fail if warm solves/sec is below FACTOR times cold "
                         "solves/sec within a service document "
                         "(default 5.0 when the flag is given); "
                         "not silenced by --report-only")
    ap.add_argument("--max-deadline-overhead", metavar="FRACTION",
                    type=float, nargs="?", const=0.02, default=None,
                    help="fail if deadline solves/sec falls below warm "
                         "solves/sec by more than FRACTION within a service "
                         "document (default 0.02 when the flag is given); "
                         "not silenced by --report-only")
    ap.add_argument("--min-simd-speedup", metavar="FACTOR",
                    type=float, nargs="?", const=1.5, default=None,
                    help="fail if the geometric mean of blocked/simd seconds "
                         "over the single-thread gemm-panel shapes is below "
                         "FACTOR within a kernel document (default 1.5 when "
                         "the flag is given); not silenced by --report-only")
    ap.add_argument("--min-incremental-speedup", metavar="FACTOR",
                    type=float, nargs="?", const=3.0, default=None,
                    help="fail if plan_solve_incremental is not at least "
                         "FACTOR times faster than plan_solve_steady within "
                         "a kernel document (default 3.0 when the flag is "
                         "given); not silenced by --report-only")
    ap.add_argument("--max-refine-overhead", metavar="FRACTION",
                    type=float, nargs="?", const=0.02, default=None,
                    help="fail if plan_solve_refine exceeds plan_solve_steady "
                         "by more than FRACTION within a kernel document "
                         "(default 0.02 when the flag is given); "
                         "not silenced by --report-only")
    args = ap.parse_args()

    if args.max_robustness_overhead is not None \
            and args.max_robustness_overhead < 0:
        ap.error("--max-robustness-overhead must be >= 0")
    if args.min_warm_speedup is not None and args.min_warm_speedup < 1:
        ap.error("--min-warm-speedup must be >= 1")
    if args.max_deadline_overhead is not None \
            and args.max_deadline_overhead < 0:
        ap.error("--max-deadline-overhead must be >= 0")
    if args.min_incremental_speedup is not None \
            and args.min_incremental_speedup < 1:
        ap.error("--min-incremental-speedup must be >= 1")
    if args.max_refine_overhead is not None and args.max_refine_overhead < 0:
        ap.error("--max-refine-overhead must be >= 0")
    if args.min_simd_speedup is not None and args.min_simd_speedup < 1:
        ap.error("--min-simd-speedup must be >= 1")

    if args.validate:
        doc = load(args.validate)
        print(f"bench_check: {args.validate}: valid {doc['schema']}")
        bad = 0
        if args.max_robustness_overhead is not None:
            bad += check_robustness_overhead(doc, args.validate,
                                             args.max_robustness_overhead)
        if args.min_warm_speedup is not None:
            bad += check_warm_speedup(doc, args.validate,
                                      args.min_warm_speedup)
        if args.max_deadline_overhead is not None:
            bad += check_deadline_overhead(doc, args.validate,
                                           args.max_deadline_overhead)
        if args.min_incremental_speedup is not None:
            bad += check_incremental_speedup(doc, args.validate,
                                             args.min_incremental_speedup)
        if args.max_refine_overhead is not None:
            bad += check_refine_overhead(doc, args.validate,
                                         args.max_refine_overhead)
        if args.min_simd_speedup is not None:
            bad += check_simd_speedup(doc, args.validate,
                                      args.min_simd_speedup)
        if bad:
            print(f"bench_check: {bad} intra-document violation(s)")
            return 1
        return 0

    if not args.baseline or not args.current:
        ap.error("need --validate, or both --baseline and --current")
    if args.tolerance < 0:
        ap.error("--tolerance must be >= 0")

    baseline = load(args.baseline)
    current = load(args.current)
    if baseline["schema"] != current["schema"]:
        fail(f"cannot compare {baseline['schema']} against "
             f"{current['schema']}")
    if baseline["bench_scale"] != current["bench_scale"]:
        print(
            "bench_check: note: bench_scale differs "
            f"({baseline['bench_scale']} vs {current['bench_scale']}); "
            "timings are not directly comparable"
        )

    lines, regressions = compare(baseline, current, args.tolerance)
    print(f"bench_check: {args.baseline} vs {args.current} "
          f"(tolerance {args.tolerance:.0%}):")
    for line in lines:
        print(line)

    intra_violations = 0
    if args.max_robustness_overhead is not None:
        intra_violations += check_robustness_overhead(
            current, args.current, args.max_robustness_overhead)
    if args.min_warm_speedup is not None:
        intra_violations += check_warm_speedup(
            current, args.current, args.min_warm_speedup)
    if args.max_deadline_overhead is not None:
        intra_violations += check_deadline_overhead(
            current, args.current, args.max_deadline_overhead)
    if args.min_incremental_speedup is not None:
        intra_violations += check_incremental_speedup(
            current, args.current, args.min_incremental_speedup)
    if args.max_refine_overhead is not None:
        intra_violations += check_refine_overhead(
            current, args.current, args.max_refine_overhead)
    if args.min_simd_speedup is not None:
        intra_violations += check_simd_speedup(
            current, args.current, args.min_simd_speedup)
    if intra_violations:
        print(f"bench_check: {intra_violations} intra-document violation(s)")

    if regressions:
        print(f"bench_check: {regressions} configuration(s) regressed")
        if not args.report_only:
            return 1
    else:
        print("bench_check: no regressions")
    # Intra-document: both rows come from the same run, so --report-only's
    # cross-machine rationale does not apply.
    return 1 if intra_violations else 0


if __name__ == "__main__":
    sys.exit(main())
