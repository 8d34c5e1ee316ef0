#!/usr/bin/env python3
"""Validate, gate and compare phmse bench JSON documents.

Two document schemas are understood, distinguished by their "schema" key:

  phmse-kernel-bench-v1   — bench/kernels_regress and bench/solve_regress
                            (per-kernel best-rep timings, DESIGN.md §7);
  phmse-service-bench-v1  — bench/service_regress (multi-tenant solve
                            service throughput and latency, DESIGN.md §10).

Validate a document (schema + internal consistency) and check gates on it:
      scripts/bench_check.py --validate BENCH_kernels.json --gate simd
      scripts/bench_check.py --validate BENCH_service.json \
          --gate warm --gate deadline

Compare a fresh run against the committed baseline:
      scripts/bench_check.py --baseline BENCH_kernels.json \
          --current build/BENCH_kernels.json [--report-only] [--gate NAME]

Kernel records are matched by (kernel, impl, m, n, threads) and compared
on best-rep seconds (lower is better); service records are matched by
(workload, mode, tenants, requests, workers) and compared on solves/sec
(higher is better).  A configuration regresses when it degrades beyond
TOLERANCE (25% — wide because the harness runs on shared machines).
Matched configs that improved, and configs present on only one side, are
reported but never fail the check.  --report-only prints the comparison
but exits 0 on regressions (used by the CI smoke job, whose tiny shapes
are not comparable to the committed full-scale baseline).

--gate NAME (repeatable) checks one GATES row on the validated document,
or on --current: a ratio of two rows of one document, recorded by one
interleaved run on one machine, so it is meaningful at any scale and
--report-only does not silence it.  Naming a gate asserts its rows exist:
no matching row pair, or a document of the other schema, FAILS the check
— a renamed or dropped bench row must not silently retire a gate.

Exit status: 0 ok / report-only, 1 regression or gate violation, 2 invalid
input.
"""

import argparse
import json
import math
import sys
from collections import namedtuple

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
    # plan/execute split (Engine::compile vs steady-state plan.solve()),
    # then the steady solve under the heaviest degradation policy, through
    # a single_pass refine::Refiner, and as a single-constraint rebind
    # (the robustness, refine and incremental GATES below).
    "plan_compile",
    "plan_solve_steady",
    "plan_solve_policy",
    "plan_solve_refine",
    "plan_solve_incremental",
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

# The fields that identify a configuration; a document holds one row each.
KEY_FIELDS = {
    KERNEL_SCHEMA: ("kernel", "impl", "m", "n", "threads"),
    SERVICE_SCHEMA: ("workload", "mode", "tenants", "requests", "workers"),
}
TOLERANCE = 0.25

Gate = namedtuple("Gate", "schema varies numer denom bound where group skip",
                  defaults=({}, None, None))
# A gate's numerator rows (key field `varies` == numer) must cost at most
# `bound` x the denominator row (`varies` == denom) matching them on every
# other key field, among the rows whose fields take a value `where` lists.
# Pairs sharing a `group` value are judged on their geometric-mean ratio,
# so one outlier shape can neither hide a regression nor fake one; without
# a group each pair is judged alone.  A document whose header matches the
# (field, value) `skip` is skipped with a note.
GATES = {
    # DESIGN.md §9: the heaviest degradation policy on clean data (the
    # always-on validation/report path) costs < 2%.
    "robustness": Gate(KERNEL_SCHEMA, "kernel", "plan_solve_policy",
                       "plan_solve_steady", 1.02),
    # §14: a single_pass refine::Refiner's convergence monitoring < 2%.
    "refine": Gate(KERNEL_SCHEMA, "kernel", "plan_solve_refine",
                   "plan_solve_steady", 1.02),
    # §11: a single-constraint rebind through the low-rank root shift is
    # >= 3x faster than a full solve.
    "incremental": Gate(KERNEL_SCHEMA, "kernel", "plan_solve_incremental",
                        "plan_solve_steady", 1 / 3),
    # §12: the explicit vector microkernels pay >= 1.5x over the blocked
    # backend on the gemm-panel kernels; meaningless when the recording
    # machine had no vector unit and the simd rows ran the scalar fallback.
    "simd": Gate(KERNEL_SCHEMA, "impl", "simd", "blocked", 1 / 1.5,
                 where={"threads": (1,),
                        "kernel": ("covariance_downdate", "gram")},
                 group="kernel", skip=("simd_isa", "scalar")),
    # §10: the plan cache pays for itself, >= 5x warm over cold throughput.
    "warm": Gate(SERVICE_SCHEMA, "mode", "warm", "cold", 1 / 5),
    # §13: a never-firing deadline on every request (the cancel token armed
    # and polled at batch/node boundaries) costs < 2% of warm throughput.
    "deadline": Gate(SERVICE_SCHEMA, "mode", "deadline", "warm", 1.02),
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
    return tuple(rec[f] for f in KEY_FIELDS[doc["schema"]])


def cost(doc, rec):
    """What one row costs, lower is better: seconds, or seconds per solve."""
    return 1.0 / rec["solves_per_sec"] if is_service(doc) else rec["seconds"]


def describe(ratio, bound):
    """A cost ratio the way its gate's bound reads: an overhead where the
    bound allows a slowdown, a speedup where it demands one."""
    if bound >= 1.0:
        return f"{100.0 * (ratio - 1.0):+.2f}%"
    return f"{1.0 / ratio:.2f}x"


def check_gate(doc, path, name):
    """Checks GATES[name] on `doc`; returns the number of violations."""
    gate = GATES[name]
    rows = doc["results"] if doc["schema"] == gate.schema else []
    if rows and gate.skip and doc.get(gate.skip[0]) == gate.skip[1]:
        print(f"bench_check: note: {path} was recorded with "
              f"{gate.skip[0]}={gate.skip[1]}; {name} gate not checked")
        return 0
    fields = [f for f in KEY_FIELDS[gate.schema] if f != gate.varies]
    rows = [r for r in rows
            if all(r[f] in values for f, values in gate.where.items())]
    denom = {tuple(r[f] for f in fields): r for r in rows
             if r[gate.varies] == gate.denom}
    groups = {}
    for rec in rows:
        config = tuple(rec[f] for f in fields)
        if rec[gate.varies] != gate.numer or config not in denom:
            continue
        tag = " ".join(f"{f}={v}" for f, v in zip(fields, config))
        group = f"{gate.group}={rec[gate.group]}" if gate.group else tag
        groups.setdefault(group, []).append(
            (tag, cost(doc, rec) / cost(doc, denom[config])))
    if not groups:
        # Passing here would let a renamed or dropped bench row retire a CI
        # gate unnoticed: naming the gate asserted that its rows exist.
        print(f"bench_check: GATE FAILED: {path} ({doc['schema']}) has no "
              f"{gate.numer}/{gate.denom} row pair; --gate {name} asserts "
              "those rows exist (drop it from the call if intentional)")
        return 1

    violations = 0
    for group, pairs in sorted(groups.items()):
        ratio = math.prod(r for _, r in pairs) ** (1.0 / len(pairs))
        if gate.group:
            for tag, r in pairs:
                print(f"           {name} {tag} {describe(r, gate.bound)}")
            group += f" (geomean of {len(pairs)} pairs)"
        violations += ratio > gate.bound
        print("  {:8s} {} {} {} (bound {})".format(
            "REGRESS" if ratio > gate.bound else "ok", name, group,
            describe(ratio, gate.bound), describe(gate.bound, gate.bound)))
    return violations


def compare(baseline, current):
    """Prints every configuration's verdict; returns the regression count."""
    fields = KEY_FIELDS[baseline["schema"]]
    value = "solves_per_sec" if is_service(baseline) else "seconds"
    base = {key(baseline, r): r for r in baseline["results"]}
    curr = {key(current, r): r for r in current["results"]}
    regressions = 0
    for k in sorted(base.keys() | curr.keys()):
        tag = "{}/{} ".format(*k) + " ".join(
            f"{f}={v}" for f, v in zip(fields[2:], k[2:]))
        if k not in curr:
            print(f"  MISSING  {tag} (in baseline only)")
            continue
        if k not in base:
            print(f"  NEW      {tag} (no baseline)")
            continue
        # Compared on cost, so one tolerance band covers seconds (lower is
        # better) and solves/sec (higher is better).
        ratio = cost(current, curr[k]) / cost(baseline, base[k])
        verdict = "ok"
        if ratio > 1.0 + TOLERANCE:
            regressions += 1
            verdict = "REGRESS"
        elif ratio < 1.0 - TOLERANCE:
            verdict = "faster"
        print(f"  {verdict:8s} {tag} {value} {base[k][value]:.4g} -> "
              f"{curr[k][value]:.4g} ({100.0 * (ratio - 1.0):+.1f}%)")
    return regressions


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--validate", metavar="JSON",
                    help="validate a single document")
    ap.add_argument("--baseline", metavar="JSON",
                    help="committed baseline document")
    ap.add_argument("--current", metavar="JSON",
                    help="freshly produced document to compare")
    ap.add_argument("--report-only", action="store_true",
                    help="print the comparison but exit 0 on regressions")
    ap.add_argument("--gate", metavar="NAME", action="append", default=[],
                    choices=list(GATES),
                    help="check a GATES row on the validated or current "
                         "document (repeatable): " + ", ".join(GATES))
    args = ap.parse_args()

    regressions = 0
    if args.validate:
        path, doc = args.validate, load(args.validate)
        print(f"bench_check: {path}: valid {doc['schema']}")
    elif args.baseline and args.current:
        baseline = load(args.baseline)
        path, doc = args.current, load(args.current)
        if baseline["schema"] != doc["schema"]:
            fail(f"cannot compare {baseline['schema']} against "
                 f"{doc['schema']}")
        if baseline["bench_scale"] != doc["bench_scale"]:
            print("bench_check: note: bench_scale differs "
                  f"({baseline['bench_scale']} vs {doc['bench_scale']}); "
                  "timings are not directly comparable")
        print(f"bench_check: {args.baseline} vs {path} "
              f"(tolerance {TOLERANCE:.0%}):")
        regressions = compare(baseline, doc)
        print(f"bench_check: {regressions} configuration(s) regressed"
              if regressions else "bench_check: no regressions")
        if args.report_only:
            regressions = 0
    else:
        ap.error("need --validate, or both --baseline and --current")

    # Gates compare rows of one run, so --report-only's cross-machine
    # rationale does not apply to them.
    violations = sum(check_gate(doc, path, name) for name in args.gate)
    if violations:
        print(f"bench_check: {violations} intra-document violation(s)")
    return 1 if regressions or violations else 0


if __name__ == "__main__":
    sys.exit(main())
