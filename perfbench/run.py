#!/usr/bin/env python3
"""Benchmark entry point: builds the runner, runs workloads, prints metrics.

    python3 perfbench/run.py --workload helix-serve --seed 1 --seconds 25 \
        --trace 0

Run from the root of a checkout.  The runner is built from source with
CMake into $CARGO_TARGET_DIR (default .bench_build) on first use.  Each
workload runs in its own process.  --trace 0 prints the end-to-end
metrics; --trace 1 runs the workload twice, untraced and then traced, and
prints the per-layer metrics of the traced run with each layer's self time
and the tracing overhead.  --workload all runs every workload in turn.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when
every correctness check passed.  When the build fails, or a workload
process fails, overruns its time or leaves a record no metric can be
computed from, the result says correct: false (the run counts as one
failed attempt, with no metrics) and the exit code is 1.
Only when the library sources are missing is there no result: exit 2.
See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402

WORKLOADS = ("ribo-solve", "helix-serve", "helix-rebind")
# Limits on one invocation: the first one builds, and the runs of each
# workload after it must finish within RUN_BUDGET_S.
BUILD_TIMEOUT_S = 850
RUN_BUDGET_S = 170
BUILD_JOBS = "3"


class SourcesMissing(Exception):
    """The checkout holds no library sources to build: nothing to run."""


class RunFailed(Exception):
    """The build or a workload process failed or overran its time."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures and builds the runner; returns its path.  Configuring
    every time is cheap once cached, and CMake refuses a build directory
    configured from another checkout instead of building that one."""
    source = root / "perfbench"
    if not (root / "src" / "CMakeLists.txt").is_file():
        raise SourcesMissing(
            f"library sources not found under {root / 'src'}")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = [["cmake", "-S", str(source), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(build_dir), "--target",
              "perfbench_runner", "-j", BUILD_JOBS]]
    for cmd in steps:
        try:
            subprocess.run(cmd, check=True, stdout=sys.stderr,
                           timeout=max(1.0, deadline - time.monotonic()))
        except (OSError, subprocess.SubprocessError) as e:
            raise RunFailed(f"build failed: {e}") from e
    return build_dir / "perfbench_runner"


def output_paths(out_dir, workload, seed, traced):
    """(raw record, Chrome trace) paths of one workload process."""
    tag = f"{workload}-seed{seed}-{'traced' if traced else 'untraced'}"
    return out_dir / f"{tag}.record.json", out_dir / f"{tag}.trace.json"


def run_runner(runner, out_dir, workload, seed, seconds, traced, deadline):
    """Runs one workload process; returns (record, trace spans or None)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    record_path, trace_path = output_paths(out_dir, workload, seed, traced)
    cmd = [str(runner), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--record", str(record_path)]
    if traced:
        cmd += ["--trace", str(trace_path)]
    try:
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=max(1.0, deadline - time.monotonic()))
        record = json.loads(record_path.read_text())
        record_path.unlink()
        spans = None
        if traced:
            spans = metrics.spans_from_chrome(
                json.loads(trace_path.read_text()))
    except (OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        raise RunFailed(f"{workload} run failed: {e}") from e
    return record, spans


def fmt(value):
    return f"{value:.6g}"


def report(title, rows):
    print(title)
    for name, row in rows.items():
        value, unit = row[0], row[1]
        note = f"  ({row[2]})" if len(row) > 2 and row[2] else ""
        print(f"  {name:34s} {fmt(value):>12s} {unit}{note}")


def run_workload(runner, out_dir, workload, seed, seconds, trace, deadline):
    """Runs one workload and prints its report; returns the result object."""
    untraced, _ = run_runner(runner, out_dir, workload, seed, seconds, False,
                             deadline)
    e2e = metrics.end_to_end(untraced)
    checks = [("untraced: " + name, ok, detail)
              for name, ok, detail in metrics.correctness(untraced)]
    rec = untraced
    print(f"== {workload}  seed {seed}  seconds {seconds}  trace {trace}")
    report("end-to-end (untraced run)", e2e)
    report("workload-specific, not gated", metrics.informational(untraced))
    report("host noise", metrics.host_noise(untraced))
    result_metrics = {k: {"value": v[0], "unit": v[1]} for k, v in e2e.items()}

    if trace:
        traced, spans = run_runner(runner, out_dir, workload, seed, seconds,
                                   True, deadline)
        checks += [("traced: " + name, ok, detail)
                   for name, ok, detail in metrics.correctness(traced)]
        layers = metrics.per_layer(traced)
        layers.update(metrics.trace_metrics(
            spans, metrics.end_to_end(traced), e2e, traced))
        report("per layer (traced run)", layers)
        print(f"  trace: {output_paths(out_dir, workload, seed, True)[1]}")
        result_metrics = {k: {"value": v[0], "unit": v[1]}
                          for k, v in layers.items()}
        rec = traced

    print("checks")
    for name, ok, detail in checks:
        print(f"  {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    return {
        "correct": all(ok for _, ok, _ in checks),
        "attempted": rec["attempted"],
        "failed": rec["failed"] + rec["rejected"] + rec["expired"],
        "metrics": result_metrics,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be within 1..60")

    root = Path(__file__).resolve().parent.parent
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    try:
        runner = build(root, build_dir)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        deadline = time.monotonic() + RUN_BUDGET_S * len(names)
        results = {}
        for w in names:
            try:
                results[w] = run_workload(runner, build_dir / "runs", w,
                                          args.seed, args.seconds, args.trace,
                                          deadline)
            except (ValueError, KeyError, TypeError) as e:
                # A record the metrics cannot be computed from (too few
                # samples, a non-finite value written as null).
                raise RunFailed(f"{w}: no metrics from its record: "
                                f"{type(e).__name__}: {e}") from e
    except SourcesMissing as e:
        log(f"perfbench: {e}")
        return 2
    except RunFailed as e:
        log(f"perfbench: {e}")
        print("checks")
        print(f"  FAIL {e}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}), flush=True)
        return 1

    if len(results) == 1:
        out = next(iter(results.values()))
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(out), flush=True)
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
