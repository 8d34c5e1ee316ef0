"""Fixture tests of scripts/bench_check.py: every gate's verdict, the
baseline comparison and the exit codes CI relies on.

    python3 -m unittest discover -s scripts/tests

Each fixture is a copy of a committed baseline (BENCH_kernels.json or
BENCH_service.json) with one row edited, or with a gate's rows removed,
written to a temporary directory.  The gate bounds are restated here on
purpose: a change to a bound must change a test too.
"""

import json
import math
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SCRIPT = ROOT / "scripts" / "bench_check.py"
KERNELS = ROOT / "BENCH_kernels.json"
SERVICE = ROOT / "BENCH_service.json"

KEY_FIELDS = {
    "phmse-kernel-bench-v1": ("kernel", "impl", "m", "n", "threads"),
    "phmse-service-bench-v1": ("workload", "mode", "tenants", "requests",
                               "workers"),
}

# name: (baseline, varied key field, numerator, denominator, bound on the
# numerator/denominator cost ratio, rows of the group a fixture edits).
# simd scores one geometric mean per gemm-panel kernel over its
# single-thread shapes; every other gate scores each row pair alone.
GATES = {
    "robustness": (KERNELS, "kernel", "plan_solve_policy",
                   "plan_solve_steady", 1.02, {}),
    "refine": (KERNELS, "kernel", "plan_solve_refine", "plan_solve_steady",
               1.02, {}),
    "incremental": (KERNELS, "kernel", "plan_solve_incremental",
                    "plan_solve_steady", 1 / 3, {}),
    "simd": (KERNELS, "impl", "simd", "blocked", 1 / 1.5,
             {"threads": 1, "kernel": "covariance_downdate"}),
    "warm": (SERVICE, "mode", "warm", "cold", 1 / 5, {}),
    "deadline": (SERVICE, "mode", "deadline", "warm", 1.02, {}),
}
OTHER_SCHEMA = {KERNELS: SERVICE, SERVICE: KERNELS}


def run_check(*args, gates=()):
    """Every invocation of the script goes through here.

    Returns (exit code, stdout + stderr).
    """
    cmd = [sys.executable, str(SCRIPT), *args]
    for name in gates:
        cmd += ["--gate", name]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    return proc.returncode, proc.stdout + proc.stderr


def cost(rec):
    """Seconds for kernel rows, seconds per solve for service rows."""
    if "solves_per_sec" in rec:
        return 1.0 / rec["solves_per_sec"]
    return rec["seconds"]


def set_cost(rec, value):
    if "solves_per_sec" in rec:
        rec["solves_per_sec"] = 1.0 / value
    else:
        rec["seconds"] = value


def gate_group(doc, name):
    """The (numerator, denominator) row pairs one verdict of the gate
    covers; the first such group for gates that score pairs alone."""
    _, varies, numer, denom, _, where = GATES[name]
    fields = [f for f in KEY_FIELDS[doc["schema"]] if f != varies]

    def rest(rec):
        return tuple(rec[f] for f in fields)

    rows = [r for r in doc["results"]
            if all(r[f] == v for f, v in where.items())]
    denoms = {rest(r): r for r in rows if r[varies] == denom}
    pairs = [(r, denoms[rest(r)]) for r in rows
             if r[varies] == numer and rest(r) in denoms]
    return pairs if where else pairs[:1]


def scale_gate(doc, name, factor):
    """Edits one numerator row so the gate's group has a geometric-mean
    cost ratio of factor x the bound."""
    group = gate_group(doc, name)
    (numer, denom), rest = group[0], group[1:]
    others = sum(math.log(cost(n) / cost(d)) for n, d in rest)
    log_ratio = len(group) * math.log(GATES[name][4] * factor) - others
    set_cost(numer, cost(denom) * math.exp(log_ratio))
    return doc


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


class BenchCheck(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.tmp = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, doc, stem):
        path = self.tmp / f"{stem}.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        return str(path)

    def fixture(self, name, factor):
        doc = scale_gate(load(GATES[name][0]), name, factor)
        return self.write(doc, f"{name}-{factor}")

    def test_each_gate_passes_on_its_baseline(self):
        for name, spec in GATES.items():
            with self.subTest(gate=name):
                code, out = run_check("--validate", str(spec[0]),
                                      gates=[name])
                self.assertEqual(code, 0, out)

    def test_ratio_just_inside_the_bound_passes(self):
        for name in GATES:
            with self.subTest(gate=name):
                code, out = run_check("--validate",
                                      self.fixture(name, 0.999),
                                      gates=[name])
                self.assertEqual(code, 0, out)

    def test_ratio_just_past_the_bound_fails(self):
        for name in GATES:
            with self.subTest(gate=name):
                code, out = run_check("--validate",
                                      self.fixture(name, 1.001),
                                      gates=[name])
                self.assertEqual(code, 1, out)

    def test_gate_without_its_rows_fails(self):
        # A renamed or dropped bench row must not silently retire a gate.
        for name, (baseline, varies, numer, *_) in GATES.items():
            with self.subTest(gate=name):
                doc = load(baseline)
                doc["results"] = [r for r in doc["results"]
                                  if r[varies] != numer]
                code, out = run_check("--validate",
                                      self.write(doc, f"{name}-removed"),
                                      gates=[name])
                self.assertEqual(code, 1, out)

    def test_gate_on_the_other_schema_fails(self):
        for name, spec in GATES.items():
            with self.subTest(gate=name):
                code, out = run_check("--validate",
                                      str(OTHER_SCHEMA[spec[0]]),
                                      gates=[name])
                self.assertEqual(code, 1, out)

    def test_simd_skips_with_a_note_on_a_scalar_host(self):
        doc = scale_gate(load(KERNELS), "simd", 1.001)
        doc["simd_isa"] = "scalar"
        code, out = run_check("--validate", self.write(doc, "scalar"),
                              gates=["simd"])
        self.assertEqual(code, 0, out)
        self.assertIn("note:", out)
        self.assertIn("simd_isa=scalar", out)

    def test_malformed_document_is_invalid_input(self):
        doc = load(KERNELS)
        del doc["results"][0]["seconds"]
        for stem, body in (("no-seconds", doc), ("not-json", "{")):
            for gates in ((), ("simd",)):
                with self.subTest(fixture=stem, gates=gates):
                    code, out = run_check("--validate",
                                          self.write(body, stem),
                                          gates=gates)
                    self.assertEqual(code, 2, out)

    def test_baseline_comparison(self):
        for baseline in (KERNELS, SERVICE):
            doc = load(baseline)
            set_cost(doc["results"][-1], 1.3 * cost(doc["results"][-1]))
            current = self.write(doc, "slower")
            with self.subTest(baseline=baseline.name):
                code, out = run_check("--baseline", str(baseline),
                                      "--current", current)
                self.assertEqual(code, 1, out)
                code, out = run_check("--baseline", str(baseline),
                                      "--current", current, "--report-only")
                self.assertEqual(code, 0, out)

    def test_failing_gate_fails_under_report_only(self):
        for name, spec in GATES.items():
            with self.subTest(gate=name):
                code, out = run_check("--baseline", str(spec[0]),
                                      "--current", self.fixture(name, 1.001),
                                      "--report-only", gates=[name])
                self.assertEqual(code, 1, out)


if __name__ == "__main__":
    unittest.main()
