// Solver-level perf-regression harness for the engine facade.
//
// Times the two halves of the plan/execute split on the paper's 8-bp helix
// workload: Engine::compile (decompose + assign + schedule + workspace
// sizing) and the steady-state plan.solve() (all buffers warm; the serial
// path allocates nothing).  The rows land in the same
// phmse-kernel-bench-v1 JSON schema as the dense-kernel harness so
// scripts/bench_check.py can track both against the committed
// BENCH_kernels.json baseline, and check the robustness, refine and
// incremental gates on them (--gate NAME):
//
//   ./build/bench/solve_regress              # writes BENCH_solver.json
//   ./build/bench/solve_regress out.json    # explicit output path
//
// Honours PHMSE_BENCH_SCALE (< 0.5 switches to a 2-bp smoke helix) and
// PHMSE_BENCH_SEED.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "refine/refiner.hpp"
#include "support/stopwatch.hpp"

namespace phmse::bench {
namespace {

// An interleaved estimate of how much slower `variant` runs than `steady`.
// Each round runs both orders (steady-variant-variant-steady) so slot
// effects — clock ramps, cache state left by the previous call — cancel
// inside the round, keeping the per-round ratio unimodal, and a co-tenant
// stealing the machine perturbs both the same way.  Two estimators of the
// true variant/steady ratio:
//  - blocked median: split the run into four time blocks, take each
//    block's median ratio, keep the smallest.  A co-tenant burst skews the
//    blocks it overlaps; any quiet window in the run leaves one block's
//    median clean;
//  - ratio of per-side minima: each minimum approximates that side's
//    unloaded speed (same convention as time_best).
// Both converge to the same value on a quiet machine; under load either
// can be pushed high by noise, so the smaller of the two is the better
// estimate of the unloaded ratio — the quantity the robustness and refine
// gates are about.
struct Interleaved {
  double best_steady = 1e300;  // fastest steady call of any round
  double ratio = 1.0;          // min(block-median, min-ratio)
};

template <class Steady, class Variant>
Interleaved time_interleaved(int rounds, const Steady& steady,
                             const Variant& variant) {
  const auto timed = [](const auto& fn) {
    Stopwatch s;
    fn();
    return s.seconds();
  };
  Interleaved out;
  double best_variant = 1e300;
  std::vector<double> ratios;
  ratios.reserve(static_cast<std::size_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    const double s1 = timed(steady);
    const double v1 = timed(variant);
    const double v2 = timed(variant);
    const double s2 = timed(steady);
    out.best_steady = std::min({out.best_steady, s1, s2});
    best_variant = std::min({best_variant, v1, v2});
    ratios.push_back((v1 + v2) / (s1 + s2));
  }
  const int blocks = 4;
  const int block_len = rounds / blocks;
  double median_ratio = 1e300;
  for (int b = 0; b < blocks; ++b) {
    const auto begin = ratios.begin() + b * block_len;
    std::nth_element(begin, begin + block_len / 2, begin + block_len);
    median_ratio = std::min(median_ratio, begin[block_len / 2]);
  }
  const double min_ratio = best_variant / out.best_steady;
  std::printf("  [estimators] block-median %+5.2f%%  min-ratio %+5.2f%%\n",
              100.0 * (median_ratio - 1.0), 100.0 * (min_ratio - 1.0));
  out.ratio = std::min(median_ratio, min_ratio);
  return out;
}

int run_all(const std::string& out_path) {
  print_header("solve_regress",
               "plan compile vs steady-state solve (engine facade)");

  const bool smoke = bench_scale() < 0.5;
  const Index length = smoke ? 2 : 8;
  const HelixProblem p = make_helix_problem(length);
  const Index n = 3 * p.model.num_atoms();
  const Index m = p.constraints.size();
  std::printf("problem: Helix %lld bp (%lld state dims, %lld constraints)\n",
              static_cast<long long>(length), static_cast<long long>(n),
              static_cast<long long>(m));

  std::vector<KernelBenchRecord> records;

  {
    KernelBenchRecord rec;
    rec.kernel = "plan_compile";
    rec.impl = "engine";
    rec.m = m;
    rec.n = n;
    rec.threads = 1;
    rec.seconds =
        time_best([&] { engine::Plan plan = make_helix_plan(p, 1); }, 3,
                  &rec.reps);
    std::printf("  %-18s %9.3f ms\n", "plan_compile", rec.seconds * 1e3);
    records.push_back(rec);
  }

  {
    engine::Plan plan = make_helix_plan(p, 1);
    plan.solve(p.initial);  // warm-up solve: every buffer allocates here

    // The same steady-state solve under the heaviest degradation policy
    // (regularized retry + chi-squared gating).  On clean data the only
    // extra work is validation, the whitened-chi^2 dot product and the
    // report bookkeeping, so plan_solve_policy / plan_solve_steady is the
    // robustness overhead that scripts/bench_check.py --gate robustness
    // checks.  The policy row is stored as best_steady * ratio so the JSON
    // keeps the schema (absolute seconds) while the gated quantity stays a
    // same-round comparison.
    core::HierSolveOptions popts;
    popts.policy = est::SolvePolicy::gate_outliers();
    engine::Plan policy_plan = make_helix_plan(p, 1, popts);
    policy_plan.solve(p.initial);  // warm-up

    const int rounds = smoke ? 96 : 64;
    const auto steady = [&] { plan.solve(p.initial); };
    const Interleaved policy = time_interleaved(
        rounds, steady, [&] { policy_plan.solve(p.initial); });

    KernelBenchRecord rec;
    rec.kernel = "plan_solve_steady";
    rec.impl = "engine";
    rec.m = m;
    rec.n = n;
    rec.threads = 1;
    rec.reps = rounds;
    rec.seconds = policy.best_steady;
    std::printf("  %-18s %9.3f ms\n", "plan_solve_steady",
                rec.seconds * 1e3);
    records.push_back(rec);

    KernelBenchRecord prec;
    prec.kernel = "plan_solve_policy";
    prec.impl = "engine";
    prec.m = m;
    prec.n = n;
    prec.threads = 1;
    prec.reps = rounds;
    prec.seconds = policy.best_steady * policy.ratio;
    std::printf("  %-18s %9.3f ms  (overhead %+5.2f%%)\n",
                "plan_solve_policy", prec.seconds * 1e3,
                100.0 * (prec.seconds / rec.seconds - 1.0));
    records.push_back(prec);

    // The same steady solve routed through a single_pass refine::Refiner
    // (DESIGN.md §14).  The controller's only additions are token arming
    // and two controller-side residual sweeps over the constraints, so
    // plan_solve_refine / plan_solve_steady is the refinement monitoring
    // overhead that --gate refine checks, estimated like the policy row and
    // scaled by the same best steady time.
    refine::Refiner refiner(plan, refine::RefineOptions{});
    refiner.refine(p.initial);  // warm-up: trajectory capacity allocates
    const Interleaved refined = time_interleaved(
        rounds, steady, [&] { refiner.refine(p.initial); });
    KernelBenchRecord rrec;
    rrec.kernel = "plan_solve_refine";
    rrec.impl = "engine";
    rrec.m = m;
    rrec.n = n;
    rrec.threads = 1;
    rrec.reps = rounds;
    rrec.seconds = policy.best_steady * refined.ratio;
    std::printf("  %-18s %9.3f ms  (overhead %+5.2f%%)\n",
                "plan_solve_refine", rrec.seconds * 1e3,
                100.0 * (rrec.seconds / rec.seconds - 1.0));
    records.push_back(rrec);
  }

  {
    // Incremental single-constraint rebind (DESIGN.md §11).  Three paths
    // over the same nudge, interleaved per round so machine noise hits all
    // of them the same way; every timed region includes set_observations —
    // the diff marking is part of each path's cost:
    //  - full: set_observations + solve() re-runs the whole tree;
    //  - exact replay: solve_incremental re-executes the dirty leaf's root
    //    path and replays every sibling (bitwise-identical; reported
    //    informationally — the root path's constraint re-application caps
    //    it near 1.6x on this tree shape);
    //  - fast path: solve_lowrank shifts the checkpointed root mean by
    //    C.H^T.R^-1.dz from the archived Jacobian row — O(k n) per rebind,
    //    first-order accurate, exact fallback whenever it cannot answer.
    // The fast path is what a caller uses for repeated single-slot
    // rebinds, so it is the committed plan_solve_incremental row that
    // scripts/bench_check.py --gate incremental checks against
    // plan_solve_steady.
    engine::Plan full_plan = make_helix_plan(p, 1);
    engine::Plan inc_plan = make_helix_plan(p, 1);
    engine::Plan lr_plan = make_helix_plan(p, 1);

    std::vector<double> base;
    base.reserve(static_cast<std::size_t>(m));
    for (const cons::Constraint& c : p.constraints.all()) {
      base.push_back(c.observed);
    }
    std::vector<double> nudged = base;
    nudged[0] += 1e-3;

    full_plan.solve(p.initial);  // warm-up
    inc_plan.solve(p.initial);   // warm-up; forms the checkpoint
    lr_plan.solve(p.initial);    // warm-up; checkpoint + Jacobian archive

    const int rounds = smoke ? 96 : 64;
    double best_full = 1e300;
    double best_inc = 1e300;
    double best_lr = 1e300;
    long reused = 0;
    long recomputed = 0;
    bool all_low_rank = true;
    for (int r = 0; r < rounds; ++r) {
      // Alternate the two vectors so every rebind changes exactly one
      // slot bitwise (a repeat of the same vector would be a no-op).
      const std::vector<double>& values = (r % 2 == 0) ? nudged : base;
      Stopwatch sf;
      full_plan.set_observations(values);
      full_plan.solve(p.initial);
      best_full = std::min(best_full, sf.seconds());
      Stopwatch si;
      inc_plan.set_observations(values);
      const engine::Result ir = inc_plan.solve_incremental(p.initial);
      best_inc = std::min(best_inc, si.seconds());
      reused = ir.report.nodes_reused;
      recomputed = ir.report.nodes_recomputed;
      Stopwatch sl;
      lr_plan.set_observations(values);
      const engine::Result lr = lr_plan.solve_lowrank(p.initial);
      best_lr = std::min(best_lr, sl.seconds());
      all_low_rank = all_low_rank && lr.report.low_rank;
    }
    if (!all_low_rank) {
      std::printf("  WARNING: a solve_lowrank round fell back to the exact "
                  "path; the incremental row is not timing the shortcut\n");
    }

    std::printf(
        "  %-18s %9.3f ms  (exact replay: %.1fx over full %.3f ms, "
        "%ld nodes reused / %ld recomputed)\n",
        "plan_solve_exact", best_inc * 1e3, best_full / best_inc,
        best_full * 1e3, reused, recomputed);

    KernelBenchRecord rec;
    rec.kernel = "plan_solve_incremental";
    rec.impl = "engine";
    rec.m = m;
    rec.n = n;
    rec.threads = 1;
    rec.reps = rounds;
    rec.seconds = best_lr;
    std::printf(
        "  %-18s %9.3f ms  (low-rank fast path, %.1fx over full re-solve)\n",
        "plan_solve_incremental", best_lr * 1e3, best_full / best_lr);
    records.push_back(rec);
  }

  write_kernel_bench_json(out_path, records);
  std::printf("\nwrote %zu records to %s\n", records.size(),
              out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace phmse::bench

int main(int argc, char** argv) {
  return phmse::bench::run_all(argc > 1 ? argv[1] : "BENCH_solver.json");
}
