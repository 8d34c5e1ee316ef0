// core::SolvePlan, the hierarchical solver: numerics, convergence and the
// executor contract (serial, simulated and threaded runs agree bitwise).
#include <gtest/gtest.h>

#include "constraints/helix_gen.hpp"
#include "core/assign.hpp"
#include "core/schedule.hpp"
#include "core/solve_plan.hpp"
#include "core/work_model.hpp"
#include "molecule/rna_helix.hpp"
#include "support/rng.hpp"

namespace phmse::core {
namespace {

struct Problem {
  mol::HelixModel model;
  cons::ConstraintSet set;
  linalg::Vector initial;
};

Problem helix_problem(Index length, double perturb = 0.4,
                      bool anchored = true) {
  Problem p{mol::build_helix(length), {}, {}};
  cons::HelixNoise noise;
  noise.anchor_first_pair = anchored;
  p.set = cons::generate_helix_constraints(p.model, noise);
  Rng rng(99);
  p.initial = p.model.topology.true_state();
  for (auto& v : p.initial) v += rng.gaussian(0.0, perturb);
  return p;
}

Hierarchy prepared_hierarchy(const Problem& p, int procs) {
  Hierarchy h = build_helix_hierarchy(p.model);
  assign_constraints(h, p.set);
  estimate_work(h, WorkModel{}, 16);
  assign_processors(h, procs);
  return h;
}

TEST(HierSolver, RunsAndImprovesEstimate) {
  const Problem p = helix_problem(2);
  Hierarchy h = prepared_hierarchy(p, 1);
  par::SerialContext ctx;
  HierSolveOptions opts;
  opts.max_cycles = 6;
  opts.prior_sigma = 0.5;
  SolvePlan plan(h, opts);
  const PlanRunStats stats = plan.run(ctx, p.initial);
  EXPECT_EQ(stats.cycles, 6);
  EXPECT_LT(p.model.topology.rmsd_to_truth(plan.root_state().x),
            p.model.topology.rmsd_to_truth(p.initial));
}

TEST(HierSolver, ReducesConstraintResidual) {
  const Problem p = helix_problem(2);
  Hierarchy h = prepared_hierarchy(p, 1);
  par::SerialContext ctx;
  HierSolveOptions opts;
  opts.max_cycles = 6;
  opts.prior_sigma = 0.5;
  SolvePlan plan(h, opts);
  plan.run(ctx, p.initial);
  const double before =
      cons::rms_residual(p.set, p.model.topology, p.initial);
  const double after =
      cons::rms_residual(p.set, p.model.topology, plan.root_state().x);
  EXPECT_LT(after, 0.5 * before);
}

TEST(HierSolver, MatchesFlatSolutionQuality) {
  // Hierarchical and flat orderings differ, so results are not identical —
  // but after a few cycles both must reach comparable residuals (paper
  // Section 3: "achieves the same computation as the original flat
  // problem" per constraint; convergence order differs).
  const Problem p = helix_problem(1);

  HierSolveOptions opts;
  opts.max_cycles = 8;
  opts.prior_sigma = 0.5;
  par::SerialContext ctx;

  Hierarchy h = prepared_hierarchy(p, 1);
  SolvePlan hier(h, opts);
  hier.run(ctx, p.initial);

  // Flat: one node covering the molecule.
  Hierarchy f = build_flat_hierarchy(p.model.num_atoms());
  assign_constraints(f, p.set);
  SolvePlan flat(f, opts);
  flat.run(ctx, p.initial);

  const double rms_hier =
      cons::rms_residual(p.set, p.model.topology, hier.root_state().x);
  const double rms_flat =
      cons::rms_residual(p.set, p.model.topology, flat.root_state().x);
  EXPECT_NEAR(rms_hier, rms_flat, 0.1);
}

TEST(HierSolver, SimulatedNumericsMatchSerialBitwise) {
  const Problem p = helix_problem(2);
  Hierarchy h1 = prepared_hierarchy(p, 1);
  par::SerialContext ctx;
  HierSolveOptions opts;
  SolvePlan serial(h1, opts);
  serial.run(ctx, p.initial);

  for (int procs : {1, 5, 16}) {
    Hierarchy h2 = prepared_hierarchy(p, procs);
    simarch::SimMachine machine(simarch::generic(procs));
    SolvePlan sim(h2, opts);
    sim.run(machine, p.initial);
    EXPECT_EQ(sim.root_state().x, serial.root_state().x) << "procs=" << procs;
    EXPECT_EQ(sim.root_state().c, serial.root_state().c) << "procs=" << procs;
  }
}

TEST(HierSolver, ThreadedNumericsMatchSerialBitwise) {
  const Problem p = helix_problem(2);
  Hierarchy h1 = prepared_hierarchy(p, 1);
  par::SerialContext ctx;
  HierSolveOptions opts;
  SolvePlan serial(h1, opts);
  serial.run(ctx, p.initial);

  for (int procs : {1, 2, 4}) {
    Hierarchy h2 = prepared_hierarchy(p, procs);
    par::ThreadPool pool(procs);
    SolvePlan threaded(h2, opts);
    threaded.run(pool, p.initial);
    EXPECT_EQ(threaded.root_state().x, serial.root_state().x)
        << "procs=" << procs;
    EXPECT_EQ(threaded.root_state().c, serial.root_state().c)
        << "procs=" << procs;
  }
}

TEST(HierSolver, SimSpeedupGrowsWithProcessors) {
  const Problem p = helix_problem(4);
  HierSolveOptions opts;

  auto vtime_at = [&](int procs) {
    Hierarchy h = prepared_hierarchy(p, procs);
    simarch::SimMachine machine(simarch::generic(procs));
    return SolvePlan(h, opts).run(machine, p.initial).vtime;
  };
  const double t1 = vtime_at(1);
  const double t4 = vtime_at(4);
  const double t16 = vtime_at(16);
  EXPECT_GT(t1 / t4, 2.0);
  EXPECT_GT(t1 / t16, t1 / t4);
}

TEST(HierSolver, SimSoloProcessorHasNoBarrierOverheadAtLeaves) {
  const Problem p = helix_problem(1);
  Hierarchy h = prepared_hierarchy(p, 1);
  simarch::SimMachine machine(simarch::generic(1));
  const PlanRunStats res =
      SolvePlan(h, HierSolveOptions{}).run(machine, p.initial);
  // With one processor, vtime equals the sum of all categories.
  EXPECT_NEAR(res.vtime, res.breakdown.total(), 1e-9);
}

TEST(HierSolver, BreakdownCategoriesPopulated) {
  const Problem p = helix_problem(2);
  Hierarchy h = prepared_hierarchy(p, 8);
  simarch::SimMachine machine(simarch::dash32());
  const PlanRunStats res =
      SolvePlan(h, HierSolveOptions{}).run(machine, p.initial);
  using perf::Category;
  for (Category c : {Category::kDenseSparse, Category::kCholesky,
                     Category::kSystemSolve, Category::kMatMat,
                     Category::kMatVec, Category::kVector}) {
    EXPECT_GT(res.breakdown.time(c), 0.0) << perf::category_name(c);
  }
  // The covariance update dominates (paper Tables 3-6: m-v is the big one).
  EXPECT_GT(res.breakdown.time(Category::kMatVec),
            res.breakdown.time(Category::kCholesky));
}

TEST(HierSolver, RejectsWrongInitialDimension) {
  const Problem p = helix_problem(1);
  Hierarchy h = prepared_hierarchy(p, 1);
  par::SerialContext ctx;
  linalg::Vector wrong(10, 0.0);
  SolvePlan plan(h, HierSolveOptions{});
  EXPECT_THROW(plan.run(ctx, wrong), phmse::Error);
}

TEST(HierSolver, ToleranceConverges) {
  const Problem p = helix_problem(1, 0.1);
  Hierarchy h = prepared_hierarchy(p, 1);
  par::SerialContext ctx;
  HierSolveOptions opts;
  opts.max_cycles = 60;
  opts.prior_sigma = 0.5;
  opts.tolerance = 0.05;  // gauge modes random-walk at ~0.01 A / cycle
  SolvePlan plan(h, opts);
  EXPECT_TRUE(plan.run(ctx, p.initial).converged);
}

}  // namespace
}  // namespace phmse::core
