// The flat (non-hierarchical) solve of the paper's Table 1: a plan over a
// one-node hierarchy (engine::Problem::flat).  Every cycle re-initializes
// the covariance to the spherical prior and re-applies the whole
// constraint set at the evolving estimate (paper Section 2).
#include <gtest/gtest.h>

#include "constraints/helix_gen.hpp"
#include "engine/engine.hpp"
#include "molecule/rna_helix.hpp"
#include "support/rng.hpp"

namespace phmse::engine {
namespace {

using est::NodeState;

Plan flat_plan(Index atoms, const cons::ConstraintSet& set,
               const core::HierSolveOptions& solve) {
  CompileOptions options;
  options.solve = solve;
  return Engine::compile(Problem::flat(atoms, set), options);
}

TEST(FlatSolver, SingleCycleRuns) {
  const mol::HelixModel model = mol::build_helix(1);
  const cons::ConstraintSet set = cons::generate_helix_constraints(model);

  Rng rng(1);
  const NodeState st = est::make_initial_state(
      model.topology, 0, model.num_atoms(), 5.0, 0.6, rng);
  core::HierSolveOptions opts;
  opts.max_cycles = 1;
  Plan plan = flat_plan(model.num_atoms(), set, opts);
  EXPECT_EQ(plan.hierarchy().num_nodes(), 1);
  const Result res = plan.solve(st.x);
  EXPECT_EQ(res.cycles, 1);
  EXPECT_GT(res.last_cycle_delta, 0.0);
  EXPECT_FALSE(res.converged);
}

TEST(FlatSolver, CyclesReduceConstraintResidual) {
  const mol::HelixModel model = mol::build_helix(1);
  const cons::ConstraintSet set = cons::generate_helix_constraints(model);

  Rng rng(2);
  const NodeState st = est::make_initial_state(
      model.topology, 0, model.num_atoms(), 5.0, 0.6, rng);
  const double rms_before = cons::rms_residual(set, model.topology, st.x);

  core::HierSolveOptions opts;
  opts.max_cycles = 8;
  Plan plan = flat_plan(model.num_atoms(), set, opts);
  const Result res = plan.solve(st.x);
  const double rms_after =
      cons::rms_residual(set, model.topology, res.posterior().x);
  EXPECT_LT(rms_after, 0.3 * rms_before);
}

TEST(FlatSolver, CyclesImproveRmsdToTruth) {
  const mol::HelixModel model = mol::build_helix(1);
  cons::HelixNoise noise;
  noise.anchor_first_pair = true;  // pin the frame for a meaningful RMSD
  const cons::ConstraintSet set =
      cons::generate_helix_constraints(model, noise);

  Rng rng(3);
  const NodeState st = est::make_initial_state(
      model.topology, 0, model.num_atoms(), 0.5, 0.6, rng);
  const double rmsd_before = model.topology.rmsd_to_truth(st.x);
  core::HierSolveOptions opts;
  opts.max_cycles = 8;
  opts.prior_sigma = 0.5;
  Plan plan = flat_plan(model.num_atoms(), set, opts);
  EXPECT_LT(model.topology.rmsd_to_truth(plan.solve(st.x).posterior().x),
            rmsd_before);
}

TEST(FlatSolver, ToleranceStopsEarly) {
  const mol::HelixModel model = mol::build_helix(1);
  cons::HelixNoise noise;
  noise.anchor_first_pair = true;
  const cons::ConstraintSet set =
      cons::generate_helix_constraints(model, noise);

  Rng rng(4);
  const NodeState st = est::make_initial_state(
      model.topology, 0, model.num_atoms(), 0.5, 0.1, rng);
  core::HierSolveOptions opts;
  opts.max_cycles = 50;
  opts.prior_sigma = 0.5;
  opts.tolerance = 0.05;  // the gauge modes random-walk at ~0.01 A / cycle
  Plan plan = flat_plan(model.num_atoms(), set, opts);
  const Result res = plan.solve(st.x);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.cycles, 50);
}

TEST(FlatSolver, BatchSizeDoesNotChangeFixedPointMuch) {
  // Different batch sizes traverse different linearization points but must
  // land at comparable data fits.
  const mol::HelixModel model = mol::build_helix(1);
  const cons::ConstraintSet set = cons::generate_helix_constraints(model);

  auto solve_with_batch = [&](Index m) {
    Rng rng(5);
    const NodeState st = est::make_initial_state(
        model.topology, 0, model.num_atoms(), 0.5, 0.3, rng);
    core::HierSolveOptions opts;
    opts.max_cycles = 10;
    opts.prior_sigma = 0.5;
    opts.batch_size = m;
    Plan plan = flat_plan(model.num_atoms(), set, opts);
    return cons::rms_residual(set, model.topology,
                              plan.solve(st.x).posterior().x);
  };
  const double rms_1 = solve_with_batch(1);
  const double rms_16 = solve_with_batch(16);
  const double rms_64 = solve_with_batch(64);
  EXPECT_NEAR(rms_1, rms_16, 0.05);
  EXPECT_NEAR(rms_16, rms_64, 0.05);
}

TEST(FlatSolver, RejectsConstraintsOutsideState) {
  const mol::HelixModel model = mol::build_helix(2);
  const cons::ConstraintSet set = cons::generate_helix_constraints(model);
  // The one node covers only the first base pair's atoms.
  EXPECT_THROW(Engine::compile(Problem::flat(43, set)), phmse::Error);
}

TEST(FlatSolver, ProfileCategoriesPopulated) {
  const mol::HelixModel model = mol::build_helix(1);
  const cons::ConstraintSet set = cons::generate_helix_constraints(model);
  Rng rng(7);
  const NodeState st = est::make_initial_state(
      model.topology, 0, model.num_atoms(), 5.0, 0.3, rng);
  Plan plan = flat_plan(model.num_atoms(), set, {});
  par::SerialContext ctx;
  plan.solve(ctx, st.x);
  using perf::Category;
  for (Category c : {Category::kDenseSparse, Category::kCholesky,
                     Category::kSystemSolve, Category::kMatMat,
                     Category::kMatVec, Category::kVector}) {
    EXPECT_GT(ctx.profile().time(c), 0.0) << perf::category_name(c);
  }
}

TEST(FlatSolver, IsBitwiseTheCycledSweepOverOneState) {
  // The flat solve is exactly the cycle loop of paper Section 2 written
  // out by hand: re-initialize C to the prior, apply every batch to the
  // whole-molecule state, repeat from the new mean.
  for (Index length : {1, 2}) {
    const mol::HelixModel model = mol::build_helix(length);
    const cons::ConstraintSet set = cons::generate_helix_constraints(model);
    Rng rng(8);
    const NodeState start = est::make_initial_state(
        model.topology, 0, model.num_atoms(), 1.0, 0.3, rng);
    for (int cycles : {1, 3}) {
      for (double prior : {1.0, 0.5}) {
        core::HierSolveOptions opts;
        opts.max_cycles = cycles;
        opts.prior_sigma = prior;
        Plan plan = flat_plan(model.num_atoms(), set, opts);
        const Result res = plan.solve(start.x);

        NodeState st = start;
        par::SerialContext ctx;
        est::BatchUpdater updater;
        for (int c = 0; c < cycles; ++c) {
          st.reset_covariance(prior);
          updater.apply_all(ctx, st, set, opts.batch_size);
        }
        EXPECT_EQ(res.posterior().x, st.x)
            << length << " bp, " << cycles << " cycles, prior " << prior;
        EXPECT_EQ(res.posterior().c, st.c)
            << length << " bp, " << cycles << " cycles, prior " << prior;
      }
    }
  }
}

}  // namespace
}  // namespace phmse::engine
