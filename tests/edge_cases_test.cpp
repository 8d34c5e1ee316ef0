// Edge cases and failure-injection across modules: empty inputs, minimal
// sizes, and invalid configurations must fail loudly or behave trivially —
// never crash or silently corrupt.
#include <gtest/gtest.h>

#include "constraints/set.hpp"
#include "core/assign.hpp"
#include "core/schedule.hpp"
#include "core/solve_plan.hpp"
#include "core/work_model.hpp"
#include "estimation/combine.hpp"
#include "linalg/backend.hpp"
#include "linalg/kernels.hpp"
#include "support/rng.hpp"

namespace phmse {
namespace {

TEST(EdgeCases, EmptyConstraintSetSolvesAsNoOp) {
  core::Hierarchy h = core::build_flat_hierarchy(2);
  const linalg::Vector x_before = {0, 0, 0, 1, 1, 1};

  par::SerialContext ctx;
  core::SolvePlan plan(h, core::HierSolveOptions{});
  const core::PlanRunStats res = plan.run(ctx, x_before);
  EXPECT_EQ(res.cycles, 1);
  EXPECT_EQ(plan.root_state().x, x_before);
}

TEST(EdgeCases, SingleAtomMoleculeWorksEndToEnd) {
  core::Hierarchy h = core::build_flat_hierarchy(1);
  cons::ConstraintSet set;
  cons::Constraint c;
  c.kind = cons::Kind::kPosition;
  c.atoms = {0, 0, 0, 0};
  c.axis = 2;
  c.observed = 5.0;
  c.variance = 0.01;
  set.add(c);
  core::assign_constraints(h, set);
  core::estimate_work(h, core::WorkModel{}, 16);
  core::assign_processors(h, 4);

  par::SerialContext ctx;
  core::SolvePlan plan(h, core::HierSolveOptions{});
  plan.run(ctx, {0.0, 0.0, 0.0});
  EXPECT_NEAR(plan.root_state().x[2], 5.0, 0.1);
}

TEST(EdgeCases, BatchLargerThanSetIsOneBatch) {
  est::NodeState st;
  st.atom_begin = 0;
  st.atom_end = 2;
  st.x = {0, 0, 0, 1, 0, 0};
  st.reset_covariance(1.0);
  cons::ConstraintSet set;
  cons::Constraint c;
  c.kind = cons::Kind::kDistance;
  c.atoms = {0, 1, 0, 0};
  c.observed = 1.2;
  c.variance = 0.01;
  set.add(c);
  par::SerialContext ctx;
  est::BatchUpdater up;
  EXPECT_NO_THROW(up.apply_all(ctx, st, set, 512));
}

TEST(EdgeCases, OneByOneCholesky) {
  linalg::Matrix m(1, 1);
  m(0, 0) = 4.0;
  par::SerialContext ctx;
  ASSERT_TRUE(linalg::default_backend().cholesky_factor(ctx, m, 48).ok());
  EXPECT_DOUBLE_EQ(m(0, 0), 2.0);
}

TEST(EdgeCases, ZeroByZeroMatrixOperationsAreTrivial) {
  linalg::Matrix m(0, 0);
  par::SerialContext ctx;
  EXPECT_TRUE(linalg::default_backend().cholesky_factor(ctx, m, 48).ok());
  EXPECT_NO_THROW(linalg::mirror_lower(ctx, m));
  EXPECT_DOUBLE_EQ(m.max_abs(), 0.0);
}

TEST(EdgeCases, TrsmWithNoRightHandSides) {
  linalg::Matrix l(3, 3);
  l.set_identity();
  linalg::Matrix b(3, 0);
  par::SerialContext ctx;
  EXPECT_NO_THROW(linalg::default_backend().trsm_lower(ctx, l, b));
}

TEST(EdgeCases, CombineRejectsBadPrior) {
  par::SerialContext ctx;
  est::NodeState a;
  a.atom_begin = 0;
  a.atom_end = 1;
  a.x = {0, 0, 0};
  a.reset_covariance(1.0);
  est::NodeState b = a;
  EXPECT_THROW(est::combine_independent(ctx, a, b, a.x, 0.0), Error);
  linalg::Vector wrong(6, 0.0);
  EXPECT_THROW(est::combine_independent(ctx, a, b, wrong, 1.0), Error);
}

TEST(EdgeCases, ResetCovarianceRejectsNonPositiveSigma) {
  est::NodeState st;
  st.atom_begin = 0;
  st.atom_end = 1;
  st.x = {0, 0, 0};
  EXPECT_THROW(st.reset_covariance(0.0), Error);
  EXPECT_THROW(st.reset_covariance(-1.0), Error);
}

TEST(EdgeCases, SolverRejectsZeroCycles) {
  core::Hierarchy h = core::build_flat_hierarchy(1);
  par::SerialContext ctx;
  core::HierSolveOptions opts;
  opts.max_cycles = 0;
  core::SolvePlan plan(h, opts);
  EXPECT_THROW(plan.run(ctx, {0.0, 0.0, 0.0}), Error);
}

TEST(EdgeCases, HierarchyWithEmptyAtomRangeLeafIsValid) {
  // Degenerate but legal: a leaf covering zero atoms (can arise from
  // manual construction).  Validation accepts it; solving it is a no-op.
  auto root = std::make_unique<core::HierNode>();
  root->name = "root";
  root->atom_begin = 0;
  root->atom_end = 2;
  auto empty = std::make_unique<core::HierNode>();
  empty->name = "empty";
  empty->atom_begin = 0;
  empty->atom_end = 0;
  auto rest = std::make_unique<core::HierNode>();
  rest->name = "rest";
  rest->atom_begin = 0;
  rest->atom_end = 2;
  root->children.push_back(std::move(empty));
  root->children.push_back(std::move(rest));
  core::Hierarchy h(std::move(root));
  EXPECT_NO_THROW(h.validate());
}

TEST(EdgeCases, DegenerateDistanceConstraintIsHarmless) {
  // Both atoms at the same position: zero gradient, the update must not
  // produce NaNs.
  est::NodeState st;
  st.atom_begin = 0;
  st.atom_end = 2;
  st.x = {1, 1, 1, 1, 1, 1};
  st.reset_covariance(1.0);
  cons::Constraint c;
  c.kind = cons::Kind::kDistance;
  c.atoms = {0, 1, 0, 0};
  c.observed = 2.0;
  c.variance = 0.01;
  par::SerialContext ctx;
  est::BatchUpdater up;
  up.apply(ctx, st, std::span<const cons::Constraint>(&c, 1));
  for (double v : st.x) EXPECT_TRUE(std::isfinite(v));
  EXPECT_TRUE(std::isfinite(st.c.max_abs()));
}

TEST(EdgeCases, MixedDegenerateAndGoodConstraintsInOneBatch) {
  est::NodeState st;
  st.atom_begin = 0;
  st.atom_end = 3;
  st.x = {0, 0, 0, 0, 0, 0, 2, 0, 0};  // atoms 0 and 1 coincide
  st.reset_covariance(1.0);
  std::vector<cons::Constraint> batch(2);
  batch[0].kind = cons::Kind::kDistance;
  batch[0].atoms = {0, 1, 0, 0};  // degenerate
  batch[0].observed = 1.0;
  batch[0].variance = 0.01;
  batch[1].kind = cons::Kind::kDistance;
  batch[1].atoms = {0, 2, 0, 0};  // fine
  batch[1].observed = 2.5;
  batch[1].variance = 0.01;
  par::SerialContext ctx;
  est::BatchUpdater up;
  up.apply(ctx, st, batch);
  // The good constraint still acts.
  EXPECT_GT(st.position(2).x - st.position(0).x, 2.05);
  for (double v : st.x) EXPECT_TRUE(std::isfinite(v));
}

}  // namespace
}  // namespace phmse
