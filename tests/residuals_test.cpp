#include <gtest/gtest.h>

#include "constraints/helix_gen.hpp"
#include "engine/engine.hpp"
#include "estimation/residuals.hpp"
#include "molecule/rna_helix.hpp"
#include "support/rng.hpp"

namespace phmse::est {
namespace {

using cons::Constraint;
using cons::Kind;

NodeState simple_state(double prior_sigma) {
  NodeState st;
  st.atom_begin = 0;
  st.atom_end = 2;
  st.x = {0, 0, 0, 2, 0, 0};
  st.reset_covariance(prior_sigma);
  return st;
}

Constraint dist(double observed, double sigma) {
  Constraint c;
  c.kind = Kind::kDistance;
  c.atoms = {0, 1, 0, 0};
  c.observed = observed;
  c.variance = sigma * sigma;
  return c;
}

TEST(Residuals, RecordsRawAndNormalized) {
  NodeState st = simple_state(1.0);
  cons::ConstraintSet set;
  set.add(dist(2.5, 0.1));  // current distance is 2.0: residual +0.5

  const auto recs = residual_records(st, set);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_NEAR(recs[0].residual, 0.5, 1e-12);
  // Innovation variance: H C H^T + R = 2 * prior_var + 0.01 (unit gradient
  // on each atom's x, priors independent).
  EXPECT_NEAR(recs[0].predicted_sigma, std::sqrt(2.0 + 0.01), 1e-9);
  EXPECT_NEAR(recs[0].normalized, 0.5 / std::sqrt(2.01), 1e-9);
}

TEST(Residuals, OverallStatsAggregate) {
  NodeState st = simple_state(1.0);
  cons::ConstraintSet set;
  set.add(dist(2.5, 0.1));
  set.add(dist(1.0, 0.1));  // residual -1.0
  const auto recs = residual_records(st, set);
  const ResidualStats stats = overall_stats(recs, set);
  EXPECT_EQ(stats.count, 2);
  EXPECT_NEAR(stats.rms, std::sqrt((0.25 + 1.0) / 2.0), 1e-12);
  EXPECT_NEAR(stats.max_abs, 1.0, 1e-12);
  EXPECT_GT(stats.mean_chi2, 0.0);
}

TEST(Residuals, StatsByCategorySeparate) {
  NodeState st = simple_state(1.0);
  cons::ConstraintSet set;
  Constraint a = dist(2.0, 0.1);  // perfect fit
  a.category = 1;
  Constraint b = dist(4.0, 0.1);  // residual 2
  b.category = 2;
  set.add(a);
  set.add(b);
  const auto by_cat = stats_by_category(residual_records(st, set), set);
  ASSERT_EQ(by_cat.size(), 2u);
  EXPECT_NEAR(by_cat.at(1).rms, 0.0, 1e-12);
  EXPECT_NEAR(by_cat.at(2).rms, 2.0, 1e-12);
}

TEST(Residuals, WorstResidualsSortByNormalizedMagnitude) {
  NodeState st = simple_state(1.0);
  cons::ConstraintSet set;
  set.add(dist(2.1, 1.0));   // small normalized residual
  set.add(dist(5.0, 0.01));  // huge normalized residual
  auto worst = worst_residuals(residual_records(st, set), 1);
  ASSERT_EQ(worst.size(), 1u);
  EXPECT_EQ(worst[0].constraint_index, 1);
}

TEST(Residuals, ChiSquareNearOneAfterConsistentSolve) {
  // After convergence on well-modeled data the normalized residuals should
  // be O(1): the covariance output is calibrated, not just decorative.
  const mol::HelixModel model = mol::build_helix(1);
  cons::HelixNoise noise;
  noise.anchor_first_pair = true;
  const cons::ConstraintSet set =
      cons::generate_helix_constraints(model, noise);

  Rng rng(3);
  const NodeState st = make_initial_state(model.topology, 0,
                                          model.num_atoms(), 0.5, 0.3, rng);
  engine::CompileOptions opts;
  opts.solve.max_cycles = 10;
  opts.solve.prior_sigma = 0.5;
  engine::Plan plan = engine::Engine::compile(
      engine::Problem::flat(model.num_atoms(), set), opts);
  const engine::Result res = plan.solve(st.x);

  const ResidualStats stats =
      overall_stats(residual_records(res.posterior(), set), set);
  EXPECT_GT(stats.mean_chi2, 0.05);
  EXPECT_LT(stats.mean_chi2, 20.0);
}

TEST(Residuals, ReportMentionsCategoriesAndWorst) {
  NodeState st = simple_state(1.0);
  cons::ConstraintSet set;
  Constraint c = dist(3.0, 0.1);
  c.category = 4;
  set.add(c);
  const std::string report = residual_report(st, set, 1);
  EXPECT_NE(report.find("category 4"), std::string::npos);
  EXPECT_NE(report.find("largest normalized residuals"), std::string::npos);
}

}  // namespace
}  // namespace phmse::est
