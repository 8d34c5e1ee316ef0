#include <gtest/gtest.h>

#include "constraints/set.hpp"
#include "estimation/combine.hpp"
#include "estimation/update.hpp"
#include "support/rng.hpp"

namespace phmse::est {
namespace {

using cons::Constraint;
using cons::Kind;

Constraint position_obs(Index atom, int axis, double z, double sigma) {
  Constraint c;
  c.kind = Kind::kPosition;
  c.atoms = {atom, 0, 0, 0};
  c.axis = axis;
  c.observed = z;
  c.variance = sigma * sigma;
  return c;
}

NodeState fresh_state(const linalg::Vector& x0, double prior_sigma) {
  NodeState st;
  st.atom_begin = 0;
  st.atom_end = static_cast<Index>(x0.size()) / 3;
  st.x = x0;
  st.reset_covariance(prior_sigma);
  return st;
}

// For linear measurements the Fig.-3 combination is exact: fusing the
// posteriors of two disjoint subsets equals applying both subsets
// sequentially.
TEST(Combine, FusionEqualsSequentialForLinearMeasurements) {
  const linalg::Vector x0{0, 0, 0, 1, 1, 1};
  const double prior_sigma = 2.0;
  Rng rng(11);

  std::vector<Constraint> subset_a;
  std::vector<Constraint> subset_b;
  for (int i = 0; i < 6; ++i) {
    subset_a.push_back(position_obs(i % 2, i % 3, rng.gaussian(), 0.8));
    subset_b.push_back(position_obs((i + 1) % 2, (i + 2) % 3,
                                    rng.gaussian(), 0.6));
  }

  par::SerialContext ctx;
  BatchUpdater updater;

  NodeState post_a = fresh_state(x0, prior_sigma);
  updater.apply(ctx, post_a, subset_a);
  NodeState post_b = fresh_state(x0, prior_sigma);
  updater.apply(ctx, post_b, subset_b);

  const NodeState fused =
      combine_independent(ctx, post_a, post_b, x0, prior_sigma);

  NodeState sequential = fresh_state(x0, prior_sigma);
  updater.apply(ctx, sequential, subset_a);
  updater.apply(ctx, sequential, subset_b);

  for (std::size_t i = 0; i < x0.size(); ++i) {
    EXPECT_NEAR(fused.x[i], sequential.x[i], 1e-8);
  }
  EXPECT_LT(fused.c.frobenius_distance(sequential.c), 1e-8);
}

TEST(Combine, FusingWithUninformativePosteriorIsIdentity) {
  const linalg::Vector x0{0, 0, 0};
  const double prior_sigma = 3.0;
  par::SerialContext ctx;
  BatchUpdater updater;

  NodeState informative = fresh_state(x0, prior_sigma);
  const Constraint c = position_obs(0, 0, 2.0, 0.5);
  updater.apply(ctx, informative, std::span<const Constraint>(&c, 1));

  // A posterior that saw no data at all is exactly the prior.
  NodeState vacuous = fresh_state(x0, prior_sigma);

  const NodeState fused =
      combine_independent(ctx, informative, vacuous, x0, prior_sigma);
  for (std::size_t i = 0; i < x0.size(); ++i) {
    EXPECT_NEAR(fused.x[i], informative.x[i], 1e-9);
  }
  EXPECT_LT(fused.c.frobenius_distance(informative.c), 1e-9);
}

TEST(Combine, OrderDoesNotMatter) {
  const linalg::Vector x0{0, 0, 0};
  par::SerialContext ctx;
  BatchUpdater updater;
  Rng rng(12);

  NodeState a = fresh_state(x0, 2.0);
  const Constraint ca = position_obs(0, 0, 1.0, 0.5);
  updater.apply(ctx, a, std::span<const Constraint>(&ca, 1));

  NodeState b = fresh_state(x0, 2.0);
  const Constraint cb = position_obs(0, 1, -1.0, 0.4);
  updater.apply(ctx, b, std::span<const Constraint>(&cb, 1));

  const NodeState ab = combine_independent(ctx, a, b, x0, 2.0);
  const NodeState ba = combine_independent(ctx, b, a, x0, 2.0);
  for (std::size_t i = 0; i < x0.size(); ++i) {
    EXPECT_NEAR(ab.x[i], ba.x[i], 1e-10);
  }
  EXPECT_LT(ab.c.frobenius_distance(ba.c), 1e-10);
}

TEST(Combine, TournamentMatchesSequentialForLinear) {
  const linalg::Vector x0{0, 0, 0, 0, 0, 0};
  const double prior_sigma = 2.0;
  Rng rng(13);
  par::SerialContext ctx;
  BatchUpdater updater;

  // Three disjoint subsets (odd count exercises the bye in the tournament).
  std::vector<std::vector<Constraint>> subsets(3);
  for (int s = 0; s < 3; ++s) {
    for (int i = 0; i < 4; ++i) {
      subsets[static_cast<std::size_t>(s)].push_back(
          position_obs((s + i) % 2, (s * 2 + i) % 3, rng.gaussian(), 0.7));
    }
  }

  std::vector<NodeState> posteriors;
  for (const auto& subset : subsets) {
    NodeState st = fresh_state(x0, prior_sigma);
    updater.apply(ctx, st, subset);
    posteriors.push_back(std::move(st));
  }
  const NodeState fused =
      combine_tournament(ctx, std::move(posteriors), x0, prior_sigma);

  NodeState sequential = fresh_state(x0, prior_sigma);
  for (const auto& subset : subsets) {
    updater.apply(ctx, sequential, subset);
  }
  for (std::size_t i = 0; i < x0.size(); ++i) {
    EXPECT_NEAR(fused.x[i], sequential.x[i], 1e-8);
  }
  EXPECT_LT(fused.c.frobenius_distance(sequential.c), 1e-8);
}

TEST(Combine, SinglePosteriorPassesThrough) {
  const linalg::Vector x0{0, 0, 0};
  par::SerialContext ctx;
  std::vector<NodeState> one;
  one.push_back(fresh_state(x0, 2.0));
  const NodeState out = combine_tournament(ctx, std::move(one), x0, 2.0);
  EXPECT_EQ(out.x, x0);
}

TEST(Combine, RejectsMismatchedRanges) {
  par::SerialContext ctx;
  NodeState a = fresh_state({0, 0, 0}, 1.0);
  NodeState b = fresh_state({0, 0, 0, 0, 0, 0}, 1.0);
  EXPECT_THROW(combine_independent(ctx, a, b, a.x, 1.0), phmse::Error);
}

// Forming a posterior's information matrix factors its covariance, so a
// covariance that is not positive definite stops the combination.
TEST(Combine, NonSpdPosteriorThrows) {
  const linalg::Vector x0{0, 0, 0, 0, 0, 0};
  par::SerialContext ctx;
  const NodeState a = fresh_state(x0, 1.0);
  NodeState b = fresh_state(x0, 1.0);
  b.c(4, 4) = -1.0;
  EXPECT_THROW(combine_independent(ctx, a, b, x0, 1.0), phmse::Error);
}

TEST(Combine, CostsShowUpInProfile) {
  // The paper's point: combination is an O(n^3) overhead.  At least the
  // chol / sys / m-m categories must be exercised.
  const linalg::Vector x0{0, 0, 0, 0, 0, 0};
  par::SerialContext ctx;
  NodeState a = fresh_state(x0, 2.0);
  NodeState b = fresh_state(x0, 2.0);
  combine_independent(ctx, a, b, x0, 2.0);
  EXPECT_GT(ctx.profile().time(perf::Category::kCholesky), 0.0);
  EXPECT_GT(ctx.profile().time(perf::Category::kSystemSolve), 0.0);
  EXPECT_GT(ctx.profile().time(perf::Category::kMatMat), 0.0);
}

}  // namespace
}  // namespace phmse::est
