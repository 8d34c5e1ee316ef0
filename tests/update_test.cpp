#include <gtest/gtest.h>

#include <cmath>

#include "constraints/set.hpp"
#include "estimation/update.hpp"
#include "parallel/team.hpp"
#include "simarch/sim_context.hpp"
#include "support/rng.hpp"

namespace phmse::est {
namespace {

using cons::Constraint;
using cons::Kind;

NodeState two_atom_state(double prior_sigma = 2.0) {
  NodeState st;
  st.atom_begin = 0;
  st.atom_end = 2;
  st.x = {0, 0, 0, 1, 0, 0};
  st.reset_covariance(prior_sigma);
  return st;
}

Constraint position_obs(Index atom, int axis, double z, double sigma) {
  Constraint c;
  c.kind = Kind::kPosition;
  c.atoms = {atom, 0, 0, 0};
  c.axis = axis;
  c.observed = z;
  c.variance = sigma * sigma;
  return c;
}

Constraint distance_obs(Index a, Index b, double z, double sigma) {
  Constraint c;
  c.kind = Kind::kDistance;
  c.atoms = {a, b, 0, 0};
  c.observed = z;
  c.variance = sigma * sigma;
  return c;
}

TEST(BatchUpdate, ScalarPositionMatchesClosedForm) {
  // Observing x-coordinate of atom 0: posterior mean and variance have the
  // textbook scalar Kalman form.
  const double s0 = 2.0;   // prior sigma
  const double r = 1.0;    // noise sigma
  const double z = 3.0;
  NodeState st = two_atom_state(s0);

  par::SerialContext ctx;
  BatchUpdater updater;
  const Constraint c = position_obs(0, 0, z, r);
  updater.apply(ctx, st, std::span<const Constraint>(&c, 1));

  const double v0 = s0 * s0;
  const double vr = r * r;
  const double expected_mean = v0 * z / (v0 + vr);
  const double expected_var = v0 * vr / (v0 + vr);
  EXPECT_NEAR(st.x[0], expected_mean, 1e-12);
  EXPECT_NEAR(st.c(0, 0), expected_var, 1e-12);
  // Other coordinates untouched.
  EXPECT_DOUBLE_EQ(st.x[1], 0.0);
  EXPECT_NEAR(st.c(1, 1), v0, 1e-12);
  EXPECT_NEAR(st.c(0, 1), 0.0, 1e-12);
}

TEST(BatchUpdate, BatchedLinearEqualsSequentialScalars) {
  // For linear measurements, applying a batch at once equals applying the
  // scalars one at a time.
  std::vector<Constraint> batch = {
      position_obs(0, 0, 0.5, 0.7),
      position_obs(0, 1, -0.2, 0.5),
      position_obs(1, 2, 1.1, 0.9),
  };

  par::SerialContext ctx;
  BatchUpdater updater;

  NodeState batched = two_atom_state();
  updater.apply(ctx, batched, batch);

  NodeState sequential = two_atom_state();
  for (const Constraint& c : batch) {
    updater.apply(ctx, sequential, std::span<const Constraint>(&c, 1));
  }

  for (std::size_t i = 0; i < batched.x.size(); ++i) {
    EXPECT_NEAR(batched.x[i], sequential.x[i], 1e-10);
  }
  EXPECT_LT(batched.c.frobenius_distance(sequential.c), 1e-10);
}

TEST(BatchUpdate, CovarianceStaysSymmetric) {
  Rng rng(5);
  NodeState st = two_atom_state();
  par::SerialContext ctx;
  BatchUpdater updater;
  for (int i = 0; i < 20; ++i) {
    const Constraint c = distance_obs(0, 1, 1.0 + rng.uniform(), 0.3);
    updater.apply(ctx, st, std::span<const Constraint>(&c, 1));
  }
  for (Index i = 0; i < st.dim(); ++i) {
    for (Index j = 0; j < st.dim(); ++j) {
      EXPECT_NEAR(st.c(i, j), st.c(j, i), 1e-12);
    }
  }
}

TEST(BatchUpdate, UncertaintyNeverIncreases) {
  // Measurement updates can only reduce the diagonal of C (information
  // grows monotonically).
  NodeState st = two_atom_state();
  par::SerialContext ctx;
  BatchUpdater updater;
  linalg::Vector prev_diag(static_cast<std::size_t>(st.dim()));
  for (Index i = 0; i < st.dim(); ++i) {
    prev_diag[static_cast<std::size_t>(i)] = st.c(i, i);
  }
  for (int k = 0; k < 5; ++k) {
    const Constraint c = distance_obs(0, 1, 1.2, 0.5);
    updater.apply(ctx, st, std::span<const Constraint>(&c, 1));
    for (Index i = 0; i < st.dim(); ++i) {
      EXPECT_LE(st.c(i, i), prev_diag[static_cast<std::size_t>(i)] + 1e-12);
      prev_diag[static_cast<std::size_t>(i)] = st.c(i, i);
    }
  }
}

TEST(BatchUpdate, DistanceConstraintPullsTowardObservation) {
  NodeState st = two_atom_state();  // current distance 1.0
  par::SerialContext ctx;
  BatchUpdater updater;
  const Constraint c = distance_obs(0, 1, 2.0, 0.1);
  updater.apply(ctx, st, std::span<const Constraint>(&c, 1));
  const double d = st.position(1).x - st.position(0).x;
  EXPECT_GT(d, 1.2);  // moved toward 2.0
  EXPECT_LT(d, 2.3);
}

TEST(BatchUpdate, CorrelationsBuildBetweenConstrainedAtoms) {
  NodeState st = two_atom_state();
  par::SerialContext ctx;
  BatchUpdater updater;
  EXPECT_DOUBLE_EQ(st.c(0, 3), 0.0);
  const Constraint c = distance_obs(0, 1, 1.0, 0.2);
  updater.apply(ctx, st, std::span<const Constraint>(&c, 1));
  // x-coordinates of the two atoms are now positively correlated.
  EXPECT_GT(st.c(0, 3), 0.01);
}

TEST(BatchUpdate, LocalityLeavesUncorrelatedPartUntouched) {
  // The hierarchical decomposition's key fact (paper Section 3): an
  // observation of one uncorrelated part does not change the other.
  NodeState st;
  st.atom_begin = 0;
  st.atom_end = 4;
  st.x = {0, 0, 0, 1, 0, 0, 5, 5, 5, 6, 5, 5};
  st.reset_covariance(2.0);

  par::SerialContext ctx;
  BatchUpdater updater;
  const Constraint c = distance_obs(0, 1, 1.5, 0.2);
  updater.apply(ctx, st, std::span<const Constraint>(&c, 1));

  // Atoms 2 and 3: state and covariance block exactly unchanged.
  for (Index i = 6; i < 12; ++i) {
    EXPECT_DOUBLE_EQ(st.x[static_cast<std::size_t>(i)],
                     i < 9 ? (i == 6 ? 5.0 : i == 7 ? 5.0 : 5.0)
                           : (i == 9 ? 6.0 : 5.0));
    EXPECT_DOUBLE_EQ(st.c(i, i), 4.0);
    for (Index j = 0; j < 6; ++j) {
      EXPECT_DOUBLE_EQ(st.c(i, j), 0.0);
    }
  }
}

TEST(BatchUpdate, EmptyBatchIsNoOp) {
  NodeState st = two_atom_state();
  const NodeState before = st;
  par::SerialContext ctx;
  BatchUpdater updater;
  updater.apply(ctx, st, std::span<const Constraint>{});
  EXPECT_EQ(st.x, before.x);
  EXPECT_EQ(st.c, before.c);
}

TEST(BatchUpdate, ApplyAllBatchesWholeSet) {
  cons::ConstraintSet set;
  for (int i = 0; i < 10; ++i) {
    set.add(distance_obs(0, 1, 1.0, 0.5));
  }
  par::SerialContext ctx;
  BatchUpdater updater;

  NodeState by_all = two_atom_state();
  updater.apply_all(ctx, by_all, set, 4);

  NodeState by_hand = two_atom_state();
  const auto& all = set.all();
  for (Index start = 0; start < set.size(); start += 4) {
    const Index len = std::min<Index>(4, set.size() - start);
    updater.apply(ctx, by_hand, std::span<const Constraint>(
                                    all.data() + start,
                                    static_cast<std::size_t>(len)));
  }
  EXPECT_EQ(by_all.x, by_hand.x);
  EXPECT_LT(by_all.c.frobenius_distance(by_hand.c), 1e-14);
}

TEST(BatchUpdate, TeamAndSimMatchSerialBitwise) {
  cons::ConstraintSet set;
  Rng rng(9);
  for (int i = 0; i < 24; ++i) {
    set.add(distance_obs(0, 1, 0.8 + 0.4 * rng.uniform(), 0.3));
    set.add(position_obs(i % 2, i % 3, rng.gaussian(), 0.6));
  }

  par::SerialContext serial;
  BatchUpdater u1;
  NodeState s_serial = two_atom_state();
  u1.apply_all(serial, s_serial, set, 8);

  par::ThreadPool pool(3);
  par::TeamContext team(pool, 0, 3);
  BatchUpdater u2;
  NodeState s_team = two_atom_state();
  u2.apply_all(team, s_team, set, 8);

  simarch::SimMachine machine(simarch::dash32());
  simarch::SimContext sim(machine, 0, 16);
  BatchUpdater u3;
  NodeState s_sim = two_atom_state();
  u3.apply_all(sim, s_sim, set, 8);

  EXPECT_EQ(s_serial.x, s_team.x);
  EXPECT_EQ(s_serial.x, s_sim.x);
  EXPECT_EQ(s_serial.c, s_team.c);
  EXPECT_EQ(s_serial.c, s_sim.c);
}

TEST(BatchUpdate, RejectsConstraintOutsideState) {
  NodeState st = two_atom_state();
  par::SerialContext ctx;
  BatchUpdater updater;
  const Constraint c = distance_obs(0, 5, 1.0, 0.5);
  EXPECT_THROW(updater.apply(ctx, st, std::span<const Constraint>(&c, 1)),
               phmse::Error);
}

TEST(NodeState, CoordIndexAndPosition) {
  NodeState st;
  st.atom_begin = 10;
  st.atom_end = 12;
  st.x = {1, 2, 3, 4, 5, 6};
  EXPECT_EQ(st.coord_index(10, 0), 0);
  EXPECT_EQ(st.coord_index(11, 2), 5);
  EXPECT_DOUBLE_EQ(st.position(11).y, 5.0);
}

TEST(NodeState, MakeInitialStatePerturbsTruth) {
  mol::Topology topo;
  topo.add_atom("a", {1, 2, 3});
  topo.add_atom("b", {4, 5, 6});
  Rng rng(3);
  const NodeState st = make_initial_state(topo, 0, 2, 10.0, 0.5, rng);
  EXPECT_EQ(st.dim(), 6);
  EXPECT_NEAR(st.x[0], 1.0, 3.0);
  EXPECT_DOUBLE_EQ(st.c(0, 0), 100.0);
  EXPECT_DOUBLE_EQ(st.c(0, 1), 0.0);
}

TEST(NodeState, MakeStateFromFullSlices) {
  linalg::Vector full{1, 2, 3, 4, 5, 6, 7, 8, 9};
  NodeState st;
  fill_state_from_full(st, full, 1, 3, 2.0);
  EXPECT_EQ(st.atom_begin, 1);
  EXPECT_EQ(st.dim(), 6);
  EXPECT_DOUBLE_EQ(st.x[0], 4.0);
  EXPECT_DOUBLE_EQ(st.x[5], 9.0);
}

}  // namespace
}  // namespace phmse::est
