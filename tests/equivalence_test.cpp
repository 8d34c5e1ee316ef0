// The paper's Section-3 claim, tested literally: "this hierarchical
// organization achieves the same computation as the original flat problem.
// The difference is in the elimination of useless operations with zeros."
//
// For LINEAR measurement functions (position observations) there is no
// relinearization, so applying the constraints in the same order must give
// *identical* results whether the state is updated flat or through the
// hierarchy — the off-diagonal blocks the hierarchy never touches are
// exactly the ones that are zero in the flat run.
#include <gtest/gtest.h>

#include "constraints/helix_gen.hpp"
#include "core/assign.hpp"
#include "core/schedule.hpp"
#include "core/solve_plan.hpp"
#include "core/work_model.hpp"
#include "engine/engine.hpp"
#include "estimation/update.hpp"
#include "molecule/rna_helix.hpp"
#include "parallel/thread_pool.hpp"
#include "support/rng.hpp"

namespace phmse::core {
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

// A linear problem over `atoms` atoms: every atom gets a few position
// observations; a fraction "spans" two halves only through ordering (all
// measurements are single-atom, so each lands on a leaf — we also add
// cross-half pairs as linear two-atom observations below).
class LinearEquivalence : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Trees, LinearEquivalence, ::testing::Range(0, 6));

TEST_P(LinearEquivalence, HierarchicalEqualsFlatForLinearData) {
  Rng rng(100 + static_cast<std::uint64_t>(GetParam()));
  const Index atoms = 8 + 2 * GetParam();
  const Index leaf = 2 + GetParam() % 3;

  // Hierarchy via recursive bisection.
  Hierarchy h = build_bisection_hierarchy(atoms, leaf);

  // Linear constraints, generated in hierarchy application order: walk the
  // tree post-order and emit observations for each node's atoms.  The flat
  // run applies the very same sequence.
  cons::ConstraintSet ordered;
  h.for_each_post_order([&](HierNode& node) {
    if (!node.is_leaf()) return;
    for (Index a = node.atom_begin; a < node.atom_end; ++a) {
      for (int axis = 0; axis < 3; ++axis) {
        node.constraints.add(position_obs(a, axis, rng.gaussian(0.0, 1.0),
                                          0.3 + 0.1 * (axis + 1)));
      }
    }
    ordered.append(node.constraints);
  });

  linalg::Vector x0(static_cast<std::size_t>(3 * atoms));
  for (auto& v : x0) v = rng.gaussian(0.0, 2.0);

  // Hierarchical solve (one cycle).
  HierSolveOptions hopts;
  hopts.batch_size = 4;
  hopts.prior_sigma = 1.5;
  par::SerialContext ctx1;
  SolvePlan plan(h, hopts);
  plan.run(ctx1, x0);
  const est::NodeState& hier = plan.root_state();

  // Flat application of the identical sequence.
  est::NodeState flat;
  flat.atom_begin = 0;
  flat.atom_end = atoms;
  flat.x = x0;
  flat.reset_covariance(1.5);
  par::SerialContext ctx2;
  est::BatchUpdater updater;
  updater.apply_all(ctx2, flat, ordered, 4);

  // With linear measurements the two computations are the same numbers.
  for (std::size_t i = 0; i < flat.x.size(); ++i) {
    EXPECT_NEAR(hier.x[i], flat.x[i], 1e-10) << "coord " << i;
  }
  EXPECT_LT(hier.c.frobenius_distance(flat.c), 1e-9);
}

TEST(LinearEquivalenceCross, BoundarySpanningConstraintsMatchToo) {
  // Same, with genuine two-atom linear-ish... distances are nonlinear, so
  // use pairs of single-coordinate observations plus a *shared* atom
  // pattern: an observation of atom a's x and atom b's x with correlated
  // noise cannot be expressed as one scalar linear constraint in our
  // constraint language, so instead verify the hierarchy places multi-atom
  // constraints at interior nodes and the linear equivalence still holds
  // when those constraints (position pairs applied at the parent) come
  // after the leaves.
  Rng rng(7);
  const Index atoms = 8;
  Hierarchy h = build_bisection_hierarchy(atoms, 4);

  cons::ConstraintSet ordered;
  h.for_each_post_order([&](HierNode& node) {
    if (node.is_leaf()) {
      for (Index a = node.atom_begin; a < node.atom_end; ++a) {
        node.constraints.add(position_obs(a, 0, rng.gaussian(), 0.5));
      }
    } else {
      // "Boundary" data: observations of atoms on both sides, applied at
      // the parent exactly as assign_constraints would place a spanning
      // constraint.
      node.constraints.add(
          position_obs(node.atom_begin, 1, rng.gaussian(), 0.4));
      node.constraints.add(
          position_obs(node.atom_end - 1, 1, rng.gaussian(), 0.4));
    }
    ordered.append(node.constraints);
  });

  linalg::Vector x0(static_cast<std::size_t>(3 * atoms), 0.0);

  HierSolveOptions hopts;
  hopts.batch_size = 2;
  hopts.prior_sigma = 1.0;
  par::SerialContext ctx1;
  SolvePlan plan(h, hopts);
  plan.run(ctx1, x0);
  const est::NodeState& hier = plan.root_state();

  est::NodeState flat;
  flat.atom_begin = 0;
  flat.atom_end = atoms;
  flat.x = x0;
  flat.reset_covariance(1.0);
  par::SerialContext ctx2;
  est::BatchUpdater updater;
  updater.apply_all(ctx2, flat, ordered, 2);

  for (std::size_t i = 0; i < flat.x.size(); ++i) {
    EXPECT_NEAR(hier.x[i], flat.x[i], 1e-10);
  }
  EXPECT_LT(hier.c.frobenius_distance(flat.c), 1e-9);
}

TEST(LinearEquivalence, NonlinearDataIsExactTooWhenOrderMatches) {
  // A stronger form of the Section-3 claim: the per-constraint update
  // depends only on the current (x, C) restricted to the constraint's
  // atoms, and until a cross-part constraint arrives those restrictions
  // are identical in the flat and hierarchical runs.  So when the flat run
  // applies constraints in the hierarchy's post-order, the two computations
  // coincide step by step even for NONLINEAR measurements — same
  // linearization points, same numbers.
  Rng rng(8);
  const Index atoms = 6;
  Hierarchy h = build_bisection_hierarchy(atoms, 3);

  cons::ConstraintSet ordered;
  mol::Topology topo;
  for (Index a = 0; a < atoms; ++a) {
    topo.add_atom("a" + std::to_string(a),
                  {static_cast<double>(a) * 1.5, 0.3 * (a % 2), 0.0});
  }
  h.for_each_post_order([&](HierNode& node) {
    for (Index a = node.atom_begin; a + 1 < node.atom_end; ++a) {
      node.constraints.add(cons::make_observed(
          Kind::kDistance, {a, a + 1, 0, 0}, topo, 0.05, rng));
    }
    ordered.append(node.constraints);
  });

  linalg::Vector x0 = topo.true_state();
  for (auto& v : x0) v += rng.gaussian(0.0, 0.05);

  HierSolveOptions hopts;
  hopts.batch_size = 4;
  hopts.prior_sigma = 0.5;
  par::SerialContext ctx1;
  SolvePlan plan(h, hopts);
  plan.run(ctx1, x0);
  const est::NodeState& hier = plan.root_state();

  est::NodeState flat;
  flat.atom_begin = 0;
  flat.atom_end = atoms;
  flat.x = x0;
  flat.reset_covariance(0.5);
  par::SerialContext ctx2;
  est::BatchUpdater updater;
  updater.apply_all(ctx2, flat, ordered, 4);

  for (std::size_t i = 0; i < flat.x.size(); ++i) {
    EXPECT_NEAR(hier.x[i], flat.x[i], 1e-12);
  }
  EXPECT_LT(hier.c.frobenius_distance(flat.c), 1e-10);
}

TEST(LinearEquivalence, DifferentOrderDivergesForNonlinearData) {
  // The counterpoint that pins the mechanism down: apply the same
  // nonlinear constraints in a DIFFERENT order in the flat run, and the
  // relinearization points drift apart — the results are close but no
  // longer identical.  (The paper's Section 5 discusses exactly this
  // ordering effect on convergence.)
  Rng rng(9);
  const Index atoms = 6;
  Hierarchy h = build_bisection_hierarchy(atoms, 3);

  mol::Topology topo;
  for (Index a = 0; a < atoms; ++a) {
    topo.add_atom("a" + std::to_string(a),
                  {static_cast<double>(a) * 1.5, 0.3 * (a % 2), 0.1 * a});
  }
  cons::ConstraintSet ordered;
  h.for_each_post_order([&](HierNode& node) {
    for (Index a = node.atom_begin; a + 1 < node.atom_end; ++a) {
      node.constraints.add(cons::make_observed(
          Kind::kDistance, {a, a + 1, 0, 0}, topo, 0.05, rng));
    }
    ordered.append(node.constraints);
  });

  linalg::Vector x0 = topo.true_state();
  for (auto& v : x0) v += rng.gaussian(0.0, 0.1);

  HierSolveOptions hopts;
  hopts.batch_size = 4;
  hopts.prior_sigma = 0.5;
  par::SerialContext ctx1;
  SolvePlan plan(h, hopts);
  plan.run(ctx1, x0);
  const est::NodeState& hier = plan.root_state();

  // Reversed constraint order.
  cons::ConstraintSet reversed;
  for (Index i = ordered.size(); i > 0; --i) reversed.add(ordered[i - 1]);
  est::NodeState flat;
  flat.atom_begin = 0;
  flat.atom_end = atoms;
  flat.x = x0;
  flat.reset_covariance(0.5);
  par::SerialContext ctx2;
  est::BatchUpdater updater;
  updater.apply_all(ctx2, flat, reversed, 4);

  double max_diff = 0.0;
  for (std::size_t i = 0; i < flat.x.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(hier.x[i] - flat.x[i]));
  }
  EXPECT_GT(max_diff, 1e-12);  // genuinely different paths...
  // ...to answers within the prior's reach of each other (the chain has
  // unanchored gauge freedom, so order changes shift the pose noticeably).
  EXPECT_LT(max_diff, 1.0);
}

TEST(PlanEquivalence, RepeatedAndThreadedSolvesMatchAFreshRunBitwise) {
  // The plan/execute split must be invisible in the numbers: one compiled
  // plan solved twice (buffers warm the second time), the same plan solved
  // on real threads, and a fresh core plan over a hand-prepared hierarchy
  // all produce bitwise identical posteriors.
  mol::HelixModel model = mol::build_helix(2);
  const cons::ConstraintSet set = cons::generate_helix_constraints(model);
  Rng rng(11);
  linalg::Vector x0 = model.topology.true_state();
  for (auto& v : x0) v += rng.gaussian(0.0, 0.25);

  HierSolveOptions opts;
  opts.max_cycles = 3;
  opts.prior_sigma = 0.5;

  engine::Problem problem = engine::Problem::custom(
      model.topology.size(), set,
      [&model] { return build_helix_hierarchy(model); });
  engine::CompileOptions copts;
  copts.solve = opts;
  copts.processors = 4;
  engine::Plan plan = engine::Engine::compile(problem, copts);

  // Fresh run of a core plan compiled by hand.
  Hierarchy h = build_helix_hierarchy(model);
  assign_constraints(h, set);
  estimate_work(h, WorkModel{}, opts.batch_size);
  assign_processors(h, 4);
  par::SerialContext ctx;
  SolvePlan fresh_plan(h, opts);
  fresh_plan.run(ctx, x0);
  const est::NodeState& fresh = fresh_plan.root_state();

  const engine::Result first = plan.solve(x0);
  EXPECT_EQ(first.posterior().x, fresh.x);
  EXPECT_EQ(first.posterior().c, fresh.c);

  const engine::Result second = plan.solve(x0);
  EXPECT_EQ(second.posterior().x, fresh.x);
  EXPECT_EQ(second.posterior().c, fresh.c);

  par::ThreadPool pool(4);
  const engine::Result threaded = plan.solve(pool, x0);
  EXPECT_EQ(threaded.posterior().x, fresh.x);
  EXPECT_EQ(threaded.posterior().c, fresh.c);

  // And the plan is not poisoned by the threaded pass: serial again.
  const engine::Result again = plan.solve(x0);
  EXPECT_EQ(again.posterior().x, fresh.x);
  EXPECT_EQ(again.posterior().c, fresh.c);
}

TEST(PlanEquivalence, FaultPoliciesAreBitwiseInvisibleOnCleanData) {
  // The §9 fault-tolerance machinery must not change a single bit of a
  // clean solve: a plan compiled with the explicit abort policy and plans
  // compiled with every degradation policy all reproduce the default
  // plan's posterior exactly, and report every batch as ok.
  mol::HelixModel model = mol::build_helix(2);
  const cons::ConstraintSet set = cons::generate_helix_constraints(model);
  Rng rng(12);
  linalg::Vector x0 = model.topology.true_state();
  for (auto& v : x0) v += rng.gaussian(0.0, 0.25);

  auto compile = [&](const est::SolvePolicy& policy) {
    engine::Problem problem = engine::Problem::custom(
        model.topology.size(), set,
        [&model] { return build_helix_hierarchy(model); });
    engine::CompileOptions copts;
    copts.solve.max_cycles = 2;
    copts.solve.prior_sigma = 0.5;
    copts.solve.policy = policy;
    return engine::Engine::compile(problem, copts);
  };

  engine::Plan base_plan = compile({});  // default-constructed = abort
  const engine::Result base = base_plan.solve(x0);
  EXPECT_TRUE(base.report.clean());
  EXPECT_EQ(base.report.ok, base.report.batches);
  EXPECT_GT(base.report.batches, 0);

  for (const est::SolvePolicy& policy :
       {est::SolvePolicy::abort(), est::SolvePolicy::skip_batch(),
        est::SolvePolicy::retry_regularized(),
        est::SolvePolicy::gate_outliers()}) {
    engine::Plan plan = compile(policy);
    const engine::Result r = plan.solve(x0);
    EXPECT_EQ(r.posterior().x, base.posterior().x);
    EXPECT_EQ(r.posterior().c, base.posterior().c);
    EXPECT_TRUE(r.report.clean());
    EXPECT_EQ(r.report.max_attempts, 1);
    EXPECT_TRUE(r.report.incidents.empty());
  }
}

}  // namespace
}  // namespace phmse::core
