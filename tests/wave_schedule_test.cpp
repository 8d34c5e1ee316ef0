// The §5 wave schedule (dynamic processor re-assignment by periodic global
// synchronization) executed by core::SolvePlan.
#include <gtest/gtest.h>

#include <algorithm>

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

Problem helix_problem(Index length) {
  Problem p{mol::build_helix(length), {}, {}};
  cons::HelixNoise noise;
  noise.anchor_first_pair = true;
  p.set = cons::generate_helix_constraints(p.model, noise);
  Rng rng(7);
  p.initial = p.model.topology.true_state();
  for (auto& v : p.initial) v += rng.gaussian(0.0, 0.3);
  return p;
}

Hierarchy prepared(const Problem& p, int procs) {
  Hierarchy h = build_helix_hierarchy(p.model);
  assign_constraints(h, p.set);
  estimate_work(h, WorkModel{}, 16);
  assign_processors(h, procs);
  return h;
}

Hierarchy prepared_waves(const Problem& p, int procs) {
  Hierarchy h = prepared(p, procs);
  assign_wave_processors(h, procs);
  return h;
}

TEST(DynamicSolver, NumericsMatchStaticSchedule) {
  // Dynamic scheduling changes processor placement, not constraint order:
  // results must be bitwise identical to the static (and serial) solve.
  const Problem p = helix_problem(2);
  HierSolveOptions opts;

  Hierarchy h1 = prepared(p, 6);
  simarch::SimMachine m1(simarch::generic(6));
  SolvePlan stat(h1, opts);
  stat.run(m1, p.initial);

  Hierarchy h2 = prepared_waves(p, 6);
  simarch::SimMachine m2(simarch::generic(6));
  SolvePlan dyn(h2, opts);
  dyn.run(m2, p.initial);

  EXPECT_EQ(stat.root_state().x, dyn.root_state().x);
  EXPECT_EQ(stat.root_state().c, dyn.root_state().c);
}

TEST(DynamicSolver, HelpsAtNonPowerOfTwoProcessorCounts) {
  // The paper's motivation: the binary helix tree wastes the odd processor
  // under static scheduling; dynamic regrouping recovers some of it.
  const Problem p = helix_problem(8);
  HierSolveOptions opts;

  auto static_time = [&](int procs) {
    Hierarchy h = prepared(p, procs);
    simarch::SimMachine m(simarch::dash32());
    return SolvePlan(h, opts).run(m, p.initial).vtime;
  };
  auto dynamic_time = [&](int procs) {
    Hierarchy h = prepared_waves(p, procs);
    simarch::SimMachine m(simarch::dash32());
    return SolvePlan(h, opts).run(m, p.initial).vtime;
  };

  // At 6 processors the static schedule must run at the speed of the
  // 3-processor half; the dynamic wave schedule balances leaf work freely.
  const double stat6 = static_time(6);
  const double dyn6 = dynamic_time(6);
  EXPECT_LT(dyn6, stat6 * 1.05);  // at worst marginally slower
}

TEST(DynamicSolver, ScalesWithProcessors) {
  const Problem p = helix_problem(4);
  HierSolveOptions opts;
  auto t = [&](int procs) {
    Hierarchy h = prepared_waves(p, procs);
    simarch::SimMachine m(simarch::generic(procs));
    return SolvePlan(h, opts).run(m, p.initial).vtime;
  };
  EXPECT_GT(t(1) / t(8), 3.0);
}

TEST(DynamicSolver, CyclesAndConvergenceWork) {
  const Problem p = helix_problem(1);
  Hierarchy h = prepared_waves(p, 4);
  simarch::SimMachine m(simarch::generic(4));
  HierSolveOptions opts;
  opts.max_cycles = 40;
  opts.prior_sigma = 0.5;
  opts.tolerance = 0.05;
  SolvePlan plan(h, opts);
  EXPECT_TRUE(plan.run(m, p.initial).converged);
  EXPECT_LT(p.model.topology.rmsd_to_truth(plan.root_state().x),
            p.model.topology.rmsd_to_truth(p.initial));
}

TEST(DynamicSolver, RejectsWrongInitialDimension) {
  const Problem p = helix_problem(1);
  Hierarchy h = prepared_waves(p, 2);
  simarch::SimMachine m(simarch::generic(2));
  linalg::Vector wrong(5, 0.0);
  SolvePlan plan(h, HierSolveOptions{});
  EXPECT_THROW(plan.run(m, wrong), phmse::Error);
}

TEST(DynamicSolver, WavesAreDepthsAndGroupsFitTheMachine) {
  const Problem p = helix_problem(2);
  Hierarchy h = prepared_waves(p, 6);
  int max_wave = -1;
  h.for_each_post_order([&](const HierNode& node) {
    EXPECT_GE(node.wave, 0) << node.name;
    for (const auto& child : node.children) {
      EXPECT_EQ(child->wave, node.wave + 1) << child->name;
    }
    EXPECT_GE(node.proc_first, 0);
    EXPECT_GE(node.proc_count, 1);
    EXPECT_LE(node.proc_first + node.proc_count, 6) << node.name;
    max_wave = std::max(max_wave, node.wave);
  });
  EXPECT_EQ(h.root().wave, 0);
  EXPECT_EQ(max_wave + 1, h.depth());
  EXPECT_NE(describe_schedule(h).find("wave="), std::string::npos);

  // The static schedule clears the waves again.
  assign_processors(h, 6);
  h.for_each_post_order(
      [](const HierNode& node) { EXPECT_EQ(node.wave, -1) << node.name; });
}

TEST(DynamicSolver, ThreadedRunRefusesNonNestingGroups) {
  // Wave groups ignore subtree nesting, so overlapping fork/join teams could
  // deadlock: a thread-pool run must throw before any node executes, and
  // the plan must stay usable for the executors that can run the schedule.
  const Problem p = helix_problem(2);
  Hierarchy h = prepared_waves(p, 2);
  EXPECT_THROW(validate_schedule(h), phmse::Error);
  SolvePlan plan(h, HierSolveOptions{});
  par::ThreadPool pool(2);
  EXPECT_THROW(plan.run(pool, p.initial), phmse::Error);
  EXPECT_EQ(plan.last_report().batches, 0);

  simarch::SimMachine m(simarch::generic(2));
  plan.run(m, p.initial);
  Hierarchy hs = prepared(p, 2);
  SolvePlan serial(hs, HierSolveOptions{});
  par::SerialContext ctx;
  serial.run(ctx, p.initial);
  EXPECT_EQ(plan.root_state().x, serial.root_state().x);

  // Back on the static schedule the same plan runs threaded again.
  assign_processors(h, 2);
  plan.refresh_schedule();
  plan.run(pool, p.initial);
  EXPECT_EQ(plan.root_state().x, serial.root_state().x);
}

}  // namespace
}  // namespace phmse::core
