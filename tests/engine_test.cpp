// The phmse::Engine facade: compile-once / solve-many.  These tests pin
// the facade to the core plan it wraps (a compiled plan must produce
// bitwise the numbers a core::SolvePlan over a hand-prepared hierarchy
// produces) and exercise the plan-reuse surface: repeated solves,
// rescheduling, observation rebinding, compile timings, and the
// describe() dump.
#include <gtest/gtest.h>

#include <vector>

#include "constraints/helix_gen.hpp"
#include "core/assign.hpp"
#include "core/schedule.hpp"
#include "core/solve_plan.hpp"
#include "core/work_model.hpp"
#include "engine/engine.hpp"
#include "linalg/backend.hpp"
#include "molecule/rna_helix.hpp"
#include "support/rng.hpp"

namespace phmse::engine {
namespace {

struct Fixture {
  mol::HelixModel model = mol::build_helix(2);
  cons::ConstraintSet set = cons::generate_helix_constraints(model);
  linalg::Vector initial;

  Fixture() {
    Rng rng(42);
    initial = model.topology.true_state();
    for (auto& v : initial) v += rng.gaussian(0.0, 0.3);
  }

  Problem problem() const {
    return Problem::custom(model.topology.size(), set, [model = model] {
      return core::build_helix_hierarchy(model);
    });
  }

  static CompileOptions options(int cycles = 3, int processors = 1) {
    CompileOptions o;
    o.solve.max_cycles = cycles;
    o.solve.prior_sigma = 0.5;
    o.processors = processors;
    return o;
  }
};

TEST(Engine, CompileProducesAUsablePlan) {
  Fixture f;
  Plan plan = Engine::compile(f.problem(), Fixture::options());
  EXPECT_EQ(plan.processors(), 1);
  EXPECT_EQ(plan.options().max_cycles, 3);
  EXPECT_GT(plan.hierarchy().num_nodes(), 1);

  const Result res = plan.solve(f.initial);
  EXPECT_EQ(res.cycles, 3);
  EXPECT_GT(res.seconds, 0.0);
  EXPECT_EQ(res.vtime, 0.0);
  EXPECT_LT(f.model.topology.rmsd_to_truth(res.posterior().x),
            f.model.topology.rmsd_to_truth(f.initial));
}

TEST(Engine, SerialSolveIsBitwiseTheCorePlan) {
  Fixture f;
  const CompileOptions opts = Fixture::options();
  Plan plan = Engine::compile(f.problem(), opts);
  const Result res = plan.solve(f.initial);

  core::Hierarchy h = core::build_helix_hierarchy(f.model);
  core::assign_constraints(h, f.set);
  core::estimate_work(h, core::WorkModel{}, opts.solve.batch_size);
  core::assign_processors(h, 1);
  par::SerialContext ctx;
  core::SolvePlan core_plan(h, opts.solve);
  const core::PlanRunStats stats = core_plan.run(ctx, f.initial);
  const est::NodeState& direct = core_plan.root_state();

  ASSERT_EQ(res.posterior().x.size(), direct.x.size());
  for (std::size_t i = 0; i < direct.x.size(); ++i) {
    EXPECT_EQ(res.posterior().x[i], direct.x[i]) << "coord " << i;
  }
  EXPECT_EQ(res.cycles, stats.cycles);
  EXPECT_EQ(res.last_cycle_delta, stats.last_cycle_delta);
  EXPECT_EQ(res.converged, stats.converged);
  EXPECT_EQ(res.posterior().c.frobenius_distance(direct.c), 0.0);
}

TEST(Engine, SimulatedSolveIsBitwiseTheCorePlan) {
  Fixture f;
  const CompileOptions opts = Fixture::options(2, 4);
  Plan plan = Engine::compile(f.problem(), opts);
  simarch::SimMachine machine(simarch::generic(8));
  const Result res = plan.solve(machine, f.initial);
  EXPECT_GT(res.vtime, 0.0);

  core::Hierarchy h = core::build_helix_hierarchy(f.model);
  core::assign_constraints(h, f.set);
  core::estimate_work(h, core::WorkModel{}, opts.solve.batch_size);
  core::assign_processors(h, 4);
  simarch::SimMachine machine2(simarch::generic(8));
  core::SolvePlan core_plan(h, opts.solve);
  const core::PlanRunStats stats = core_plan.run(machine2, f.initial);

  EXPECT_EQ(res.vtime, stats.vtime);
  EXPECT_EQ(res.vtime, machine2.elapsed());
  for (std::size_t i = 0; i < core_plan.root_state().x.size(); ++i) {
    EXPECT_EQ(res.posterior().x[i], core_plan.root_state().x[i]);
  }
}

TEST(Engine, RepeatedSolvesAreBitwiseIdentical) {
  Fixture f;
  Plan plan = Engine::compile(f.problem(), Fixture::options());
  const Result first = plan.solve(f.initial);
  const linalg::Vector x1 = first.posterior().x;
  const linalg::Matrix c1 = first.posterior().c;

  const Result second = plan.solve(f.initial);
  ASSERT_EQ(second.posterior().x.size(), x1.size());
  for (std::size_t i = 0; i < x1.size(); ++i) {
    EXPECT_EQ(second.posterior().x[i], x1[i]) << "coord " << i;
  }
  EXPECT_EQ(second.posterior().c.frobenius_distance(c1), 0.0);
  EXPECT_EQ(second.cycles, first.cycles);
  EXPECT_EQ(second.last_cycle_delta, first.last_cycle_delta);
}

TEST(Engine, RescheduleKeepsSerialNumbersAndChangesThePlan) {
  // The §4.3 schedule moves work between processors; it must not change
  // the arithmetic of a serial execution of the same plan.
  Fixture f;
  Plan plan = Engine::compile(f.problem(), Fixture::options());
  const linalg::Vector before = plan.solve(f.initial).posterior().x;

  plan.reschedule(4);
  EXPECT_EQ(plan.processors(), 4);
  const linalg::Vector after = plan.solve(f.initial).posterior().x;
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i], before[i]);
  }
  EXPECT_THROW(plan.reschedule(0), phmse::Error);
}

TEST(Engine, SetObservationsRebindsAndRestores) {
  Fixture f;
  Plan plan = Engine::compile(f.problem(), Fixture::options());
  const linalg::Vector baseline = plan.solve(f.initial).posterior().x;

  std::vector<double> original;
  std::vector<double> nudged;
  original.reserve(static_cast<std::size_t>(f.set.size()));
  for (Index i = 0; i < f.set.size(); ++i) {
    original.push_back(f.set[i].observed);
    nudged.push_back(f.set[i].observed + 0.05);
  }

  plan.set_observations(nudged);
  const linalg::Vector shifted = plan.solve(f.initial).posterior().x;
  double diff = 0.0;
  for (std::size_t i = 0; i < shifted.size(); ++i) {
    diff = std::max(diff, std::abs(shifted[i] - baseline[i]));
  }
  EXPECT_GT(diff, 1e-9);  // the new data genuinely flowed through

  plan.set_observations(original);
  const linalg::Vector restored = plan.solve(f.initial).posterior().x;
  for (std::size_t i = 0; i < restored.size(); ++i) {
    EXPECT_EQ(restored[i], baseline[i]);
  }

  const std::vector<double> wrong_size(3, 0.0);
  EXPECT_THROW(plan.set_observations(wrong_size), phmse::Error);
}

// Regression for the no-op rebind: set_observations with the values a plan
// already carries must leave the dirty set empty, so the next incremental
// solve reuses every node — and still returns the identical posterior.
TEST(Engine, NoOpObservationRebindRecomputesNothing) {
  Fixture f;
  CompileOptions opts = Fixture::options(/*cycles=*/1);
  Plan plan = Engine::compile(f.problem(), opts);
  const long num_nodes = static_cast<long>(plan.hierarchy().num_nodes());

  std::vector<double> values;
  values.reserve(static_cast<std::size_t>(f.set.size()));
  for (Index i = 0; i < f.set.size(); ++i) values.push_back(f.set[i].observed);

  const Result first = plan.solve(f.initial);  // forms the checkpoint
  ASSERT_TRUE(plan.has_checkpoint());
  const linalg::Vector baseline = first.posterior().x;

  plan.set_observations(values);  // identical values: nothing marked
  EXPECT_EQ(plan.pending_dirty_nodes(), 0u);
  const Result noop = plan.solve_incremental(f.initial);
  EXPECT_TRUE(noop.report.incremental);
  EXPECT_EQ(noop.report.nodes_recomputed, 0);
  EXPECT_EQ(noop.report.nodes_reused, num_nodes);
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(noop.posterior().x[i], baseline[i]) << "coord " << i;
  }

  // One genuinely changed value: its leaf's root path re-executes, the
  // sibling subtrees do not.
  values[0] += 0.05;
  plan.set_observations(values);
  EXPECT_EQ(plan.pending_dirty_nodes(), 1u);
  const Result touched = plan.solve_incremental(f.initial);
  EXPECT_TRUE(touched.report.incremental);
  EXPECT_GT(touched.report.nodes_recomputed, 0);
  EXPECT_LT(touched.report.nodes_recomputed, num_nodes);
}

TEST(Engine, FlatAndBisectionFactoriesCompile) {
  Fixture f;
  const Index atoms = f.model.topology.size();

  Plan flat = Engine::compile(Problem::flat(atoms, f.set),
                              Fixture::options());
  EXPECT_EQ(flat.hierarchy().num_nodes(), 1);
  EXPECT_TRUE(flat.solve(f.initial).posterior().x.size() ==
              f.initial.size());

  Plan bis = Engine::compile(Problem::bisection(atoms, f.set, 8),
                             Fixture::options());
  EXPECT_GT(bis.hierarchy().num_nodes(), 1);
  const Result res = bis.solve(f.initial);
  EXPECT_LT(f.model.topology.rmsd_to_truth(res.posterior().x),
            f.model.topology.rmsd_to_truth(f.initial));
}

TEST(Engine, CompileValidatesTheDecomposition) {
  Fixture f;
  // A recipe that covers the wrong atom range must be rejected.
  Problem bad = Problem::custom(f.model.topology.size() + 5, f.set,
                                [&f] { return core::build_helix_hierarchy(
                                           f.model); });
  EXPECT_THROW(Engine::compile(bad), phmse::Error);

  Problem empty;
  EXPECT_THROW(Engine::compile(empty), phmse::Error);
}

TEST(Engine, CompileTimingsArePhased) {
  Fixture f;
  Plan plan = Engine::compile(f.problem(), Fixture::options());
  const CompileTimings& t = plan.timings();
  EXPECT_GT(t.total_seconds, 0.0);
  EXPECT_EQ(t.calibrate_seconds, 0.0);  // not requested
  EXPECT_LE(t.decompose_seconds + t.assign_seconds + t.schedule_seconds +
                t.workspace_seconds,
            t.total_seconds * 1.5 + 1e-6);
}

TEST(Engine, CalibratedWorkModelIsUsable) {
  Fixture f;
  CompileOptions opts = Fixture::options(1, 4);
  opts.calibrate_work_model = true;
  Plan plan = Engine::compile(f.problem(), opts);
  EXPECT_GT(plan.timings().calibrate_seconds, 0.0);
  // The fitted Eq.-1 model must predict positive, growing cost.
  const core::WorkModel& wm = plan.work_model();
  EXPECT_GT(wm.per_constraint(24, 16), 0.0);
  EXPECT_GE(wm.per_constraint(240, 16), wm.per_constraint(24, 16));
  // And the plan built on it still solves.
  EXPECT_EQ(plan.solve(f.initial).cycles, 1);
}

TEST(Engine, DescribeMentionsTheScheduleAndCounts) {
  Fixture f;
  Plan plan = Engine::compile(f.problem(), Fixture::options(1, 4));
  const std::string text = plan.describe();
  EXPECT_NE(text.find("P=4"), std::string::npos);
  EXPECT_NE(text.find("nodes"), std::string::npos);
}

TEST(Engine, EmptyResultThrowsOnPosterior) {
  Result r;
  EXPECT_THROW(r.posterior(), phmse::Error);
}

TEST(Engine, ReportRecordsTheResolvedBackend) {
  Fixture f;
  // Default options resolve to the process-default backend.
  Plan plan = Engine::compile(f.problem(), Fixture::options(1));
  EXPECT_EQ(plan.solve(f.initial).report.backend,
            linalg::default_backend().name);

  // An explicit per-solve backend is pinned at compile and reported.
  for (const char* name : {"ref", "blocked", "simd"}) {
    CompileOptions o = Fixture::options(1);
    o.solve.backend = name;
    Plan pinned = Engine::compile(f.problem(), o);
    EXPECT_EQ(pinned.solve(f.initial).report.backend, name);
  }
}

TEST(Engine, PinnedBackendsAgreeDifferentially) {
  // The same problem solved under each pinned backend lands within
  // differential round-off of the ref-backend posterior (the backends sum
  // in different orders, so bitwise equality is not expected).
  Fixture f;
  CompileOptions o = Fixture::options(1);
  o.solve.backend = "ref";
  Plan ref_plan = Engine::compile(f.problem(), o);
  const Result ref_res = ref_plan.solve(f.initial);
  const linalg::Vector ref_x = ref_res.posterior().x;

  for (const char* name : {"blocked", "simd"}) {
    o.solve.backend = name;
    Plan plan = Engine::compile(f.problem(), o);
    const Result res = plan.solve(f.initial);
    ASSERT_EQ(res.posterior().x.size(), ref_x.size()) << name;
    for (std::size_t i = 0; i < ref_x.size(); ++i) {
      EXPECT_NEAR(res.posterior().x[i], ref_x[i],
                  1e-8 * std::max(1.0, std::abs(ref_x[i])))
          << name << " coord " << i;
    }
  }
}

TEST(Engine, UnknownBackendFailsFastAtCompile) {
  Fixture f;
  CompileOptions o = Fixture::options(1);
  o.solve.backend = "tpu";
  try {
    Plan plan = Engine::compile(f.problem(), o);
    FAIL() << "expected phmse::Error";
  } catch (const phmse::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown backend 'tpu'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("valid backends: ref, blocked, simd"),
              std::string::npos)
        << msg;
  }
}

}  // namespace
}  // namespace phmse::engine
