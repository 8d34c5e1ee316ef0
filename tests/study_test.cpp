#include <gtest/gtest.h>

#include "constraints/helix_gen.hpp"
#include "engine/engine.hpp"
#include "engine/study.hpp"
#include "molecule/rna_helix.hpp"
#include "support/rng.hpp"

namespace phmse::engine {
namespace {

struct Fixture {
  mol::HelixModel model = mol::build_helix(2);
  cons::ConstraintSet set = cons::generate_helix_constraints(model);
  linalg::Vector initial;

  Fixture() {
    Rng rng(5);
    initial = model.topology.true_state();
    for (auto& v : initial) v += rng.gaussian(0.0, 0.2);
  }

  Plan plan() {
    Problem problem = Problem::custom(
        model.topology.size(), set,
        [this] { return core::build_helix_hierarchy(model); });
    return Engine::compile(problem);
  }
};

TEST(SpeedupStudy, FirstRowIsBaseline) {
  Fixture f;
  Plan plan = f.plan();
  const SpeedupStudy study =
      run_speedup_study(plan, f.initial, simarch::generic(8), {1, 2, 4, 8});
  ASSERT_EQ(study.rows.size(), 4u);
  EXPECT_EQ(study.rows[0].processors, 1);
  EXPECT_DOUBLE_EQ(study.rows[0].speedup, 1.0);
  EXPECT_EQ(study.machine, "generic");
}

TEST(SpeedupStudy, SpeedupGrowsAndEfficiencyBounded) {
  Fixture f;
  Plan plan = f.plan();
  const SpeedupStudy study =
      run_speedup_study(plan, f.initial, simarch::generic(8), {1, 2, 4, 8});
  for (std::size_t i = 1; i < study.rows.size(); ++i) {
    EXPECT_GT(study.rows[i].speedup, study.rows[i - 1].speedup * 0.9);
    EXPECT_LE(study.efficiency(i), 1.05);
    EXPECT_GT(study.efficiency(i), 0.2);
  }
}

TEST(SpeedupStudy, SkipsCountsBeyondTheMachine) {
  Fixture f;
  Plan plan = f.plan();
  const SpeedupStudy study =
      run_speedup_study(plan, f.initial, simarch::generic(4), {1, 2, 8, 16});
  ASSERT_EQ(study.rows.size(), 2u);
  EXPECT_EQ(study.rows.back().processors, 2);
}

TEST(SpeedupStudy, ThrowsWhenNothingFits) {
  Fixture f;
  Plan plan = f.plan();
  EXPECT_THROW(
      run_speedup_study(plan, f.initial, simarch::generic(4), {8, 16}),
      phmse::Error);
}

TEST(SpeedupStudy, BreakdownPopulated) {
  Fixture f;
  Plan plan = f.plan();
  const SpeedupStudy study =
      run_speedup_study(plan, f.initial, simarch::dash32(), {1});
  EXPECT_GT(study.rows[0].breakdown.time(perf::Category::kMatVec), 0.0);
  EXPECT_NEAR(study.rows[0].time, study.rows[0].breakdown.total(), 1e-9);
}

TEST(SpeedupStudy, FormatHasPaperColumns) {
  Fixture f;
  Plan plan = f.plan();
  const SpeedupStudy study =
      run_speedup_study(plan, f.initial, simarch::generic(4), {1, 4});
  const std::string table = format_speedup_table(study);
  for (const char* col : {"NP", "time", "spdup", "d-s", "chol", "sys",
                          "m-m", "m-v", "vec"}) {
    EXPECT_NE(table.find(col), std::string::npos) << col;
  }
}

TEST(SpeedupStudy, RestoresThePlanSchedule) {
  Fixture f;
  Plan plan = f.plan();
  ASSERT_EQ(plan.processors(), 1);
  run_speedup_study(plan, f.initial, simarch::generic(8), {2, 4, 8});
  EXPECT_EQ(plan.processors(), 1);

  // A solve that throws (a wrong-sized initial state) must not leave the
  // plan at the processor count it was trying.
  const linalg::Vector wrong(5, 0.0);
  EXPECT_THROW(
      run_speedup_study(plan, wrong, simarch::generic(8), {2, 4, 8}),
      phmse::Error);
  EXPECT_EQ(plan.processors(), 1);
  EXPECT_EQ(plan.hierarchy().root().proc_count, 1);
  EXPECT_EQ(plan.solve(f.initial).posterior().x.size(), f.initial.size());
}

TEST(SpeedupStudy, MatchesAFreshlyCompiledPlanBitwise) {
  // Rescheduling one plan across rows must not perturb the numerics or the
  // virtual timing vs compiling from scratch at a fixed processor count.
  Fixture f;
  Plan reused = f.plan();
  const SpeedupStudy study =
      run_speedup_study(reused, f.initial, simarch::generic(8), {1, 4});

  Problem problem = Problem::custom(
      f.model.topology.size(), f.set,
      [&f] { return core::build_helix_hierarchy(f.model); });
  CompileOptions opts;
  opts.processors = 4;
  Plan fresh = Engine::compile(problem, opts);
  simarch::SimMachine sim(simarch::generic(8));
  const Result res = fresh.solve(sim, f.initial);
  EXPECT_EQ(study.rows[1].time, res.vtime);
}

}  // namespace
}  // namespace phmse::engine
