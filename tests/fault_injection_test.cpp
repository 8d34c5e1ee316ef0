// Fault-containment tests (DESIGN.md §9), driven by the deterministic
// injection seam in src/estimation/fault_injection.hpp.
//
// The hooks are in every build and fire only while a test arms a site.
// Injected faults are keyed on (node atom range, batch ordinal), which is
// identical across the serial, threaded and simulated executors — so a
// fault-tolerant solve must not just survive the fault, it must produce
// bitwise identical results on all three.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "constraints/helix_gen.hpp"
#include "core/hierarchy.hpp"
#include "engine/engine.hpp"
#include "estimation/fault_injection.hpp"
#include "estimation/update.hpp"
#include "molecule/rna_helix.hpp"
#include "parallel/thread_pool.hpp"
#include "simarch/sim_context.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace phmse::est {
namespace {

using cons::Constraint;
using cons::Kind;

// Every test starts and ends with a disarmed injector, so a failing test
// cannot leave a fault armed for whatever test runs next.
class FaultInjection : public ::testing::Test {
 protected:
  void SetUp() override { fault::Injector::instance().clear(); }
  void TearDown() override { fault::Injector::instance().clear(); }
};

NodeState chain_state(Index atoms, double prior, Rng& rng) {
  NodeState st;
  st.atom_begin = 0;
  st.atom_end = atoms;
  st.x.resize(static_cast<std::size_t>(3 * atoms));
  for (Index a = 0; a < atoms; ++a) {
    st.x[static_cast<std::size_t>(3 * a)] = 1.4 * static_cast<double>(a);
    st.x[static_cast<std::size_t>(3 * a + 1)] = rng.gaussian(0.0, 0.3);
    st.x[static_cast<std::size_t>(3 * a + 2)] = rng.gaussian(0.0, 0.3);
  }
  st.reset_covariance(prior);
  return st;
}

std::vector<Constraint> chain_distances(Index atoms, Index count, Rng& rng) {
  std::vector<Constraint> batch;
  for (Index i = 0; i < count; ++i) {
    Constraint c;
    c.kind = Kind::kDistance;
    const Index a = i % (atoms - 1);
    c.atoms = {a, a + 1, 0, 0};
    c.observed = 1.3 + rng.uniform(0.0, 0.3);
    c.variance = 0.04;
    batch.push_back(c);
  }
  return batch;
}

TEST_F(FaultInjection, AbortPolicyThrowsOnInjectedNonSpd) {
  Rng rng(1);
  NodeState st = chain_state(6, 1.0, rng);
  const auto batch = chain_distances(6, 8, rng);
  fault::Injector::instance().arm({.kind = fault::Kind::kNonSpd});

  par::SerialContext ctx;
  BatchUpdater up;
  EXPECT_THROW(up.apply(ctx, st, batch), Error);
}

TEST_F(FaultInjection, SkipBatchLeavesStateBitwiseUntouched) {
  Rng rng(2);
  NodeState st = chain_state(6, 1.0, rng);
  const auto batch = chain_distances(6, 8, rng);
  const NodeState before = st;
  fault::Injector::instance().arm({.kind = fault::Kind::kNonSpd});

  par::SerialContext ctx;
  BatchUpdater up;
  const BatchOutcome out =
      up.apply(ctx, st, batch, SolvePolicy::skip_batch());

  EXPECT_EQ(out.status, BatchStatus::kSkipped);
  EXPECT_FALSE(out.applied());
  EXPECT_GE(out.failed_pivot, 0);
  EXPECT_EQ(st.x, before.x);  // bitwise rollback, not "close"
  EXPECT_EQ(st.c, before.c);
}

TEST_F(FaultInjection, RetryLadderRepairsAPersistentNonSpdFault) {
  Rng rng(3);
  NodeState st = chain_state(6, 1.0, rng);
  const auto batch = chain_distances(6, 8, rng);
  const NodeState before = st;
  // The injector subtracts 2*min(diag) from S's whole diagonal on EVERY
  // assembly, so the ladder must climb until lambda exceeds the injected
  // deficit — a genuinely persistent fault, not a transient one.
  fault::Injector::instance().arm({.kind = fault::Kind::kNonSpd});

  par::SerialContext ctx;
  BatchUpdater up;
  const BatchOutcome out =
      up.apply(ctx, st, batch, SolvePolicy::retry_regularized());

  EXPECT_EQ(out.status, BatchStatus::kRetried);
  EXPECT_TRUE(out.applied());
  EXPECT_GE(out.attempts, 2);
  EXPECT_LE(out.attempts, SolvePolicy{}.max_retries + 1);
  EXPECT_GT(out.regularization, 0.0);
  EXPECT_NE(st.x, before.x);  // the (regularized) update really applied
  for (double v : st.x) EXPECT_TRUE(std::isfinite(v));
  EXPECT_GE(fault::Injector::instance().fired(), 2L);
}

TEST_F(FaultInjection, ExhaustedLadderReportsFailedAndRollsBack) {
  Rng rng(4);
  NodeState st = chain_state(6, 1.0, rng);
  const auto batch = chain_distances(6, 8, rng);
  const NodeState before = st;
  fault::Injector::instance().arm({.kind = fault::Kind::kNonSpd});

  SolvePolicy policy = SolvePolicy::retry_regularized();
  policy.max_retries = 0;  // first failure is final
  par::SerialContext ctx;
  BatchUpdater up;
  const BatchOutcome out = up.apply(ctx, st, batch, policy);

  EXPECT_EQ(out.status, BatchStatus::kFailed);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(st.x, before.x);
  EXPECT_EQ(st.c, before.c);
}

TEST_F(FaultInjection, PoisonedStateIsCaughtByValidation) {
  Rng rng(5);
  NodeState st = chain_state(6, 1.0, rng);
  const auto batch = chain_distances(6, 8, rng);
  const NodeState before = st;
  fault::Injector::instance().arm({.kind = fault::Kind::kPoisonState});

  par::SerialContext ctx;
  BatchUpdater up;
  const BatchOutcome out =
      up.apply(ctx, st, batch, SolvePolicy::skip_batch());

  EXPECT_EQ(out.status, BatchStatus::kSkipped);
  EXPECT_EQ(out.attempts, 0);  // rejected before any factorization
  // The injected NaN is the fault itself; containment means the update
  // wrote nothing further: covariance bitwise intact, only x[0] poisoned.
  EXPECT_TRUE(std::isnan(st.x[0]));
  for (std::size_t i = 1; i < st.x.size(); ++i) {
    EXPECT_EQ(st.x[i], before.x[i]);
  }
  EXPECT_EQ(st.c, before.c);
}

TEST_F(FaultInjection, CorruptObservationIsGatedAsAnOutlier) {
  Rng rng(6);
  NodeState st = chain_state(6, 1.0, rng);
  const auto batch = chain_distances(6, 8, rng);
  const NodeState before = st;
  fault::Injector::instance().arm(
      {.kind = fault::Kind::kCorruptObservation, .magnitude = 1e6});

  par::SerialContext ctx;
  BatchUpdater up;
  const BatchOutcome out =
      up.apply(ctx, st, batch, SolvePolicy::gate_outliers());

  EXPECT_EQ(out.status, BatchStatus::kGated);
  EXPECT_GT(out.chi2_per_dof, SolvePolicy{}.gate_chi2_per_dof);
  EXPECT_EQ(st.x, before.x);
  EXPECT_EQ(st.c, before.c);
}

TEST_F(FaultInjection, NonFiniteObservationIsCaughtByValidation) {
  Rng rng(7);
  NodeState st = chain_state(6, 1.0, rng);
  const auto batch = chain_distances(6, 8, rng);
  const NodeState before = st;
  fault::Injector::instance().arm(
      {.kind = fault::Kind::kCorruptObservation,
       .magnitude = std::numeric_limits<double>::quiet_NaN()});

  par::SerialContext ctx;
  BatchUpdater up;
  const BatchOutcome out =
      up.apply(ctx, st, batch, SolvePolicy::skip_batch());

  EXPECT_EQ(out.status, BatchStatus::kSkipped);
  EXPECT_EQ(out.attempts, 0);
  EXPECT_EQ(st.x, before.x);
  EXPECT_EQ(st.c, before.c);
}

TEST_F(FaultInjection, CleanBatchUnderNonAbortPolicyIsBitwiseIdentical) {
  // The retry/gate machinery must be pure overhead-free observation on
  // clean data: same numbers as the abort policy, bit for bit.
  Rng rng(8);
  NodeState st_abort = chain_state(8, 1.0, rng);
  NodeState st_gate = st_abort;
  Rng crng(9);
  const auto batch = chain_distances(8, 12, crng);

  par::SerialContext ctx;
  BatchUpdater up1;
  const BatchOutcome a = up1.apply(ctx, st_abort, batch, SolvePolicy::abort());
  BatchUpdater up2;
  const BatchOutcome b =
      up2.apply(ctx, st_gate, batch, SolvePolicy::gate_outliers());

  EXPECT_EQ(a.status, BatchStatus::kOk);
  EXPECT_EQ(b.status, BatchStatus::kOk);
  EXPECT_EQ(a.attempts, 1);
  EXPECT_EQ(b.attempts, 1);
  EXPECT_GT(b.chi2_per_dof, 0.0);
  EXPECT_EQ(st_abort.x, st_gate.x);
  EXPECT_EQ(st_abort.c, st_gate.c);
}

// --- End to end: one subtree's batch forced non-SPD inside a full
// hierarchical solve, on all three executors. -----------------------------

struct HelixFixture {
  mol::HelixModel model = mol::build_helix(2);
  cons::ConstraintSet set = cons::generate_helix_constraints(model);
  linalg::Vector x0;
  // Atom range of the first constrained leaf: both ends are needed to pin
  // ONE node (an ancestor shares its first leaf's atom_begin).
  Index target_atom_begin = -1;
  Index target_atom_end = -1;

  HelixFixture() {
    Rng rng(11);
    x0 = model.topology.true_state();
    for (auto& v : x0) v += rng.gaussian(0.0, 0.25);
  }

  engine::Plan compile(const SolvePolicy& policy, int processors) {
    engine::Problem problem = engine::Problem::custom(
        model.topology.size(), set,
        [this] { return core::build_helix_hierarchy(model); });
    engine::CompileOptions copts;
    copts.solve.policy = policy;
    copts.solve.prior_sigma = 0.5;
    copts.processors = processors;
    engine::Plan plan = engine::Engine::compile(problem, copts);
    plan.hierarchy().for_each_post_order([this](core::HierNode& node) {
      if (target_atom_begin < 0 && node.is_leaf() &&
          node.constraints.size() > 0) {
        target_atom_begin = node.atom_begin;
        target_atom_end = node.atom_end;
      }
    });
    PHMSE_CHECK(target_atom_begin >= 0, "helix plan has no constrained leaf");
    return plan;
  }
};

TEST_F(FaultInjection, SolveSurvivesSubtreeFaultIdenticallyOnAllExecutors) {
  HelixFixture fx;
  engine::Plan plan = fx.compile(SolvePolicy::retry_regularized(), 4);
  fault::Injector::instance().arm({.kind = fault::Kind::kNonSpd,
                                   .atom_begin = fx.target_atom_begin,
                                   .atom_end = fx.target_atom_end,
                                   .batch = 0});

  // Serial.
  const engine::Result serial = plan.solve(fx.x0);
  ASSERT_EQ(serial.report.retried, 1);
  EXPECT_EQ(serial.report.gated + serial.report.skipped + serial.report.failed,
            0);
  EXPECT_EQ(serial.report.ok, serial.report.batches - 1);
  ASSERT_EQ(serial.report.incidents.size(), 1u);
  const core::SolveIncident& inc = serial.report.incidents[0];
  EXPECT_EQ(inc.atom_begin, fx.target_atom_begin);
  EXPECT_EQ(inc.batch, 0);
  EXPECT_EQ(inc.outcome.status, BatchStatus::kRetried);
  EXPECT_GE(inc.outcome.attempts, 2);
  EXPECT_GT(inc.outcome.regularization, 0.0);
  const linalg::Vector serial_x = serial.posterior().x;
  const linalg::Matrix serial_c = serial.posterior().c;
  for (double v : serial_x) ASSERT_TRUE(std::isfinite(v));

  // Threaded: same injected fault, bitwise identical outcome.
  par::ThreadPool pool(4);
  const engine::Result threaded = plan.solve(pool, fx.x0);
  EXPECT_EQ(threaded.report.retried, 1);
  ASSERT_EQ(threaded.report.incidents.size(), 1u);
  EXPECT_EQ(threaded.report.incidents[0].atom_begin, fx.target_atom_begin);
  EXPECT_EQ(threaded.posterior().x, serial_x);
  EXPECT_EQ(threaded.posterior().c, serial_c);

  // Simulated.
  simarch::SimMachine machine(simarch::generic(4));
  const engine::Result sim = plan.solve(machine, fx.x0);
  EXPECT_EQ(sim.report.retried, 1);
  ASSERT_EQ(sim.report.incidents.size(), 1u);
  EXPECT_EQ(sim.report.incidents[0].atom_begin, fx.target_atom_begin);
  EXPECT_EQ(sim.posterior().x, serial_x);
  EXPECT_EQ(sim.posterior().c, serial_c);
}

TEST_F(FaultInjection, SkippedSubtreeBatchIsContainedAndReported) {
  HelixFixture fx;
  engine::Plan plan = fx.compile(SolvePolicy::skip_batch(), 2);
  fault::Injector::instance().arm({.kind = fault::Kind::kNonSpd,
                                   .atom_begin = fx.target_atom_begin,
                                   .atom_end = fx.target_atom_end,
                                   .batch = 1});

  const engine::Result r = plan.solve(fx.x0);
  EXPECT_EQ(r.report.skipped, 1);
  EXPECT_EQ(r.report.retried + r.report.gated + r.report.failed, 0);
  ASSERT_EQ(r.report.incidents.size(), 1u);
  EXPECT_EQ(r.report.incidents[0].atom_begin, fx.target_atom_begin);
  EXPECT_EQ(r.report.incidents[0].batch, 1);
  EXPECT_EQ(r.report.incidents[0].outcome.status, BatchStatus::kSkipped);
  for (double v : r.posterior().x) EXPECT_TRUE(std::isfinite(v));
  EXPECT_FALSE(r.report.clean());
  EXPECT_EQ(r.report.dropped(), 1);
  EXPECT_EQ(r.report.applied(), r.report.batches - 1);
}

TEST_F(FaultInjection, CleanSolveUnderFaultPolicyReportsAllOk) {
  HelixFixture fx;
  engine::Plan plan = fx.compile(SolvePolicy::retry_regularized(), 2);
  // Nothing armed: the report must be clean and the numbers identical to
  // the default abort policy (PlanEquivalence pins abort == historical).
  const engine::Result r = plan.solve(fx.x0);
  EXPECT_TRUE(r.report.clean());
  EXPECT_GT(r.report.batches, 0);
  EXPECT_EQ(r.report.ok, r.report.batches);
  EXPECT_EQ(r.report.max_attempts, 1);
  EXPECT_TRUE(r.report.incidents.empty());

  engine::Plan abort_plan = fx.compile(SolvePolicy::abort(), 2);
  const engine::Result a = abort_plan.solve(fx.x0);
  EXPECT_EQ(r.posterior().x, a.posterior().x);
  EXPECT_EQ(r.posterior().c, a.posterior().c);
}

}  // namespace
}  // namespace phmse::est
