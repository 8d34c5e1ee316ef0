// Incremental re-solve under injected faults (DESIGN.md §9 + §11).
//
// The checkpoint contract is differential and must survive the degradation
// policies: a batch dropped or retried by SolvePolicy inside a dirty
// subtree leaves the checkpoints consistent, so the next incremental solve
// is still bitwise equal to a from-scratch solve under the same armed
// faults — on every executor.  An aborted solve invalidates the checkpoint
// and the next incremental call falls back to a full run.  The injector is
// deterministic while armed, which is exactly what makes checkpoint replay
// sound; the one sequence that changes the environment WITHOUT dirtying the
// affected subtree (clearing a fault) is pinned here as the documented
// stale-replay hazard, together with its recovery path.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "constraints/helix_gen.hpp"
#include "core/hierarchy.hpp"
#include "engine/engine.hpp"
#include "estimation/fault_injection.hpp"
#include "molecule/rna_helix.hpp"
#include "parallel/thread_pool.hpp"
#include "simarch/sim_context.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace phmse::est {
namespace {

// Every test starts and ends with a disarmed injector, so a failing test
// cannot leave a fault armed for whatever test runs next.
class IncrementalFault : public ::testing::Test {
 protected:
  void SetUp() override { fault::Injector::instance().clear(); }
  void TearDown() override { fault::Injector::instance().clear(); }
};

struct HelixFixture {
  mol::HelixModel model = mol::build_helix(2);
  cons::ConstraintSet set = cons::generate_helix_constraints(model);
  linalg::Vector x0;
  // Atom range of the first constrained leaf: both ends are needed to pin
  // ONE node (an ancestor shares its first leaf's atom_begin).
  Index target_atom_begin = -1;
  Index target_atom_end = -1;

  HelixFixture() {
    Rng rng(17);
    x0 = model.topology.true_state();
    for (auto& v : x0) v += rng.gaussian(0.0, 0.25);
  }

  engine::Plan compile(const SolvePolicy& policy, int processors = 1) {
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

  std::vector<double> base_values() const {
    std::vector<double> values;
    values.reserve(static_cast<std::size_t>(set.size()));
    for (const cons::Constraint& c : set.all()) values.push_back(c.observed);
    return values;
  }

  /// First constraint whose atoms lie entirely inside (inside=true) or
  /// entirely outside (inside=false) the target leaf's atom range.  An
  /// inside constraint is assigned to the target leaf itself; an outside
  /// one never causes the target leaf to re-execute (a leaf has no
  /// descendants, so it only runs when itself dirty).
  std::size_t slot_relative_to_target(bool inside) const {
    for (Index i = 0; i < set.size(); ++i) {
      const cons::Constraint& c = set[i];
      bool all_in = true;
      bool none_in = true;
      for (Index k = 0; k < cons::arity(c.kind); ++k) {
        const Index a = c.atoms[static_cast<std::size_t>(k)];
        const bool in = a >= target_atom_begin && a < target_atom_end;
        all_in = all_in && in;
        none_in = none_in && !in;
      }
      if (inside ? all_in : none_in) return static_cast<std::size_t>(i);
    }
    PHMSE_CHECK(false, "no constraint with the requested placement");
    return 0;
  }
};

void expect_same(const engine::Result& got, const engine::Result& want,
                 const std::string& label) {
  ASSERT_EQ(got.posterior().x.size(), want.posterior().x.size()) << label;
  for (std::size_t i = 0; i < want.posterior().x.size(); ++i) {
    ASSERT_EQ(got.posterior().x[i], want.posterior().x[i])
        << label << " coord " << i;
  }
  ASSERT_EQ(got.posterior().c, want.posterior().c) << label;
  EXPECT_EQ(got.report.batches, want.report.batches) << label;
  EXPECT_EQ(got.report.ok, want.report.ok) << label;
  EXPECT_EQ(got.report.retried, want.report.retried) << label;
  EXPECT_EQ(got.report.skipped, want.report.skipped) << label;
  EXPECT_EQ(got.report.failed, want.report.failed) << label;
  EXPECT_EQ(got.report.incidents.size(), want.report.incidents.size())
      << label;
}

// A batch dropped by kSkipBatch inside the dirty subtree: the transactional
// drop leaves the leaf's checkpoint consistent, and a skipped-and-replayed
// subtree carries the incident tally forward — incremental stays bitwise
// equal to from-scratch whether the faulty leaf is inside or outside the
// dirty set, on all three executors.
TEST_F(IncrementalFault, DroppedBatchKeepsCheckpointsConsistent) {
  HelixFixture fx;
  constexpr int kProcessors = 2;
  par::ThreadPool pool(kProcessors);
  simarch::SimMachine machine(simarch::generic(kProcessors));
  engine::Plan ref = fx.compile(SolvePolicy::skip_batch());
  engine::Plan inc = fx.compile(SolvePolicy::skip_batch());
  engine::Plan inc_threaded =
      fx.compile(SolvePolicy::skip_batch(), kProcessors);
  engine::Plan inc_sim = fx.compile(SolvePolicy::skip_batch(), kProcessors);

  fault::Injector::instance().arm({.kind = fault::Kind::kNonSpd,
                                   .atom_begin = fx.target_atom_begin,
                                   .atom_end = fx.target_atom_end,
                                   .batch = 0});

  // Checkpoint-forming full solves, fault armed: every plan drops batch 0
  // of the target leaf.
  const engine::Result first = ref.solve(fx.x0);
  ASSERT_EQ(first.report.skipped, 1);
  inc.solve(fx.x0);
  inc_threaded.solve(pool, fx.x0);
  inc_sim.solve(machine, fx.x0);

  std::vector<double> values = fx.base_values();
  const std::size_t in_slot = fx.slot_relative_to_target(true);
  const std::size_t out_slot = fx.slot_relative_to_target(false);

  for (int round = 0; round < 4; ++round) {
    // Even rounds dirty the faulty leaf itself (the fault re-fires on the
    // re-executed sweep); odd rounds dirty a disjoint subtree (the faulty
    // leaf is served from its checkpoint and its skip tally is replayed).
    values[round % 2 == 0 ? in_slot : out_slot] += 0.01;
    ref.set_observations(values);
    inc.set_observations(values);
    inc_threaded.set_observations(values);
    inc_sim.set_observations(values);

    const engine::Result want = ref.solve(fx.x0);
    EXPECT_EQ(want.report.skipped, 1);
    const engine::Result got = inc.solve_incremental(fx.x0);
    const engine::Result got_threaded =
        inc_threaded.solve_incremental(pool, fx.x0);
    const engine::Result got_sim = inc_sim.solve_incremental(machine, fx.x0);
    EXPECT_TRUE(got.report.incremental);
    const std::string tag = "round " + std::to_string(round);
    expect_same(got, want, tag + " serial");
    expect_same(got_threaded, want, tag + " threaded");
    expect_same(got_sim, want, tag + " sim");
  }
}

// Same shape for the regularized-retry ladder: a retried batch updates the
// state through the Tikhonov path, and the retry tally survives replay.
TEST_F(IncrementalFault, RetriedBatchKeepsCheckpointsConsistent) {
  HelixFixture fx;
  engine::Plan ref = fx.compile(SolvePolicy::retry_regularized());
  engine::Plan inc = fx.compile(SolvePolicy::retry_regularized());

  fault::Injector::instance().arm({.kind = fault::Kind::kNonSpd,
                                   .atom_begin = fx.target_atom_begin,
                                   .atom_end = fx.target_atom_end,
                                   .batch = 0});

  const engine::Result first = ref.solve(fx.x0);
  ASSERT_EQ(first.report.retried, 1);
  inc.solve(fx.x0);

  std::vector<double> values = fx.base_values();
  for (const bool dirty_inside : {true, false}) {
    values[fx.slot_relative_to_target(dirty_inside)] += 0.01;
    ref.set_observations(values);
    inc.set_observations(values);
    const engine::Result want = ref.solve(fx.x0);
    EXPECT_EQ(want.report.retried, 1);
    const engine::Result got = inc.solve_incremental(fx.x0);
    EXPECT_TRUE(got.report.incremental);
    expect_same(got, want,
                dirty_inside ? "dirty inside faulty leaf" : "dirty outside");
  }
}

// An abort mid-solve leaves mixed per-node states; the checkpoint must be
// invalidated so the next incremental request degrades to a full run — and
// that full run matches a fresh clean solve bitwise.
TEST_F(IncrementalFault, AbortInvalidatesCheckpointAndFallsBackToFullRun) {
  HelixFixture fx;
  engine::Plan inc = fx.compile(SolvePolicy::abort());
  engine::Plan ref = fx.compile(SolvePolicy::abort());
  const long num_nodes = static_cast<long>(inc.hierarchy().num_nodes());

  inc.solve(fx.x0);  // clean checkpoint
  ASSERT_TRUE(inc.has_checkpoint());

  std::vector<double> values = fx.base_values();
  values[fx.slot_relative_to_target(true)] += 0.01;
  inc.set_observations(values);
  fault::Injector::instance().arm({.kind = fault::Kind::kNonSpd,
                                   .atom_begin = fx.target_atom_begin,
                                   .atom_end = fx.target_atom_end});
  EXPECT_THROW(inc.solve_incremental(fx.x0), Error);
  EXPECT_FALSE(inc.has_checkpoint());

  fault::Injector::instance().clear();
  ref.set_observations(values);
  const engine::Result want = ref.solve(fx.x0);
  const engine::Result got = inc.solve_incremental(fx.x0);
  EXPECT_FALSE(got.report.incremental);  // no checkpoint: full fallback
  EXPECT_EQ(got.report.nodes_recomputed, num_nodes);
  expect_same(got, want, "post-abort fallback");
  EXPECT_TRUE(inc.has_checkpoint());  // the fallback re-forms the checkpoint
}

// The documented stale-replay hazard: clearing a fault changes the solve's
// environment without marking anything dirty, so a checkpointed subtree
// keeps replaying the faulted posterior (deterministic, but stale relative
// to a fresh fault-free solve).  Dirtying the affected subtree — exactly
// what the checkpoint contract requires of environment changes — restores
// bitwise agreement.
TEST_F(IncrementalFault, ClearedFaultNeedsDirtyMarkToRecover) {
  HelixFixture fx;
  engine::Plan ref = fx.compile(SolvePolicy::skip_batch());
  engine::Plan inc = fx.compile(SolvePolicy::skip_batch());

  fault::Injector::instance().arm({.kind = fault::Kind::kNonSpd,
                                   .atom_begin = fx.target_atom_begin,
                                   .atom_end = fx.target_atom_end,
                                   .batch = 0});
  ASSERT_EQ(inc.solve(fx.x0).report.skipped, 1);  // faulted checkpoint
  fault::Injector::instance().clear();

  // Dirty only a disjoint subtree: the faulty leaf replays its checkpoint,
  // skip tally included, even though the fault is gone.
  std::vector<double> values = fx.base_values();
  values[fx.slot_relative_to_target(false)] += 0.01;
  inc.set_observations(values);
  const engine::Result stale = inc.solve_incremental(fx.x0);
  EXPECT_TRUE(stale.report.incremental);
  EXPECT_EQ(stale.report.skipped, 1);  // replayed from the faulted sweep

  // Recovery: dirty the formerly-faulty leaf; its clean re-execution plus
  // the ancestor path matches a fresh fault-free solve bitwise.
  values[fx.slot_relative_to_target(true)] += 0.01;
  inc.set_observations(values);
  ref.set_observations(values);
  const engine::Result want = ref.solve(fx.x0);
  ASSERT_EQ(want.report.skipped, 0);
  const engine::Result got = inc.solve_incremental(fx.x0);
  EXPECT_TRUE(got.report.incremental);
  expect_same(got, want, "recovery after dirty mark");
}

}  // namespace
}  // namespace phmse::est
