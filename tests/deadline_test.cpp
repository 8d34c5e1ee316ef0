// Deadline and cooperative-cancellation tests (DESIGN.md §13).
//
// The contract under test: a solve armed with a deadline or cancel token
// aborts at a batch/node boundary, the abort is TRANSACTIONAL — the plan
// stays reusable and the next exact solve is bitwise identical to one on a
// plan that was never cancelled — and a too-tight budget can (opt-in)
// degrade to the low-rank root update instead of failing.  The fault
// injector's kStall kind makes the timing deterministic where the build
// enables it; every timing-dependent assertion here is written to hold
// whether or not the deadline actually fired, so no test is flaky on a
// fast machine.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "constraints/helix_gen.hpp"
#include "engine/engine.hpp"
#include "estimation/fault_injection.hpp"
#include "molecule/rna_helix.hpp"
#include "parallel/cancel.hpp"
#include "parallel/thread_pool.hpp"
#include "service/server.hpp"
#include "simarch/sim_context.hpp"
#include "support/rng.hpp"

namespace phmse {
namespace {

TEST(CancelToken, FlagIsStickyUntilReset) {
  par::CancelToken token;
  EXPECT_FALSE(token.stop_requested());
  EXPECT_FALSE(token.cancel_requested());
  token.cancel();
  EXPECT_TRUE(token.cancel_requested());
  EXPECT_TRUE(token.stop_requested());
  EXPECT_FALSE(token.expired());  // flag, not clock
  token.reset();
  EXPECT_FALSE(token.stop_requested());
}

TEST(CancelToken, DeadlineClockExpires) {
  par::CancelToken token;
  EXPECT_EQ(token.remaining_seconds(),
            std::numeric_limits<double>::infinity());
  token.set_deadline_after(3600.0);
  EXPECT_FALSE(token.expired());
  EXPECT_GT(token.remaining_seconds(), 3000.0);
  token.set_deadline_after(-1.0);  // already past
  EXPECT_TRUE(token.expired());
  EXPECT_TRUE(token.stop_requested());
  EXPECT_FALSE(token.cancel_requested());  // clock, not flag
  EXPECT_LT(token.remaining_seconds(), 0.0);
  token.reset();
  EXPECT_FALSE(token.expired());
  // A budget past the steady clock's range arms no deadline at all; it
  // must not wrap around into the past and expire at once.
  for (const double huge : {1e10, 1e300,
                            std::numeric_limits<double>::infinity()}) {
    token.set_deadline_after(-1.0);
    token.set_deadline_after(huge);
    EXPECT_FALSE(token.expired()) << huge;
    EXPECT_FALSE(token.stop_requested()) << huge;
    EXPECT_EQ(token.remaining_seconds(),
              std::numeric_limits<double>::infinity())
        << huge;
  }
}

TEST(CancelToken, ThrowCancelledCarriesLocation) {
  par::CancelToken token;
  token.cancel();
  try {
    par::throw_cancelled(token, 4, 9, 2);
    FAIL() << "throw_cancelled returned";
  } catch (const par::CancelledError& e) {
    EXPECT_FALSE(e.deadline_expired);
    EXPECT_EQ(e.atom_begin, 4);
    EXPECT_EQ(e.atom_end, 9);
    EXPECT_EQ(e.batch, 2);
  }
  token.reset();
  token.set_deadline_after(-1.0);
  try {
    par::throw_cancelled(token, -1, -1, -1);
    FAIL() << "throw_cancelled returned";
  } catch (const par::CancelledError& e) {
    EXPECT_TRUE(e.deadline_expired);
  }
}

struct Fixture {
  Index length;
  mol::HelixModel model;
  cons::ConstraintSet set;
  linalg::Vector initial;

  explicit Fixture(Index helix_length = 3)
      : length(helix_length), model(mol::build_helix(helix_length)) {
    set = cons::generate_helix_constraints(model);
    Rng rng(42);
    initial = model.topology.true_state();
    for (auto& v : initial) v += rng.gaussian(0.0, 0.3);
  }

  engine::Problem problem() const {
    return engine::Problem::custom(
        model.topology.size(), set,
        [model = model] { return core::build_helix_hierarchy(model); },
        "helix/" + std::to_string(length));
  }

  static engine::CompileOptions options() {
    engine::CompileOptions o;
    o.solve.max_cycles = 1;  // single-cycle: runs form reusable checkpoints
    o.solve.prior_sigma = 0.5;
    return o;
  }
};

TEST(Deadline, SpentBudgetShedsBeforeTheSolveStarts) {
  Fixture f;
  engine::Plan plan = Engine::compile(f.problem(), Fixture::options());
  par::CancelToken token;
  token.set_deadline_after(1e-12);  // expires before the pre-check runs
  engine::SolveOptions controls;
  controls.cancel = &token;
  std::this_thread::sleep_for(std::chrono::microseconds(10));
  EXPECT_THROW((void)plan.solve(f.initial, controls), engine::DeadlineError);
  // Shedding happened before any state was touched: the plain solve works.
  const engine::Result r = plan.solve(f.initial);
  EXPECT_GT(r.cycles, 0);
}

TEST(Deadline, PreCancelledTokenShedsWithCancelledError) {
  Fixture f;
  engine::Plan plan = Engine::compile(f.problem(), Fixture::options());
  par::CancelToken token;
  token.cancel();
  engine::SolveOptions controls;
  controls.cancel = &token;
  EXPECT_THROW((void)plan.solve(f.initial, controls), par::CancelledError);
  // The caller's token is never mutated by the engine: still just a flag.
  EXPECT_TRUE(token.cancel_requested());
  EXPECT_FALSE(token.expired());
}

TEST(Deadline, DefaultControlsAreTheUncontrolledPath) {
  Fixture f;
  engine::Plan a = Engine::compile(f.problem(), Fixture::options());
  engine::Plan b = Engine::compile(f.problem(), Fixture::options());
  const engine::Result want = a.solve(f.initial);
  const engine::Result got = b.solve(f.initial, engine::SolveOptions{});
  EXPECT_TRUE(want.posterior().x == got.posterior().x);
}

// The tentpole invariant, per executor: whatever a mid-flight deadline did
// to the plan, the NEXT exact solve is bitwise identical to a solve on a
// plan that was never cancelled.  The deadline is a fraction of a measured
// baseline so it usually fires mid-flight; when the machine is fast enough
// that it does not, the assertion still holds (trivially) — no flake.
TEST(Deadline, SerialPostCancelSolveIsBitwiseIdentical) {
  Fixture f;
  engine::Plan ref = Engine::compile(f.problem(), Fixture::options());
  const engine::Result want = ref.solve(f.initial);

  engine::Plan plan = Engine::compile(f.problem(), Fixture::options());
  par::CancelToken token;
  token.set_deadline_after(std::max(want.seconds * 0.1, 1e-5));
  engine::SolveOptions controls;
  controls.cancel = &token;
  bool cancelled = false;
  try {
    (void)plan.solve(f.initial, controls);
  } catch (const engine::DeadlineError&) {
    cancelled = true;
    EXPECT_FALSE(plan.has_checkpoint());  // aborted runs leave no checkpoint
    EXPECT_TRUE(plan.last_report().cancelled);
    EXPECT_TRUE(plan.last_report().cancelled_by_deadline);
  }
  const engine::Result got = plan.solve(f.initial);
  EXPECT_TRUE(want.posterior().x == got.posterior().x);
  EXPECT_EQ(want.cycles, got.cycles);
  EXPECT_FALSE(got.report.cancelled);
  (void)cancelled;
}

TEST(Deadline, ThreadedPostCancelSolveIsBitwiseIdentical) {
  Fixture f;
  par::ThreadPool pool(4);
  engine::Plan ref = Engine::compile(f.problem(), Fixture::options());
  const engine::Result want = ref.solve(pool, f.initial);

  engine::Plan plan = Engine::compile(f.problem(), Fixture::options());
  par::CancelToken token;
  token.set_deadline_after(std::max(want.seconds * 0.1, 1e-5));
  engine::SolveOptions controls;
  controls.cancel = &token;
  try {
    (void)plan.solve(pool, f.initial, controls);
  } catch (const engine::DeadlineError&) {
    EXPECT_TRUE(plan.last_report().cancelled);
  }
  const engine::Result got = plan.solve(pool, f.initial);
  EXPECT_TRUE(want.posterior().x == got.posterior().x);
}

TEST(Deadline, SimulatedPostCancelSolveIsBitwiseIdentical) {
  Fixture f;
  engine::Plan ref = Engine::compile(f.problem(), Fixture::options());
  simarch::SimMachine m1(simarch::generic(4));
  const engine::Result want = ref.solve(m1, f.initial);

  engine::Plan plan = Engine::compile(f.problem(), Fixture::options());
  // The deadline clock is wall-clock even under the simulated executor
  // (the simulation itself takes real time to run).
  simarch::SimMachine m2(simarch::generic(4));
  par::CancelToken token;
  token.set_deadline_after(std::max(want.seconds * 0.1, 1e-5));
  engine::SolveOptions controls;
  controls.cancel = &token;
  try {
    (void)plan.solve(m2, f.initial, controls);
  } catch (const engine::DeadlineError&) {
    EXPECT_TRUE(plan.last_report().cancelled);
  }
  simarch::SimMachine m3(simarch::generic(4));
  const engine::Result got = plan.solve(m3, f.initial);
  EXPECT_TRUE(want.posterior().x == got.posterior().x);
}

TEST(Deadline, DegradeLowrankAnswersUnderATightDeadline) {
  Fixture f;
  engine::Plan plan = Engine::compile(f.problem(), Fixture::options());
  // Warm: one exact solve establishes the checkpoint and the EWMA the
  // degradation rung judges the remaining budget against.
  const engine::Result warm = plan.solve(f.initial);
  ASSERT_TRUE(plan.has_checkpoint());

  // Nudge one observation, then ask for a solve whose budget is half of
  // what the exact path historically took, with degradation opted in.
  std::vector<double> values;
  values.reserve(plan.num_observation_slots());
  for (const cons::Constraint& c : f.set.all()) values.push_back(c.observed);
  values[0] += 1e-3;
  plan.set_observations(values);

  par::CancelToken token;
  token.set_deadline_after(std::max(warm.seconds * 0.5, 1e-6));
  engine::SolveOptions controls;
  controls.cancel = &token;
  controls.degrade_lowrank = true;
  const engine::Result degraded = plan.solve_incremental(f.initial, controls);
  EXPECT_TRUE(degraded.report.low_rank);

  // Without the opt-in the same budget runs the exact path (and on this
  // problem size may or may not make it — both outcomes are legal; what
  // must hold is that low_rank is never silently chosen).
  plan.set_observations(values);
  par::CancelToken exact_token;
  exact_token.set_deadline_after(30.0);
  engine::SolveOptions exact_controls;
  exact_controls.cancel = &exact_token;
  const engine::Result exact = plan.solve_incremental(f.initial,
                                                      exact_controls);
  EXPECT_FALSE(exact.report.low_rank);
}

TEST(Deadline, ServerSubmitRejectsNonFiniteInputs) {
  Fixture f;
  service::ServerOptions opts;
  opts.workers = 1;
  service::Server server(opts);

  service::Request bad_obs;
  bad_obs.problem = f.problem();
  bad_obs.compile = Fixture::options();
  for (const cons::Constraint& c : f.set.all()) {
    bad_obs.observations.push_back(c.observed);
  }
  bad_obs.observations[1] = std::numeric_limits<double>::quiet_NaN();
  bad_obs.initial = f.initial;
  EXPECT_THROW((void)server.submit("t", std::move(bad_obs)), Error);

  service::Request bad_init;
  bad_init.problem = f.problem();
  bad_init.compile = Fixture::options();
  bad_init.initial = f.initial;
  bad_init.initial[0] = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)server.submit("t", std::move(bad_init)), Error);

  service::Request bad_deadline;
  bad_deadline.problem = f.problem();
  bad_deadline.compile = Fixture::options();
  bad_deadline.initial = f.initial;
  bad_deadline.deadline_seconds = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)server.submit("t", std::move(bad_deadline)), Error);

  service::Request bad_retry;
  bad_retry.problem = f.problem();
  bad_retry.compile = Fixture::options();
  bad_retry.initial = f.initial;
  bad_retry.retry_budget = -1;
  EXPECT_THROW((void)server.submit("t", std::move(bad_retry)), Error);

  // Validation rejections never consume a submission slot.
  const service::ServerStats s = server.stats();
  EXPECT_EQ(s.submitted, 0);
  EXPECT_EQ(s.pending, 0u);
}

TEST(Deadline, ServerResponseCarriesQueueTimeAndAttempts) {
  Fixture f;
  service::ServerOptions opts;
  opts.workers = 1;
  service::Server server(opts);
  service::Request req;
  req.problem = f.problem();
  req.compile = Fixture::options();
  req.initial = f.initial;
  req.deadline_seconds = 30.0;  // generous: exercises the armed path only
  std::future<service::Response> fut = server.submit("t", std::move(req));
  const service::Response r = fut.get();
  EXPECT_GE(r.queue_seconds, 0.0);
  EXPECT_LT(r.queue_seconds, 30.0);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_FALSE(r.report.cancelled);
  const service::ServerStats s = server.stats();
  EXPECT_EQ(s.completed, 1);
  EXPECT_EQ(s.expired, 0);

  // A budget past the steady clock's range is unbounded, not one that
  // wrapped into the past and is shed as expired while queued.
  service::Request huge;
  huge.problem = f.problem();
  huge.compile = Fixture::options();
  huge.initial = f.initial;
  huge.deadline_seconds = 1e10;
  EXPECT_NO_THROW((void)server.submit("t", std::move(huge)).get());
  const service::ServerStats s2 = server.stats();
  EXPECT_EQ(s2.completed, 2);
  EXPECT_EQ(s2.expired, 0);
}

// With the injector's deterministic stall, the deadline fires mid-flight
// every time: the "pathological molecule" whose slow point is known.
class DeadlineFault : public ::testing::Test {
 protected:
  void SetUp() override { fault::Injector::instance().clear(); }
  void TearDown() override { fault::Injector::instance().clear(); }
};

TEST_F(DeadlineFault, StallMakesMidFlightExpiryDeterministic) {
  Fixture f;
  engine::Plan ref = Engine::compile(f.problem(), Fixture::options());
  const engine::Result want = ref.solve(f.initial);

  engine::Plan plan = Engine::compile(f.problem(), Fixture::options());
  // One 80ms stall at the first batch of whichever node runs first; the
  // 20ms deadline is over when the post-stall poll looks at the clock.
  fault::Injector::instance().arm(
      {fault::Kind::kStall, -1, -1, -1, 0.08, /*max_fires=*/1});
  par::CancelToken token;
  token.set_deadline_after(0.02);
  engine::SolveOptions controls;
  controls.cancel = &token;
  EXPECT_THROW((void)plan.solve(f.initial, controls), engine::DeadlineError);
  EXPECT_TRUE(plan.last_report().cancelled);
  EXPECT_TRUE(plan.last_report().cancelled_by_deadline);

  // Transactional abort: with the injector disarmed the next exact solve
  // is bitwise identical to never having been cancelled.
  fault::Injector::instance().clear();
  const engine::Result got = plan.solve(f.initial);
  EXPECT_TRUE(want.posterior().x == got.posterior().x);
}

TEST_F(DeadlineFault, ExplicitCancelNamesTheAbortLocation) {
  Fixture f;
  engine::Plan plan = Engine::compile(f.problem(), Fixture::options());
  fault::Injector::instance().arm(
      {fault::Kind::kStall, -1, -1, -1, 0.08, /*max_fires=*/1});
  par::CancelToken token;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    token.cancel();
  });
  engine::SolveOptions controls;
  controls.cancel = &token;
  try {
    (void)plan.solve(f.initial, controls);
    ADD_FAILURE() << "solve completed despite cancellation";
  } catch (const par::CancelledError& e) {
    EXPECT_FALSE(e.deadline_expired);  // flag, not clock
    EXPECT_GE(e.atom_begin, 0);        // a poll site named its node
  }
  canceller.join();
  EXPECT_TRUE(plan.last_report().cancelled);
  EXPECT_FALSE(plan.last_report().cancelled_by_deadline);
  EXPECT_GE(plan.last_report().cancelled_atom_begin, 0);
}

TEST_F(DeadlineFault, StalledThreadedAndSimRunsStayBitwiseAfterCancel) {
  Fixture f;
  par::ThreadPool pool(4);
  engine::Plan ref = Engine::compile(f.problem(), Fixture::options());
  const engine::Result want = ref.solve(pool, f.initial);

  engine::Plan plan = Engine::compile(f.problem(), Fixture::options());
  fault::Injector::instance().arm(
      {fault::Kind::kStall, -1, -1, -1, 0.08, /*max_fires=*/1});
  par::CancelToken token;
  token.set_deadline_after(0.02);
  engine::SolveOptions controls;
  controls.cancel = &token;
  EXPECT_THROW((void)plan.solve(pool, f.initial, controls),
               engine::DeadlineError);
  fault::Injector::instance().clear();
  const engine::Result got = plan.solve(pool, f.initial);
  EXPECT_TRUE(want.posterior().x == got.posterior().x);

  engine::Plan splan = Engine::compile(f.problem(), Fixture::options());
  fault::Injector::instance().arm(
      {fault::Kind::kStall, -1, -1, -1, 0.08, /*max_fires=*/1});
  simarch::SimMachine m1(simarch::generic(4));
  token.set_deadline_after(0.02);  // the same budget, from this call
  EXPECT_THROW((void)splan.solve(m1, f.initial, controls),
               engine::DeadlineError);
  fault::Injector::instance().clear();
  simarch::SimMachine m2(simarch::generic(4));
  const engine::Result sim_got = splan.solve(m2, f.initial);
  EXPECT_TRUE(want.posterior().x == sim_got.posterior().x);
}

}  // namespace
}  // namespace phmse
