// Every executor x schedule x SolvePolicy cell honours the same contracts.
//
// One core::SolvePlan code path serves a caller's context (serial), a
// ThreadPool (threaded, 2 workers) and a SimMachine (simulated), under the
// §4.3 static schedule and the §5 wave schedule.  Each cell must reproduce
// the serial static run bitwise — the posterior AND the SolveReport
// counters — for all four SolvePolicy actions, tripped by inputs that work
// in the default build: a NaN observation (abort throws, the other three
// skip its batch) and a 50 A outlier (gated by gate_outliers).  Wave groups
// do not nest, so the threaded wave cells must refuse to run.  A run whose
// token was cancelled before it started must throw and leave the plan
// clean: the next exact run equals a fresh plan's bitwise.
#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <string>

#include "constraints/helix_gen.hpp"
#include "core/assign.hpp"
#include "core/schedule.hpp"
#include "core/solve_plan.hpp"
#include "core/work_model.hpp"
#include "molecule/rna_helix.hpp"
#include "parallel/cancel.hpp"
#include "parallel/thread_pool.hpp"
#include "simarch/sim_context.hpp"
#include "support/rng.hpp"

namespace phmse::core {
namespace {

constexpr int kProcessors = 2;

enum class Input { kClean, kNaN, kOutlier };
enum class Exec { kSerial, kThreaded, kSimulated };
enum class Sched { kStatic, kWave };

const char* name(Input i) {
  switch (i) {
    case Input::kClean: return "clean";
    case Input::kNaN: return "nan";
    case Input::kOutlier: return "outlier";
  }
  return "?";
}
const char* name(Exec e) {
  switch (e) {
    case Exec::kSerial: return "serial";
    case Exec::kThreaded: return "threaded";
    case Exec::kSimulated: return "simulated";
  }
  return "?";
}
const char* name(Sched s) { return s == Sched::kStatic ? "static" : "wave"; }

struct Policy {
  const char* name;
  est::SolvePolicy policy;
};

const Policy kPolicies[] = {
    {"abort", est::SolvePolicy::abort()},
    {"skip_batch", est::SolvePolicy::skip_batch()},
    {"retry_regularized", est::SolvePolicy::retry_regularized()},
    {"gate_outliers", est::SolvePolicy::gate_outliers()},
};

struct Fixture {
  mol::HelixModel model = mol::build_helix(2);
  cons::ConstraintSet clean = cons::generate_helix_constraints(model);
  linalg::Vector initial;
  Index victim = -1;  // the constraint an input poisons

  Fixture() {
    Rng rng(21);
    initial = model.topology.true_state();
    for (auto& v : initial) v += rng.gaussian(0.0, 0.3);
    for (Index i = clean.size() / 2; i < clean.size(); ++i) {
      if (clean[i].kind == cons::Kind::kDistance) {
        victim = i;
        break;
      }
    }
  }

  cons::ConstraintSet constraints(Input input) const {
    cons::ConstraintSet set = clean;
    if (input == Input::kNaN) {
      set.set_observed(victim, std::numeric_limits<double>::quiet_NaN());
    } else if (input == Input::kOutlier) {
      set.set_observed(victim, clean[victim].observed + 50.0);
    }
    return set;
  }

  Hierarchy hierarchy(Input input, Sched sched) const {
    Hierarchy h = build_helix_hierarchy(model);
    assign_constraints(h, constraints(input));
    estimate_work(h, WorkModel{}, 16);
    if (sched == Sched::kStatic) {
      assign_processors(h, kProcessors);
    } else {
      assign_wave_processors(h, kProcessors);
    }
    return h;
  }
};

/// Runs `plan` once on the named executor.
PlanRunStats run_on(SolvePlan& plan, Exec exec, const linalg::Vector& x0,
                    par::ThreadPool& pool) {
  switch (exec) {
    case Exec::kSerial: {
      par::SerialContext ctx;
      return plan.run(ctx, x0);
    }
    case Exec::kThreaded:
      return plan.run(pool, x0);
    case Exec::kSimulated: {
      simarch::SimMachine machine(simarch::generic(kProcessors));
      return plan.run(machine, x0);
    }
  }
  return {};
}

void expect_same_report(const SolveReport& got, const SolveReport& want) {
  EXPECT_EQ(got.batches, want.batches);
  EXPECT_EQ(got.ok, want.ok);
  EXPECT_EQ(got.retried, want.retried);
  EXPECT_EQ(got.gated, want.gated);
  EXPECT_EQ(got.skipped, want.skipped);
  EXPECT_EQ(got.failed, want.failed);
  EXPECT_EQ(got.max_attempts, want.max_attempts);
  EXPECT_EQ(got.max_regularization, want.max_regularization);
  ASSERT_EQ(got.incidents.size(), want.incidents.size());
  for (std::size_t i = 0; i < want.incidents.size(); ++i) {
    EXPECT_EQ(got.incidents[i].node, want.incidents[i].node);
    EXPECT_EQ(got.incidents[i].batch, want.incidents[i].batch);
    EXPECT_EQ(got.incidents[i].outcome.status,
              want.incidents[i].outcome.status);
  }
}

// The serial static run of one (input, policy): the reference every other
// cell must match.  Empty when the run throws.
struct Reference {
  std::optional<est::NodeState> state;
  SolveReport report;
};

Reference reference_run(const Fixture& f, Input input,
                        const HierSolveOptions& opts, par::ThreadPool& pool) {
  Hierarchy h = f.hierarchy(input, Sched::kStatic);
  SolvePlan plan(h, opts);
  Reference ref;
  try {
    run_on(plan, Exec::kSerial, f.initial, pool);
  } catch (const Error&) {
    return ref;
  }
  ref.state = plan.root_state();
  ref.report = plan.last_report();
  return ref;
}

void check_matrix(Input input) {
  const Fixture f;
  ASSERT_GE(f.victim, 0);
  par::ThreadPool pool(kProcessors);
  for (const Policy& p : kPolicies) {
    HierSolveOptions opts;
    opts.policy = p.policy;
    const Reference ref = reference_run(f, input, opts, pool);

    // The inputs trip the policies as intended.
    const bool aborts = input == Input::kNaN &&
                        p.policy.on_failure == est::FailAction::kAbort;
    EXPECT_EQ(ref.state.has_value(), !aborts) << p.name;
    if (input == Input::kNaN && !aborts) {
      EXPECT_EQ(ref.report.skipped, 1) << p.name;
    }
    if (input == Input::kOutlier) {
      const bool gates =
          p.policy.on_failure == est::FailAction::kGateOutliers;
      EXPECT_EQ(ref.report.gated, gates ? 1 : 0) << p.name;
    }
    if (input == Input::kClean) {
      EXPECT_TRUE(ref.report.clean()) << p.name;
    }

    for (Sched sched : {Sched::kStatic, Sched::kWave}) {
      for (Exec exec : {Exec::kSerial, Exec::kThreaded, Exec::kSimulated}) {
        SCOPED_TRACE(std::string(name(input)) + " / " + p.name + " / " +
                     name(sched) + " / " + name(exec));
        Hierarchy h = f.hierarchy(input, sched);
        SolvePlan plan(h, opts);
        if (exec == Exec::kThreaded && sched == Sched::kWave) {
          EXPECT_THROW(run_on(plan, exec, f.initial, pool), Error);
          EXPECT_EQ(plan.last_report().batches, 0);  // no node ran
          continue;
        }
        if (!ref.state) {
          EXPECT_THROW(run_on(plan, exec, f.initial, pool), Error);
          continue;
        }
        run_on(plan, exec, f.initial, pool);
        EXPECT_EQ(plan.root_state().x, ref.state->x);
        EXPECT_EQ(plan.root_state().c, ref.state->c);
        expect_same_report(plan.last_report(), ref.report);
      }
    }
  }
}

TEST(ExecutorMatrix, CleanObservationsMatchTheSerialStaticRun) {
  check_matrix(Input::kClean);
}

TEST(ExecutorMatrix, NaNObservationMatchesTheSerialStaticRun) {
  check_matrix(Input::kNaN);
}

TEST(ExecutorMatrix, OutlierObservationMatchesTheSerialStaticRun) {
  check_matrix(Input::kOutlier);
}

TEST(ExecutorMatrix, CancelledBeforeStartThrowsAndLeavesThePlanClean) {
  const Fixture f;
  par::ThreadPool pool(kProcessors);
  for (const Policy& p : kPolicies) {
    HierSolveOptions opts;
    opts.policy = p.policy;
    const Reference ref = reference_run(f, Input::kOutlier, opts, pool);
    ASSERT_TRUE(ref.state.has_value()) << p.name;

    for (Sched sched : {Sched::kStatic, Sched::kWave}) {
      for (Exec exec : {Exec::kSerial, Exec::kThreaded, Exec::kSimulated}) {
        SCOPED_TRACE(std::string(p.name) + " / " + name(sched) + " / " +
                     name(exec));
        Hierarchy h = f.hierarchy(Input::kOutlier, sched);
        SolvePlan plan(h, opts);
        par::CancelToken token;
        token.cancel();
        plan.bind_cancel(&token);
        if (exec == Exec::kThreaded && sched == Sched::kWave) {
          EXPECT_THROW(run_on(plan, exec, f.initial, pool), Error);
          continue;
        }
        EXPECT_THROW(run_on(plan, exec, f.initial, pool), par::CancelledError);
        EXPECT_TRUE(plan.last_report().cancelled);
        EXPECT_EQ(plan.last_report().batches, 0);
        EXPECT_FALSE(plan.has_checkpoint());

        plan.bind_cancel(nullptr);
        run_on(plan, exec, f.initial, pool);
        EXPECT_EQ(plan.root_state().x, ref.state->x);
        EXPECT_EQ(plan.root_state().c, ref.state->c);
        expect_same_report(plan.last_report(), ref.report);
        EXPECT_FALSE(plan.last_report().cancelled);
      }
    }
  }
}

}  // namespace
}  // namespace phmse::core
