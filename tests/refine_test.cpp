// Behavioral tests for the outer-loop refinement subsystem (DESIGN.md §14):
// single_pass passthrough equals a plain solve bitwise, iterated
// re-linearization recovers scrambled starts the single sweep cannot,
// annealing restores the exact noise model on every exit, deadlines degrade
// to the best iterate, option validation fails fast, and the service layer
// routes refined requests with the tenant's iteration cap applied.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <optional>
#include <thread>

#include "constraints/helix_gen.hpp"
#include "engine/engine.hpp"
#include "molecule/rna_helix.hpp"
#include "refine/monitor.hpp"
#include "refine/refiner.hpp"
#include "service/server.hpp"
#include "support/rng.hpp"

namespace phmse::refine {
namespace {

// A small helix with the full nonlinear constraint menu: the workload where
// re-linearization matters (distance Jacobians rotate with the estimate).
struct HelixCase {
  mol::HelixModel model = mol::build_helix(4);
  cons::ConstraintSet data;
  engine::Problem problem;

  HelixCase() {
    cons::HelixNoise noise;
    noise.anchor_first_pair = true;
    data = cons::generate_helix_constraints(model, noise);
    problem = engine::Problem::custom(
        model.topology.size(), data,
        [m = model] { return core::build_helix_hierarchy(m); });
  }

  engine::CompileOptions compile_options(int processors = 1) const {
    engine::CompileOptions o;
    o.solve.prior_sigma = 0.5;
    o.solve.max_cycles = 1;
    o.processors = processors;
    return o;
  }

  /// Ground truth perturbed by N(0, sigma^2) per coordinate.
  linalg::Vector scrambled(double sigma, std::uint64_t seed) const {
    Rng rng(seed);
    linalg::Vector x = model.topology.true_state();
    for (double& v : x) v += rng.gaussian(0.0, sigma);
    return x;
  }
};

void expect_bitwise_state(const est::NodeState& got, const est::NodeState& want,
                          const std::string& label) {
  ASSERT_EQ(got.x.size(), want.x.size()) << label;
  for (std::size_t i = 0; i < want.x.size(); ++i) {
    ASSERT_EQ(got.x[i], want.x[i]) << label << " coord " << i;
  }
  ASSERT_EQ(got.c, want.c) << label;
}

TEST(Refine, ModeNamesRoundTrip) {
  EXPECT_STREQ(mode_name(Mode::kSinglePass), "single_pass");
  EXPECT_STREQ(mode_name(Mode::kIterated), "iterated");
  EXPECT_STREQ(mode_name(Mode::kAnnealed), "annealed");
  EXPECT_EQ(mode_from_name("single_pass"), Mode::kSinglePass);
  EXPECT_EQ(mode_from_name("iterated"), Mode::kIterated);
  EXPECT_EQ(mode_from_name("annealed"), Mode::kAnnealed);
  EXPECT_THROW(mode_from_name("annealed "), Error);
  EXPECT_THROW(mode_from_name(""), Error);
}

TEST(Refine, OptionValidationFailsFast) {
  HelixCase h;
  engine::Plan plan = Engine::compile(h.problem, h.compile_options());
  RefineOptions o;
  o.max_iterations = 0;
  EXPECT_THROW(Refiner(plan, o), Error);
  o = {};
  o.damping = 0.0;
  EXPECT_THROW(Refiner(plan, o), Error);
  o = {};
  o.damping = 1.5;
  EXPECT_THROW(Refiner(plan, o), Error);
  o = {};
  o.divergence_ratio = 1.0;
  EXPECT_THROW(Refiner(plan, o), Error);
  o = {};
  o.patience = 0;
  EXPECT_THROW(Refiner(plan, o), Error);
  // Annealing parameters are checked only when the mode uses them.
  o = {};
  o.cooling = 1.0;
  EXPECT_NO_THROW(Refiner(plan, o));
  o.mode = Mode::kAnnealed;
  EXPECT_THROW(Refiner(plan, o), Error);
  o = {};
  o.mode = Mode::kAnnealed;
  o.initial_temperature = 0.5;
  EXPECT_THROW(Refiner(plan, o), Error);
  o = {};
  o.mode = Mode::kAnnealed;
  o.max_restarts = -1;
  EXPECT_THROW(Refiner(plan, o), Error);
}

TEST(Refine, SinglePassIsBitwiseThePlainSolve) {
  HelixCase h;
  engine::Plan direct = Engine::compile(h.problem, h.compile_options());
  engine::Plan refined = Engine::compile(h.problem, h.compile_options());
  const linalg::Vector x0 = h.scrambled(0.4, 11);

  const engine::Result want = direct.solve(x0);
  Refiner refiner(refined, RefineOptions{});
  const engine::Result got = refiner.refine(x0);

  expect_bitwise_state(got.posterior(), want.posterior(), "single_pass");
  EXPECT_EQ(got.cycles, want.cycles);
  EXPECT_EQ(got.converged, want.converged);
  ASSERT_TRUE(got.report.refine.active());
  EXPECT_EQ(got.report.refine.mode, "single_pass");
  EXPECT_EQ(got.report.refine.iterations, 1);
  EXPECT_EQ(got.report.refine.best_iteration, 1);
  ASSERT_EQ(got.report.refine.trajectory.size(), 1u);
  EXPECT_GT(got.report.refine.initial_chi2, 0.0);
  EXPECT_EQ(got.report.refine.final_chi2, got.report.refine.best_chi2);
  // The plain solve carries no refine diagnostics.
  EXPECT_FALSE(want.report.refine.active());
}

TEST(Refine, IteratedRecoversAScrambledStartSinglePassCannot) {
  HelixCase h;
  engine::Plan plan = Engine::compile(h.problem, h.compile_options());
  const linalg::Vector x0 = h.scrambled(1.5, 3);

  // One sweep from the scrambled geometry: badly linearized, poor fit.
  const engine::Result sp = plan.solve(x0);
  const double sp_chi2 = measure(plan.hierarchy(), sp.posterior().x).chi2;
  const double sp_rmsd = h.model.topology.rmsd_to_truth(sp.posterior().x);

  RefineOptions o;
  o.mode = Mode::kIterated;
  o.max_iterations = 24;
  o.step_tolerance = 1e-8;
  Refiner refiner(plan, o);
  const engine::Result it = refiner.refine(x0);

  const core::RefineReport& rr = it.report.refine;
  ASSERT_TRUE(rr.active());
  EXPECT_EQ(rr.mode, "iterated");
  EXPECT_GE(rr.iterations, 2);
  ASSERT_EQ(rr.trajectory.size(), static_cast<std::size_t>(rr.iterations));
  // Iterate 1 re-solves from the same start, so the best can only improve
  // on the single pass; on this scramble it must do so decisively.
  EXPECT_LE(rr.best_chi2, sp_chi2);
  EXPECT_LT(rr.best_chi2, 0.5 * sp_chi2);
  EXPECT_LT(h.model.topology.rmsd_to_truth(it.posterior().x), sp_rmsd);
  EXPECT_FALSE(rr.diverged);
  for (const core::RefineIteration& step : rr.trajectory) {
    EXPECT_EQ(step.temperature, 1.0);  // iterated never inflates
    EXPECT_FALSE(step.restart);
  }
}

TEST(Refine, AnnealedRestoresTheExactModelOnEveryExit) {
  HelixCase h;
  engine::Plan plan = Engine::compile(h.problem, h.compile_options());
  const linalg::Vector x0 = h.scrambled(1.0, 5);

  RefineOptions o;
  o.mode = Mode::kAnnealed;
  o.max_iterations = 10;
  o.initial_temperature = 4.0;
  o.cooling = 0.5;
  Refiner refiner(plan, o);
  const engine::Result r = refiner.refine(x0);

  EXPECT_EQ(plan.sigma_inflation(), 1.0);
  const core::RefineReport& rr = r.report.refine;
  ASSERT_GE(rr.trajectory.size(), 2u);
  EXPECT_EQ(rr.trajectory.front().temperature, 4.0);
  EXPECT_LT(rr.trajectory.back().temperature, 4.0);

  // Thrown exits restore too: a pre-cancelled token aborts iteration 1.
  par::CancelToken cancelled;
  cancelled.cancel();
  RefineOptions oc = o;
  oc.cancel = &cancelled;
  Refiner aborted(plan, oc);
  EXPECT_THROW(aborted.refine(x0), par::CancelledError);
  EXPECT_EQ(plan.sigma_inflation(), 1.0);
}

TEST(Refine, AnnealedRestartsAreSeededAndCounted) {
  HelixCase h;
  engine::Plan plan = Engine::compile(h.problem, h.compile_options());
  const linalg::Vector x0 = h.scrambled(1.0, 9);

  RefineOptions o;
  o.mode = Mode::kAnnealed;
  o.max_iterations = 12;
  o.step_tolerance = 0.0;  // never converge: exercise plateau restarts
  o.initial_temperature = 2.0;
  o.cooling = 0.25;
  o.plateau_ratio = 1e9;  // every base-temperature iteration is a plateau
  o.max_restarts = 2;
  o.restart_sigma = 0.2;
  o.seed = 42;
  Refiner refiner(plan, o);
  const engine::Result r = refiner.refine(x0);

  const core::RefineReport& rr = r.report.refine;
  EXPECT_EQ(rr.restarts, 2);
  int flagged = 0;
  for (const core::RefineIteration& step : rr.trajectory) {
    if (step.restart) {
      ++flagged;
      EXPECT_EQ(step.temperature, o.initial_temperature);
    }
  }
  EXPECT_EQ(flagged, rr.restarts);
}

TEST(Refine, DeadlineDegradesToBestIterateOnceOneExists) {
  HelixCase h;
  engine::Plan plan = Engine::compile(h.problem, h.compile_options());
  const linalg::Vector x0 = h.scrambled(1.0, 7);

  RefineOptions o;
  o.mode = Mode::kIterated;
  o.max_iterations = 1000000;  // only the token can end this loop
  o.step_tolerance = 0.0;
  o.patience = 1000000;
  o.divergence_ratio = 1e12;
  par::CancelToken token;
  o.cancel = &token;
  Refiner refiner(plan, o);

  // Two contract-correct outcomes, depending on whether the cancel lands
  // before or after the first iterate completes (sanitizer builds are slow
  // enough for "before"): degrade to the best iterate, or throw like a
  // plain cancelled solve.  Either way the thread must be joined before
  // the assertions (a throw past a joinable thread would terminate).
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    token.cancel();
  });
  std::optional<engine::Result> r;
  bool cancelled_outright = false;
  try {
    r.emplace(refiner.refine(x0));
  } catch (const par::CancelledError&) {
    cancelled_outright = true;
  }
  canceller.join();

  if (cancelled_outright) {
    SUCCEED() << "cancel landed before the first iterate completed";
  } else {
    const core::RefineReport& rr = r->report.refine;
    EXPECT_TRUE(rr.deadline_degraded);
    EXPECT_GE(rr.iterations, 1);
    EXPECT_FALSE(rr.converged);
    EXPECT_TRUE(std::isfinite(r->posterior().x[0]));
  }

  // A budget already spent before the first iterate throws like a solve.
  par::CancelToken spent;
  spent.set_deadline_after(1e-9);
  RefineOptions tight = o;
  tight.cancel = &spent;
  Refiner hopeless(plan, tight);
  EXPECT_THROW(hopeless.refine(x0), engine::DeadlineError);
}

TEST(Refine, ServerRoutesRefinedRequestsAndCapsIterations) {
  HelixCase h;
  service::ServerOptions so;
  so.workers = 2;
  so.max_refine_iterations = 3;
  so.tenant_refine_iteration_caps["vip"] = 8;
  Server server(so);

  service::Request req;
  req.problem = h.problem;
  req.compile = h.compile_options();
  req.initial = h.scrambled(1.0, 13);
  req.refine.mode = Mode::kIterated;
  req.refine.max_iterations = 100;
  req.refine.step_tolerance = 0.0;  // run to the cap
  req.refine.patience = 1000;

  auto capped = server.submit("basic", req).get();
  ASSERT_TRUE(capped.report.refine.active());
  EXPECT_EQ(capped.report.refine.iterations, 3);

  auto vip = server.submit("vip", req).get();
  EXPECT_EQ(vip.report.refine.iterations, 8);

  // Refine options are validated at the submit() call site.
  req.refine.damping = -1.0;
  EXPECT_THROW(server.submit("basic", req), Error);
  req.refine.damping = 1.0;

  // single_pass requests keep today's path and report no loop diagnostics
  // beyond... none at all: they never pass through a Refiner.
  req.refine = RefineOptions{};
  auto plain = server.submit("basic", req).get();
  EXPECT_FALSE(plain.report.refine.active());

  const service::ServerStats stats = server.stats();
  EXPECT_EQ(stats.refined, 2);
  EXPECT_EQ(stats.refine_degraded, 0);
  server.shutdown();
}

}  // namespace
}  // namespace phmse::refine
