#include "refine/refiner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "refine/monitor.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace phmse::refine {

namespace {

/// Restores the plan to the exact noise model on every exit path (normal,
/// converged, diverged, degraded, or thrown), so a refine never leaves an
/// inflated sigma behind: the next plain solve on the plan sees exactly the
/// model it would have seen had the Refiner never run.
class InflationGuard {
 public:
  explicit InflationGuard(engine::Plan& plan) : plan_(&plan) {}
  ~InflationGuard() {
    if (armed_) plan_->set_sigma_inflation(1.0);
  }
  InflationGuard(const InflationGuard&) = delete;
  InflationGuard& operator=(const InflationGuard&) = delete;

  void arm() { armed_ = true; }

 private:
  engine::Plan* plan_;
  bool armed_ = false;
};

}  // namespace

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kSinglePass:
      return "single_pass";
    case Mode::kIterated:
      return "iterated";
    case Mode::kAnnealed:
      return "annealed";
  }
  return "single_pass";
}

Mode mode_from_name(const std::string& name) {
  if (name == "single_pass") return Mode::kSinglePass;
  if (name == "iterated") return Mode::kIterated;
  if (name == "annealed") return Mode::kAnnealed;
  throw Error("unknown refine mode: \"" + name +
              "\" (expected single_pass, iterated or annealed)");
}

void validate(const RefineOptions& options) {
  PHMSE_CHECK(options.max_iterations >= 1,
              "refine: max_iterations must be >= 1");
  PHMSE_CHECK(
      std::isfinite(options.step_tolerance) && options.step_tolerance >= 0.0,
      "refine: step_tolerance must be finite and >= 0");
  PHMSE_CHECK(
      std::isfinite(options.chi2_tolerance) && options.chi2_tolerance >= 0.0,
      "refine: chi2_tolerance must be finite and >= 0");
  PHMSE_CHECK(std::isfinite(options.damping) && options.damping > 0.0 &&
                  options.damping <= 1.0,
              "refine: damping must be in (0, 1]");
  PHMSE_CHECK(std::isfinite(options.divergence_ratio) &&
                  options.divergence_ratio > 1.0,
              "refine: divergence_ratio must be > 1");
  PHMSE_CHECK(options.patience >= 1, "refine: patience must be >= 1");
  if (options.mode == Mode::kAnnealed) {
    PHMSE_CHECK(std::isfinite(options.initial_temperature) &&
                    options.initial_temperature >= 1.0,
                "refine: initial_temperature must be >= 1");
    PHMSE_CHECK(std::isfinite(options.cooling) && options.cooling > 0.0 &&
                    options.cooling < 1.0,
                "refine: cooling must be in (0, 1)");
    PHMSE_CHECK(
        std::isfinite(options.plateau_ratio) && options.plateau_ratio >= 0.0,
        "refine: plateau_ratio must be finite and >= 0");
    PHMSE_CHECK(options.max_restarts >= 0, "refine: max_restarts must be >= 0");
    PHMSE_CHECK(
        std::isfinite(options.restart_sigma) && options.restart_sigma >= 0.0,
        "refine: restart_sigma must be finite and >= 0");
  }
}

Refiner::Refiner(engine::Plan& plan, const RefineOptions& options)
    : plan_(&plan), options_(options) {
  validate(options_);
}

engine::Result Refiner::refine(const linalg::Vector& initial_x) {
  return refine_(nullptr, initial_x);
}

engine::Result Refiner::refine(core::Executor exec,
                               const linalg::Vector& initial_x) {
  return refine_(&exec, initial_x);
}

engine::Result Refiner::solve_at_(const core::Executor* exec,
                                  const linalg::Vector& x,
                                  const engine::SolveOptions& controls) {
  return exec != nullptr ? plan_->solve(*exec, x, controls)
                         : plan_->solve(x, controls);
}

engine::Result Refiner::refine_(const core::Executor* exec,
                                const linalg::Vector& initial_x) {
  engine::SolveOptions controls;
  controls.cancel = options_.cancel;

  if (options_.mode == Mode::kSinglePass) {
    // One plan execution, bitwise identical to Plan::solve (with null
    // controls it IS the uncontrolled solve); the Refiner only wraps it in
    // monitoring, reading — never steering — the solve.
    const Residuals before = measure(plan_->hierarchy(), initial_x);
    engine::Result out = solve_at_(exec, initial_x, controls);
    const Residuals after = measure(plan_->hierarchy(), out.posterior().x);
    core::RefineReport& rr = out.report.refine;
    rr.mode = mode_name(Mode::kSinglePass);
    rr.iterations = 1;
    rr.best_iteration = 1;
    rr.converged = out.converged;
    rr.initial_chi2 = before.chi2;
    rr.best_chi2 = after.chi2;
    rr.final_chi2 = after.chi2;
    rr.trajectory.push_back({after.chi2, after.rms,
                             rms_step(initial_x, out.posterior().x), 1.0,
                             false});
    return out;
  }
  return run_loop_(exec, initial_x, controls);
}

engine::Result Refiner::run_loop_(const core::Executor* exec,
                                  const linalg::Vector& initial_x,
                                  const engine::SolveOptions& controls) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const bool annealed = options_.mode == Mode::kAnnealed;
  const par::CancelToken* token = controls.cancel;

  core::RefineReport rr;
  rr.mode = mode_name(options_.mode);
  rr.initial_chi2 = measure(plan_->hierarchy(), initial_x).chi2;

  InflationGuard guard(*plan_);
  if (annealed) guard.arm();
  Rng rng(options_.seed);

  x_lin_ = initial_x;
  double temperature = annealed ? options_.initial_temperature : 1.0;

  engine::Result best;
  bool have_best = false;
  double best_chi2 = kInf;
  double last_chi2 = kInf;
  int since_best = 0;
  int plateau_run = 0;
  bool next_is_restart = false;

  double total_seconds = 0.0;
  double total_vtime = 0.0;
  int total_cycles = 0;
  perf::Profile total_breakdown;

  while (rr.iterations < options_.max_iterations) {
    // Between-iteration poll: once an iterate exists, a stop degrades to it
    // instead of erroring (an any-time answer).  Before one exists, fall
    // through and let the solve classify the stop (DeadlineError vs
    // CancelledError) exactly as a plain controlled solve would.
    if (token != nullptr && token->stop_requested() && have_best) {
      rr.deadline_degraded = true;
      break;
    }

    // Bitwise-identical values are a no-op inside the plan, so re-applying
    // an unchanged temperature never invalidates the §11 checkpoint.
    if (annealed) plan_->set_sigma_inflation(temperature);

    engine::Result r;
    try {
      r = solve_at_(exec, x_lin_, controls);
    } catch (const engine::DeadlineError&) {
      if (!have_best) throw;
      rr.deadline_degraded = true;
      break;
    } catch (const par::CancelledError&) {
      if (!have_best) throw;
      rr.deadline_degraded = true;
      break;
    }
    ++rr.iterations;

    total_seconds += r.seconds;
    total_vtime += r.vtime;
    total_cycles += r.cycles;
    total_breakdown += r.breakdown;

    // Monitor the iterate on the controlling thread, always against the
    // un-inflated noise model: every decision below is executor-independent.
    const linalg::Vector& x_sol = r.posterior().x;
    const Residuals res = measure(plan_->hierarchy(), x_sol);
    const double step = rms_step(x_lin_, x_sol);
    rr.trajectory.push_back(
        {res.chi2, res.rms, step, temperature, next_is_restart});
    next_is_restart = false;

    const bool finite = std::isfinite(res.chi2);
    if (!have_best || (finite && res.chi2 < best_chi2)) {
      // The first completed iterate is kept unconditionally so a degraded
      // or diverged loop always has something principled to return.
      if (finite) best_chi2 = res.chi2;
      best = r;
      best_state_ = r.posterior();
      best.state = &best_state_;
      rr.best_iteration = rr.iterations;
      have_best = true;
      since_best = 0;
    } else {
      ++since_best;
    }

    const bool diverging =
        !finite ||
        (std::isfinite(best_chi2) &&
         res.chi2 > options_.divergence_ratio * std::max(best_chi2, 1e-12));
    const bool at_base = !annealed || temperature <= 1.0;

    if (annealed && at_base && std::isfinite(last_chi2) && last_chi2 > 0.0) {
      const double rel = std::abs(last_chi2 - res.chi2) / last_chi2;
      plateau_run = rel <= options_.plateau_ratio ? plateau_run + 1 : 0;
    } else {
      plateau_run = 0;
    }
    last_chi2 = res.chi2;

    if (at_base && !diverging) {
      if ((options_.step_tolerance > 0.0 && step <= options_.step_tolerance) ||
          (options_.chi2_tolerance > 0.0 &&
           res.chi2 <= options_.chi2_tolerance)) {
        rr.converged = true;
        break;
      }
    }

    bool want_restart = false;
    if (diverging) {
      if (!annealed) {
        rr.diverged = true;
        break;
      }
      want_restart = true;
    }
    if (annealed && plateau_run >= 2) want_restart = true;
    if (since_best >= options_.patience) {
      if (!annealed) break;  // stalled: return the best iterate
      want_restart = true;
    }

    if (want_restart) {
      if (rr.restarts >= options_.max_restarts) {
        rr.diverged = diverging;
        break;
      }
      // Seeded deterministic perturbation of the best iterate; the Rng is
      // consumed only here, in controller order, so the whole trajectory is
      // a function of RefineOptions alone.
      x_lin_ = best_state_.x;
      for (double& v : x_lin_) v += rng.gaussian(0.0, options_.restart_sigma);
      temperature = options_.initial_temperature;
      ++rr.restarts;
      since_best = 0;
      plateau_run = 0;
      last_chi2 = kInf;
      next_is_restart = true;
      continue;
    }

    // Re-linearize: full step takes the posterior bitwise; a damped step
    // moves the linearization point a fraction of the way toward it.
    if (options_.damping == 1.0) {
      x_lin_ = x_sol;
    } else {
      for (std::size_t i = 0; i < x_lin_.size(); ++i) {
        x_lin_[i] += options_.damping * (x_sol[i] - x_lin_[i]);
      }
    }
    if (annealed) temperature = std::max(1.0, temperature * options_.cooling);
  }

  PHMSE_CHECK(have_best, "refine: loop ended with no completed iteration");
  engine::Result out = best;
  out.state = &best_state_;
  out.seconds = total_seconds;
  out.vtime = total_vtime;
  out.cycles = total_cycles;
  out.breakdown = total_breakdown;
  out.converged = rr.converged;
  rr.best_chi2 =
      rr.trajectory[static_cast<std::size_t>(rr.best_iteration - 1)].chi2;
  rr.final_chi2 = rr.trajectory.back().chi2;
  out.report.refine = std::move(rr);
  return out;
}

}  // namespace phmse::refine
