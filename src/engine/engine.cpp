#include "engine/engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <utility>

#include "core/schedule.hpp"
#include "estimation/update.hpp"
#include "linalg/backend.hpp"
#include "support/check.hpp"
#include "support/stopwatch.hpp"

namespace phmse::engine {

namespace {

// Eq.-1 calibration: time the Fig.-1 batch update on short synthetic
// distance sweeps at a few representative node sizes, and fit the
// constrained least-squares model to the measured per-constraint costs.
// Sweeps go through apply_all, as a plan's node sweeps do, and are as many
// batches long as this hierarchy's node sweeps are on average, so the
// closing lower-to-upper mirror is amortized the way a solve pays it (a
// standalone apply() would pay it on every batch).
// Degenerate fits (all-zero model) fall back to the caller's coefficients.
core::WorkModel calibrate_work_model(core::Hierarchy& hierarchy,
                                     const core::HierSolveOptions& solve,
                                     const core::WorkModel& fallback) {
  // Representative state dimensions: the smallest and largest node, capped
  // so calibration stays cheap even for ribosome-sized roots (Eq. 1 is a
  // polynomial; moderate sizes identify its coefficients).
  constexpr Index kDimCap = 240;
  const Index m_full = std::max<Index>(solve.batch_size, 1);
  Index dim_min = std::numeric_limits<Index>::max();
  Index dim_max = 0;
  Index node_batches = 0;   // batches over every node's sweep
  Index sweeping_nodes = 0;  // nodes with constraints to sweep
  hierarchy.for_each_post_order([&](core::HierNode& node) {
    dim_min = std::min(dim_min, node.dim());
    dim_max = std::max(dim_max, node.dim());
    const Index count = node.constraints.size();
    if (count > 0) {
      node_batches += (count + m_full - 1) / m_full;
      ++sweeping_nodes;
    }
  });
  // Batches per timed sweep: the mean over the sweeping nodes, rounded.
  const Index sweep_batches =
      sweeping_nodes > 0
          ? std::max<Index>(1, (node_batches + sweeping_nodes / 2) /
                                   sweeping_nodes)
          : 1;
  dim_min = std::clamp<Index>(dim_min, 6, kDimCap);
  dim_max = std::clamp<Index>(dim_max, dim_min, kDimCap);

  std::vector<Index> dims{dim_min};
  if (dim_max > dim_min) dims.push_back(dim_max);
  if (dim_max > 2 * dim_min) {
    dims.insert(dims.begin() + 1, 3 * ((dim_min + dim_max) / 6));
  }

  std::vector<Index> batch_dims{m_full};
  if (m_full >= 4) batch_dims.push_back(m_full / 2);

  constexpr double kMinSeconds = 0.004;  // per (n, m) measurement
  std::vector<core::WorkSample> samples;
  par::SerialContext ctx;
  for (Index n : dims) {
    const Index atoms = std::max<Index>(n / 3, 2);
    est::NodeState state;
    state.atom_begin = 0;
    state.atom_end = atoms;
    state.x.resize(static_cast<std::size_t>(state.dim()));
    for (Index a = 0; a < atoms; ++a) {  // atoms on a line, spaced 1.5 A
      state.x[static_cast<std::size_t>(3 * a)] = 1.5 * static_cast<double>(a);
    }
    state.reset_covariance(solve.prior_sigma);

    for (Index m : batch_dims) {
      cons::ConstraintSet sweep;
      for (Index b = 0; b < sweep_batches; ++b) {
        for (Index j = 0; j < m; ++j) {
          cons::Constraint c;
          c.kind = cons::Kind::kDistance;
          const Index a = j % (atoms - 1);
          c.atoms = {a, a + 1, 0, 0};
          c.observed = 1.5;
          c.variance = 0.01;
          sweep.add(c);
        }
      }
      est::BatchUpdater updater;
      // Calibrate against the backend the compiled plan will dispatch
      // through, not whatever the process default happens to be.
      updater.set_backend(
          &linalg::resolve_backend(solve.backend, "HierSolveOptions.backend"));
      updater.apply_all(ctx, state, sweep, m);  // warm the scratch buffers
      Stopwatch sw;
      int reps = 0;
      do {
        updater.apply_all(ctx, state, sweep, m);
        ++reps;
      } while (sw.seconds() < kMinSeconds);
      const double per = sw.seconds() / (static_cast<double>(reps) *
                                         static_cast<double>(sweep.size()));
      samples.push_back({static_cast<double>(n), static_cast<double>(m), per});
      state.reset_covariance(solve.prior_sigma);
    }
  }

  try {
    return core::fit_work_model(samples);
  } catch (const Error&) {
    return fallback;  // degenerate measurement; keep the supplied model
  }
}

}  // namespace

Problem Problem::flat(Index num_atoms, cons::ConstraintSet constraints) {
  return custom(
      num_atoms, std::move(constraints),
      [num_atoms] { return core::build_flat_hierarchy(num_atoms); }, "flat");
}

Problem Problem::bisection(Index num_atoms, cons::ConstraintSet constraints,
                           Index max_leaf_atoms) {
  return custom(
      num_atoms, std::move(constraints),
      [num_atoms, max_leaf_atoms] {
        return core::build_bisection_hierarchy(num_atoms, max_leaf_atoms);
      },
      "bisection/" + std::to_string(max_leaf_atoms));
}

Problem Problem::custom(Index num_atoms, cons::ConstraintSet constraints,
                        std::function<core::Hierarchy()> decompose,
                        std::string recipe) {
  Problem p;
  p.num_atoms = num_atoms;
  p.constraints = std::move(constraints);
  p.decompose = std::move(decompose);
  p.recipe = std::move(recipe);
  return p;
}

Plan Engine::compile(const Problem& problem, const CompileOptions& options) {
  PHMSE_CHECK(problem.decompose != nullptr,
              "problem has no decomposition recipe");
  PHMSE_CHECK(options.processors >= 1, "processor count must be >= 1");

  Plan plan;
  Stopwatch total;
  Stopwatch phase;

  plan.hierarchy_ = std::make_unique<core::Hierarchy>(problem.decompose());
  plan.hierarchy_->validate();
  PHMSE_CHECK(plan.hierarchy_->root().atom_begin == 0 &&
                  plan.hierarchy_->root().atom_end == problem.num_atoms,
              "decomposition does not cover the problem's atom range");
  plan.timings_.decompose_seconds = phase.seconds();

  phase.reset();
  core::assign_constraints(*plan.hierarchy_, problem.constraints,
                           plan.slots_);
  plan.timings_.assign_seconds = phase.seconds();
  // The pending-change ledger and its rank-k work-list are capped at
  // kMaxPendingChanges entries; reserving them here keeps set_observations
  // and solve_lowrank off the heap in the steady state.
  plan.pending_.reserve(Plan::kMaxPendingChanges);
  plan.changes_scratch_.reserve(Plan::kMaxPendingChanges);

  plan.work_model_ = options.work_model;
  if (options.calibrate_work_model) {
    phase.reset();
    plan.work_model_ = calibrate_work_model(*plan.hierarchy_, options.solve,
                                            options.work_model);
    plan.timings_.calibrate_seconds = phase.seconds();
  }

  phase.reset();
  core::estimate_work(*plan.hierarchy_, plan.work_model_,
                      options.solve.batch_size);
  core::assign_processors(*plan.hierarchy_, options.processors);
  plan.processors_ = options.processors;
  plan.timings_.schedule_seconds = phase.seconds();

  phase.reset();
  plan.plan_ =
      std::make_unique<core::SolvePlan>(*plan.hierarchy_, options.solve);
  plan.slot_nodes_.reserve(plan.slots_.size());
  for (const core::AssignedSlot& slot : plan.slots_) {
    plan.slot_nodes_.push_back(plan.plan_->node_index(slot.node));
  }
  plan.timings_.workspace_seconds = phase.seconds();
  plan.timings_.total_seconds = total.seconds();
  return plan;
}

Result Plan::finish_result_(const core::PlanRunStats& stats, double seconds) {
  Result r;
  r.state = &plan_->root_state();
  r.cycles = stats.cycles;
  r.last_cycle_delta = stats.last_cycle_delta;
  r.converged = stats.converged;
  r.seconds = seconds;
  r.vtime = stats.vtime;
  r.breakdown = stats.breakdown;
  // Copying the report is cheap on a clean solve: the counters are plain
  // scalars and the incident vector is empty (a size-0 copy does not
  // allocate), so the steady-state path stays allocation-free.
  r.report = plan_->last_report();
  // Feed the degradation rung's exact-path cost estimate (DESIGN.md §13).
  // Low-rank runs are excluded — they are the degraded answer, not the
  // exact path the estimate must predict.
  if (!r.report.low_rank) {
    exact_seconds_ewma_ = exact_seconds_ewma_ == 0.0
                              ? seconds
                              : 0.7 * exact_seconds_ewma_ + 0.3 * seconds;
  }
  return r;
}

Plan::SolveFlight::SolveFlight(std::atomic<bool>& busy) : busy_(busy) {
  PHMSE_CHECK(!busy_.exchange(true, std::memory_order_acq_rel),
              "concurrent solve() on one Plan: per-node state and "
              "workspaces are mutated during a solve, so solves on a "
              "single plan are single-flight (use one Plan instance per "
              "in-flight solve, e.g. via the phmse::Server plan cache)");
}

Plan::SolveFlight::~SolveFlight() {
  busy_.store(false, std::memory_order_release);
}

Result Plan::solve(const linalg::Vector& initial_x,
                   const SolveOptions& controls) {
  return solve_(serial_, initial_x, /*incremental=*/false, controls);
}

Result Plan::solve(core::Executor exec, const linalg::Vector& initial_x,
                   const SolveOptions& controls) {
  return solve_(exec, initial_x, /*incremental=*/false, controls);
}

Result Plan::solve_incremental(const linalg::Vector& initial_x,
                               const SolveOptions& controls) {
  return solve_(serial_, initial_x, /*incremental=*/true, controls);
}

Result Plan::solve_incremental(core::Executor exec,
                               const linalg::Vector& initial_x,
                               const SolveOptions& controls) {
  return solve_(exec, initial_x, /*incremental=*/true, controls);
}

bool Plan::try_lowrank_result_(const linalg::Vector& initial_x, Result* out) {
  const SolveFlight flight(*in_solve_);
  if (pending_.empty() || pending_overflow_) return false;
  // Materialize the rank-k work-list: each changed slot's owning node
  // and in-node index (resolving its archived Jacobian row), the value
  // the last completed solve applied, and the currently bound one.
  changes_scratch_.clear();
  changes_scratch_.reserve(pending_.size());
  for (const PendingChange& p : pending_) {
    const core::AssignedSlot& slot = slots_[p.slot];
    changes_scratch_.push_back({slot.node, slot.index, p.old_observed,
                                slot.node->constraints[slot.index].observed});
  }
  const perf::Profile before = serial_.profile();
  Stopwatch sw;
  core::PlanRunStats stats;
  if (!plan_->try_run_lowrank(serial_, initial_x, changes_scratch_, &stats)) {
    return false;
  }
  *out = finish_result_(stats, sw.seconds());
  out->breakdown = serial_.profile().minus(before);
  pending_.clear();
  pending_overflow_ = false;
  return true;
}

Result Plan::solve_lowrank(const linalg::Vector& initial_x) {
  Result r;
  if (try_lowrank_result_(initial_x, &r)) return r;
  // Exact fallback: the changed slots already marked their nodes dirty, so
  // the incremental path (itself falling back to a full run when no
  // checkpoint is valid) gives the bitwise-reproducible answer.
  return solve_(serial_, initial_x, /*incremental=*/true, {});
}

Result Plan::solve_(core::Executor exec, const linalg::Vector& initial_x,
                    bool incremental, const SolveOptions& controls) {
  const par::CancelToken* token = controls.cancel;
  if (token != nullptr && token->stop_requested()) {
    // Shed before touching the plan: a budget spent (or a cancel raised)
    // before the solve starts must not burn a single batch.
    if (token->expired()) {
      throw DeadlineError("solve: deadline expired before the solve started");
    }
    throw par::CancelledError("solve: cancelled before the solve started",
                              /*deadline=*/false);
  }
  if (token != nullptr && controls.degrade_lowrank &&
      exact_seconds_ewma_ > 0.0) {
    // Degradation is decided UP FRONT: once an exact attempt is cancelled
    // its checkpoint is gone and the low-rank preconditions can no longer
    // hold, so a reactive fallback would be too late.  1.5x is a safety
    // factor over the EWMA of past exact runs.
    constexpr double kDegradeSafety = 1.5;
    if (token->remaining_seconds() < kDegradeSafety * exact_seconds_ewma_) {
      Result degraded;
      if (try_lowrank_result_(initial_x, &degraded)) return degraded;
    }
  }
  const SolveFlight flight(*in_solve_);
  Stopwatch sw;
  core::PlanRunStats stats;
  try {
    stats = plan_->run(exec, initial_x, incremental, token);
  } catch (const par::CancelledError& e) {
    if (token != nullptr && e.deadline_expired) {
      throw DeadlineError(std::string("solve: ") + e.what());
    }
    throw;
  }
  Result r = finish_result_(stats, sw.seconds());
  clear_pending_();
  return r;
}

void Plan::clear_pending_() {
  pending_.clear();
  pending_overflow_ = false;
}

void Plan::reschedule(int processors) {
  PHMSE_CHECK(processors >= 1, "processor count must be >= 1");
  core::assign_processors(*hierarchy_, processors);
  plan_->refresh_schedule();
  processors_ = processors;
}

void Plan::set_observations(std::span<const double> values) {
  // Two failure modes must produce a loud error, never a silent misbind:
  //  * a wrong-length vector (e.g. built from a constraint file whose
  //    loader dropped malformed lines, so its count no longer matches the
  //    set the plan was compiled from);
  //  * a compiled slot that no longer resolves to a live constraint (a
  //    node's constraint list shrank behind the plan's back).  The slot
  //    lookup used to be an assert that compiles out in release builds,
  //    which made this an out-of-bounds write instead of an error.
  if (values.size() != slots_.size()) {
    throw Error("set_observations: got " + std::to_string(values.size()) +
                " values for a plan compiled from " +
                std::to_string(slots_.size()) +
                " constraints; rebinding requires exactly one value per "
                "compiled constraint, in the problem's constraint order");
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    const core::AssignedSlot& slot = slots_[i];
    if (slot.node == nullptr || slot.index < 0 ||
        slot.index >= slot.node->constraints.size()) {
      throw Error(
          "set_observations: compiled slot for constraint " +
          std::to_string(i) + " no longer resolves to a live constraint" +
          (slot.node == nullptr
               ? std::string(" (unassigned slot)")
               : " (node '" + slot.node->name + "' holds " +
                     std::to_string(slot.node->constraints.size()) +
                     " constraints, slot index " +
                     std::to_string(slot.index) + ")") +
          "; the hierarchy's constraint lists were mutated after compile");
    }
  }
  // Every slot validated; now diff-and-write.  Only slots whose bit pattern
  // actually changes are written and mark their node dirty (bitwise compare
  // so +/-0 and NaN rebinds are handled exactly): rebinding an identical
  // vector leaves the dirty set empty and the next solve_incremental
  // re-executes nothing.
  for (std::size_t i = 0; i < values.size(); ++i) {
    const core::AssignedSlot& slot = slots_[i];
    const double current = slot.node->constraints[slot.index].observed;
    if (std::bit_cast<std::uint64_t>(current) ==
        std::bit_cast<std::uint64_t>(values[i])) {
      continue;
    }
    // Record the outgoing value for solve_lowrank's retraction.  First
    // change per slot wins: across chained rebinds the retraction must
    // remove the value the last completed solve actually applied, not an
    // intermediate one that never reached the posterior.  Once the ledger
    // has overflowed nothing more can be tracked, so the scan stops.
    if (!pending_overflow_) {
      bool tracked = false;
      for (const PendingChange& p : pending_) {
        if (p.slot == i) {
          tracked = true;
          break;
        }
      }
      if (!tracked) {
        if (pending_.size() < kMaxPendingChanges) {
          pending_.push_back({i, current});
        } else {
          pending_overflow_ = true;  // too many for rank-k; exact path only
        }
      }
    }
    slot.node->constraints.set_observed(slot.index, values[i]);
    plan_->mark_constraint_dirty(slot_nodes_[i]);
  }
}

void Plan::set_sigma_inflation(double temperature) {
  PHMSE_CHECK(std::isfinite(temperature) && temperature > 0.0,
              "sigma inflation temperature must be finite and > 0");
  // sigma' = T * sigma  <=>  variance' = T^2 * variance.
  plan_->set_variance_scale(temperature == 1.0 ? 1.0
                                               : temperature * temperature);
}

double Plan::sigma_inflation() const {
  const double scale = plan_->variance_scale();
  return scale == 1.0 ? 1.0 : std::sqrt(scale);
}

std::string Plan::describe() const {
  std::ostringstream os;
  os << "plan: " << hierarchy_->num_nodes() << " nodes, "
     << hierarchy_->total_constraints() << " constraints, P=" << processors_
     << "\n";
  os << core::describe_schedule(*hierarchy_);
  return os.str();
}

}  // namespace phmse::engine
