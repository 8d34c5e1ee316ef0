// phmse::Engine — the compile-once / solve-many facade.
//
// Everything the paper derives before numbers flow — the §3 hierarchical
// decomposition, constraint-to-node assignment, Eq.-1 work-model
// calibration, and the §4.3 static processor schedule — is observation-
// independent setup.  The facade splits it out:
//
//   Problem  — topology size + constraint set + a decomposition recipe;
//   Plan     — the compiled artifact (Engine::compile): hierarchy, slots,
//              work model, schedule, and a core::SolvePlan with pre-sized
//              per-node workspaces;
//   solve()  — executes the plan against fresh observation values on any
//              executor (owned serial context, or a core::Executor naming a
//              caller's ExecContext, a ThreadPool, or a simulated machine),
//              returning the posterior with per-phase timing and
//              per-category perf counters.
//
// A plan is reused across solves, processor counts (reschedule) and
// observation vectors (set_observations); after the first solve the serial
// steady state performs zero heap allocations.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/assign.hpp"
#include "core/hierarchy.hpp"
#include "core/solve_plan.hpp"
#include "core/work_model.hpp"
#include "parallel/exec.hpp"
#include "parallel/thread_pool.hpp"
#include "simarch/sim_context.hpp"

namespace phmse::engine {

/// A solve exceeded its deadline (DESIGN.md §13): either the budget was
/// already spent when the solve was asked to start, or a cancellation poll
/// observed the expired deadline clock mid-flight and the run aborted
/// transactionally.  The plan stays reusable either way — the next exact
/// solve is bitwise identical to one that was never interrupted.
class DeadlineError : public Error {
 public:
  using Error::Error;
};

/// Per-solve time/cancellation controls (DESIGN.md §13), accepted by
/// solve/solve_incremental below.  Orthogonal to the compile-time
/// HierSolveOptions: these arm one run, not the plan.
struct SolveOptions {
  /// Wall-clock budget for this solve, measured from the call; <= 0 means
  /// unbounded.  On expiry the executors abort at the next batch/node
  /// boundary and the call throws DeadlineError.
  double deadline_seconds = 0.0;
  /// External cancellation (e.g. a service watchdog); may be null, must
  /// outlive the call.  An explicit cancel() surfaces as
  /// par::CancelledError unless the token's own deadline has also passed
  /// (then DeadlineError — the two mean the same thing to the caller).
  const par::CancelToken* cancel = nullptr;
  /// Opt-in graceful degradation: when the armed deadline is too tight for
  /// the exact path (judged against an EWMA of this plan's past exact solve
  /// times), answer with the low-rank perturbative root update instead —
  /// first-order, Result::report.low_rank marks it — provided its
  /// preconditions hold (valid checkpoint, <= 64 pending changes, same
  /// initial_x; see solve_lowrank).  When they do not, the exact path runs
  /// anyway and takes its chances with the deadline.
  bool degrade_lowrank = false;
};

/// The observation-independent problem statement: how many atoms, which
/// measurements, and how to decompose the molecule into a hierarchy.
struct Problem {
  Index num_atoms = 0;
  cons::ConstraintSet constraints;
  /// Builds the §3 hierarchy over atoms [0, num_atoms).  Invoked once per
  /// compile; the callback owns whatever model state it needs.
  std::function<core::Hierarchy()> decompose;
  /// Structural identity of the decomposition recipe.  `decompose` is an
  /// opaque callable, so callers that want plan caching (phmse::Server)
  /// name the recipe here: two Problems whose recipe strings differ never
  /// share a cached plan.  The factories below fill it in; for custom()
  /// the tag is the caller's responsibility and an empty tag marks the
  /// problem as uncacheable.
  std::string recipe;

  /// Single-node decomposition: the flat (non-hierarchical) solve of the
  /// paper's Table 1 — every constraint applied to one node covering the
  /// whole molecule, the covariance re-initialized to the prior each cycle.
  static Problem flat(Index num_atoms, cons::ConstraintSet constraints);

  /// Recursive bisection down to `max_leaf_atoms` atoms per leaf.
  static Problem bisection(Index num_atoms, cons::ConstraintSet constraints,
                           Index max_leaf_atoms);

  /// Any decomposition recipe (helix/ribosome builders, graph partition,
  /// bottom-up grouping, hand-built trees).  `recipe` names the recipe for
  /// the service-layer plan cache; leave it empty to opt out of caching.
  static Problem custom(Index num_atoms, cons::ConstraintSet constraints,
                        std::function<core::Hierarchy()> decompose,
                        std::string recipe = {});
};

/// Compilation parameters.
struct CompileOptions {
  /// Per-solve parameters baked into the plan (batch size, cycles,
  /// tolerance, prior).
  core::HierSolveOptions solve;
  /// Processor count for the §4.3 static schedule (reschedule() revises).
  int processors = 1;
  /// Eq.-1 work model driving the schedule, used as-is unless calibration
  /// is requested (and as the fallback if calibration degenerates).
  core::WorkModel work_model;
  /// Measure Eq. 1 on this host with short synthetic batch timings instead
  /// of trusting `work_model`'s coefficients.
  bool calibrate_work_model = false;
};

/// Wall-clock seconds spent in each compile phase.
struct CompileTimings {
  double decompose_seconds = 0.0;
  double assign_seconds = 0.0;
  double calibrate_seconds = 0.0;
  double schedule_seconds = 0.0;
  double workspace_seconds = 0.0;
  double total_seconds = 0.0;
};

/// Outcome of one plan execution.
struct Result {
  /// Root posterior (x, C) — borrowed from the plan, valid until the next
  /// solve on (or destruction of) the same plan.
  const est::NodeState* state = nullptr;
  int cycles = 0;
  double last_cycle_delta = 0.0;
  bool converged = false;
  /// Host wall-clock seconds of this solve.
  double seconds = 0.0;
  /// Simulated work time (virtual seconds); nonzero only for simulated
  /// solves.
  double vtime = 0.0;
  /// Per-category time of this solve: the executor's own accounting (real
  /// seconds serially/threaded, virtual seconds simulated).
  perf::Profile breakdown;
  /// Fault-tolerance diagnostics: every batch's outcome under the plan's
  /// SolvePolicy, aggregated over the tree (DESIGN.md §9).  clean() on any
  /// completed solve under the default abort policy.
  core::SolveReport report;

  const est::NodeState& posterior() const {
    PHMSE_CHECK(state != nullptr, "result holds no posterior");
    return *state;
  }
};

/// A compiled problem: reusable across repeated solves, executors,
/// processor counts, and observation vectors.  Movable, non-copyable.
///
/// Thread safety: a Plan owns persistent per-node state and workspaces
/// that every solve() mutates, so solves on ONE plan are single-flight —
/// overlapping calls from two threads throw phmse::Error instead of
/// silently corrupting each other's numerics.  Different Plan objects are
/// fully independent; the service layer (phmse::Server) hands each
/// in-flight solve its own cached plan instance.
class Plan {
 public:
  Plan(Plan&&) = default;
  Plan& operator=(Plan&&) = default;
  Plan(const Plan&) = delete;
  Plan& operator=(const Plan&) = delete;

  /// Solve on the plan's own serial context, or on `exec` (a caller's
  /// ExecContext, a ThreadPool following the plan's schedule, or a
  /// simulated machine — reset first, Result::vtime and the breakdown carry
  /// its virtual timing).  After the first call the serial solve is the
  /// zero-allocation steady-state path.  See core::SolvePlan::run for the
  /// executors' exception-safety contract.
  ///
  /// `initial_x` is the solve's LINEARIZATION POINT, not just a warm start:
  /// every leaf fills its state from its slice of it and the constraint
  /// Jacobians are evaluated at the evolving estimate seeded from it.  The
  /// root posterior's coordinate ordering equals initial_x's (coordinate
  /// 3*atom+axis), so feeding one solve's posterior mean back as the next
  /// initial_x re-linearizes the whole problem at the current estimate —
  /// the re-linearization seam the refine::Refiner's iterated mode drives
  /// (DESIGN.md §14), symmetric with how set_observations rebinds values.
  ///
  /// `controls` arm deadline/cancellation for this run (DESIGN.md §13): the
  /// run observes them at every batch and node boundary on whichever
  /// executor is used; on deadline expiry the solve throws DeadlineError
  /// (explicit external cancellation surfaces as par::CancelledError), the
  /// plan's checkpoint machinery guarantees the abort is transactional, and
  /// — with controls.degrade_lowrank — a deadline too tight for the exact
  /// path is answered by the low-rank root update when its preconditions
  /// hold.  Default-constructed controls add no overhead.
  Result solve(const linalg::Vector& initial_x,
               const SolveOptions& controls = {});
  Result solve(core::Executor exec, const linalg::Vector& initial_x,
               const SolveOptions& controls = {});

  /// Incremental re-solve (DESIGN.md §11): re-executes only the nodes whose
  /// observations changed since the last completed run (tracked by
  /// set_observations), leaves whose `initial_x` slice changed bitwise, and
  /// their ancestor paths; every other subtree's checkpointed posterior is
  /// reused in place.  Falls back to a full solve — same answer,
  /// Result::report.incremental stays false — when no checkpoint is valid
  /// (first solve on a fresh plan, a previous run that aborted, or a
  /// previous run that took more than one cycle).  On every executor the
  /// posterior and report are bitwise identical to the matching solve().
  Result solve_incremental(const linalg::Vector& initial_x,
                           const SolveOptions& controls = {});
  Result solve_incremental(core::Executor exec,
                           const linalg::Vector& initial_x,
                           const SolveOptions& controls = {});

  /// Low-rank perturbative re-solve (DESIGN.md §11): when only k observation
  /// values changed since the last completed single-cycle run, fold them
  /// into the checkpointed root posterior as one rank-k Kalman shift —
  /// retract-plus-reapply with a shared Jacobian cancels in information
  /// space, so the mean moves by C·Hᵀ·R⁻¹·(z_new − z_old) and the
  /// covariance stays put, in O(k·n) instead of re-running every root-path
  /// constraint at O(n²) each.  H here is each constraint's ARCHIVED
  /// Jacobian row from its original linearization during the
  /// checkpoint-forming sweep — the sensitivity identity telescopes
  /// exactly through the hierarchy only for that row, not for a fresh
  /// relinearization.  The result is a first-order (extended-Kalman)
  /// approximation whose error is linear in the observation change, NOT
  /// bitwise identical to a from-scratch solve; Result::report.low_rank
  /// marks it.  Falls back to
  /// solve_incremental — exact, and itself falling back to a full solve
  /// when no checkpoint exists — whenever the fast path cannot give a
  /// principled answer: no pending changes, more than 64 changed slots,
  /// a changed initial_x, a multi-cycle plan, non-finite inputs, or a
  /// change so large an outlier-gating policy might drop it on the exact
  /// path.  Serial only (the root shift is one node's work; there is
  /// nothing to parallelize).  A later exact solve of any kind restores
  /// the bitwise-reproducible baseline: the changed nodes and the root
  /// stay dirty until one runs.
  Result solve_lowrank(const linalg::Vector& initial_x);

  /// True when the plan's per-node states form a reusable checkpoint (the
  /// last run completed in a single cycle).
  bool has_checkpoint() const { return plan_->has_checkpoint(); }

  /// The most recent run's report — including a run that threw: a
  /// cancelled/over-deadline solve produces no Result, but the report's
  /// `cancelled*` fields record where it stopped (DESIGN.md §13).
  const core::SolveReport& last_report() const { return plan_->last_report(); }

  /// Nodes marked observation-dirty by set_observations since the last
  /// completed run (ancestor propagation happens at solve time).
  std::size_t pending_dirty_nodes() const { return plan_->num_dirty_nodes(); }

  /// Observation slots whose value changed since the last completed solve
  /// (the retraction work-list of solve_lowrank).  Saturates: past 64
  /// distinct slots the count stops growing and solve_lowrank falls back
  /// to the exact path.
  std::size_t pending_observation_changes() const { return pending_.size(); }

  /// Recomputes the §4.3 schedule for a new processor count; the same plan
  /// then serves speedup sweeps without re-compiling.
  void reschedule(int processors);

  /// Rebinds fresh observed values onto the compiled constraint slots:
  /// values[i] replaces the observed value of the i-th constraint of the
  /// problem the plan was compiled from.  Throws phmse::Error if the count
  /// does not match num_observation_slots() or any compiled slot no longer
  /// resolves to a live constraint (e.g. a node's constraint list was
  /// mutated behind the plan's back) — a mismatch must never silently bind
  /// values to the wrong constraints; validation completes before any
  /// value is written, so a failed rebind leaves the plan untouched.
  ///
  /// Dirty tracking: only slots whose value actually changes (bitwise;
  /// a NaN is conservatively treated as a change) mark their node dirty
  /// for solve_incremental.  Rebinding an identical vector is a no-op and
  /// leaves the dirty set empty.
  void set_observations(std::span<const double> values);

  /// Number of values set_observations expects: one per constraint of the
  /// compiled problem, in the problem's constraint order.
  std::size_t num_observation_slots() const { return slots_.size(); }

  /// Inflates every observation's sigma by `temperature` for subsequent
  /// solves — the annealing seam of the refinement subsystem (DESIGN.md
  /// §14): variances scale by temperature^2, flattening the posterior so
  /// early annealed iterations move freely, and 1.0 restores the exact
  /// noise model bitwise.  A (bitwise) change invalidates the §11
  /// checkpoint and disables solve_lowrank until an exact solve at the new
  /// temperature completes; the constraints' stored variances are never
  /// modified.  Symmetric with set_observations: observations rebind the
  /// measured values, this rebinds how much they are trusted.  Must be
  /// finite and > 0 (normally >= 1).
  void set_sigma_inflation(double temperature);
  /// The currently applied sigma-inflation temperature (1 = exact model).
  double sigma_inflation() const;

  int processors() const { return processors_; }
  const core::WorkModel& work_model() const { return work_model_; }
  const CompileTimings& timings() const { return timings_; }
  const core::HierSolveOptions& options() const { return plan_->options(); }
  core::Hierarchy& hierarchy() { return *hierarchy_; }
  const core::Hierarchy& hierarchy() const { return *hierarchy_; }

  /// Human-readable plan dump: tree, schedule, work model.
  std::string describe() const;

 private:
  friend class Engine;
  Plan() = default;

  /// RAII single-flight marker: entering a solve sets the flag, leaving
  /// (normally or by exception) clears it.  Construction throws if a solve
  /// is already in flight on the same plan.
  class SolveFlight {
   public:
    explicit SolveFlight(std::atomic<bool>& busy);
    ~SolveFlight();
    SolveFlight(const SolveFlight&) = delete;
    SolveFlight& operator=(const SolveFlight&) = delete;

   private:
    std::atomic<bool>& busy_;
  };

  /// One observation slot whose value changed since the last completed
  /// solve, with the value the last solve actually applied (what
  /// solve_lowrank must retract).  First change per slot wins: chained
  /// rebinds between solves must retract the committed value, not an
  /// intermediate one that never reached the posterior.
  struct PendingChange {
    std::size_t slot = 0;
    double old_observed = 0.0;
  };
  /// Above this many distinct changed slots a rank-k update stops being
  /// cheaper than the exact dirty-path re-solve; solve_lowrank falls back.
  static constexpr std::size_t kMaxPendingChanges = 64;

  void clear_pending_();

  /// Builds a Result from a finished core run and feeds the exact-path
  /// duration EWMA the degradation rung consults (low-rank runs excluded).
  Result finish_result_(const core::PlanRunStats& stats, double seconds);
  /// The one implementation behind solve/solve_incremental: arm the token,
  /// shed an already-spent budget, maybe degrade, run the core plan on
  /// `exec` with the token bound, translate deadline-caused CancelledError
  /// into DeadlineError.
  Result solve_(core::Executor exec, const linalg::Vector& initial_x,
                bool incremental, const SolveOptions& controls);
  /// Arms run_token_ from `controls` and returns the token the run should
  /// observe (null = uncontrolled).  The caller's token is never mutated.
  const par::CancelToken* arm_controls_(const SolveOptions& controls);
  /// The low-rank fast path under its own single-flight guard:
  /// materializes the pending work-list and attempts try_run_lowrank;
  /// false = preconditions refused, the caller falls back.
  bool try_lowrank_result_(const linalg::Vector& initial_x, Result* out);

  std::unique_ptr<core::Hierarchy> hierarchy_;
  std::vector<core::AssignedSlot> slots_;
  std::unique_ptr<core::SolvePlan> plan_;
  par::SerialContext serial_;
  core::WorkModel work_model_;
  int processors_ = 1;
  CompileTimings timings_;
  /// Retraction work-list fed by set_observations, consumed (or abandoned
  /// to the exact path) by the next completed solve.
  std::vector<PendingChange> pending_;
  bool pending_overflow_ = false;
  /// Scratch work-list for try_run_lowrank (kept to amortize its
  /// allocation across repeated low-rank solves).
  std::vector<core::LowRankChange> changes_scratch_;
  /// Single-flight guard; boxed so the Plan stays movable (moving a plan
  /// with a solve in flight is a caller bug the guard also catches).
  std::unique_ptr<std::atomic<bool>> in_solve_ =
      std::make_unique<std::atomic<bool>>(false);
  /// Scratch token for deadline-armed solves (boxed: tokens hold atomics
  /// and must not move while bound).  Reset per controlled solve; links to
  /// the caller's SolveOptions::cancel so either source stops the run.
  std::unique_ptr<par::CancelToken> run_token_ =
      std::make_unique<par::CancelToken>();
  /// EWMA of this plan's completed exact (non-low-rank) solve durations —
  /// the degradation rung's estimate of what the exact path would cost.
  /// 0 until the first exact solve completes.
  double exact_seconds_ewma_ = 0.0;
};

/// The facade entry point.
class Engine {
 public:
  /// Compiles `problem` into an executable Plan: decompose, assign
  /// constraints (recording rebind slots), optionally calibrate Eq. 1,
  /// estimate work, schedule §4.3 processors, and pre-size all workspaces.
  static Plan compile(const Problem& problem,
                      const CompileOptions& options = {});
};

}  // namespace phmse::engine

namespace phmse {
using engine::Engine;
}  // namespace phmse
