// Compiled solve plan: the execute half of the plan/execute split.
//
// Everything about a hierarchical solve that does not depend on the
// observation *values* — the tree shape, which constraints land on which
// node, batch boundaries, the §4.3 processor schedule, and the scratch
// buffers every node needs — is captured once in a SolvePlan.  SolvePlan is
// the only code that walks the tree: one run() executes it on any executor
// (a caller's context, a thread pool, or a simulated machine) through one
// shared node-update path, so repeated solves against fresh observations or
// noise realizations touch no setup code and, in the serial steady state,
// perform no heap allocation at all.  A flat (non-hierarchical) solve is a
// plan over a one-node hierarchy (build_flat_hierarchy).
//
// The estimate is propagated leaf-to-root in post-order.  A leaf starts
// from the initial state vector slice and the spherical prior; an interior
// node concatenates its children's posterior states and assembles their
// covariances as diagonal blocks (the children are mutually uncorrelated
// until the node's own boundary-spanning constraints are applied); every
// node then runs the Fig.-1 update over its assigned constraints.  Every
// executor and every processor schedule (the §4.3 static one or the §5 wave
// one, core/schedule.hpp) applies each node's constraints in the same order
// and therefore produces bitwise-identical numerics.
//
// Incremental re-solve (DESIGN.md §11): the persistent per-node states
// double as checkpoints.  Engine::set_observations marks the nodes whose
// observed values actually changed; an incremental run() then re-executes
// only those nodes, any leaf whose initial-state slice changed bitwise, and
// their ancestor paths, while every clean subtree's posterior is reused in
// place.  The result is bitwise identical to a from-scratch run on all
// three executors (tests/incremental_property_test.cpp pins this).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/hierarchy.hpp"
#include "core/solve_report.hpp"
#include "estimation/policy.hpp"
#include "estimation/state.hpp"
#include "estimation/update.hpp"
#include "parallel/exec.hpp"
#include "parallel/thread_pool.hpp"
#include "simarch/sim_context.hpp"

namespace phmse::core {

/// Options for the hierarchical solve: the per-node Fig.-1 update
/// parameters plus the cycle loop around the whole tree.
struct HierSolveOptions {
  /// Constraint batch dimension m (the paper's Table 2 studies this; 16 is
  /// the measured optimum).
  Index batch_size = 16;
  /// Number of cycles over the full constraint set.  The paper's timing
  /// experiments measure exactly one cycle; convergence runs use more.
  int max_cycles = 1;
  /// If positive, stop early once the RMS change of the root state over a
  /// full cycle drops below this threshold.
  double tolerance = 0.0;
  /// Spherical prior standard deviation every leaf's covariance is
  /// (re-)initialized to at the start of each cycle.  Beyond expressing
  /// prior uncertainty this acts as a step damper for the relinearized
  /// cycles (large priors let early batches overshoot their linearization
  /// region); ~1 Angstrom works well for molecular data.
  double prior_sigma = 1.0;
  /// Degradation policy for numerically failing batches (DESIGN.md §9).
  /// The default (abort) throws on the first failure, exactly as solves
  /// always have.
  est::SolvePolicy policy;
  /// Kernel backend for every node of the solve: "ref", "blocked", "simd",
  /// or empty for the process default (PHMSE_BACKEND, else best available).
  /// Resolved once at plan build — a compiled plan never mixes backends —
  /// and recorded in SolveReport::backend.  Unknown names fail fast at
  /// compile with the valid names and this CPU's support (backend.hpp).
  std::string backend;
};

/// Names the executor of one plan run — exactly one of a caller's context
/// (serial, team or any other ExecContext), a thread pool following the
/// hierarchy's processor schedule, or a simulated machine.  Converts
/// implicitly from each, so callers write `plan.run(pool, x)` or
/// `plan.run(machine, x)`.  Three pointers, no allocation; the executor is
/// chosen once per run, never per batch.
class Executor {
 public:
  Executor(par::ExecContext& ctx) : ctx_(&ctx) {}  // NOLINT
  Executor(par::ThreadPool& pool) : pool_(&pool) {}  // NOLINT
  Executor(simarch::SimMachine& machine) : machine_(&machine) {}  // NOLINT

  par::ExecContext* context() const { return ctx_; }
  par::ThreadPool* pool() const { return pool_; }
  simarch::SimMachine* machine() const { return machine_; }

 private:
  par::ExecContext* ctx_ = nullptr;
  par::ThreadPool* pool_ = nullptr;
  simarch::SimMachine* machine_ = nullptr;
};

/// One changed observation for try_run_lowrank: the constraint's owning
/// node in the compiled hierarchy, its index within that node's constraint
/// list (sweep order), and the observed value the last completed run
/// applied (old) next to the currently bound one (new).
struct LowRankChange {
  const HierNode* node = nullptr;
  Index index = 0;
  double old_observed = 0.0;
  double new_observed = 0.0;
};

/// Statistics of one plan execution (the root posterior stays inside the
/// plan; read it with root_state()).
struct PlanRunStats {
  int cycles = 0;
  double last_cycle_delta = 0.0;
  bool converged = false;
  /// True when the run executed the incremental dirty schedule (a valid
  /// checkpoint existed and the run was requested as incremental).
  bool incremental = false;
  /// True when the run was a low-rank perturbative update of the root
  /// posterior (try_run_lowrank) instead of any tree traversal.
  bool low_rank = false;
  /// Node executions this run: the cycle-1 dirty path plus every node on
  /// later cycles.  A full run counts every node once per cycle.
  long nodes_recomputed = 0;
  /// Cycle-1 nodes served from their checkpoint instead of re-executing.
  long nodes_reused = 0;
  /// Per-category time of the run in the executor's own accounting: what
  /// the run added to a caller context's profile, the sum over all node
  /// teams on a thread pool, or the simulated machine's reported profile
  /// (max over processors, the paper's Tables 3-6 convention).
  perf::Profile breakdown;
  /// Simulated work time (max virtual clock), seconds; 0 unless the run
  /// executed on a simulated machine.
  double vtime = 0.0;
};

/// A compiled, repeatedly-executable hierarchical solve.
///
/// The plan borrows `hierarchy` (tree shape, per-node constraint lists and
/// processor schedule) and owns every per-node workspace: the node's
/// persistent (x, C) estimate and a BatchUpdater whose scratch buffers are
/// pre-sized for the node's batch shape.  run() may be called any number of
/// times on any executor; after the first call every buffer is warm and a
/// serial run performs zero heap allocations (tests/alloc_test.cpp pins
/// this).
///
/// If the processor schedule on the hierarchy changes (assign_processors or
/// assign_wave_processors), call refresh_schedule() before the next run.
class SolvePlan {
 public:
  SolvePlan(Hierarchy& hierarchy, const HierSolveOptions& options);

  SolvePlan(const SolvePlan&) = delete;
  SolvePlan& operator=(const SolvePlan&) = delete;
  SolvePlan(SolvePlan&&) = default;
  SolvePlan& operator=(SolvePlan&&) = default;

  /// Executes the plan's cycles on `exec` from `initial_x`, the
  /// full-molecule initial state (dimension 3 * root atoms).
  ///
  /// A caller's context and a simulated machine share one loop over the
  /// nodes: post-order under the static schedule, wave by wave (deepest
  /// first, left to right) under the wave schedule.  Each node runs on the
  /// caller's context, or on a SimContext over its processor group once the
  /// group's virtual clocks have synchronized (all processors synchronize
  /// between waves); the machine is reset first.  A thread pool runs the
  /// tree as fork/join tasks on its processor groups, which must nest: on a
  /// schedule that fails validate_schedule (e.g. most wave schedules) the
  /// run throws phmse::Error before any node executes.
  ///
  /// Exception safety: a failure anywhere in the tree (e.g. a bad
  /// constraint batch throwing phmse::Error on a worker lane) propagates to
  /// the caller as that same exception — no deadlocked join, no
  /// std::terminate — and a pool remains usable for subsequent solves.
  ///
  /// Incremental runs (DESIGN.md §11): when `incremental` is set and the
  /// plan holds a valid checkpoint — the previous run completed in a single
  /// cycle — only the dirty nodes (observations changed via
  /// mark_constraint_dirty, or a leaf's `initial_x` slice changed bitwise)
  /// and their ancestor paths are re-executed; every other node's persisted
  /// posterior is reused in place and its saved sweep tally is replayed
  /// into the report.  Without a valid checkpoint the run silently degrades
  /// to a full one (PlanRunStats::incremental stays false).  Either way the
  /// posterior and the report are bitwise identical to a full run.
  PlanRunStats run(Executor exec, const linalg::Vector& initial_x,
                   bool incremental = false);

  /// Marks `node`'s compiled workspace observation-dirty: the next
  /// incremental run re-executes it and its ancestor path.  `node` must
  /// belong to the hierarchy this plan was compiled from.
  void mark_constraint_dirty(const HierNode* node);

  /// Scales every constraint's noise variance for subsequent runs — the
  /// annealing seam (DESIGN.md §14): refine::Refiner sets T^2 here to
  /// inflate observation sigmas by a temperature T, then restores 1.0.
  /// Changing the scale (bitwise) invalidates the §11 checkpoint: the
  /// persisted states were produced under a different noise model, so an
  /// incremental or low-rank shortcut over them would mix models.  Setting
  /// the current value again is a no-op.  Must be finite and > 0.
  void set_variance_scale(double scale);
  double variance_scale() const { return variance_scale_; }

  /// Low-rank perturbative re-solve (DESIGN.md §11; the "fast Kalman filter
  /// with low-rank perturbative approach" trick from PAPERS.md).  Instead of
  /// re-executing the dirty path — whose root-ward nodes re-apply EVERY one
  /// of their constraint batches at O(n^2) per constraint — the k changed
  /// observations are folded directly into the checkpointed root posterior
  /// as one rank-k mean shift.  Retracting a measurement and re-adding it
  /// with the same Jacobian and noise cancels exactly in information space,
  /// and the (I - K H) damping chain of every batch applied after it
  /// telescopes to C_post, so the sweep's sensitivity to one observed value
  /// is exactly
  ///
  ///   dx = C_root H_j^T R_j^{-1} (z_new - z_old),   C unchanged,
  ///
  /// with H_j the constraint's ARCHIVED row (BatchUpdater::applied_row) —
  /// the original linearization, embedded lower in the tree.  Cost is
  /// O(k n) total, no factorization.  For nonlinear constraints the frozen
  /// linearization makes the result a first-order (EKF) approximation, NOT
  /// bitwise-exact — callers who need the bitwise guarantee use an
  /// incremental run() instead.
  ///
  /// Preconditions: a single-cycle checkpoint exists, `initial_x` is
  /// bitwise the checkpoint's initial state, every change resolves to a
  /// plan node with an archived applied row, the inputs are finite, and —
  /// under an outlier-gating policy — no change is large enough that the
  /// exact path might gate it.  On any precondition failure the function
  /// returns false and the caller must fall back to an incremental run — the
  /// changed nodes (and the root) remain marked dirty, so the fallback
  /// rebuilds every state the attempt may have touched.
  bool try_run_lowrank(par::ExecContext& ctx, const linalg::Vector& initial_x,
                       std::span<const LowRankChange> changes,
                       PlanRunStats* stats);

  /// True when the persisted per-node states form a reusable checkpoint
  /// (the last run completed successfully in a single cycle).  Cleared at
  /// the start of every run — an exception mid-run leaves mixed states —
  /// and re-established when the run completes.
  bool has_checkpoint() const { return has_checkpoint_; }

  /// Binds a cooperative cancellation token observed by every executor
  /// (DESIGN.md §13): the passes poll it at node boundaries, the batch
  /// sweep polls it between batches, and the threaded recursion's task
  /// groups check it before entering queued subtree tasks.  A poll that
  /// observes the stop throws par::CancelledError out of the run — after
  /// every lane has joined — and the abort is transactional by
  /// construction: the checkpoint was already invalidated at run start and
  /// the dirty marks drain only on completion, so the plan stays reusable
  /// and the NEXT exact solve re-executes every node, bitwise identical to
  /// a run that was never cancelled (the per-batch update itself commits
  /// all-or-nothing, so no node state is ever torn).  The aborted run's
  /// report_ records cancelled + where (last_report()).  Null detaches; the
  /// token must outlive every run started while it is bound.
  void bind_cancel(const par::CancelToken* token) { cancel_ = token; }
  const par::CancelToken* cancel_token() const { return cancel_; }

  /// Nodes currently marked observation-dirty (before ancestor
  /// propagation, which happens when the next incremental run starts).
  std::size_t num_dirty_nodes() const;

  std::size_t num_nodes() const { return nodes_.size(); }

  /// Re-reads the hierarchy's schedule: the inline/remote child partition
  /// from proc_first/proc_count, the node visiting order from the waves,
  /// and whether the groups nest (validate_schedule).  Checkpoints stay
  /// valid: the schedule changes which lane executes a node and when, never
  /// its numerics.
  void refresh_schedule();

  /// The root posterior of the most recent run.
  const est::NodeState& root_state() const { return nodes_.back().state; }

  /// Moves the root posterior out (for callers that outlive the plan).
  est::NodeState take_root_state() { return std::move(nodes_.back().state); }

  /// Fault-tolerance diagnostics of the most recent run (any executor):
  /// every node's batch tally aggregated after the executor has joined.
  /// With the default abort policy a completed run is always clean() — a
  /// failing batch would have thrown instead.
  const SolveReport& last_report() const { return report_; }

  const HierSolveOptions& options() const { return options_; }
  Hierarchy& hierarchy() { return *hierarchy_; }
  const Hierarchy& hierarchy() const { return *hierarchy_; }

 private:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  /// One hierarchy node's compiled workspace.  `children` and the
  /// inline/remote partition index into nodes_ (which is stored post-order,
  /// so children always precede their parent).
  struct NodeWork {
    HierNode* node = nullptr;
    est::NodeState state;
    est::BatchUpdater updater;
    std::vector<std::size_t> children;
    std::vector<std::size_t> inline_children;
    std::vector<std::size_t> remote_children;
    /// Post-order index of the parent node; kNoParent for the root.  Used
    /// to propagate dirtiness up the ancestor path in one ascending pass.
    std::size_t parent = kNoParent;
    /// This node's team profile on a thread pool (summed after the join).
    perf::Profile profile;
    /// Batch tally of the current run; only this node's executor lane
    /// writes it, so no synchronization is needed until the post-join
    /// aggregation into the plan's SolveReport.
    est::NodeReport report;
    /// Tally of this node's most recent executed sweep (one cycle).  When
    /// an incremental run skips the node, this saved tally is replayed into
    /// `report` — determinism guarantees a re-execution would tally
    /// identically, so the aggregated SolveReport stays bitwise equal to a
    /// from-scratch solve.
    est::NodeReport sweep_report;
  };

  std::size_t build_(HierNode& node);
  void assemble_from_children_(par::ExecContext& ctx, NodeWork& w);
  void assemble_dirty_children_(par::ExecContext& ctx, NodeWork& w);
  void update_node_(par::ExecContext& ctx, NodeWork& w,
                    const linalg::Vector& x0);
  void run_nodes_(par::ExecContext* ctx, simarch::SimMachine* machine,
                  const linalg::Vector& x0);
  void run_threaded_node_(par::ThreadPool& pool, std::size_t index,
                          const linalg::Vector& x0);
  void prepare_schedule_(const linalg::Vector& initial_x, bool incremental);
  template <typename PassFn>
  PlanRunStats run_cycles_(const linalg::Vector& initial_x,
                           bool want_incremental, PassFn&& pass);

  Hierarchy* hierarchy_ = nullptr;
  HierSolveOptions options_;
  /// Kernel dispatch table every node's updater calls through; resolved
  /// from options_.backend at plan build (registry-static, never null).
  const linalg::Backend* backend_ = nullptr;
  std::vector<NodeWork> nodes_;  // post-order; root last
  /// Visiting order of run_nodes_ (indices into nodes_): post-order under
  /// the static schedule, wave by wave under the wave schedule.  Derived
  /// by refresh_schedule.
  std::vector<std::size_t> order_;
  /// Why the schedule's processor groups do not nest (validate_schedule's
  /// message), or empty when they do; a thread-pool run refuses to start
  /// on a non-nesting schedule.  Derived by refresh_schedule.
  std::string schedule_error_;
  /// Post-order index of each hierarchy node, for mark_constraint_dirty.
  std::unordered_map<const HierNode*, std::size_t> node_index_;
  /// Observation-dirty flags fed by mark_constraint_dirty; drained when a
  /// run completes.  Preallocated — marking and clearing never allocate.
  std::vector<unsigned char> dirty_;
  /// Cycle-1 execution mask of the current run: dirty nodes, changed
  /// leaves, and their ancestor paths (everything on a full run).  Written
  /// by prepare_schedule_ before the executor starts, read-only during the
  /// pass, so worker lanes race with nothing.
  std::vector<unsigned char> exec_;
  /// True while the executor runs cycle 1 of an incremental schedule; the
  /// passes skip unmasked nodes only in that window.  Written between
  /// pass() calls on the coordinating thread (the pool submit/join pair
  /// orders it for worker lanes).
  bool cycle_incremental_ = false;
  bool has_checkpoint_ = false;
  /// Observation-variance multiplier every node's updater applies (see
  /// set_variance_scale); 1.0 = the exact noise model.
  double variance_scale_ = 1.0;
  /// True while a low-rank attempt has partially mutated the root state
  /// (set on entry, cleared on success).  A subsequent low-rank call
  /// refuses until an exact run has rebuilt the root.
  bool lowrank_in_progress_ = false;
  /// Cooperative cancellation token (see bind_cancel); null = none.
  const par::CancelToken* cancel_ = nullptr;
  /// The initial state of the last completed single-cycle run; leaves whose
  /// slice differs bitwise from the incoming initial_x are re-executed.
  linalg::Vector last_initial_;
  linalg::Vector prev_x_;        // previous cycle's root state
  linalg::Vector lowrank_dx_;    // try_run_lowrank mean-shift scratch
  SolveReport report_;           // aggregated after every run
};

}  // namespace phmse::core
