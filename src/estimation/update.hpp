// The sequential update algorithm (paper Figure 1) for one constraint batch.
//
// Given the estimate (x-, C-) and an m-dimensional observation batch
// z = h(x) + v, v ~ N(0, R):
//   H  = dh/dx |x-                          (sparse, m x n)
//   G  = H C-                               (d-s;  G^T = C- H^T)
//   S  = G H^T + R                          (m-m;  innovation covariance)
//   S  = L L^T                              (chol)
//   V  = L^{-T} L^{-1} G                    (sys;  V = K^T, the gain)
//   x+ = x- + V^T (z - h(x-))               (m-v / vec)
//   C+ = C- - V^T G = C- - W^T W            (m-v;  W = L^{-1} G, kernels.hpp)
//
// BatchUpdater owns the scratch buffers so repeated application over
// thousands of batches does not allocate.
//
// Lower-authoritative sweeps.  C is symmetric, so apply_all keeps only its
// lower triangle current while it runs: the downdate C -= W^T W updates
// entries i >= j (half the m-v flops), each batch first refreshes the upper
// half of just the rows H reads (C(r, j) = C(j, r) for j > r: only upper
// entries are written, each with its mirror value), and one lower-to-upper
// mirror closes the sweep — on every exit, normal or thrown.
// Entries (i, j) and (j, i) of W^T W are the same exact products, so the
// result is bitwise the full update's.  Precondition: C is bitwise
// symmetric on entry to apply() and apply_all(); both leave it so.
//
// Delayed downdates.  On a node whose dimension reaches the backend's
// Backend::delay_min_dim, apply_all stops downdating C after every batch.
// Each applied batch's W joins a queue, and every kDelayBatches batches
// the queue flushes as one rank-(kDelayBatches m) covariance_downdate: a
// quarter of the passes over C for the same flops (m-v).  Every element
// of the downdate is one fma chain over W's rows in order, so the flush is
// bitwise the batches' sequential downdates.  Until then C lags, so before
// G = H C each batch gathers the rows H reads from the lower triangle and
// replays the queue over them with the downdate's own chain
// (Backend::downdate_rows; both vec), which reproduces bitwise the rows
// the eager sweep holds; G = H C then reads the gathered rows through H's
// columns renumbered in ascending order, so each G entry keeps its sum
// order.  The queue flushes on every exit too (normal end, cancellation,
// a thrown failure) before the closing mirror, so x, C, the applied-row
// archive and the report are bitwise the eager sweep's.
#pragma once

#include <span>
#include <vector>

#include "constraints/set.hpp"
#include "estimation/policy.hpp"
#include "estimation/state.hpp"
#include "linalg/csr.hpp"
#include "parallel/exec.hpp"

namespace phmse::linalg {
struct Backend;
}  // namespace phmse::linalg

namespace phmse::est {

/// Applies constraint batches to a NodeState (paper Fig. 1).
class BatchUpdater {
 public:
  BatchUpdater() = default;

  /// Pins the kernel backend this updater calls through (linalg/backend.hpp).
  /// Null (the default) means linalg::default_backend(), which reads
  /// PHMSE_BACKEND once per process, on first use, into a function-local
  /// static: changing the variable afterwards has no effect.  To switch
  /// backends within a process, pin one here.
  /// The pointer must outlive the updater; registry backends are static.
  void set_backend(const linalg::Backend* backend) { backend_ = backend; }

  /// Multiplies every constraint's noise variance by `scale` at
  /// linearization time — the annealing seam of DESIGN.md §14: inflating
  /// observation sigmas by a temperature T means scale = T^2.  The
  /// constraints themselves are never touched, so dropping the scale back
  /// to 1.0 restores the exact original noise model.  At the default 1.0
  /// the variance is copied verbatim (no multiply), so unscaled sweeps stay
  /// bitwise identical to the historical path.  Must be finite and > 0.
  void set_variance_scale(double scale);
  double variance_scale() const { return variance_scale_; }

  /// Applies one batch of scalar constraints to `state`.  All constraint
  /// atoms must lie inside the state's atom range.  Execution (serial,
  /// threaded, or simulated) is directed by `ctx`.
  ///
  /// Transactional (DESIGN.md §9): every fallible step — input validation,
  /// the S = L L^T factorization and its retry ladder, the innovation gate
  /// — runs before `state` is touched, and x/C are only written once all of
  /// them have succeeded.  A batch that is rejected, under any policy,
  /// therefore leaves the state bitwise identical to its pre-batch value.
  /// With the default (abort) policy a failure throws phmse::Error exactly
  /// as it always has.  `batch_index` identifies the batch within a sweep
  /// for diagnostics and the fault-injection seam (-1 = standalone call).
  ///
  /// C must be bitwise symmetric on entry.  An applied batch mirrors the
  /// whole lower triangle afterwards (an n^2 copy), so sweeps should use
  /// apply_all, which pays that once per set.
  BatchOutcome apply(par::ExecContext& ctx, NodeState& state,
                     std::span<const cons::Constraint> batch,
                     const SolvePolicy& policy = {}, Index batch_index = -1);

  /// Applies an entire set in consecutive batches of `batch_size` (the last
  /// batch may be smaller), bitwise equal to calling apply() on each batch
  /// in turn.  Inside the sweep only C's lower triangle is kept current
  /// (see the file comment), and past the backend's delay_min_dim its
  /// downdates are queued and flushed kDelayBatches at a time.  Pending
  /// downdates flush and one mirror restores the upper triangle when the
  /// sweep ends, also when it ends by a cancellation or a thrown failure,
  /// so every committed batch stays applied and C leaves bitwise symmetric
  /// whenever it entered so.  Failed batches are handled per `policy`;
  /// when `report` is non-null every batch outcome is tallied into it
  /// (non-ok outcomes individually).
  void apply_all(par::ExecContext& ctx, NodeState& state,
                 const cons::ConstraintSet& set, Index batch_size,
                 const SolvePolicy& policy = {},
                 NodeReport* report = nullptr);

  /// Upper bound on one scalar constraint's Jacobian-row nonzeros (4 atoms
  /// x 3 coordinates; the widest kind is a torsion).
  static constexpr Index kMaxRowNnz = 12;

  /// Applied batches a delayed sweep queues before it flushes them as one
  /// downdate.  Measured: 2 gains less on the ribo30S root, and from 6 on
  /// the gathers cost more than the flush saves (EXPERIMENTS.md).
  static constexpr Index kDelayBatches = 4;

  /// Jacobian row of constraint `i` (the set's sweep order) exactly as it
  /// was linearized when apply_all last applied its batch — the archive the
  /// low-rank observation rebind of DESIGN.md §11 reads.  The sensitivity
  /// of the finished sweep to one observed value is C_post H_i^T R_i^{-1}
  /// with H_i at its ORIGINAL linearization point (the chain of
  /// (I - K H) damping factors telescopes to exactly that in information
  /// space), so a rebind must reuse this row, not a fresh linearization at
  /// the evolved posterior.  Column indices are node-local state indices.
  /// Returns false when the constraint's batch was dropped by the policy
  /// (its information never entered the state) or no sweep has run.
  bool applied_row(Index i, std::span<const Index>& cols,
                   std::span<const double>& vals) const;

  /// Pre-sizes every scratch buffer for batches of up to `max_m` constraints
  /// against an `n`-dimensional state, so that subsequent apply() calls work
  /// entirely inside existing capacity.  (Without this, the first applied
  /// batch warms the buffers instead.)  The delayed sweep's queue and
  /// gather scratch are sized only when n reaches the backend's
  /// delay_min_dim, so smaller nodes carry none of them.  Resolves the
  /// backend, so call it after set_backend.
  void reserve(Index max_m, Index n);

 private:
  /// Evaluates the batch at the current state: fills residual_, rdiag_ and
  /// the Jacobian, and records whether every position read was finite.
  /// Charged to the `other` category (the paper's O(m) constraint-function
  /// evaluation).
  void linearize(par::ExecContext& ctx, const NodeState& state,
                 std::span<const cons::Constraint> batch);

  /// Pre-update validation: the positions the batch linearized against and
  /// the observation data (residuals, variances) must all be finite, and
  /// every variance strictly positive.
  bool batch_inputs_valid_() const;

  /// How apply_lower_ reads C for G = H C and commits the downdate.
  enum class Sweep {
    kFresh,       // C is whole: read it, downdate it
    kStaleUpper,  // upper triangle lags: refresh the rows H reads first
    kDelayed,     // downdates are queued: gather and replay the rows H
                  // reads, queue W
  };

  /// One Fig.-1 batch that leaves only C's lower triangle current (apply()
  /// minus the closing mirror), reading and downdating C per `sweep`.
  BatchOutcome apply_lower_(par::ExecContext& ctx, NodeState& state,
                            std::span<const cons::Constraint> batch,
                            const SolvePolicy& policy, Index batch_index,
                            Sweep sweep);

  /// The dispatch table: backend_, or the process default.
  const linalg::Backend& backend_table_() const;

  /// Fills touched_ with the rows of C that h_ reads, ascending.
  void collect_touched_();

  /// G = H C from the gathered rows of a delayed sweep (see Sweep).
  void gather_product_(par::ExecContext& ctx, const linalg::Backend& be,
                       const NodeState& state);

  /// Queues the batch's W (in g_), flushing every kDelayBatches batches.
  void queue_downdate_(par::ExecContext& ctx, const linalg::Backend& be,
                       linalg::Matrix& c);

  /// Downdates C by every queued W in one call and empties the queue, also
  /// when the call throws.  No-op on an empty queue.
  void flush_queue_(par::ExecContext& ctx, const linalg::Backend& be,
                    linalg::Matrix& c);

  /// Kernel dispatch table (see set_backend); null = process default.
  const linalg::Backend* backend_ = nullptr;

  /// Observation-variance multiplier (see set_variance_scale); 1.0 = the
  /// exact noise model, applied without a multiply.
  double variance_scale_ = 1.0;

  linalg::Csr h_;
  linalg::CsrBuilder builder_;  // Jacobian assembly; capacity swaps with h_
  linalg::Matrix g_;        // H * C            (m x n)
  linalg::Matrix s_;        // innovation cov   (m x m)
  linalg::Vector residual_; // z - h(x)         (m)
  linalg::Vector rdiag_;    // noise variances  (m)
  linalg::Vector dx_;       // state correction (n)
  linalg::Vector w_;        // whitened residual L^-1 r (m)
  std::vector<Index> touched_;  // rows of C that H reads, ascending
  bool positions_finite_ = true;  // set by linearize

  // Delayed sweeps only (see the file comment).
  linalg::Matrix queue_;     // queued W rows, batches in order (<= 4m x n)
  Index queued_batches_ = 0;
  linalg::Matrix gathered_;  // current rows touched_ of C (t x n)
  linalg::Matrix coeff_;     // queue_'s columns touched_ (rows(queue_) x t)
  linalg::Csr h_gathered_;   // H with columns renumbered onto touched_

  /// Applied-Jacobian archive (see applied_row): fixed kMaxRowNnz-stride
  /// (cols, vals) slots per constraint of the last apply_all set, plus a
  /// per-constraint nonzero count (-1 = dropped / never applied).  Sized
  /// once per set size, so steady-state sweeps refresh it without
  /// allocating.
  std::vector<Index> arch_cols_;
  std::vector<double> arch_vals_;
  std::vector<int> arch_len_;

  /// Copies the freshly applied batch's h_ rows [0, len) into the archive
  /// at constraints [start, start + len); `applied` false marks them
  /// dropped instead.
  void archive_batch_(Index start, Index len, bool applied);
};

}  // namespace phmse::est
