// Delayed covariance downdates (estimation/update.hpp): past the backend's
// delay_min_dim, apply_all queues each applied batch's W and flushes
// BatchUpdater::kDelayBatches batches as one downdate, gathering and
// replaying the rows H reads before every G = H C.  These suites pin
//   * the kernels: simd's packed tile (AVX-512, every rank) leaves the
//     lower triangle bitwise the blocked panel's, and every backend's
//     downdate_rows replays the downdate's own chain over gathered rows;
//   * the sweep: through a copy of each backend table with delay_min_dim
//     lowered to 8, x, C, the applied-row archive and the NodeReport are
//     bitwise the same table's eager sweep, also with dropped batches
//     inside a pending window;
//   * the exits: a cancellation, an abort-policy throw and every injected
//     fault, at every pending depth, keep the committed batches and leave
//     C bitwise symmetric and equal to the eager sweep stopped there.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "constraints/helix_gen.hpp"
#include "estimation/fault_injection.hpp"
#include "estimation/update.hpp"
#include "linalg/backend.hpp"
#include "linalg/blas.hpp"
#include "linalg/csr.hpp"
#include "linalg/kernels.hpp"
#include "molecule/rna_helix.hpp"
#include "parallel/team.hpp"
#include "parallel/thread_pool.hpp"
#include "simarch/sim_context.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace phmse {
namespace {

using linalg::Matrix;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool bitwise_symmetric(const Matrix& c) {
  for (Index i = 0; i < c.rows(); ++i) {
    for (Index j = i + 1; j < c.cols(); ++j) {
      if (!same_bits(c(i, j), c(j, i))) return false;
    }
  }
  return true;
}

Matrix random_matrix(Index rows, Index cols, Rng& rng) {
  Matrix m(rows, cols);
  for (Index i = 0; i < rows; ++i) {
    for (Index j = 0; j < cols; ++j) m(i, j) = rng.gaussian();
  }
  return m;
}

Matrix random_symmetric(Index n, Rng& rng) {
  Matrix c(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < i; ++j) c(i, j) = c(j, i) = rng.gaussian();
    c(i, i) = static_cast<double>(n) + rng.uniform();
  }
  return c;
}

// Serial, 2- and 3-lane teams and a 3-processor simulated machine.
struct Executors {
  par::ThreadPool pool{3};
  simarch::SimMachine machine{simarch::generic(3)};
  par::SerialContext serial;
  par::TeamContext team2{pool, 0, 2};
  par::TeamContext team3{pool, 0, 3};
  simarch::SimContext sim{machine, 0, 3};

  std::vector<std::pair<const char*, par::ExecContext*>> all() {
    return {{"serial", &serial},
            {"team2", &team2},
            {"team3", &team3},
            {"sim3", &sim}};
  }
};

// A copy of a registered backend table with its delay cut replaced.
linalg::Backend with_delay(const linalg::Backend& b, Index delay_min_dim) {
  linalg::Backend copy = b;
  copy.delay_min_dim = delay_min_dim;
  return copy;
}

// -- the kernels --------------------------------------------------------------

// simd's downdate against the blocked panel for one (n, m) on every
// executor: the lower triangle, bitwise.  On AVX-512 simd runs every rank
// through the packed tile; elsewhere it runs the panel, and the equality
// holds trivially.
void expect_packed_is_panel(Index n, Index m, Rng& rng, Executors& ex) {
  const linalg::Backend& simd = *linalg::find_backend("simd");
  const linalg::Backend& blocked = *linalg::find_backend("blocked");
  const Matrix w = random_matrix(m, n, rng);
  const Matrix c0 = random_symmetric(n, rng);
  Matrix want = c0;
  blocked.covariance_downdate(ex.serial, w, want);
  for (const auto& [exec, ctx] : ex.all()) {
    Matrix c = c0;
    simd.covariance_downdate(*ctx, w, c);
    for (Index i = 0; i < n; ++i) {
      for (Index j = 0; j <= i; ++j) {
        ASSERT_TRUE(same_bits(c(i, j), want(i, j)))
            << simd.simd_isa << " on " << exec << " n=" << n << " m=" << m
            << " at (" << i << ", " << j << ")";
      }
    }
  }
}

const std::vector<Index> kPackedRanks = {1, 2, 7, 8, 9, 15, 16, 17,
                                         32, 33, 64, 128};

TEST(PackedDowndate, LowerTriangleIsBitwiseTheBlockedPanel) {
  // The n include lanes whose last row tile is short of 8 rows and column
  // counts around the tile's 24.  The root sizes run in PackedDowndateRoot.
  Rng rng(16001);
  Executors ex;
  for (const Index n : {1, 7, 8, 9, 23, 24, 25, 33, 36, 129, 257, 258}) {
    for (const Index m : kPackedRanks) {
      ASSERT_NO_FATAL_FAILURE(expect_packed_is_panel(n, m, rng, ex));
    }
  }
}

// Root-sized n, one ctest entry per (n, m), so no single entry sets a
// sanitizer leg's wall time.
struct RootShape {
  Index n;
  Index m;
};

// gtest_discover_tests names each ctest entry by this printout.
void PrintTo(const RootShape& shape, std::ostream* os) {
  *os << "n" << shape.n << "_m" << shape.m;
}

std::vector<RootShape> root_shapes() {
  std::vector<RootShape> shapes;
  for (const Index n : {1021, 2697}) {
    for (const Index m : kPackedRanks) shapes.push_back({n, m});
  }
  return shapes;
}

class PackedDowndateRoot : public ::testing::TestWithParam<RootShape> {};

INSTANTIATE_TEST_SUITE_P(Cells, PackedDowndateRoot,
                         ::testing::ValuesIn(root_shapes()));

TEST_P(PackedDowndateRoot, LowerTriangleIsBitwiseTheBlockedPanel) {
  const RootShape shape = GetParam();
  Rng rng(static_cast<std::uint64_t>(16001 + 1000 * shape.n + shape.m));
  Executors ex;
  expect_packed_is_panel(shape.n, shape.m, rng, ex);
}

TEST(PackedDowndate, OneStackedCallIsBitwiseTheSequentialCalls) {
  // The flush's premise: each element's chain walks W's rows in order, so
  // four rank-16 downdates stacked into one rank-64 call change nothing.
  Rng rng(16002);
  Executors ex;
  const Index n = 301;
  const Matrix c0 = random_symmetric(n, rng);
  const Matrix stacked = random_matrix(64, n, rng);
  for (const linalg::Backend* b : linalg::all_backends()) {
    Matrix want = c0;
    for (Index q = 0; q < 4; ++q) {
      const Matrix part = stacked.extract_block(16 * q, 0, 16, n);
      b->covariance_downdate(ex.serial, part, want);
    }
    for (const auto& [exec, ctx] : ex.all()) {
      Matrix c = c0;
      b->covariance_downdate(*ctx, stacked, c);
      for (Index i = 0; i < n; ++i) {
        for (Index j = 0; j <= i; ++j) {
          ASSERT_TRUE(same_bits(c(i, j), want(i, j)))
              << b->name << " on " << exec << " at (" << i << ", " << j
              << ")";
        }
      }
    }
  }
}

TEST(DowndateRows, GatherAndReplayIsBitwiseTheDowndatedRows) {
  Rng rng(16003);
  Executors ex;
  const Index n = 131;
  const std::vector<Index> rows{0, 1, 2, 40, 41, 42, 77, 128, 129, 130};
  const auto t = static_cast<Index>(rows.size());
  for (const linalg::Backend* b : linalg::all_backends()) {
    for (const Index k : {1, 16, 48}) {
      const Matrix w = random_matrix(k, n, rng);
      const Matrix c0 = random_symmetric(n, rng);
      // The eager result, made whole by mirroring its lower triangle.
      Matrix want = c0;
      b->covariance_downdate(ex.serial, w, want);
      linalg::mirror_lower(ex.serial, want);
      Matrix a(k, t);
      for (Index l = 0; l < k; ++l) {
        for (Index s = 0; s < t; ++s) {
          a(l, s) = w(l, rows[static_cast<std::size_t>(s)]);
        }
      }
      // Only the lower triangle may be read: poison the upper one.
      Matrix c = c0;
      for (Index i = 0; i < n; ++i) {
        for (Index j = i + 1; j < n; ++j) c(i, j) = std::nan("");
      }
      for (const auto& [exec, ctx] : ex.all()) {
        Matrix g;
        linalg::gather_lower_rows(*ctx, c, rows, g);
        ASSERT_EQ(g.rows(), t);
        b->downdate_rows(*ctx, a, w, g);
        for (Index s = 0; s < t; ++s) {
          const Index r = rows[static_cast<std::size_t>(s)];
          for (Index j = 0; j < n; ++j) {
            ASSERT_TRUE(same_bits(g(s, j), want(r, j)))
                << b->name << " k=" << k << " on " << exec << " row " << r
                << " col " << j;
          }
        }
      }
    }
  }
}

TEST(DowndateRows, RenumberedJacobianReadsTheGatheredRows) {
  // G = H C equals G = H' T when T holds the rows H reads and H' is H with
  // its columns renumbered onto them: same terms, same order.
  Rng rng(16004);
  par::SerialContext ctx;
  const Index n = 97;
  linalg::CsrBuilder builder(n);
  for (Index i = 0; i < 9; ++i) {
    builder.begin_row();
    for (int k = 0; k < 6; ++k) {
      builder.add(rng.uniform_int(0, n - 1), rng.gaussian());
    }
  }
  const linalg::Csr h = builder.finish();
  std::vector<Index> rows;
  for (Index i = 0; i < h.rows(); ++i) {
    for (const Index col : h.row_indices(i)) rows.push_back(col);
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  const Matrix c = random_symmetric(n, rng);
  linalg::Csr renumbered;
  h.renumber_columns(rows, renumbered);
  ASSERT_EQ(renumbered.cols(), static_cast<Index>(rows.size()));
  Matrix gathered;
  linalg::gather_lower_rows(ctx, c, rows, gathered);
  for (const linalg::Backend* b : linalg::all_backends()) {
    Matrix want;
    Matrix got;
    b->sparse_dense(ctx, h, c, want);
    b->sparse_dense(ctx, renumbered, gathered, got);
    EXPECT_EQ(got, want) << b->name;
  }
  EXPECT_THROW(h.renumber_columns(std::vector<Index>{rows.front()},
                                  renumbered),
               Error);
}

// -- the sweep ----------------------------------------------------------------

// A whole helix-2 molecule as one node: the generated constraint set on its
// full state (n in the hundreds, past a delay cut of 8).
struct HelixSweep {
  mol::HelixModel model = mol::build_helix(2);
  cons::ConstraintSet set = cons::generate_helix_constraints(model);
  est::NodeState start;

  HelixSweep() {
    Rng rng(16005);
    start = est::make_initial_state(model.topology, 0, model.num_atoms(),
                                    0.5, 0.3, rng);
  }

  // The set re-dealt so every batch of `bs` opens with a constraint on
  // atom 0 (cycling through them): a poisoned x[0] then fails validation
  // in the very batch that poisons it.
  cons::ConstraintSet atom0_in_every_batch(Index bs) const {
    std::vector<cons::Constraint> zero;
    std::vector<cons::Constraint> rest;
    for (const cons::Constraint& c : set.all()) {
      bool touches = false;
      for (Index k = 0; k < cons::arity(c.kind); ++k) {
        touches = touches || c.atoms[static_cast<std::size_t>(k)] == 0;
      }
      (touches ? zero : rest).push_back(c);
    }
    const auto step = static_cast<std::size_t>(bs - 1);
    cons::ConstraintSet out;
    std::size_t z = 0;
    for (std::size_t r = 0; r < rest.size(); r += step) {
      out.add(zero[z++ % zero.size()]);
      for (std::size_t i = r; i < std::min(rest.size(), r + step); ++i) {
        out.add(rest[i]);
      }
    }
    return out;
  }

  // The same set with constraint i's observation replaced.
  cons::ConstraintSet with_observed(std::vector<std::pair<Index, double>>
                                        edits) const {
    cons::ConstraintSet out;
    for (Index i = 0; i < set.size(); ++i) {
      cons::Constraint c = set.all()[static_cast<std::size_t>(i)];
      for (const auto& [at, value] : edits) {
        if (at == i) c.observed = value;
      }
      out.add(c);
    }
    return out;
  }
};

struct SweepResult {
  est::NodeState state;
  est::NodeReport report;
  est::BatchUpdater updater;
};

void run_sweep(par::ExecContext& ctx, const linalg::Backend& be,
               const est::NodeState& start, const cons::ConstraintSet& set,
               Index batch, const est::SolvePolicy& policy, SweepResult& out) {
  out.state = start;
  out.report.clear();
  out.updater.set_backend(&be);
  out.updater.apply_all(ctx, out.state, set, batch, policy, &out.report);
}

// x, C, every applied row and the report, bitwise.
void expect_same_sweep(const SweepResult& got, const SweepResult& want,
                       Index constraints, const std::string& where) {
  EXPECT_EQ(got.state.x, want.state.x) << where;
  EXPECT_EQ(got.state.c, want.state.c) << where;
  EXPECT_TRUE(bitwise_symmetric(got.state.c)) << where;
  for (Index i = 0; i < constraints; ++i) {
    std::span<const Index> gc, wc;
    std::span<const double> gv, wv;
    const bool ga = got.updater.applied_row(i, gc, gv);
    const bool wa = want.updater.applied_row(i, wc, wv);
    ASSERT_EQ(ga, wa) << where << " constraint " << i;
    if (!ga) continue;
    ASSERT_TRUE(std::equal(gc.begin(), gc.end(), wc.begin(), wc.end()))
        << where << " constraint " << i;
    ASSERT_TRUE(std::equal(gv.begin(), gv.end(), wv.begin(), wv.end(),
                           same_bits))
        << where << " constraint " << i;
  }
  const est::NodeReport& g = got.report;
  const est::NodeReport& w = want.report;
  EXPECT_EQ(g.batches, w.batches) << where;
  EXPECT_EQ(g.ok, w.ok) << where;
  EXPECT_EQ(g.retried, w.retried) << where;
  EXPECT_EQ(g.gated, w.gated) << where;
  EXPECT_EQ(g.skipped, w.skipped) << where;
  EXPECT_EQ(g.failed, w.failed) << where;
  EXPECT_EQ(g.max_attempts, w.max_attempts) << where;
  EXPECT_TRUE(same_bits(g.max_regularization, w.max_regularization)) << where;
  ASSERT_EQ(g.incidents.size(), w.incidents.size()) << where;
  for (std::size_t i = 0; i < g.incidents.size(); ++i) {
    const est::BatchIncident& a = g.incidents[i];
    const est::BatchIncident& b = w.incidents[i];
    EXPECT_EQ(a.batch, b.batch) << where;
    EXPECT_EQ(a.outcome.status, b.outcome.status) << where;
    EXPECT_EQ(a.outcome.attempts, b.outcome.attempts) << where;
    EXPECT_TRUE(same_bits(a.outcome.regularization, b.outcome.regularization))
        << where;
    EXPECT_TRUE(same_bits(a.outcome.chi2_per_dof, b.outcome.chi2_per_dof))
        << where;
    EXPECT_EQ(a.outcome.failed_pivot, b.outcome.failed_pivot) << where;
  }
}

// Serial, a 3-lane team and a 3-processor simulated machine.
std::vector<std::pair<const char*, par::ExecContext*>> sweep_executors(
    Executors& ex) {
  return {{"serial", &ex.serial}, {"team3", &ex.team3}, {"sim3", &ex.sim}};
}

// One ctest entry per (backend, executor) cell, so no single entry sets a
// sanitizer leg's wall time.
struct SweepCell {
  const linalg::Backend* backend;
  const char* exec;  // a name in sweep_executors()
};

// gtest_discover_tests names each ctest entry by this printout.
void PrintTo(const SweepCell& cell, std::ostream* os) {
  *os << cell.backend->name << "_" << cell.exec;
}

std::vector<SweepCell> sweep_cells(std::initializer_list<const char*> execs) {
  std::vector<SweepCell> cells;
  for (const linalg::Backend* b : linalg::all_backends()) {
    for (const char* exec : execs) cells.push_back({b, exec});
  }
  return cells;
}

par::ExecContext& sweep_executor(Executors& ex, std::string_view name) {
  for (const auto& [exec, ctx] : sweep_executors(ex)) {
    if (name == exec) return *ctx;
  }
  PHMSE_CHECK(false, "no sweep executor named " + std::string(name));
  return ex.serial;
}

// The DelayedSweep tests run each backend on the serial executor; the same
// checks run on the team3 and sim3 executors as DelayedSweepLanes cells.
class DelayedSweepLanes : public ::testing::TestWithParam<SweepCell> {};

INSTANTIATE_TEST_SUITE_P(Cells, DelayedSweepLanes,
                         ::testing::ValuesIn(sweep_cells({"team3", "sim3"})));

void expect_delayed_is_eager(const HelixSweep& sweep, const linalg::Backend& b,
                             const char* exec, par::ExecContext& ctx) {
  const linalg::Backend eager = with_delay(b, 0);
  const linalg::Backend delayed = with_delay(b, 8);
  SweepResult want;
  SweepResult got;
  run_sweep(ctx, eager, sweep.start, sweep.set, 16, {}, want);
  run_sweep(ctx, delayed, sweep.start, sweep.set, 16, {}, got);
  ASSERT_GT(want.report.ok, est::BatchUpdater::kDelayBatches);
  expect_same_sweep(got, want, sweep.set.size(),
                    std::string(b.name) + " on " + exec);
  // A second sweep on the same updater (warm queue) stays equal.
  const est::NodeState mid = got.state;
  run_sweep(ctx, eager, mid, sweep.set, 16, {}, want);
  run_sweep(ctx, delayed, mid, sweep.set, 16, {}, got);
  expect_same_sweep(got, want, sweep.set.size(),
                    std::string(b.name) + " second sweep on " + exec);
}

TEST(DelayedSweep, EveryBackendIsBitwiseItsEagerSweep) {
  const HelixSweep sweep;
  ASSERT_GE(sweep.start.dim(), 8);
  Executors ex;
  for (const linalg::Backend* b : linalg::all_backends()) {
    ASSERT_NO_FATAL_FAILURE(
        expect_delayed_is_eager(sweep, *b, "serial", ex.serial));
  }
}

TEST_P(DelayedSweepLanes, EveryBackendIsBitwiseItsEagerSweep) {
  const HelixSweep sweep;
  Executors ex;
  expect_delayed_is_eager(sweep, *GetParam().backend, GetParam().exec,
                          sweep_executor(ex, GetParam().exec));
}

void expect_dropped_keep_equality(const HelixSweep& sweep,
                                  const linalg::Backend& b, const char* exec,
                                  par::ExecContext& ctx) {
  const Index bs = 8;
  // Batch 5 (pending depth 1 after the flush at 4) and batch 11 (depth 3)
  // are dropped, so each window flushes a ragged set of batches.
  const cons::ConstraintSet nan_set = sweep.with_observed(
      {{5 * bs + 2, std::nan("")}, {11 * bs, std::nan("")}});
  const cons::ConstraintSet wild_set =
      sweep.with_observed({{5 * bs + 2, 1e4}, {11 * bs, -1e4}});
  struct Case {
    const char* name;
    const cons::ConstraintSet* set;
    est::SolvePolicy policy;
  };
  const std::vector<Case> cases{
      {"skipped", &nan_set, est::SolvePolicy::skip_batch()},
      {"gated", &wild_set, est::SolvePolicy::gate_outliers()},
  };
  const linalg::Backend eager = with_delay(b, 0);
  const linalg::Backend delayed = with_delay(b, 8);
  for (const Case& c : cases) {
    SweepResult want;
    SweepResult got;
    run_sweep(ctx, eager, sweep.start, *c.set, bs, c.policy, want);
    run_sweep(ctx, delayed, sweep.start, *c.set, bs, c.policy, got);
    EXPECT_EQ(want.report.batches - want.report.ok, 2)
        << c.name << " " << b.name;
    expect_same_sweep(got, want, c.set->size(),
                      std::string(c.name) + " " + b.name + " on " + exec);
  }
}

TEST(DelayedSweep, DroppedBatchesInsideAPendingWindowKeepTheEquality) {
  const HelixSweep sweep;
  Executors ex;
  for (const linalg::Backend* b : linalg::all_backends()) {
    ASSERT_NO_FATAL_FAILURE(
        expect_dropped_keep_equality(sweep, *b, "serial", ex.serial));
  }
}

TEST_P(DelayedSweepLanes, DroppedBatchesInsideAPendingWindowKeepTheEquality) {
  const HelixSweep sweep;
  Executors ex;
  expect_dropped_keep_equality(sweep, *GetParam().backend, GetParam().exec,
                               sweep_executor(ex, GetParam().exec));
}

void expect_retried_keep_equality(const HelixSweep& sweep,
                                  const linalg::Backend& b, const char* exec,
                                  par::ExecContext& ctx) {
  est::SolvePolicy exhausted = est::SolvePolicy::retry_regularized();
  exhausted.max_retries = 0;  // the first failure is final
  const linalg::Backend eager = with_delay(b, 0);
  const linalg::Backend delayed = with_delay(b, 8);
  for (const bool transient : {true, false}) {
    SweepResult results[2];
    const linalg::Backend* tables[2] = {&eager, &delayed};
    for (int v = 0; v < 2; ++v) {
      fault::Injector::instance().clear();
      for (const Index batch : {6, 9}) {
        fault::Site site;
        site.kind = fault::Kind::kNonSpd;
        site.batch = batch;
        // A transient fault fails one attempt (the batch retries and
        // applies); a persistent one exhausts a zero-rung ladder.
        site.max_fires = transient ? 1 : -1;
        fault::Injector::instance().arm(site);
      }
      run_sweep(ctx, *tables[v], sweep.start, sweep.set, 8,
                transient ? est::SolvePolicy::retry_regularized() : exhausted,
                results[v]);
    }
    fault::Injector::instance().clear();
    EXPECT_EQ(transient ? results[0].report.retried
                        : results[0].report.failed,
              2)
        << b.name;
    expect_same_sweep(results[1], results[0], sweep.set.size(),
                      std::string(transient ? "retried " : "exhausted ") +
                          b.name + " on " + exec);
  }
}

TEST(DelayedSweep, RetriedAndExhaustedBatchesInsideAPendingWindow) {
  const HelixSweep sweep;
  Executors ex;
  for (const linalg::Backend* b : linalg::all_backends()) {
    ASSERT_NO_FATAL_FAILURE(
        expect_retried_keep_equality(sweep, *b, "serial", ex.serial));
  }
}

TEST_P(DelayedSweepLanes, RetriedAndExhaustedBatchesInsideAPendingWindow) {
  const HelixSweep sweep;
  Executors ex;
  expect_retried_keep_equality(sweep, *GetParam().backend, GetParam().exec,
                               sweep_executor(ex, GetParam().exec));
}

// -- the exits ----------------------------------------------------------------

// Forwards to another context and cancels `token` once `batches` batches
// have formed their whitened residual (the one sequential sys step of every
// batch that reaches it), so eager and delayed sweeps stop at the same
// batch boundary whatever other kernels they run.
class CancelAfterBatches final : public par::ExecContext {
 public:
  CancelAfterBatches(par::ExecContext& inner, par::CancelToken& token,
                     int batches)
      : inner_(inner), token_(token), left_(batches) {}
  int width() const override { return inner_.width(); }
  void parallel(perf::Category cat, Index n, const par::CostFn& cost,
                const par::BodyFn& body) override {
    inner_.parallel(cat, n, cost, body);
  }
  void sequential(perf::Category cat, const par::CostFn& cost,
                  const par::SectionFn& body) override {
    inner_.sequential(cat, cost, body);
    if (cat == perf::Category::kSystemSolve && --left_ == 0) token_.cancel();
  }
  const perf::Profile& profile() const override { return inner_.profile(); }

 private:
  par::ExecContext& inner_;
  par::CancelToken& token_;
  int left_;
};

// The first `batches` batches of `set`, as their own set.
cons::ConstraintSet prefix(const cons::ConstraintSet& set, Index batches,
                           Index bs) {
  cons::ConstraintSet out;
  for (Index i = 0; i < std::min(set.size(), batches * bs); ++i) {
    out.add(set.all()[static_cast<std::size_t>(i)]);
  }
  return out;
}

// Committed batches [0, stop) of a sweep that ended early: the eager
// sweep stopped the same way, and the eager sweep of just those batches.
void expect_stopped_at(const est::NodeState& got, const est::NodeState& eager,
                       const est::NodeState& committed,
                       const std::string& where) {
  EXPECT_TRUE(bitwise_symmetric(got.c)) << where;
  EXPECT_EQ(got.x, eager.x) << where;
  EXPECT_EQ(got.c, eager.c) << where;
  EXPECT_EQ(got.x, committed.x) << where;
  EXPECT_EQ(got.c, committed.c) << where;
}

constexpr Index kExitBatch = 8;

TEST(DelayedSweepExit, CancellationAtEveryPendingDepth) {
  const HelixSweep sweep;
  Executors ex;
  for (const linalg::Backend* b : linalg::all_backends()) {
    const linalg::Backend eager = with_delay(*b, 0);
    const linalg::Backend delayed = with_delay(*b, 8);
    for (Index depth = 0; depth < est::BatchUpdater::kDelayBatches;
         ++depth) {
      const Index stop = 2 * est::BatchUpdater::kDelayBatches + depth;
      for (const auto& [exec, inner] : sweep_executors(ex)) {
        est::NodeState states[2];
        const linalg::Backend* tables[2] = {&eager, &delayed};
        for (int v = 0; v < 2; ++v) {
          par::CancelToken token;
          CancelAfterBatches ctx(*inner, token, static_cast<int>(stop));
          states[v] = sweep.start;
          est::BatchUpdater up;
          up.set_backend(tables[v]);
          EXPECT_THROW(up.apply_all(ctx, states[v], sweep.set, kExitBatch,
                                    {}, nullptr, &token),
                       par::CancelledError);
        }
        est::NodeState committed = sweep.start;
        est::BatchUpdater up;
        up.set_backend(&eager);
        up.apply_all(*inner, committed, prefix(sweep.set, stop, kExitBatch),
                     kExitBatch);
        expect_stopped_at(states[1], states[0], committed,
                          std::string(b->name) + " on " + exec +
                              " depth " + std::to_string(depth));
      }
    }
  }
}

TEST(DelayedSweepExit, AbortPolicyThrowAtEveryPendingDepth) {
  const HelixSweep sweep;
  Executors ex;
  for (const linalg::Backend* b : linalg::all_backends()) {
    const linalg::Backend eager = with_delay(*b, 0);
    const linalg::Backend delayed = with_delay(*b, 8);
    for (Index depth = 0; depth < est::BatchUpdater::kDelayBatches;
         ++depth) {
      const Index stop = 2 * est::BatchUpdater::kDelayBatches + depth;
      // Batch `stop` fails validation; the default policy throws.
      const cons::ConstraintSet bad =
          sweep.with_observed({{stop * kExitBatch + 3, std::nan("")}});
      for (const auto& [exec, ctx] : sweep_executors(ex)) {
        est::NodeState states[2];
        const linalg::Backend* tables[2] = {&eager, &delayed};
        for (int v = 0; v < 2; ++v) {
          states[v] = sweep.start;
          est::BatchUpdater up;
          up.set_backend(tables[v]);
          EXPECT_THROW(up.apply_all(*ctx, states[v], bad, kExitBatch), Error);
        }
        est::NodeState committed = sweep.start;
        est::BatchUpdater up;
        up.set_backend(&eager);
        up.apply_all(*ctx, committed, prefix(sweep.set, stop, kExitBatch),
                     kExitBatch);
        expect_stopped_at(states[1], states[0], committed,
                          std::string(b->name) + " on " + exec +
                              " depth " + std::to_string(depth));
      }
    }
  }
}

// Every cell runs every fault kind at every pending depth, eager and
// delayed.
class DelayedSweepFault : public ::testing::TestWithParam<SweepCell> {};

INSTANTIATE_TEST_SUITE_P(
    Cells, DelayedSweepFault,
    ::testing::ValuesIn(sweep_cells({"serial", "team3", "sim3"})));

TEST_P(DelayedSweepFault, InjectedFaultsAtEveryPendingDepth) {
  const linalg::Backend* b = GetParam().backend;
  const HelixSweep sweep;
  Executors ex;
  par::ExecContext* ctx = &sweep_executor(ex, GetParam().exec);
  struct Fault {
    const char* name;
    fault::Kind kind;
    double magnitude;
    bool throws;  // under the default (abort) policy
  };
  const std::vector<Fault> faults{
      {"non_spd", fault::Kind::kNonSpd, 0.0, true},
      {"nan_observation", fault::Kind::kCorruptObservation, std::nan(""),
       true},
      {"poison_state", fault::Kind::kPoisonState, 0.0, true},
      {"stall", fault::Kind::kStall, 0.0, false},
  };
  // kPoisonState writes NaN into x[0], which validation sees only in a
  // batch that reads atom 0.
  const cons::ConstraintSet poison_set =
      sweep.atom0_in_every_batch(kExitBatch);
  const linalg::Backend eager = with_delay(*b, 0);
  const linalg::Backend delayed = with_delay(*b, 8);
  for (const Fault& f : faults) {
    const cons::ConstraintSet& set =
        f.kind == fault::Kind::kPoisonState ? poison_set : sweep.set;
    for (Index depth = 0; depth < est::BatchUpdater::kDelayBatches;
         ++depth) {
      const Index stop = 2 * est::BatchUpdater::kDelayBatches + depth;
      est::NodeState states[2];
      const linalg::Backend* tables[2] = {&eager, &delayed};
      for (int v = 0; v < 2; ++v) {
        fault::Injector::instance().clear();
        fault::Site site;
        site.kind = f.kind;
        site.batch = stop;
        site.magnitude = f.magnitude;
        fault::Injector::instance().arm(site);
        states[v] = sweep.start;
        est::BatchUpdater up;
        up.set_backend(tables[v]);
        if (f.throws) {
          EXPECT_THROW(up.apply_all(*ctx, states[v], set, kExitBatch), Error)
              << f.name;
        } else {
          up.apply_all(*ctx, states[v], set, kExitBatch);
        }
        fault::Injector::instance().clear();
      }
      const std::string where = std::string(f.name) + " depth " +
                                std::to_string(depth);
      if (!f.throws) {
        EXPECT_TRUE(bitwise_symmetric(states[1].c)) << where;
        EXPECT_EQ(states[1].x, states[0].x) << where;
        EXPECT_EQ(states[1].c, states[0].c) << where;
        continue;
      }
      est::NodeState committed = sweep.start;
      est::BatchUpdater up;
      up.set_backend(&eager);
      up.apply_all(*ctx, committed, prefix(set, stop, kExitBatch), kExitBatch);
      // The poisoned x[0] stays NaN (validation drops the batch before any
      // write), so compare the covariances.
      if (f.kind == fault::Kind::kPoisonState) {
        EXPECT_TRUE(bitwise_symmetric(states[1].c)) << where;
        EXPECT_EQ(states[1].c, states[0].c) << where;
        EXPECT_EQ(states[1].c, committed.c) << where;
        EXPECT_TRUE(std::isnan(states[1].x[0])) << where;
        EXPECT_TRUE(std::equal(states[1].x.begin() + 1, states[1].x.end(),
                               committed.x.begin() + 1, committed.x.end(),
                               same_bits))
            << where;
        continue;
      }
      expect_stopped_at(states[1], states[0], committed, where);
    }
  }
}

}  // namespace
}  // namespace phmse
