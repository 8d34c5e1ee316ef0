// The lower-authoritative covariance sweep (estimation/update.hpp): the
// symmetric downdate C -= W^T W updates only C's lower triangle, each batch
// refreshes the upper halves of the rows H reads, and one lower-to-upper
// mirror closes the sweep on every exit.  These suites pin
//   * the kernel: the lower triangle is bitwise the full gemm panel's on
//     the blocked and simd backends, on serial, 2- and 3-lane teams and the
//     simulator (odd n puts the middle row of the (t, n-1-t) pair split on
//     a lane boundary), and close to ref.  Both backends run the one
//     lower-triangle routine of detail/panel_algos.hpp; every simd ISA's
//     panels are pinned bitwise to the blocked panel by
//     SimdPanels.EveryTestableIsaIsBitwiseTheBlockedPanel, and the suite
//     runs again under PHMSE_SIMD_ISA=avx2;
//   * the mirror kernels themselves;
//   * the sweep: apply_all is bitwise the same batches applied one by one;
//   * the exits: every solve entry point and every abnormal sweep exit
//     leaves C bitwise symmetric.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "constraints/helix_gen.hpp"
#include "core/assign.hpp"
#include "core/hierarchy.hpp"
#include "engine/engine.hpp"
#include "estimation/fault_injection.hpp"
#include "estimation/update.hpp"
#include "linalg/backend.hpp"
#include "linalg/blas.hpp"
#include "linalg/kernels.hpp"
#include "linalg/ref/ref_kernels.hpp"
#include "molecule/rna_helix.hpp"
#include "parallel/team.hpp"
#include "parallel/thread_pool.hpp"
#include "refine/refiner.hpp"
#include "simarch/sim_context.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace phmse {
namespace {

using linalg::Matrix;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// First asymmetric entry as "(i, j)", or empty when C is bitwise symmetric.
std::string asymmetry(const Matrix& c) {
  if (c.rows() != c.cols()) return "not square";
  for (Index i = 0; i < c.rows(); ++i) {
    for (Index j = i + 1; j < c.cols(); ++j) {
      if (!same_bits(c(i, j), c(j, i))) {
        return "(" + std::to_string(i) + ", " + std::to_string(j) + ")";
      }
    }
  }
  return "";
}

Matrix random_matrix(Index rows, Index cols, Rng& rng) {
  Matrix m(rows, cols);
  for (Index i = 0; i < rows; ++i) {
    for (Index j = 0; j < cols; ++j) m(i, j) = rng.gaussian();
  }
  return m;
}

// Bitwise symmetric, diagonally dominant.
Matrix random_symmetric(Index n, Rng& rng) {
  Matrix c(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < i; ++j) c(i, j) = c(j, i) = rng.gaussian();
    c(i, i) = static_cast<double>(n) + rng.uniform();
  }
  return c;
}

// The executors every kernel test runs on: serial, 2- and 3-lane teams and
// a 3-processor simulated machine.
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

// -- the kernel ---------------------------------------------------------------

TEST(LowerDowndate, LowerTriangleIsBitwiseTheFullPanelOnEveryExecutor) {
  Rng rng(15001);
  Executors ex;
  for (const Index n : {1, 7, 8, 33, 257, 1021}) {
    for (const Index m : {1, 3, 16}) {
      const Matrix w = random_matrix(m, n, rng);
      const Matrix c0 = random_symmetric(n, rng);
      // The full panel: every entry of C - W^T W as one ascending fma
      // chain (the blas.hpp contract).
      Matrix full = c0;
      linalg::gemm_tn_acc(-1.0, w.data(), n, w.data(), n, full.data(), n, n,
                          m, n);
      for (const char* name : {"blocked", "simd"}) {
        const linalg::Backend& be = *linalg::find_backend(name);
        for (const auto& [exec, ctx] : ex.all()) {
          Matrix c = c0;
          be.covariance_downdate(*ctx, w, c);
          for (Index i = 0; i < n; ++i) {
            for (Index j = 0; j <= i; ++j) {
              ASSERT_TRUE(same_bits(c(i, j), full(i, j)))
                  << name << " (" << be.simd_isa << ") on " << exec
                  << " n=" << n << " m=" << m << " at (" << i << ", " << j
                  << ")";
            }
          }
        }
      }
    }
  }
}

TEST(LowerDowndate, LowerTriangleMatchesTheRefOracle) {
  Rng rng(15002);
  par::SerialContext ctx;
  const linalg::Backend& simd = *linalg::find_backend("simd");
  for (const Index n : {1, 7, 8, 33, 257, 1021}) {
    for (const Index m : {1, 3, 16}) {
      const Matrix w = random_matrix(m, n, rng);
      const Matrix c0 = random_symmetric(n, rng);
      Matrix want = c0;
      linalg::ref::covariance_downdate(ctx, w, want);
      // ref still writes both triangles, and they agree bitwise.
      ASSERT_EQ(asymmetry(want), "") << "ref n=" << n << " m=" << m;
      Matrix got = c0;
      simd.covariance_downdate(ctx, w, got);
      double scale = 1.0;
      for (Index i = 0; i < n; ++i) {
        for (Index j = 0; j <= i; ++j) {
          scale = std::max(scale, std::abs(want(i, j)));
        }
      }
      const double tol =
          4.0 * static_cast<double>(m + 1) *
          std::numeric_limits<double>::epsilon() * scale;
      for (Index i = 0; i < n; ++i) {
        for (Index j = 0; j <= i; ++j) {
          ASSERT_NEAR(got(i, j), want(i, j), tol)
              << "n=" << n << " m=" << m << " at (" << i << ", " << j << ")";
        }
      }
    }
  }
}

// -- the mirror kernels -------------------------------------------------------

TEST(MirrorLower, CopiesTheLowerTriangleOnEveryExecutor) {
  Rng rng(15004);
  Executors ex;
  for (const Index n : {0, 1, 2, 7, 16, 17, 33, 100}) {
    const Matrix c0 = random_matrix(n, n, rng);
    for (const auto& [exec, ctx] : ex.all()) {
      Matrix c = c0;
      linalg::mirror_lower(*ctx, c);
      for (Index i = 0; i < n; ++i) {
        for (Index j = 0; j <= i; ++j) {
          ASSERT_TRUE(same_bits(c(i, j), c0(i, j)))
              << exec << " n=" << n << " lower (" << i << ", " << j << ")";
          ASSERT_TRUE(same_bits(c(j, i), c0(i, j)))
              << exec << " n=" << n << " upper (" << j << ", " << i << ")";
        }
      }
    }
  }
}

TEST(MirrorLower, RowRefreshWritesOnlyTheListedRowsUpperHalves) {
  Rng rng(15005);
  Executors ex;
  const Index n = 41;
  const Matrix c0 = random_matrix(n, n, rng);
  const std::vector<Index> rows{0, 3, 4, 5, 19, 39, 40};
  for (const auto& [exec, ctx] : ex.all()) {
    Matrix c = c0;
    linalg::mirror_lower_rows(*ctx, rows, c);
    for (Index i = 0; i < n; ++i) {
      const bool listed =
          std::find(rows.begin(), rows.end(), i) != rows.end();
      for (Index j = 0; j < n; ++j) {
        const double want = listed && j > i ? c0(j, i) : c0(i, j);
        ASSERT_TRUE(same_bits(c(i, j), want))
            << exec << " at (" << i << ", " << j << ")";
      }
    }
  }
  // On a symmetric matrix the refresh is a bitwise no-op.
  const Matrix s0 = random_symmetric(n, rng);
  Matrix s = s0;
  linalg::mirror_lower_rows(ex.team3, rows, s);
  EXPECT_EQ(s, s0);
}

// -- the sweep ----------------------------------------------------------------

// The helix-8 root: the boundary-spanning constraints the hierarchy
// assigns to its root node, on the root's 1020-dimensional state.
struct HelixRoot {
  mol::HelixModel model = mol::build_helix(8);
  cons::ConstraintSet constraints;
  est::NodeState state;

  HelixRoot() {
    const cons::ConstraintSet all = cons::generate_helix_constraints(model);
    core::Hierarchy h = core::build_helix_hierarchy(model);
    core::assign_constraints(h, all);
    constraints = h.root().constraints;
    Rng rng(15006);
    state = est::make_initial_state(model.topology, 0, model.num_atoms(),
                                    0.5, 0.3, rng);
  }
};

// The same batches through apply() one at a time (each mirrors C whole).
est::NodeState apply_one_by_one(par::ExecContext& ctx, est::NodeState st,
                                const cons::ConstraintSet& set, Index bs,
                                const est::SolvePolicy& policy = {}) {
  est::BatchUpdater up;
  const auto& all = set.all();
  Index b = 0;
  for (Index start = 0; start < set.size(); start += bs, ++b) {
    const Index len = std::min(bs, set.size() - start);
    up.apply(ctx, st,
             std::span<const cons::Constraint>(all.data() + start,
                                               static_cast<std::size_t>(len)),
             policy, b);
  }
  return st;
}

TEST(DeferredMirror, ApplyAllIsBitwiseOneByOneApplyOnAHelix8Root) {
  const HelixRoot root;
  ASSERT_GT(root.constraints.size(), 16);
  ASSERT_EQ(asymmetry(root.state.c), "");
  Executors ex;
  const est::NodeState want =
      apply_one_by_one(ex.serial, root.state, root.constraints, 16);
  ASSERT_EQ(asymmetry(want.c), "");
  for (const auto& [exec, ctx] :
       std::vector<std::pair<const char*, par::ExecContext*>>{
           {"serial", &ex.serial}, {"team3", &ex.team3}, {"sim3", &ex.sim}}) {
    est::NodeState st = root.state;
    est::BatchUpdater up;
    up.apply_all(*ctx, st, root.constraints, 16);
    EXPECT_EQ(st.x, want.x) << exec;
    EXPECT_EQ(st.c, want.c) << exec;
  }
}

TEST(DeferredMirror, SkippedBatchesMidSweepKeepTheEquality) {
  // A non-finite observation drops its batch under skip_batch; later
  // batches must still refresh the rows their H reads from the lower
  // triangle the earlier applied batches left.
  Rng rng(15007);
  const mol::HelixModel model = mol::build_helix(2);
  cons::ConstraintSet set = cons::generate_helix_constraints(model);
  cons::ConstraintSet poisoned;
  for (Index i = 0; i < 200; ++i) {
    cons::Constraint c = set.all()[static_cast<std::size_t>(i)];
    if (i == 37 || i == 120) c.observed = std::nan("");
    poisoned.add(c);
  }
  const est::NodeState start = est::make_initial_state(
      model.topology, 0, model.num_atoms(), 1.0, 0.3, rng);
  const est::SolvePolicy policy = est::SolvePolicy::skip_batch();
  Executors ex;
  const est::NodeState want =
      apply_one_by_one(ex.serial, start, poisoned, 8, policy);
  for (const auto& [exec, ctx] : ex.all()) {
    est::NodeState st = start;
    est::BatchUpdater up;
    est::NodeReport report;
    up.apply_all(*ctx, st, poisoned, 8, policy, &report);
    EXPECT_EQ(report.batches - report.ok, 2) << exec;
    EXPECT_EQ(st.x, want.x) << exec;
    EXPECT_EQ(st.c, want.c) << exec;
  }
}

// -- every exit leaves C symmetric ---------------------------------------------

engine::Problem helix_problem(const mol::HelixModel& model,
                              const cons::ConstraintSet& set) {
  return engine::Problem::custom(
      model.num_atoms(), set,
      [model] { return core::build_helix_hierarchy(model); }, "helix2");
}

TEST(SymmetricPosterior, EverySolveEntryPointOnEveryBackend) {
  const mol::HelixModel model = mol::build_helix(2);
  const cons::ConstraintSet set = cons::generate_helix_constraints(model);
  std::vector<double> observed;
  for (const cons::Constraint& c : set.all()) observed.push_back(c.observed);
  Rng rng(15008);
  linalg::Vector x0 = model.topology.true_state();
  for (double& v : x0) v += rng.gaussian(0.0, 0.5);

  for (const linalg::Backend* b : linalg::all_backends()) {
    engine::CompileOptions opts;
    opts.solve.backend = b->name;
    opts.solve.prior_sigma = 0.5;
    engine::Plan plan =
        engine::Engine::compile(helix_problem(model, set), opts);
    {
      const engine::Result r = plan.solve(x0);
      EXPECT_EQ(asymmetry(r.posterior().c), "") << b->name << " solve";
    }
    std::vector<double> edited = observed;
    edited[11] += 0.05;
    plan.set_observations(edited);
    {
      const engine::Result r = plan.solve_incremental(x0);
      EXPECT_TRUE(r.report.incremental) << b->name;
      EXPECT_EQ(asymmetry(r.posterior().c), "")
          << b->name << " solve_incremental";
    }
    edited[5] += 0.02;
    plan.set_observations(edited);
    {
      const engine::Result r = plan.solve_lowrank(x0);
      EXPECT_TRUE(r.report.low_rank) << b->name;
      EXPECT_EQ(asymmetry(r.posterior().c), "") << b->name << " solve_lowrank";
    }
    refine::RefineOptions ropts;
    ropts.mode = refine::Mode::kIterated;
    ropts.max_iterations = 2;
    refine::Refiner refiner(plan, ropts);
    const engine::Result r = refiner.refine(x0);
    EXPECT_EQ(asymmetry(r.posterior().c), "") << b->name << " refine";
  }
}

// Forwards to another context and cancels `token` once `budget` kernels
// have run, so a sweep polling that token stops at a deterministic batch
// boundary.
class CancelAfterKernels final : public par::ExecContext {
 public:
  CancelAfterKernels(par::ExecContext& inner, par::CancelToken& token,
                     int budget)
      : inner_(inner), token_(token), budget_(budget) {}
  int width() const override { return inner_.width(); }
  void parallel(perf::Category cat, Index n, const par::CostFn& cost,
                const par::BodyFn& body) override {
    inner_.parallel(cat, n, cost, body);
    if (--budget_ == 0) token_.cancel();
  }
  void sequential(perf::Category cat, const par::CostFn& cost,
                  const par::SectionFn& body) override {
    inner_.sequential(cat, cost, body);
  }
  const perf::Profile& profile() const override { return inner_.profile(); }

 private:
  par::ExecContext& inner_;
  par::CancelToken& token_;
  int budget_;
};

struct ChainSweep {
  est::NodeState start;
  cons::ConstraintSet set;

  explicit ChainSweep(std::uint64_t seed) {
    Rng rng(seed);
    const Index atoms = 12;
    start.atom_begin = 0;
    start.atom_end = atoms;
    start.x.resize(static_cast<std::size_t>(3 * atoms));
    for (Index a = 0; a < atoms; ++a) {
      start.x[static_cast<std::size_t>(3 * a)] = 1.4 * static_cast<double>(a);
      start.x[static_cast<std::size_t>(3 * a + 1)] = rng.gaussian(0.0, 0.3);
      start.x[static_cast<std::size_t>(3 * a + 2)] = rng.gaussian(0.0, 0.3);
    }
    start.reset_covariance(1.0);
    for (Index i = 0; i < 64; ++i) {
      cons::Constraint c;
      c.kind = cons::Kind::kDistance;
      const Index a = rng.uniform_int(0, atoms - 2);
      const Index b = rng.uniform_int(a + 1, atoms - 1);
      c.atoms = {a, b, 0, 0};
      c.observed = 1.4 * static_cast<double>(b - a) + rng.gaussian(0.0, 0.1);
      c.variance = 0.04;
      set.add(c);
    }
  }
};

TEST(SweepExit, CancellationBetweenBatchesLeavesCSymmetric) {
  const ChainSweep sweep(15009);
  Executors ex;
  for (const auto& [exec, inner] : ex.all()) {
    par::CancelToken token;
    // Enough kernels for a few complete batches, then stop.
    CancelAfterKernels ctx(*inner, token, 20);
    est::NodeState st = sweep.start;
    est::BatchUpdater up;
    EXPECT_THROW(up.apply_all(ctx, st, sweep.set, 4, {}, nullptr, &token),
                 par::CancelledError)
        << exec;
    EXPECT_NE(st.c, sweep.start.c) << exec << ": no batch committed";
    EXPECT_EQ(asymmetry(st.c), "") << exec;
  }
}

TEST(SweepExit, AbortPolicyThrowLeavesCSymmetric) {
  ChainSweep sweep(15010);
  cons::ConstraintSet bad;
  for (Index i = 0; i < sweep.set.size(); ++i) {
    cons::Constraint c = sweep.set.all()[static_cast<std::size_t>(i)];
    if (i == 30) c.observed = std::nan("");  // batch 7 of 4-constraint batches
    bad.add(c);
  }
  Executors ex;
  for (const auto& [exec, ctx] : ex.all()) {
    est::NodeState st = sweep.start;
    est::BatchUpdater up;
    EXPECT_THROW(up.apply_all(*ctx, st, bad, 4), Error) << exec;
    EXPECT_NE(st.c, sweep.start.c) << exec << ": no batch committed";
    EXPECT_EQ(asymmetry(st.c), "") << exec;
  }
}

TEST(SweepExit, InjectedFaultLeavesCSymmetric) {
  const ChainSweep sweep(15011);
  Executors ex;
  for (const auto& [exec, ctx] : ex.all()) {
    fault::Injector::instance().clear();
    fault::Site site;
    site.kind = fault::Kind::kNonSpd;
    site.batch = 5;
    fault::Injector::instance().arm(site);
    est::NodeState st = sweep.start;
    est::BatchUpdater up;
    EXPECT_THROW(up.apply_all(*ctx, st, sweep.set, 4), Error) << exec;
    fault::Injector::instance().clear();
    EXPECT_NE(st.c, sweep.start.c) << exec << ": no batch committed";
    EXPECT_EQ(asymmetry(st.c), "") << exec;
  }
}

}  // namespace
}  // namespace phmse
