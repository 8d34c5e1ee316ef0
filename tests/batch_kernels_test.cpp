// The m-sized steps of one Fig.-1 batch (linalg/simd_kernels.hpp): G = H C
// (d-s), S = G H^T + R (m-m), S = L L^T (chol) and W = L^{-1} G (sys), and
// the sort-free list of the rows H reads (Csr::nonzero_columns).  These
// suites pin
//   * the kernels: for every testable ISA, on serial, 2- and 3-lane team
//     and simulated executors, each kernel is bitwise a test-local scalar
//     form of its chain, including the failed pivot of a non-SPD S;
//   * the bookkeeping: the touched-column list equals sort + unique;
//   * the sweep: apply_all on helix-2 and helix-4 nodes, eager and forced
//     delayed, through the simd table is bitwise the same sweep through a
//     copy whose m-side entries are the scalar forms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "constraints/helix_gen.hpp"
#include "estimation/update.hpp"
#include "linalg/backend.hpp"
#include "linalg/blas.hpp"
#include "linalg/csr.hpp"
#include "linalg/simd/simd_kernels.hpp"
#include "molecule/rna_helix.hpp"
#include "parallel/team.hpp"
#include "parallel/thread_pool.hpp"
#include "simarch/sim_context.hpp"
#include "support/rng.hpp"

namespace phmse {
namespace {

using linalg::Csr;
using linalg::CsrBuilder;
using linalg::Matrix;
using linalg::Vector;

// Batch sizes around the 8-lane vectors, the 16-row register block and
// the 48-row Cholesky panel; state dimensions around the 8- and 32-column
// strips, plus the solve's node sizes.
const std::vector<Index> kMs = {1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11,
                                12, 13, 14, 15, 16, 17, 32, 33, 48, 49};
const std::vector<Index> kNs = {1, 7, 8, 9, 31, 32, 33, 129, 258, 1020};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

::testing::AssertionResult bitwise_equal(const Matrix& got,
                                         const Matrix& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    return ::testing::AssertionFailure()
           << "shape " << got.rows() << "x" << got.cols() << " vs "
           << want.rows() << "x" << want.cols();
  }
  for (Index i = 0; i < got.rows(); ++i) {
    for (Index j = 0; j < got.cols(); ++j) {
      if (!same_bits(got(i, j), want(i, j))) {
        return ::testing::AssertionFailure()
               << "at (" << i << ", " << j << "): " << got(i, j) << " vs "
               << want(i, j);
      }
    }
  }
  return ::testing::AssertionSuccess();
}

Matrix random_matrix(Index rows, Index cols, Rng& rng) {
  Matrix m(rows, cols);
  for (Index i = 0; i < rows; ++i) {
    for (Index j = 0; j < cols; ++j) m(i, j) = rng.gaussian();
  }
  return m;
}

Matrix random_spd(Index n, Rng& rng) {
  const Matrix a = random_matrix(n, n, rng);
  Matrix s = linalg::matmul(a, linalg::transpose(a));
  for (Index i = 0; i < n; ++i) s(i, i) += static_cast<double>(n);
  return s;
}

// An m x n Jacobian-like CSR: up to 12 nonzeros per row (a torsion), some
// rows empty.
Csr random_jacobian(Index m, Index n, Rng& rng) {
  CsrBuilder b(n);
  for (Index i = 0; i < m; ++i) {
    b.begin_row();
    const Index nnz = rng.uniform_int(0, 12);
    for (Index k = 0; k < nnz; ++k) {
      b.add(rng.uniform_int(0, n - 1), rng.gaussian());
    }
  }
  return b.finish();
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

std::string where(const std::string& isa, const char* exec, Index m,
                  Index n) {
  return isa + " on " + exec + " m=" + std::to_string(m) +
         " n=" + std::to_string(n);
}

// -- the chains, scalar -------------------------------------------------------

// acc + x * y as the portable `s += x * y` loops of this build compute it.
double dot_step(double x, double y, double acc) {
  return linalg::simd::kFusedScalarChains ? std::fma(x, y, acc)
                                          : acc + x * y;
}

// G = H C: g(j, q) = fma(h_k, c(col_k, q), .) over row j from +0.0.
Matrix chain_sparse_dense(const Csr& h, const Matrix& c) {
  Matrix g(h.rows(), c.cols());
  for (Index j = 0; j < h.rows(); ++j) {
    const auto idx = h.row_indices(j);
    const auto val = h.row_values(j);
    for (Index q = 0; q < c.cols(); ++q) {
      double acc = 0.0;
      for (std::size_t k = 0; k < idx.size(); ++k) {
        acc = std::fma(val[k], c(idx[k], q), acc);
      }
      g(j, q) = acc;
    }
  }
  return g;
}

// S = G H^T + R: s(j, l) = dot_step over H row l from +0.0, then + r_j on
// the diagonal.
Matrix chain_innovation(const Matrix& g, const Csr& h, const Vector& r) {
  const Index m = h.rows();
  Matrix s(m, m);
  for (Index j = 0; j < m; ++j) {
    for (Index l = 0; l < m; ++l) {
      const auto idx = h.row_indices(l);
      const auto val = h.row_values(l);
      double acc = 0.0;
      for (std::size_t k = 0; k < idx.size(); ++k) {
        acc = dot_step(val[k], g(j, idx[k]), acc);
      }
      s(j, l) = acc;
    }
    s(j, j) = s(j, j) + r[static_cast<std::size_t>(j)];
  }
  return s;
}

// B <- L^{-1} B: fma(-L(i, p), b(p, q), .) over ascending p, then the
// multiply by 1 / L(i, i).
void chain_trsm(const Matrix& l, Matrix& b) {
  for (Index i = 0; i < l.rows(); ++i) {
    const double inv = 1.0 / l(i, i);
    for (Index q = 0; q < b.cols(); ++q) {
      double v = b(i, q);
      for (Index p = 0; p < i; ++p) v = std::fma(-l(i, p), b(p, q), v);
      b(i, q) = v * inv;
    }
  }
}

// sum over p in [k, j) of a(i, p) * a(j, p), linalg::dot's chain.
double panel_dot(const Matrix& a, Index i, Index j, Index k) {
  double s = 0.0;
  for (Index p = k; p < j; ++p) s = dot_step(a(i, p), a(j, p), s);
  return s;
}

// The blocked Cholesky with `block`-row panels: per panel d = a(j, j) - s,
// the !(d > 0) pivot check, sqrt(d) and (a(i, j) - s) * (1 / d); the rows
// below solve (a(i, j) - s) / a(j, j) and the trailing update runs
// fma(-a(i, p), a(c, p), .) over the panel's p.  Returns the failed pivot
// or -1; the strict upper triangle is zeroed on success.
Index chain_cholesky(Matrix& a, Index block) {
  const Index n = a.rows();
  for (Index k = 0; k < n; k += block) {
    const Index b = std::min(block, n - k);
    for (Index j = k; j < k + b; ++j) {
      double d = a(j, j) - panel_dot(a, j, j, k);
      if (!(d > 0.0)) return j;
      d = std::sqrt(d);
      a(j, j) = d;
      const double inv = 1.0 / d;
      for (Index i = j + 1; i < k + b; ++i) {
        a(i, j) = (a(i, j) - panel_dot(a, i, j, k)) * inv;
      }
    }
    for (Index i = k + b; i < n; ++i) {
      for (Index j = k; j < k + b; ++j) {
        a(i, j) = (a(i, j) - panel_dot(a, i, j, k)) / a(j, j);
      }
    }
    for (Index i = k + b; i < n; ++i) {
      for (Index c = k + b; c <= i; ++c) {
        double v = a(i, c);
        for (Index p = k; p < k + b; ++p) v = std::fma(-a(i, p), a(c, p), v);
        a(i, c) = v;
      }
    }
  }
  for (Index i = 0; i < n; ++i) {
    for (Index j = i + 1; j < n; ++j) a(i, j) = 0.0;
  }
  return -1;
}

// -- the kernels --------------------------------------------------------------

TEST(BatchKernels, FusedFlagDescribesTheScalarLoops) {
  // x1 * y1 = 1 + 2^-29 + 2^-60: a fused step keeps the 2^-60 a separate
  // multiply rounds away, so the flag is observable through both loops the
  // simd forms mirror.
  const double e = std::ldexp(1.0, -30);
  const double x[2] = {-1.0, 1.0 + e};
  const double y[2] = {1.0, 1.0 + e};
  const double want = dot_step(x[1], y[1], dot_step(x[0], y[0], 0.0));
  EXPECT_TRUE(same_bits(linalg::dot(x, y, 2), want));

  CsrBuilder b(2);
  b.begin_row();
  b.add(0, x[0]);
  b.add(1, x[1]);
  const Csr h = b.finish();
  Matrix g(1, 2);
  g(0, 0) = y[0];
  g(0, 1) = y[1];
  const Vector r{0.0};
  Matrix s;
  par::SerialContext ctx;
  linalg::find_backend("blocked")->innovation_covariance(ctx, g, h, r, s);
  EXPECT_TRUE(same_bits(s(0, 0), want + 0.0));
}

TEST(BatchKernels, SparseDenseIsItsChainOnEveryIsa) {
  Rng rng(18001);
  Executors ex;
  const Matrix c_all = random_matrix(kNs.back(), kNs.back(), rng);
  for (const Index n : kNs) {
    const Matrix c = c_all.extract_block(0, 0, n, n);
    for (const Index m : kMs) {
      const Csr h = random_jacobian(m, n, rng);
      const Matrix want = chain_sparse_dense(h, c);
      for (const std::string& isa : linalg::simd::testable_isas()) {
        for (const auto& [exec, ctx] : ex.all()) {
          Matrix g(m, n);
          g.fill(std::nan(""));  // no entry may rely on a prior clear
          linalg::simd::sparse_dense_for_isa(isa, *ctx, h, c, g);
          ASSERT_TRUE(bitwise_equal(g, want)) << where(isa, exec, m, n);
        }
      }
    }
  }
}

TEST(BatchKernels, InnovationCovarianceIsItsChainOnEveryIsa) {
  Rng rng(18002);
  Executors ex;
  for (const Index n : kNs) {
    for (const Index m : kMs) {
      const Csr h = random_jacobian(m, n, rng);
      const Matrix g = random_matrix(m, n, rng);
      Vector r(static_cast<std::size_t>(m));
      for (auto& v : r) v = 0.01 + rng.uniform();
      const Matrix want = chain_innovation(g, h, r);
      for (const std::string& isa : linalg::simd::testable_isas()) {
        for (const auto& [exec, ctx] : ex.all()) {
          Matrix s(m, m);
          s.fill(std::nan(""));
          linalg::simd::innovation_covariance_for_isa(isa, *ctx, g, h, r, s);
          ASSERT_TRUE(bitwise_equal(s, want)) << where(isa, exec, m, n);
        }
      }
    }
  }
}

TEST(BatchKernels, TrsmLowerIsItsChainOnEveryIsa) {
  Rng rng(18003);
  Executors ex;
  for (const Index m : kMs) {
    Matrix l = random_spd(m, rng);
    linalg::cholesky_serial(l);
    for (const Index n : kNs) {
      const Matrix b0 = random_matrix(m, n, rng);
      Matrix want = b0;
      chain_trsm(l, want);
      for (const std::string& isa : linalg::simd::testable_isas()) {
        for (const auto& [exec, ctx] : ex.all()) {
          Matrix b = b0;
          linalg::simd::trsm_lower_for_isa(isa, *ctx, l, b);
          ASSERT_TRUE(bitwise_equal(b, want)) << where(isa, exec, m, n);
        }
      }
    }
  }
}

TEST(BatchKernels, CholeskyIsItsChainOnEveryIsa) {
  Rng rng(18004);
  Executors ex;
  for (const Index m : kMs) {
    const Matrix s = random_spd(m, rng);
    for (const Index block : {Index{48}, Index{16}}) {
      Matrix want = s;
      ASSERT_EQ(chain_cholesky(want, block), -1);
      for (const std::string& isa : linalg::simd::testable_isas()) {
        for (const auto& [exec, ctx] : ex.all()) {
          Matrix a = s;
          const linalg::CholeskyResult r =
              linalg::simd::cholesky_factor_for_isa(isa, *ctx, a, block);
          ASSERT_TRUE(r.ok()) << where(isa, exec, m, block);
          ASSERT_TRUE(bitwise_equal(a, want)) << where(isa, exec, m, block);
        }
      }
    }
  }
}

TEST(BatchKernels, NonSpdReturnsTheSameFailedPivot) {
  // An indefinite S fails at a chosen pivot, or at the first pivot that
  // goes non-positive after it, or on a NaN; every ISA reports the
  // scalar chain's pivot and leaves A as the blocked backend leaves it.
  Rng rng(18005);
  Executors ex;
  const linalg::Backend& blocked = *linalg::find_backend("blocked");
  for (const Index m : kMs) {
    for (const Index at : {Index{0}, m / 2, m - 1}) {
      for (const bool nan : {false, true}) {
        Matrix s = random_spd(m, rng);
        s(at, at) = nan ? std::nan("") : -1.0;
        Matrix want = s;
        const Index pivot = chain_cholesky(want, 48);
        ASSERT_EQ(pivot, at) << "m=" << m;
        Matrix blocked_a = s;
        ASSERT_EQ(blocked.cholesky_factor(ex.serial, blocked_a, 48)
                      .failed_pivot,
                  pivot);
        for (const std::string& isa : linalg::simd::testable_isas()) {
          for (const auto& [exec, ctx] : ex.all()) {
            Matrix a = s;
            const linalg::CholeskyResult r =
                linalg::simd::cholesky_factor_for_isa(isa, *ctx, a, 48);
            ASSERT_EQ(r.failed_pivot, pivot) << where(isa, exec, m, at);
            ASSERT_TRUE(bitwise_equal(a, blocked_a))
                << where(isa, exec, m, at);
          }
        }
      }
    }
  }
}

// -- the bookkeeping ----------------------------------------------------------

TEST(BatchKernels, TouchedColumnsAreSortAndUnique) {
  Rng rng(18007);
  std::vector<std::uint64_t> marks;
  std::vector<Index> got;
  for (const Index n : {1, 7, 63, 64, 65, 129, 2697}) {
    for (int round = 0; round < 20; ++round) {
      const Index m = rng.uniform_int(0, 17);
      const Csr h = random_jacobian(m, n, rng);
      std::vector<Index> want;
      for (Index j = 0; j < h.rows(); ++j) {
        const auto idx = h.row_indices(j);
        want.insert(want.end(), idx.begin(), idx.end());
      }
      std::sort(want.begin(), want.end());
      want.erase(std::unique(want.begin(), want.end()), want.end());
      h.nonzero_columns(marks, got);
      ASSERT_EQ(got, want) << "n=" << n << " round " << round;
      ASSERT_TRUE(std::all_of(marks.begin(), marks.end(),
                              [](std::uint64_t w) { return w == 0; }));
    }
  }
}

// -- the sweep ----------------------------------------------------------------

// The scalar chains with the Backend table's signatures; they run serially
// whatever the executor.
void table_sparse_dense(par::ExecContext&, const Csr& h, const Matrix& c,
                        Matrix& g) {
  g = chain_sparse_dense(h, c);
}
void table_innovation(par::ExecContext&, const Matrix& g, const Csr& h,
                      const Vector& r, Matrix& s) {
  s = chain_innovation(g, h, r);
}
void table_trsm(par::ExecContext&, const Matrix& l, Matrix& b) {
  chain_trsm(l, b);
}
linalg::CholeskyResult table_cholesky(par::ExecContext&, Matrix& a,
                                      Index block) {
  return {chain_cholesky(a, block)};
}

// A whole helix molecule as one node.
struct HelixNode {
  mol::HelixModel model;
  cons::ConstraintSet set;
  est::NodeState start;

  explicit HelixNode(Index length)
      : model(mol::build_helix(length)),
        set(cons::generate_helix_constraints(model)) {
    Rng rng(18008);
    start = est::make_initial_state(model.topology, 0, model.num_atoms(),
                                    0.5, 0.3, rng);
  }
};

struct Sweep {
  est::NodeState state;
  est::BatchUpdater updater;
};

void run_sweep(par::ExecContext& ctx, const linalg::Backend& be,
               const HelixNode& node, Sweep& out) {
  out.state = node.start;
  out.updater.set_backend(&be);
  out.updater.apply_all(ctx, out.state, node.set, 16);
}

TEST(BatchKernels, SweepIsBitwiseTheScalarChainTable) {
  Executors ex;
  const linalg::Backend& simd = *linalg::find_backend("simd");
  for (const Index length : {2, 4}) {
    const HelixNode node(length);
    ASSERT_GE(node.start.dim(), 8);
    for (const Index delay : {Index{0}, Index{8}}) {
      linalg::Backend fast = simd;
      fast.delay_min_dim = delay;
      linalg::Backend chains = fast;
      chains.sparse_dense = table_sparse_dense;
      chains.innovation_covariance = table_innovation;
      chains.trsm_lower = table_trsm;
      chains.cholesky_factor = table_cholesky;
      for (const auto& [exec, ctx] :
           {std::pair<const char*, par::ExecContext*>{"serial", &ex.serial},
            {"team3", &ex.team3},
            {"sim3", &ex.sim}}) {
        const std::string at = std::string(simd.simd_isa) + " helix-" +
                               std::to_string(length) + " delay " +
                               std::to_string(delay) + " on " + exec;
        Sweep got;
        Sweep want;
        run_sweep(*ctx, fast, node, got);
        run_sweep(*ctx, chains, node, want);
        EXPECT_EQ(got.state.x, want.state.x) << at;
        EXPECT_TRUE(bitwise_equal(got.state.c, want.state.c)) << at;
        for (Index i = 0; i < node.set.size(); ++i) {
          std::span<const Index> gc, wc;
          std::span<const double> gv, wv;
          const bool ga = got.updater.applied_row(i, gc, gv);
          ASSERT_EQ(ga, want.updater.applied_row(i, wc, wv)) << at;
          if (!ga) continue;
          ASSERT_TRUE(std::equal(gc.begin(), gc.end(), wc.begin(), wc.end()))
              << at << " constraint " << i;
          ASSERT_TRUE(std::equal(gv.begin(), gv.end(), wv.begin(), wv.end(),
                                 same_bits))
              << at << " constraint " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace phmse
