#include <gtest/gtest.h>

#include <memory>

#include "linalg/backend.hpp"
#include "linalg/blas.hpp"
#include "linalg/csr.hpp"
#include "linalg/kernels.hpp"
#include "parallel/team.hpp"
#include "simarch/sim_context.hpp"
#include "support/rng.hpp"

namespace phmse::linalg {
namespace {

Matrix random_matrix(Index rows, Index cols, Rng& rng) {
  Matrix m(rows, cols);
  for (Index i = 0; i < rows; ++i) {
    for (Index j = 0; j < cols; ++j) m(i, j) = rng.gaussian();
  }
  return m;
}

Matrix random_spd(Index n, Rng& rng) {
  const Matrix a = random_matrix(n, n, rng);
  Matrix s = matmul(a, transpose(a));
  for (Index i = 0; i < n; ++i) s(i, i) += static_cast<double>(n);
  return s;
}

// Sparse m x n matrix with `per_row` nonzeros per row.
Csr random_sparse(Index m, Index n, Index per_row, Rng& rng) {
  CsrBuilder b(n);
  for (Index i = 0; i < m; ++i) {
    b.begin_row();
    for (Index k = 0; k < per_row; ++k) {
      b.add(rng.uniform_int(0, n - 1), rng.gaussian());
    }
  }
  return b.finish();
}

Matrix to_dense(const Csr& s) {
  Matrix d(s.rows(), s.cols());
  for (Index i = 0; i < s.rows(); ++i) {
    const auto idx = s.row_indices(i);
    const auto val = s.row_values(i);
    for (std::size_t k = 0; k < idx.size(); ++k) d(i, idx[k]) += val[k];
  }
  return d;
}

// Parameterized over execution-context width: 0 = SerialContext,
// k > 0 = TeamContext over k workers, -k = SimContext over k virtual procs.
class KernelContexts : public ::testing::TestWithParam<int> {
 protected:
  par::ExecContext& ctx() {
    const int p = GetParam();
    if (p == 0) {
      serial_ = std::make_unique<par::SerialContext>();
      return *serial_;
    }
    if (p > 0) {
      pool_ = std::make_unique<par::ThreadPool>(p);
      team_ = std::make_unique<par::TeamContext>(*pool_, 0, p);
      return *team_;
    }
    machine_ = std::make_unique<simarch::SimMachine>(simarch::generic(-p));
    sim_ = std::make_unique<simarch::SimContext>(*machine_, 0, -p);
    return *sim_;
  }

 private:
  std::unique_ptr<par::SerialContext> serial_;
  std::unique_ptr<par::ThreadPool> pool_;
  std::unique_ptr<par::TeamContext> team_;
  std::unique_ptr<simarch::SimMachine> machine_;
  std::unique_ptr<simarch::SimContext> sim_;
};

INSTANTIATE_TEST_SUITE_P(Widths, KernelContexts,
                         ::testing::Values(0, 1, 2, 4, -1, -3, -8));

TEST_P(KernelContexts, SparseDenseMatchesReference) {
  Rng rng(10);
  const Index m = 12;
  const Index n = 30;
  const Csr h = random_sparse(m, n, 6, rng);
  const Matrix c = random_spd(n, rng);
  Matrix g;
  default_backend().sparse_dense(ctx(), h, c, g);
  const Matrix expected = matmul(to_dense(h), c);
  EXPECT_LT(g.frobenius_distance(expected), 1e-10);
}

TEST_P(KernelContexts, InnovationCovarianceMatchesReference) {
  Rng rng(11);
  const Index m = 9;
  const Index n = 24;
  const Csr h = random_sparse(m, n, 5, rng);
  const Matrix c = random_spd(n, rng);
  Matrix g;
  default_backend().sparse_dense(ctx(), h, c, g);
  Vector rdiag(static_cast<std::size_t>(m));
  for (auto& v : rdiag) v = 0.5 + rng.uniform();

  Matrix s;
  default_backend().innovation_covariance(ctx(), g, h, rdiag, s);

  Matrix expected = matmul(g, transpose(to_dense(h)));
  for (Index i = 0; i < m; ++i) {
    expected(i, i) += rdiag[static_cast<std::size_t>(i)];
  }
  EXPECT_LT(s.frobenius_distance(expected), 1e-10);
}

TEST_P(KernelContexts, TrsmLowerSolves) {
  Rng rng(12);
  const Index m = 10;
  const Index k = 17;
  Matrix l = random_spd(m, rng);
  cholesky_serial(l);
  const Matrix b = random_matrix(m, k, rng);
  Matrix x = b;
  default_backend().trsm_lower(ctx(), l, x);
  EXPECT_LT(matmul(l, x).frobenius_distance(b), 1e-9);
}

TEST_P(KernelContexts, GainTimesResidualMatchesGemv) {
  Rng rng(14);
  const Index m = 7;
  const Index n = 20;
  const Matrix v = random_matrix(m, n, rng);
  Vector r(static_cast<std::size_t>(m));
  for (auto& x : r) x = rng.gaussian();
  Vector dx(static_cast<std::size_t>(n), 0.0);
  default_backend().gain_times_residual(ctx(), v, r, dx);

  Vector expected;
  gemv(transpose(v), r, expected);
  for (Index i = 0; i < n; ++i) {
    EXPECT_NEAR(dx[static_cast<std::size_t>(i)],
                expected[static_cast<std::size_t>(i)], 1e-11);
  }
}

TEST_P(KernelContexts, CovarianceDowndateMatchesReference) {
  Rng rng(15);
  const Index m = 8;
  const Index n = 18;
  const Matrix w = random_matrix(m, n, rng);
  Matrix c = random_spd(n, rng);
  const Matrix before = c;
  default_backend().covariance_downdate(ctx(), w, c);
  mirror_lower(ctx(), c);  // the downdate's contract is the lower triangle
  Matrix expected = before;
  const Matrix wtw = matmul_tn(w, w);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) expected(i, j) -= wtw(i, j);
  }
  EXPECT_LT(c.frobenius_distance(expected), 1e-10);
}

TEST_P(KernelContexts, GramMatchesReference) {
  Rng rng(16);
  const Matrix w = random_matrix(6, 14, rng);
  Matrix out;
  default_backend().gram(ctx(), w, out);
  EXPECT_LT(out.frobenius_distance(matmul_tn(w, w)), 1e-10);
}

TEST_P(KernelContexts, Rank1UpdateMatchesReference) {
  Rng rng(21);
  const Index n = 13;
  Matrix c = random_spd(n, rng);
  const Matrix before = c;
  Vector v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.gaussian();
  const double coeff = -0.37;
  rank1_update(ctx(), v, coeff, c);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) {
      EXPECT_NEAR(c(i, j),
                  before(i, j) + coeff * v[static_cast<std::size_t>(i)] *
                                     v[static_cast<std::size_t>(j)],
                  1e-12);
    }
  }
}

TEST_P(KernelContexts, VecSubAndAdd) {
  Vector a{1, 2, 3, 4, 5};
  Vector b{5, 4, 3, 2, 1};
  Vector out;
  vec_sub(ctx(), a, b, out);
  const Vector expected{-4, -2, 0, 2, 4};
  EXPECT_EQ(out, expected);
  vec_add_inplace(ctx(), b, out);
  EXPECT_EQ(out, (Vector{1, 2, 3, 4, 5}));
}

// mirror_lower is what symmetrizes C at the end of an update sweep: the
// lower triangle is authoritative and copied over the upper one.
TEST_P(KernelContexts, SymmetrizeMakesSymmetric) {
  Rng rng(17);
  Matrix c = random_matrix(15, 15, rng);
  const Matrix before = c;
  mirror_lower(ctx(), c);
  for (Index i = 0; i < 15; ++i) {
    for (Index j = 0; j <= i; ++j) {
      EXPECT_EQ(c(i, j), before(i, j));
      EXPECT_EQ(c(j, i), before(i, j));
    }
  }
}

// Serial and team execution must agree bitwise: the chunked loops visit
// every row in the same order within a row's accumulation.
TEST(KernelDeterminism, TeamMatchesSerialBitwise) {
  Rng rng(18);
  const Index m = 16;
  const Index n = 40;
  const Csr h = random_sparse(m, n, 6, rng);
  const Matrix c0 = random_spd(n, rng);

  par::SerialContext serial;
  Matrix g_serial;
  default_backend().sparse_dense(serial, h, c0, g_serial);

  par::ThreadPool pool(3);
  par::TeamContext team(pool, 0, 3);
  Matrix g_team;
  default_backend().sparse_dense(team, h, c0, g_team);

  EXPECT_EQ(g_serial, g_team);
}

TEST(KernelDeterminism, SimMatchesSerialBitwise) {
  Rng rng(19);
  const Matrix w = random_matrix(8, 25, rng);

  par::SerialContext serial;
  Matrix c1 = random_spd(25, rng);
  const Matrix c0 = c1;
  default_backend().covariance_downdate(serial, w, c1);
  mirror_lower(serial, c1);  // the stale upper entries depend on the split

  simarch::SimMachine machine(simarch::generic(5));
  simarch::SimContext sim(machine, 0, 5);
  Matrix c2 = c0;
  default_backend().covariance_downdate(sim, w, c2);
  mirror_lower(sim, c2);

  EXPECT_EQ(c1, c2);
}

}  // namespace
}  // namespace phmse::linalg
