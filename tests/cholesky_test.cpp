#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "linalg/backend.hpp"
#include "linalg/blas.hpp"
#include "parallel/team.hpp"
#include "simarch/sim_context.hpp"
#include "support/rng.hpp"

namespace phmse::linalg {
namespace {

Matrix random_spd(Index n, Rng& rng) {
  Matrix a(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) a(i, j) = rng.gaussian();
  }
  Matrix s = matmul(a, transpose(a));
  for (Index i = 0; i < n; ++i) s(i, i) += static_cast<double>(n);
  return s;
}

// (size, block) sweep: blocked factorization must agree with the serial
// reference for sizes around and across block boundaries.
class BlockedCholesky
    : public ::testing::TestWithParam<std::tuple<Index, Index>> {};

INSTANTIATE_TEST_SUITE_P(
    SizesAndBlocks, BlockedCholesky,
    ::testing::Combine(::testing::Values<Index>(1, 2, 7, 16, 31, 48, 65, 100),
                       ::testing::Values<Index>(1, 8, 48)));

TEST_P(BlockedCholesky, MatchesSerialReference) {
  const auto [n, block] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 1000 + block));
  const Matrix s = random_spd(n, rng);

  Matrix expected = s;
  cholesky_serial(expected);

  par::SerialContext ctx;
  Matrix actual = s;
  ASSERT_TRUE(default_backend().cholesky_factor(ctx, actual, block).ok());

  EXPECT_LT(actual.frobenius_distance(expected), 1e-9 * s.max_abs())
      << "n=" << n << " block=" << block;
}

TEST_P(BlockedCholesky, ReconstructsInput) {
  const auto [n, block] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 77 + block));
  const Matrix s = random_spd(n, rng);
  par::SerialContext ctx;
  Matrix l = s;
  ASSERT_TRUE(default_backend().cholesky_factor(ctx, l, block).ok());
  EXPECT_LT(matmul(l, transpose(l)).frobenius_distance(s),
            1e-9 * s.max_abs());
}

TEST(BlockedCholeskyTeam, MatchesSerial) {
  Rng rng(42);
  const Matrix s = random_spd(80, rng);
  Matrix expected = s;
  cholesky_serial(expected);

  par::ThreadPool pool(4);
  par::TeamContext team(pool, 0, 4);
  Matrix actual = s;
  ASSERT_TRUE(default_backend().cholesky_factor(team, actual, 16).ok());
  EXPECT_LT(actual.frobenius_distance(expected), 1e-9 * s.max_abs());
}

TEST(BlockedCholeskySim, MatchesSerialAndChargesCholCategory) {
  Rng rng(43);
  const Matrix s = random_spd(64, rng);
  Matrix expected = s;
  cholesky_serial(expected);

  simarch::SimMachine machine(simarch::dash32());
  simarch::SimContext sim(machine, 0, 8);
  Matrix actual = s;
  ASSERT_TRUE(default_backend().cholesky_factor(sim, actual, 16).ok());
  EXPECT_LT(actual.frobenius_distance(expected), 1e-9 * s.max_abs());
  EXPECT_GT(machine.proc_profile(0).time(perf::Category::kCholesky), 0.0);
  EXPECT_DOUBLE_EQ(machine.proc_profile(0).time(perf::Category::kMatMat),
                   0.0);
}

TEST(BlockedCholesky, ThrowsOnIndefinite) {
  Matrix m(3, 3);
  m.set_identity();
  m(2, 2) = -4.0;
  par::SerialContext ctx;
  EXPECT_EQ(default_backend().cholesky_factor(ctx, m, 2).failed_pivot, 2);
}

// Degenerate block sizes: a block of 1 (every step is a panel), exactly n
// (one panel, no trailing update) and n + 1 (block clamps to the matrix)
// must all reproduce the serial factorization.
TEST(BlockedCholeskyEdge, DegenerateBlockSizes) {
  Rng rng(4501);
  const Index n = 53;
  const Matrix s = random_spd(n, rng);
  Matrix expected = s;
  cholesky_serial(expected);
  par::SerialContext ctx;
  for (const Index block : {Index{1}, n, n + 1}) {
    Matrix actual = s;
    ASSERT_TRUE(default_backend().cholesky_factor(ctx, actual, block).ok())
        << "block=" << block;
    EXPECT_LT(actual.frobenius_distance(expected), 1e-9 * s.max_abs())
        << "block=" << block;
  }
}

// Near-singular SPD matrix (condition number ~1e12): the factorization must
// either succeed with finite entries that reconstruct the input to a
// condition-appropriate tolerance, or refuse cleanly by returning a pivot
// inside the matrix — never emit NaN/Inf.
TEST(BlockedCholeskyEdge, NearSingularSucceedsCleanlyOrThrows) {
  Rng rng(4502);
  const Index n = 64;
  // Orthogonal-ish Q from the Cholesky of a random SPD matrix is overkill;
  // a graded diagonal conjugated by a random well-conditioned factor gives
  // the target conditioning directly: A = B D B^T with D spanning 1..1e-12.
  const Matrix b = random_spd(n, rng);  // well-conditioned SPD
  Matrix d(n, n);
  for (Index i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(n - 1);
    d(i, i) = std::pow(10.0, -12.0 * t);  // 1 .. 1e-12
  }
  const Matrix a = matmul(matmul(b, d), transpose(b));
  // Symmetrize exactly (matmul rounding leaves ~eps asymmetry).
  Matrix s(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) s(i, j) = 0.5 * (a(i, j) + a(j, i));
  }

  par::SerialContext ctx;
  for (const Index block : {Index{1}, Index{8}, Index{48}}) {
    Matrix l = s;
    const CholeskyResult r = default_backend().cholesky_factor(ctx, l, block);
    if (!r.ok()) {
      // A clean refusal is acceptable for cond ~1e12.
      EXPECT_LT(r.failed_pivot, n) << "block=" << block;
      continue;
    }
    for (Index i = 0; i < n; ++i) {
      for (Index j = 0; j < n; ++j) {
        ASSERT_TRUE(std::isfinite(l(i, j)))
            << "non-finite at (" << i << ", " << j << ") block=" << block;
      }
    }
    // Reconstruction: backward error of Cholesky is O(n * eps * ||S||),
    // independent of conditioning.
    EXPECT_LT(matmul(l, transpose(l)).frobenius_distance(s),
              1e-10 * std::max(1.0, s.max_abs()))
        << "block=" << block;
  }
}

TEST(BlockedCholesky, UpperTriangleZeroed) {
  Rng rng(44);
  Matrix s = random_spd(20, rng);
  par::SerialContext ctx;
  ASSERT_TRUE(default_backend().cholesky_factor(ctx, s, 8).ok());
  for (Index i = 0; i < 20; ++i) {
    for (Index j = i + 1; j < 20; ++j) EXPECT_EQ(s(i, j), 0.0);
  }
}

}  // namespace
}  // namespace phmse::linalg
