// Differential oracle for the blocked dense kernels (DESIGN.md §7).
//
// Every cache-blocked, register-tiled production kernel is property-tested
// against its frozen scalar twin in linalg::ref over a shape grid that
// covers empty/degenerate batches and every tile-remainder case (sizes
// straddling the 8-row register tile, the 256-column strip and the 32-row
// trsm block).  Two guarantees are pinned:
//
//   * accuracy — elementwise agreement with the scalar reference within
//     a small multiple of eps * ||ref||_F (the two implementations sum in
//     different orders, so exact equality is not expected);
//   * determinism — serial and threaded execution of the *blocked* kernel
//     produce bitwise-identical output, because every output element is
//     one ascending-k fma chain regardless of where lane or tile
//     boundaries fall (see the contract note in linalg/blas.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/kernels.hpp"
#include "linalg/ref/ref_kernels.hpp"
#include "parallel/team.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace phmse::linalg {
namespace {

// Shape grid from the issue brief: small sizes exhaust every register-tile
// remainder (1..7), 16/17 straddle two 8-row tiles, 31 the trsm block,
// 64/65 the blocked-cholesky panel, 129 exercises multi-panel paths; 0 is
// the empty/degenerate batch.
const std::vector<Index> kShapes = {0, 1, 2, 3, 4, 5, 6, 7,
                                    16, 17, 31, 64, 65, 129};

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
  for (Index i = 0; i < n; ++i) s(i, i) += static_cast<double>(n) + 1.0;
  return s;
}

double frob(const Matrix& a) {
  double sum = 0.0;
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index j = 0; j < a.cols(); ++j) sum += a(i, j) * a(i, j);
  }
  return std::sqrt(sum);
}

// Elementwise |blocked - ref| <= headroom * eps * max(1, ||ref||_F).  The
// issue's bar is 4*eps*||.||; callers pass a larger headroom only where the
// reduction length (trsm back-substitution, cholesky) warrants it.
void expect_close(const Matrix& blocked, const Matrix& ref, double headroom,
                  const std::string& what) {
  ASSERT_EQ(blocked.rows(), ref.rows()) << what;
  ASSERT_EQ(blocked.cols(), ref.cols()) << what;
  const double tol = headroom * std::numeric_limits<double>::epsilon() *
                     std::max(1.0, frob(ref));
  for (Index i = 0; i < ref.rows(); ++i) {
    for (Index j = 0; j < ref.cols(); ++j) {
      ASSERT_NEAR(blocked(i, j), ref(i, j), tol)
          << what << " at (" << i << ", " << j << ")";
    }
  }
}

// Bitwise equality, NaN-hostile: any NaN fails (NaN != NaN).
void expect_bitwise(const Matrix& a, const Matrix& b,
                    const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index j = 0; j < a.cols(); ++j) {
      ASSERT_EQ(a(i, j), b(i, j))
          << what << " differs at (" << i << ", " << j << ")";
    }
  }
}

std::string shape_tag(const char* kernel, Index m, Index n) {
  return std::string(kernel) + " m=" + std::to_string(m) +
         " n=" + std::to_string(n);
}

// Runs `body` once serially and once on a thread team, returning both
// outputs for the bitwise comparison.
template <class Body>
void serial_and_threaded(par::ThreadPool& pool, const Body& body,
                         Matrix& serial_out, Matrix& threaded_out) {
  par::SerialContext serial;
  body(serial, serial_out);
  par::TeamContext team(pool, 0, pool.size());
  body(team, threaded_out);
}

TEST(KernelsOracle, CovarianceDowndateMatchesRef) {
  Rng rng(7001);
  par::SerialContext ctx;
  for (const Index m : kShapes) {
    for (const Index n : kShapes) {
      const Matrix w = random_matrix(m, n, rng);
      const Matrix c0 = random_spd(n, rng);
      Matrix c_blocked = c0;
      Matrix c_ref = c0;
      covariance_downdate(ctx, w, c_blocked);
      ref::covariance_downdate(ctx, w, c_ref);
      if (m == 0) {
        // Degenerate batch: the downdate must leave C untouched.
        expect_bitwise(c_blocked, c0, shape_tag("downdate m=0", m, n));
      }
      // The downdate's contract is the lower triangle; mirror it to
      // compare C whole against ref's full update.
      mirror_lower(ctx, c_blocked);
      expect_close(c_blocked, c_ref, 4.0,
                   shape_tag("covariance_downdate", m, n));
    }
  }
}

TEST(KernelsOracle, GramMatchesRef) {
  Rng rng(7002);
  par::SerialContext ctx;
  for (const Index m : kShapes) {
    for (const Index n : kShapes) {
      const Matrix w = random_matrix(m, n, rng);
      Matrix out_blocked, out_ref;
      gram(ctx, w, out_blocked);
      ref::gram(ctx, w, out_ref);
      expect_close(out_blocked, out_ref, 4.0, shape_tag("gram", m, n));
      if (m == 0 && n > 0) {
        // Empty batch: out must still be a fully-written n x n zero matrix.
        for (Index i = 0; i < n; ++i) {
          for (Index j = 0; j < n; ++j) {
            ASSERT_EQ(out_blocked(i, j), 0.0) << "gram m=0 n=" << n;
          }
        }
      }
    }
  }
}

TEST(KernelsOracle, TrsmLowerMatchesRef) {
  Rng rng(7003);
  par::SerialContext ctx;
  for (const Index sz : kShapes) {
    Matrix l = random_spd(sz, rng);
    cholesky_serial(l);
    for (const Index rhs : kShapes) {
      const Matrix b0 = random_matrix(sz, rhs, rng);
      Matrix b_blocked = b0;
      Matrix b_ref = b0;
      trsm_lower(ctx, l, b_blocked);
      ref::trsm_lower(ctx, l, b_ref);
      // Back-substitution error grows with the solve depth; 16x headroom
      // over the GEMM bar covers sz = 129 empirically with wide margin.
      expect_close(b_blocked, b_ref, 16.0, shape_tag("trsm_lower", sz, rhs));

      b_blocked = b0;
      b_ref = b0;
      trsm_lower_transposed(ctx, l, b_blocked);
      ref::trsm_lower_transposed(ctx, l, b_ref);
      expect_close(b_blocked, b_ref, 16.0,
                   shape_tag("trsm_lower_transposed", sz, rhs));
    }
  }
}

TEST(KernelsOracle, CholeskyMatchesRef) {
  Rng rng(7004);
  par::SerialContext ctx;
  const std::vector<Index> blocks = {1, 7, 32, 48};
  for (const Index n : kShapes) {
    const Matrix s = random_spd(n, rng);
    Matrix a_ref = s;
    ref::cholesky(ctx, a_ref);
    for (const Index block : blocks) {
      Matrix a_blocked = s;
      cholesky(ctx, a_blocked, block);
      // Factorization error compounds over the trailing updates; 64x
      // headroom covers n = 129 at every block size with margin.
      expect_close(a_blocked, a_ref, 64.0,
                   shape_tag("cholesky", block, n));
    }
  }
}

TEST(KernelsOracle, SerialVsThreadedBitwiseIdentical) {
  Rng rng(7005);
  par::ThreadPool pool(3);
  for (const Index m : kShapes) {
    for (const Index n : kShapes) {
      const Matrix v = random_matrix(m, n, rng);
      const Matrix c0 = random_spd(n, rng);

      // The stale upper entries a downdate leaves depend on the lane split;
      // its contract is the lower triangle, so compare C whole after the
      // mirror.
      Matrix serial_out, threaded_out;
      serial_and_threaded(
          pool,
          [&](par::ExecContext& ctx, Matrix& out) {
            out = c0;
            covariance_downdate(ctx, v, out);
            mirror_lower(ctx, out);
          },
          serial_out, threaded_out);
      expect_bitwise(serial_out, threaded_out,
                     shape_tag("covariance_downdate", m, n));

      serial_and_threaded(
          pool,
          [&](par::ExecContext& ctx, Matrix& out) { gram(ctx, v, out); },
          serial_out, threaded_out);
      expect_bitwise(serial_out, threaded_out, shape_tag("gram", m, n));
    }
  }
}

TEST(KernelsOracle, TrsmAndCholeskySerialVsThreadedBitwiseIdentical) {
  Rng rng(7006);
  par::ThreadPool pool(3);
  for (const Index sz : kShapes) {
    Matrix l = random_spd(sz, rng);
    cholesky_serial(l);
    const Matrix b0 = random_matrix(sz, 65, rng);
    const Matrix s = random_spd(sz, rng);

    Matrix serial_out, threaded_out;
    serial_and_threaded(
        pool,
        [&](par::ExecContext& ctx, Matrix& out) {
          out = b0;
          trsm_lower(ctx, l, out);
        },
        serial_out, threaded_out);
    expect_bitwise(serial_out, threaded_out, shape_tag("trsm_lower", sz, 65));

    serial_and_threaded(
        pool,
        [&](par::ExecContext& ctx, Matrix& out) {
          out = b0;
          trsm_lower_transposed(ctx, l, out);
        },
        serial_out, threaded_out);
    expect_bitwise(serial_out, threaded_out,
                   shape_tag("trsm_lower_transposed", sz, 65));

    serial_and_threaded(
        pool,
        [&](par::ExecContext& ctx, Matrix& out) {
          out = s;
          cholesky(ctx, out);
        },
        serial_out, threaded_out);
    expect_bitwise(serial_out, threaded_out, shape_tag("cholesky", 0, sz));
  }
}

}  // namespace
}  // namespace phmse::linalg
