#include "linalg/blas.hpp"

#include <algorithm>
#include <cmath>

namespace phmse::linalg {
namespace {

// acc + a0*b0 + ... + a7*b7 as one fixed fma chain (ascending term
// order).  Every output element is accumulated through this exact
// expression regardless of where lane boundaries slice the rows — that is
// what keeps serial and threaded kernel output bitwise equal (the
// determinism contract documented in backend.hpp).
inline double fma8(double acc, double a0, double b0, double a1, double b1,
                   double a2, double b2, double a3, double b3, double a4,
                   double b4, double a5, double b5, double a6, double b6,
                   double a7, double b7) {
  acc = std::fma(a0, b0, acc);
  acc = std::fma(a1, b1, acc);
  acc = std::fma(a2, b2, acc);
  acc = std::fma(a3, b3, acc);
  acc = std::fma(a4, b4, acc);
  acc = std::fma(a5, b5, acc);
  acc = std::fma(a6, b6, acc);
  acc = std::fma(a7, b7, acc);
  return acc;
}

// One reduction tile (kGemmReduceTile steps starting at k) of the 8-row
// register tile.  With Init, the chain starts from an exact 0.0 instead of
// loading C — bitwise identical to zero-filling C first (fma(a, b, 0.0)
// rounds exactly like fma(a, b, c) with c cleared), but it saves both the
// clearing stores and the first C load of every element.
template <bool kInit, class CoeffFn>
inline void tile8_step(const CoeffFn& coeff, Index k, const double* b,
                       Index ldb, double* __restrict c0,
                       double* __restrict c1, double* __restrict c2,
                       double* __restrict c3, double* __restrict c4,
                       double* __restrict c5, double* __restrict c6,
                       double* __restrict c7, Index nn) {
  const double* b0 = b + k * ldb;
  const double* b1 = b0 + ldb;
  const double* b2 = b1 + ldb;
  const double* b3 = b2 + ldb;
  const double* b4 = b3 + ldb;
  const double* b5 = b4 + ldb;
  const double* b6 = b5 + ldb;
  const double* b7 = b6 + ldb;
  double a[8][8];
  for (int r = 0; r < 8; ++r) {
    for (int t = 0; t < 8; ++t) a[r][t] = coeff(r, k + t);
  }
  for (Index q = 0; q < nn; ++q) {
    c0[q] = fma8(kInit ? 0.0 : c0[q], a[0][0], b0[q], a[0][1], b1[q],
                 a[0][2], b2[q], a[0][3], b3[q], a[0][4], b4[q], a[0][5],
                 b5[q], a[0][6], b6[q], a[0][7], b7[q]);
    c1[q] = fma8(kInit ? 0.0 : c1[q], a[1][0], b0[q], a[1][1], b1[q],
                 a[1][2], b2[q], a[1][3], b3[q], a[1][4], b4[q], a[1][5],
                 b5[q], a[1][6], b6[q], a[1][7], b7[q]);
    c2[q] = fma8(kInit ? 0.0 : c2[q], a[2][0], b0[q], a[2][1], b1[q],
                 a[2][2], b2[q], a[2][3], b3[q], a[2][4], b4[q], a[2][5],
                 b5[q], a[2][6], b6[q], a[2][7], b7[q]);
    c3[q] = fma8(kInit ? 0.0 : c3[q], a[3][0], b0[q], a[3][1], b1[q],
                 a[3][2], b2[q], a[3][3], b3[q], a[3][4], b4[q], a[3][5],
                 b5[q], a[3][6], b6[q], a[3][7], b7[q]);
    c4[q] = fma8(kInit ? 0.0 : c4[q], a[4][0], b0[q], a[4][1], b1[q],
                 a[4][2], b2[q], a[4][3], b3[q], a[4][4], b4[q], a[4][5],
                 b5[q], a[4][6], b6[q], a[4][7], b7[q]);
    c5[q] = fma8(kInit ? 0.0 : c5[q], a[5][0], b0[q], a[5][1], b1[q],
                 a[5][2], b2[q], a[5][3], b3[q], a[5][4], b4[q], a[5][5],
                 b5[q], a[5][6], b6[q], a[5][7], b7[q]);
    c6[q] = fma8(kInit ? 0.0 : c6[q], a[6][0], b0[q], a[6][1], b1[q],
                 a[6][2], b2[q], a[6][3], b3[q], a[6][4], b4[q], a[6][5],
                 b5[q], a[6][6], b6[q], a[6][7], b7[q]);
    c7[q] = fma8(kInit ? 0.0 : c7[q], a[7][0], b0[q], a[7][1], b1[q],
                 a[7][2], b2[q], a[7][3], b3[q], a[7][4], b4[q], a[7][5],
                 b5[q], a[7][6], b6[q], a[7][7], b7[q]);
  }
}

// One reduction tile of the 4-row remainder tile (see tile8_step).
template <bool kInit, class CoeffFn>
inline void tile4_step(const CoeffFn& coeff, Index k, const double* b,
                       Index ldb, double* __restrict c0,
                       double* __restrict c1, double* __restrict c2,
                       double* __restrict c3, Index nn) {
  const double* b0 = b + k * ldb;
  const double* b1 = b0 + ldb;
  const double* b2 = b1 + ldb;
  const double* b3 = b2 + ldb;
  const double* b4 = b3 + ldb;
  const double* b5 = b4 + ldb;
  const double* b6 = b5 + ldb;
  const double* b7 = b6 + ldb;
  double a[4][8];
  for (int r = 0; r < 4; ++r) {
    for (int t = 0; t < 8; ++t) a[r][t] = coeff(r, k + t);
  }
  for (Index q = 0; q < nn; ++q) {
    c0[q] = fma8(kInit ? 0.0 : c0[q], a[0][0], b0[q], a[0][1], b1[q],
                 a[0][2], b2[q], a[0][3], b3[q], a[0][4], b4[q], a[0][5],
                 b5[q], a[0][6], b6[q], a[0][7], b7[q]);
    c1[q] = fma8(kInit ? 0.0 : c1[q], a[1][0], b0[q], a[1][1], b1[q],
                 a[1][2], b2[q], a[1][3], b3[q], a[1][4], b4[q], a[1][5],
                 b5[q], a[1][6], b6[q], a[1][7], b7[q]);
    c2[q] = fma8(kInit ? 0.0 : c2[q], a[2][0], b0[q], a[2][1], b1[q],
                 a[2][2], b2[q], a[2][3], b3[q], a[2][4], b4[q], a[2][5],
                 b5[q], a[2][6], b6[q], a[2][7], b7[q]);
    c3[q] = fma8(kInit ? 0.0 : c3[q], a[3][0], b0[q], a[3][1], b1[q],
                 a[3][2], b2[q], a[3][3], b3[q], a[3][4], b4[q], a[3][5],
                 b5[q], a[3][6], b6[q], a[3][7], b7[q]);
  }
}

// One reduction tile of the single-row remainder (see tile8_step).
template <bool kInit, class CoeffFn>
inline void row_step(const CoeffFn& coeff, Index k, const double* b,
                     Index ldb, double* __restrict c, Index nn) {
  const double* b0 = b + k * ldb;
  const double* b1 = b0 + ldb;
  const double* b2 = b1 + ldb;
  const double* b3 = b2 + ldb;
  const double* b4 = b3 + ldb;
  const double* b5 = b4 + ldb;
  const double* b6 = b5 + ldb;
  const double* b7 = b6 + ldb;
  double a[8];
  for (int t = 0; t < 8; ++t) a[t] = coeff(k + t);
  for (Index q = 0; q < nn; ++q) {
    c[q] = fma8(kInit ? 0.0 : c[q], a[0], b0[q], a[1], b1[q], a[2], b2[q],
                a[3], b3[q], a[4], b4[q], a[5], b5[q], a[6], b6[q], a[7],
                b7[q]);
  }
}

// Register tile: eight C rows over one column strip, reduced over the full
// kk in strictly ascending order with the k loop unrolled by
// kGemmReduceTile.  The eight rows share every B row load (divides the B
// panel traffic by the tile height) and each C row is loaded/stored once
// per kGemmReduceTile reduction steps (divides the C traffic by the
// reduction unroll).  The __restrict qualifiers on the step helpers are
// what let the q loops vectorize; they are honoured on parameters (not on
// locals), hence the explicit c0..c7 signatures.  Legal in every caller:
// the rows are distinct and the strip width never exceeds the row stride,
// so the stores are disjoint from all other accesses.  With kZero the
// panel is overwritten instead of accumulated (see tile8_step).
// `coeff(r, k)` yields alpha * op(A)(i0+r, k).
template <bool kZero, class CoeffFn>
void gemm_tile8(const CoeffFn& coeff, Index kk, const double* b, Index ldb,
                double* __restrict c0, double* __restrict c1,
                double* __restrict c2, double* __restrict c3,
                double* __restrict c4, double* __restrict c5,
                double* __restrict c6, double* __restrict c7, Index nn) {
  Index k = 0;
  if constexpr (kZero) {
    if (kk >= kGemmReduceTile) {
      tile8_step<true>(coeff, 0, b, ldb, c0, c1, c2, c3, c4, c5, c6, c7,
                       nn);
      k = kGemmReduceTile;
    } else {
      // Tail-only reduction: clear the rows, then accumulate below.
      for (double* cr : {c0, c1, c2, c3, c4, c5, c6, c7}) {
        std::fill(cr, cr + nn, 0.0);
      }
    }
  }
  for (; k + kGemmReduceTile <= kk; k += kGemmReduceTile) {
    tile8_step<false>(coeff, k, b, ldb, c0, c1, c2, c3, c4, c5, c6, c7, nn);
  }
  for (; k < kk; ++k) {
    const double* bk = b + k * ldb;
    double a[8];
    for (int r = 0; r < 8; ++r) a[r] = coeff(r, k);
    for (Index q = 0; q < nn; ++q) {
      c0[q] = std::fma(a[0], bk[q], c0[q]);
      c1[q] = std::fma(a[1], bk[q], c1[q]);
      c2[q] = std::fma(a[2], bk[q], c2[q]);
      c3[q] = std::fma(a[3], bk[q], c3[q]);
      c4[q] = std::fma(a[4], bk[q], c4[q]);
      c5[q] = std::fma(a[5], bk[q], c5[q]);
      c6[q] = std::fma(a[6], bk[q], c6[q]);
      c7[q] = std::fma(a[7], bk[q], c7[q]);
    }
  }
}

// Four-row tile for mid-sized remainders; per-element expression identical
// to gemm_tile8 (see fma8 above).
template <bool kZero, class CoeffFn>
void gemm_tile4(const CoeffFn& coeff, Index kk, const double* b, Index ldb,
                double* __restrict c0, double* __restrict c1,
                double* __restrict c2, double* __restrict c3, Index nn) {
  Index k = 0;
  if constexpr (kZero) {
    if (kk >= kGemmReduceTile) {
      tile4_step<true>(coeff, 0, b, ldb, c0, c1, c2, c3, nn);
      k = kGemmReduceTile;
    } else {
      for (double* cr : {c0, c1, c2, c3}) std::fill(cr, cr + nn, 0.0);
    }
  }
  for (; k + kGemmReduceTile <= kk; k += kGemmReduceTile) {
    tile4_step<false>(coeff, k, b, ldb, c0, c1, c2, c3, nn);
  }
  for (; k < kk; ++k) {
    const double* bk = b + k * ldb;
    const double ak0 = coeff(0, k), ak1 = coeff(1, k);
    const double ak2 = coeff(2, k), ak3 = coeff(3, k);
    for (Index q = 0; q < nn; ++q) {
      c0[q] = std::fma(ak0, bk[q], c0[q]);
      c1[q] = std::fma(ak1, bk[q], c1[q]);
      c2[q] = std::fma(ak2, bk[q], c2[q]);
      c3[q] = std::fma(ak3, bk[q], c3[q]);
    }
  }
}

// Single-row tile for the remainder rows.  Per-element expression identical
// to the wider tiles (see fma8 above), so a row rounds the same way no
// matter which tile it lands in.  `coeff(k)` yields alpha * op(A)(i, k).
template <bool kZero, class CoeffFn>
void gemm_row(const CoeffFn& coeff, Index kk, const double* b, Index ldb,
              double* __restrict c, Index nn) {
  Index k = 0;
  if constexpr (kZero) {
    if (kk >= kGemmReduceTile) {
      row_step<true>(coeff, 0, b, ldb, c, nn);
      k = kGemmReduceTile;
    } else {
      std::fill(c, c + nn, 0.0);
    }
  }
  for (; k + kGemmReduceTile <= kk; k += kGemmReduceTile) {
    row_step<false>(coeff, k, b, ldb, c, nn);
  }
  for (; k < kk; ++k) {
    const double* bk = b + k * ldb;
    const double ak = coeff(k);
    for (Index q = 0; q < nn; ++q) c[q] = std::fma(ak, bk[q], c[q]);
  }
}

// Strip-mined driver shared by the nn/tn variants; `coeff_at(i, k)` is the
// already-alpha-scaled coefficient of op(A).  Row tiles inside a strip
// reuse the same resident kk x kGemmColStrip panel of B.  With kZero the
// C panel is overwritten instead of accumulated, with the zero-init folded
// into the first reduction tile (see tile8_step) — bitwise identical to
// clearing C up front and accumulating.
template <bool kZero, class CoeffFn>
void gemm_acc_impl(const CoeffFn& coeff_at, const double* b, Index ldb,
                   double* c, Index ldc, Index mm, Index kk, Index nn) {
  if (mm <= 0 || nn <= 0) return;
  if (kk <= 0) {
    if constexpr (kZero) {
      for (Index i = 0; i < mm; ++i) {
        std::fill(c + i * ldc, c + i * ldc + nn, 0.0);
      }
    }
    return;
  }
  for (Index q0 = 0; q0 < nn; q0 += kGemmColStrip) {
    const Index qn = std::min(nn - q0, kGemmColStrip);
    const double* const bq = b + q0;
    Index i0 = 0;
    for (; i0 + kGemmRowTile <= mm; i0 += kGemmRowTile) {
      double* const crow = c + i0 * ldc + q0;
      const auto coeff = [&](int r, Index k) { return coeff_at(i0 + r, k); };
      gemm_tile8<kZero>(coeff, kk, bq, ldb, crow, crow + ldc,
                        crow + 2 * ldc, crow + 3 * ldc, crow + 4 * ldc,
                        crow + 5 * ldc, crow + 6 * ldc, crow + 7 * ldc, qn);
    }
    for (; i0 + 4 <= mm; i0 += 4) {
      double* const crow = c + i0 * ldc + q0;
      const auto coeff = [&](int r, Index k) { return coeff_at(i0 + r, k); };
      gemm_tile4<kZero>(coeff, kk, bq, ldb, crow, crow + ldc,
                        crow + 2 * ldc, crow + 3 * ldc, qn);
    }
    for (; i0 < mm; ++i0) {
      const auto coeff = [&](Index k) { return coeff_at(i0, k); };
      gemm_row<kZero>(coeff, kk, bq, ldb, c + i0 * ldc + q0, qn);
    }
  }
}

}  // namespace

void gemm_nn_acc(double alpha, const double* a, Index lda, const double* b,
                 Index ldb, double* c, Index ldc, Index mm, Index kk,
                 Index nn) {
  gemm_acc_impl<false>(
      [=](Index i, Index k) { return alpha * a[i * lda + k]; }, b, ldb, c,
      ldc, mm, kk, nn);
}

void gemm_tn_acc(double alpha, const double* a, Index lda, const double* b,
                 Index ldb, double* c, Index ldc, Index mm, Index kk,
                 Index nn) {
  gemm_acc_impl<false>(
      [=](Index i, Index k) { return alpha * a[k * lda + i]; }, b, ldb, c,
      ldc, mm, kk, nn);
}

void gemm_tn_zero_acc(double alpha, const double* a, Index lda,
                      const double* b, Index ldb, double* c, Index ldc,
                      Index mm, Index kk, Index nn) {
  gemm_acc_impl<true>(
      [=](Index i, Index k) { return alpha * a[k * lda + i]; }, b, ldb, c,
      ldc, mm, kk, nn);
}

double dot(const double* x, const double* y, Index n) {
  double s = 0.0;
  for (Index i = 0; i < n; ++i) s += x[i] * y[i];
  return s;
}

void axpy(double a, const double* x, double* y, Index n) {
  for (Index i = 0; i < n; ++i) y[i] += a * x[i];
}

void gemv(const Matrix& a, const Vector& x, Vector& y) {
  PHMSE_CHECK(static_cast<Index>(x.size()) == a.cols(),
              "gemv: x size mismatch");
  y.assign(static_cast<std::size_t>(a.rows()), 0.0);
  for (Index i = 0; i < a.rows(); ++i) {
    y[static_cast<std::size_t>(i)] = dot(a.row(i).data(), x.data(), a.cols());
  }
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  PHMSE_CHECK(a.cols() == b.rows(), "matmul: inner dimension mismatch");
  Matrix c(a.rows(), b.cols());
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      axpy(aik, b.row(k).data(), c.row(i).data(), b.cols());
    }
  }
  return c;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  PHMSE_CHECK(a.rows() == b.rows(), "matmul_tn: inner dimension mismatch");
  Matrix c(a.cols(), b.cols());
  for (Index k = 0; k < a.rows(); ++k) {
    for (Index i = 0; i < a.cols(); ++i) {
      const double aki = a(k, i);
      if (aki == 0.0) continue;
      axpy(aki, b.row(k).data(), c.row(i).data(), b.cols());
    }
  }
  return c;
}

Matrix transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
  }
  return t;
}

CholeskyResult cholesky_factor_serial(Matrix& a) {
  PHMSE_CHECK(a.rows() == a.cols(), "cholesky: matrix must be square");
  const Index n = a.rows();
  for (Index j = 0; j < n; ++j) {
    double d = a(j, j) - dot(a.row(j).data(), a.row(j).data(), j);
    if (!(d > 0.0)) return {j};
    d = std::sqrt(d);
    a(j, j) = d;
    const double inv = 1.0 / d;
    for (Index i = j + 1; i < n; ++i) {
      const double s = a(i, j) - dot(a.row(i).data(), a.row(j).data(), j);
      a(i, j) = s * inv;
    }
    for (Index k = j + 1; k < n; ++k) a(j, k) = 0.0;
  }
  return {};
}

void cholesky_serial(Matrix& a) {
  const CholeskyResult r = cholesky_factor_serial(a);
  PHMSE_CHECK(r.ok(), "cholesky: matrix is not positive definite");
}

void trsv_lower(const Matrix& l, Vector& x) {
  PHMSE_CHECK(l.rows() == l.cols(), "trsv: matrix must be square");
  PHMSE_CHECK(static_cast<Index>(x.size()) == l.rows(),
              "trsv: rhs size mismatch");
  const Index n = l.rows();
  for (Index i = 0; i < n; ++i) {
    double s = x[static_cast<std::size_t>(i)] -
               dot(l.row(i).data(), x.data(), i);
    x[static_cast<std::size_t>(i)] = s / l(i, i);
  }
}

void trsv_lower_transposed(const Matrix& l, Vector& x) {
  PHMSE_CHECK(l.rows() == l.cols(), "trsv: matrix must be square");
  PHMSE_CHECK(static_cast<Index>(x.size()) == l.rows(),
              "trsv: rhs size mismatch");
  const Index n = l.rows();
  double* const xd = x.data();
  for (Index i = n - 1; i >= 0; --i) {
    // lki walks column i of L down from its diagonal, L(k, i) for ascending
    // k > i.  The loop runs over x's own range, so GCC can bound its trip
    // count; a loop over the index k cannot be bounded through the k * n
    // address arithmetic and draws -Waggressive-loop-optimizations.
    const double* lki = l.data() + i * n + i;
    double s = xd[i];
    for (const double* xk = xd + i + 1; xk != xd + n; ++xk) {
      lki += n;
      s -= *lki * *xk;
    }
    xd[i] = s / l(i, i);
  }
}

Matrix spd_solve(const Matrix& a, const Matrix& b) {
  PHMSE_CHECK(a.rows() == a.cols(), "spd_solve: A must be square");
  PHMSE_CHECK(a.rows() == b.rows(), "spd_solve: dimension mismatch");
  Matrix l = a;
  cholesky_serial(l);
  // Solve column by column: L L^T x = b.
  Matrix x = b;
  const Index n = a.rows();
  Vector col(static_cast<std::size_t>(n));
  for (Index j = 0; j < b.cols(); ++j) {
    for (Index i = 0; i < n; ++i) col[static_cast<std::size_t>(i)] = x(i, j);
    trsv_lower(l, col);
    trsv_lower_transposed(l, col);
    for (Index i = 0; i < n; ++i) x(i, j) = col[static_cast<std::size_t>(i)];
  }
  return x;
}

}  // namespace phmse::linalg
