// Serial dense building blocks.
//
// These are the reference implementations: straightforward, obviously
// correct loops used by unit tests and by the serial inner bodies of the
// parallel kernels in linalg/blocked and linalg/ref.
#pragma once

#include "linalg/matrix.hpp"
#include "linalg/status.hpp"

namespace phmse::linalg {

/// dot(x, y) over `n` elements.
double dot(const double* x, const double* y, Index n);

/// y += a * x over `n` elements.
void axpy(double a, const double* x, double* y, Index n);

/// y = A * x  (A: rows x cols, x: cols, y: rows).
void gemv(const Matrix& a, const Vector& x, Vector& y);

/// C = A * B  (naive triple loop; tests only).
Matrix matmul(const Matrix& a, const Matrix& b);

/// C = A^T * B (tests only).
Matrix matmul_tn(const Matrix& a, const Matrix& b);

/// B = A^T (tests only).
Matrix transpose(const Matrix& a);

/// In-place serial Cholesky factorization A = L L^T of an SPD matrix;
/// overwrites the lower triangle with L and zeroes the strict upper
/// triangle.  Returns the failing pivot instead of throwing when A is not
/// positive definite (A is left partially factored) — see status.hpp.
[[nodiscard]] CholeskyResult cholesky_factor_serial(Matrix& a);

/// Throwing wrapper over cholesky_factor_serial: throws phmse::Error if A
/// is not positive definite.
void cholesky_serial(Matrix& a);

/// Solves L * x = b in place (L lower triangular, unit or not per diag).
void trsv_lower(const Matrix& l, Vector& x);

/// Solves L^T * x = b in place.
void trsv_lower_transposed(const Matrix& l, Vector& x);

/// Solves A X = B for SPD A using a serial Cholesky factorization; returns
/// X.  B's rows are RHS-stacked: A (n x n), B (n x k).  The Eq.-1
/// work-model fit (core/work_model.cpp) uses this.
Matrix spd_solve(const Matrix& a, const Matrix& b);

// ---------------------------------------------------------------------------
// Blocked GEMM panel updates (see DESIGN.md §7).
//
// These are the register-tiled building blocks behind the blocked backend's
// hot kernels (linalg/blocked).  Both compute a rank-kk update of a C panel:
//
//   gemm_nn_acc:  C (mm x nn) += alpha * A (mm x kk) * B (kk x nn)
//   gemm_tn_acc:  C (mm x nn) += alpha * A^T * B,  A stored kk x mm
//
// Implementation contract (the oracle tests rely on it):
//   * the reduction over kk runs in strictly ascending order for every
//     output element, as one std::fma chain, so a given element's rounding
//     is identical no matter which row tile or column strip it lands in —
//     this is what keeps serial and threaded kernel output bitwise equal
//     when lane boundaries cut through a tile;
//   * rows are processed in register tiles of kGemmRowTile and columns in
//     L1-sized strips of kGemmColStrip, which is where the speedup over the
//     scalar ref:: kernels comes from (each B row load is shared by
//     kGemmRowTile output rows, and each C row is loaded/stored once per
//     kGemmReduceTile reduction steps instead of once per step).

/// Rows of C per register tile (MR of the micro-kernel).
inline constexpr Index kGemmRowTile = 8;
/// Reduction-dimension unroll of the micro-kernel (KR).  Any value yields
/// bitwise-identical results (the chain order never changes); 8 matches
/// the paper's recommended constraint batch m = 16 with no remainder.
inline constexpr Index kGemmReduceTile = 8;
/// Columns (doubles) per L1-resident strip: kGemmRowTile C rows plus
/// kGemmReduceTile B rows at 256 doubles each is 32 KiB, inside a typical
/// 48 KiB L1D.
inline constexpr Index kGemmColStrip = 256;
/// Row-block size of the blocked triangular solves (the L diagonal block,
/// kTrsmBlock^2 doubles = 8 KiB, stays L1-resident while it sweeps the
/// right-hand-side strip).
inline constexpr Index kTrsmBlock = 32;

/// C += alpha * A * B.  A: mm x kk with leading dimension lda, B: kk x nn
/// (ldb), C: mm x nn (ldc).  Empty dimensions are no-ops.
void gemm_nn_acc(double alpha, const double* a, Index lda, const double* b,
                 Index ldb, double* c, Index ldc, Index mm, Index kk,
                 Index nn);

/// C += alpha * A^T * B with A stored kk x mm (lda); otherwise identical to
/// gemm_nn_acc.
void gemm_tn_acc(double alpha, const double* a, Index lda, const double* b,
                 Index ldb, double* c, Index ldc, Index mm, Index kk,
                 Index nn);

/// C = alpha * A^T * B (overwriting): bitwise identical to zero-filling the
/// C panel and then calling gemm_tn_acc, but the zeroing happens strip by
/// strip while the cleared bytes are still cache-hot, saving a full memory
/// pass over C.  With kk == 0 the panel is simply zeroed.
void gemm_tn_zero_acc(double alpha, const double* a, Index lda,
                      const double* b, Index ldb, double* c, Index ldc,
                      Index mm, Index kk, Index nn);

}  // namespace phmse::linalg
