// Shared drivers for the panel-blocked kernels (trsm, Cholesky,
// covariance downdate, Gram), parameterized over the GEMM panel primitives.
//
// The blocked and simd backends run the *same* blocking structure — row
// tiles, L1 column strips, kTrsmBlock diagonal blocks — and differ only in
// how a panel update `C += alpha * op(A) * B` is executed (portable
// register-tiled C++ vs explicit vector microkernels).  These templates
// hold the structure once; each backend instantiates them with a Panels
// policy:
//
//   struct Panels {
//     static void nn_acc(double alpha, const double* a, Index lda,
//                        const double* b, Index ldb, double* c, Index ldc,
//                        Index mm, Index kk, Index nn);   // C += a*A*B
//     static void tn_acc(...);       // C += a*A^T*B, A stored kk x mm
//     static void tn_zero_acc(...);  // C  = a*A^T*B (overwriting)
//   };
//
// Determinism: every Panels implementation must accumulate each output
// element as one std::fma chain over strictly ascending k (the contract
// documented in blas.hpp).  The substitution loops below are elementwise,
// so with a conforming Panels the whole driver stays bitwise identical
// between serial and threaded execution — lane boundaries only change which
// lane computes an element, never its rounding.
#pragma once

#include <algorithm>
#include <cmath>

#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"
#include "linalg/status.hpp"
#include "parallel/exec.hpp"
#include "support/check.hpp"

namespace phmse::linalg::detail {

inline constexpr double kBytesPerDouble = 8.0;

// Blocked triangular solve over rows of L; see the original implementation
// notes in kernels.cpp (PR 2).  Columns of B are independent; each lane owns
// a column slice.  Per block [k0, k1): the contribution of the already-
// solved rows is applied as one GEMM panel, then the diagonal block is
// solved by direct substitution.  The substitution order seen by any single
// element matches the scalar reference (ascending p for the forward solve),
// so the backends agree to FMA-contraction round-off; see
// linalg::ref::trsm_lower.
template <class Panels, bool Transposed>
void trsm_impl(par::ExecContext& ctx, const Matrix& l, Matrix& b) {
  PHMSE_CHECK(l.rows() == l.cols(), "trsm: L must be square");
  PHMSE_CHECK(l.rows() == b.rows(), "trsm: dimension mismatch");
  const Index m = l.rows();
  const Index k = b.cols();

  auto cost = [&](Index begin, Index end) {
    par::KernelStats st;
    const double cols = static_cast<double>(end - begin);
    st.flops = cols * static_cast<double>(m) * static_cast<double>(m);
    st.bytes_stream = kBytesPerDouble * (cols * static_cast<double>(m) +
                                         0.5 * static_cast<double>(m) *
                                             static_cast<double>(m));
    // The lane's column slice of B is revisited once per row block (it was
    // once per substitution step before blocking).
    st.resident_bytes = kBytesPerDouble * cols * static_cast<double>(m);
    st.resident_sweeps =
        static_cast<double>((m + kTrsmBlock - 1) / kTrsmBlock);
    return st;
  };
  auto body = [&](Index begin, Index end, int /*lane*/) {
    const Index width = end - begin;
    if (width <= 0 || m <= 0) return;
    const Index ldb = b.cols();
    double* const bbase = b.data() + begin;
    const double* const ldata = l.data();
    if constexpr (!Transposed) {
      for (Index k0 = 0; k0 < m; k0 += kTrsmBlock) {
        const Index bs = std::min(kTrsmBlock, m - k0);
        // B[k0..k0+bs) -= L[k0..k0+bs, 0..k0) * B[0..k0).
        Panels::nn_acc(-1.0, ldata + k0 * m, m, bbase, ldb, bbase + k0 * ldb,
                       ldb, bs, k0, width);
        for (Index i = k0; i < k0 + bs; ++i) {
          double* bi = bbase + i * ldb;
          const double* lrow = ldata + i * m;
          for (Index p = k0; p < i; ++p) {
            const double lip = lrow[p];
            const double* bp = bbase + p * ldb;
            for (Index q = 0; q < width; ++q) {
              bi[q] = std::fma(-lip, bp[q], bi[q]);
            }
          }
          const double inv = 1.0 / lrow[i];
          for (Index q = 0; q < width; ++q) bi[q] *= inv;
        }
      }
    } else {
      for (Index k0 = ((m - 1) / kTrsmBlock) * kTrsmBlock; k0 >= 0;
           k0 -= kTrsmBlock) {
        const Index k1 = std::min(k0 + kTrsmBlock, m);
        // B[k0..k1) -= L[k1..m, k0..k1)^T * B[k1..m).
        Panels::tn_acc(-1.0, ldata + k1 * m + k0, m, bbase + k1 * ldb, ldb,
                       bbase + k0 * ldb, ldb, k1 - k0, m - k1, width);
        for (Index i = k1 - 1; i >= k0; --i) {
          double* bi = bbase + i * ldb;
          for (Index p = i + 1; p < k1; ++p) {
            const double lpi = ldata[p * m + i];
            const double* bp = bbase + p * ldb;
            for (Index q = 0; q < width; ++q) {
              bi[q] = std::fma(-lpi, bp[q], bi[q]);
            }
          }
          const double inv = 1.0 / ldata[i * m + i];
          for (Index q = 0; q < width; ++q) bi[q] *= inv;
        }
      }
    }
  };
  ctx.parallel(perf::Category::kSystemSolve, k, cost, body);
}

// Row-pair split of an n-row triangular sweep, so every lane gets an equal
// share of the triangle: unit t of [0, row_pairs(n)) owns rows t and
// n-1-t (for odd n the middle row pairs with itself and is visited once).
inline Index row_pairs(Index n) { return (n + 1) / 2; }

// Calls f(lo, hi) for each non-empty contiguous row range the unit slice
// [begin, end) owns: the top rows [begin, end) and the bottom rows
// [max(n - end, row_pairs(n)), n - begin).
template <class F>
void for_pair_rows(Index n, Index begin, Index end, F&& f) {
  if (begin >= end) return;
  f(begin, end);
  const Index lo = std::max(n - end, row_pairs(n));
  if (lo < n - begin) f(lo, n - begin);
}

// Lower-triangle entries (diagonal included) of the rows [lo, hi).
inline double lower_entries(Index lo, Index hi) {
  return 0.5 * static_cast<double>(hi - lo) * static_cast<double>(lo + hi + 1);
}

// C -= W^T W on the lower triangle only (category m-v).  Each kGemmRowTile
// tile of rows [i0, i0 + rows) is one panel through its diagonal block,
// columns [0, i0 + rows); every written element is the same fma chain the
// full panel computes, so the lower triangle is bitwise the full update's.
// Entries above the diagonal are left stale (the few inside a diagonal
// block are overwritten with values computed from their stale inputs); the
// caller mirrors the lower triangle when it needs C whole.  Lanes take row
// pairs (for_pair_rows): pair t costs n+1 entries for every t, so the
// triangle splits evenly over any lane count.
template <class Panels>
void covariance_downdate_impl(par::ExecContext& ctx, const Matrix& w,
                              Matrix& c) {
  PHMSE_CHECK(c.rows() == c.cols() && c.rows() == w.cols(),
              "covariance_downdate: C shape mismatch");
  const Index m = w.rows();
  const Index n = c.rows();

  auto cost = [&](Index begin, Index end) {
    par::KernelStats st;
    double entries = 0.0;
    double rows = 0.0;
    for_pair_rows(n, begin, end, [&](Index lo, Index hi) {
      entries += lower_entries(lo, hi);
      rows += static_cast<double>(hi - lo);
    });
    st.flops = 2.0 * static_cast<double>(m) * entries;
    // C's lower entries read+written once; W's compulsory traffic once.
    st.bytes_stream = kBytesPerDouble *
                      (2.0 * entries +
                       static_cast<double>(m) * static_cast<double>(n));
    // The blocked GEMM keeps an m x kGemmColStrip panel of W resident and
    // re-sweeps it once per register row tile; machines with a finite
    // modeled cache penalize overflow.
    st.resident_bytes =
        kBytesPerDouble * static_cast<double>(m) *
        static_cast<double>(std::min(n, kGemmColStrip));
    st.resident_sweeps = rows / static_cast<double>(kGemmRowTile);
    return st;
  };
  auto body = [&](Index begin, Index end, int /*lane*/) {
    if (m <= 0) return;
    for_pair_rows(n, begin, end, [&](Index lo, Index hi) {
      for (Index i0 = lo; i0 < hi; i0 += kGemmRowTile) {
        const Index rows = std::min(kGemmRowTile, hi - i0);
        Panels::tn_acc(-1.0, w.data() + i0, n, w.data(), n,
                       c.row(i0).data(), n, rows, m, i0 + rows);
      }
    });
  };
  ctx.parallel(perf::Category::kMatVec, row_pairs(n), cost, body);
}

// T -= A^T W (category vec): the delayed sweep's replay of its pending
// downdates over the gathered rows of C (backend.hpp, downdate_rows).  One
// tn panel with coefficient alpha * A(l, s) = -W(l, r_s), exactly the
// coefficient covariance_downdate_impl feeds row r_s, so every element
// runs the downdate's own fma chain.  Lanes take column slices; the k x t
// coefficient block stays resident across them.
template <class Panels>
void downdate_rows_impl(par::ExecContext& ctx, const Matrix& a,
                        const Matrix& w, Matrix& t) {
  PHMSE_CHECK(a.rows() == w.rows() && a.cols() == t.rows() &&
                  w.cols() == t.cols(),
              "downdate_rows: shape mismatch");
  const Index k = w.rows();
  const Index rows = t.rows();
  const Index n = t.cols();

  auto cost = [&](Index begin, Index end) {
    par::KernelStats st;
    const double cols = static_cast<double>(end - begin);
    st.flops = 2.0 * static_cast<double>(k) * static_cast<double>(rows) *
               cols;
    // T's slice read+written once, W's slice streamed once per row tile
    // from cache, the coefficients once.
    st.bytes_stream =
        kBytesPerDouble * (2.0 * static_cast<double>(rows) * cols +
                           static_cast<double>(k) * cols +
                           static_cast<double>(k) * static_cast<double>(rows));
    st.resident_bytes = kBytesPerDouble * static_cast<double>(k) *
                        static_cast<double>(std::min(n, kGemmColStrip));
    st.resident_sweeps = static_cast<double>(rows) /
                         static_cast<double>(kGemmRowTile);
    return st;
  };
  auto body = [&](Index begin, Index end, int /*lane*/) {
    if (k <= 0 || rows <= 0 || end <= begin) return;
    Panels::tn_acc(-1.0, a.data(), rows, w.data() + begin, n,
                   t.data() + begin, n, rows, k, end - begin);
  };
  ctx.parallel(perf::Category::kVector, n, cost, body);
}

// out = W^T W with the zero-init folded into the first reduction tile.
template <class Panels>
void gram_impl(par::ExecContext& ctx, const Matrix& w, Matrix& out) {
  const Index m = w.rows();
  const Index n = w.cols();
  // Every entry of `out` is overwritten by the zero-initializing GEMM
  // below, so skip resize_zero's full clearing pass.
  out.resize(n, n);

  auto cost = [&](Index begin, Index end) {
    par::KernelStats st;
    const double rows = static_cast<double>(end - begin);
    st.flops = 2.0 * rows * static_cast<double>(m) * static_cast<double>(n);
    st.bytes_stream =
        kBytesPerDouble * (2.0 * rows * static_cast<double>(n) +
                           static_cast<double>(m) * static_cast<double>(n));
    // Same blocked-GEMM traffic pattern as covariance_downdate: an
    // m x kGemmColStrip panel of W resident, swept once per row tile.
    st.resident_bytes =
        kBytesPerDouble * static_cast<double>(m) *
        static_cast<double>(std::min(n, kGemmColStrip));
    st.resident_sweeps = rows / static_cast<double>(kGemmRowTile);
    return st;
  };
  auto body = [&](Index begin, Index end, int /*lane*/) {
    if (end <= begin) return;
    if (m <= 0) {
      // Rank-0 Gram matrix: the overwrite below never runs, so clear the
      // lane's rows explicitly.
      for (Index i = begin; i < end; ++i) {
        double* const row = out.row(i).data();
        std::fill(row, row + n, 0.0);
      }
      return;
    }
    // out[begin..end) = (W^T W)[begin..end); the strip-wise zero-init
    // replaces the resize_zero clearing pass.
    Panels::tn_zero_acc(1.0, w.data() + begin, n, w.data(), n,
                        out.row(begin).data(), n, end - begin, m, n);
  };
  ctx.parallel(perf::Category::kMatMat, n, cost, body);
}

// Factors the diagonal block [k, k+b) in place, using already-final columns
// [0, k) of the panel rows.  Sequential.  Returns the failing pivot index
// (a non-positive — or NaN — diagonal), or -1 on success.
inline Index cholesky_factor_panel(Matrix& a, Index k, Index b) {
  for (Index j = k; j < k + b; ++j) {
    double d = a(j, j) - dot(a.row(j).data() + k, a.row(j).data() + k, j - k);
    if (!(d > 0.0)) return j;
    d = std::sqrt(d);
    a(j, j) = d;
    const double inv = 1.0 / d;
    for (Index i = j + 1; i < k + b; ++i) {
      const double s =
          a(i, j) - dot(a.row(i).data() + k, a.row(j).data() + k, j - k);
      a(i, j) = s * inv;
    }
  }
  return -1;
}

// Blocked right-looking Cholesky; panel factorization and row solve are the
// sequential scalar chain, the trailing update A22 -= A21 * A21^T runs as
// GEMM panels against the transposed-panel scratch.
template <class Panels>
CholeskyResult cholesky_factor_impl(par::ExecContext& ctx, Matrix& a,
                                    Index block_size) {
  PHMSE_CHECK(a.rows() == a.cols(), "cholesky: matrix must be square");
  PHMSE_CHECK(block_size >= 1, "cholesky: block size must be >= 1");
  const Index n = a.rows();

  // Transposed copy of the solved panel (A21^T, b x rest), written as a
  // side product of the row solve and consumed by the blocked trailing
  // update: with it the trailing GEMM streams unit-stride rows of both
  // operands, which is what lets the register tiles vectorize.  Allocated
  // once at the maximum panel size and reused across panels.
  Matrix a21t;
  if (n > block_size) a21t.resize_zero(std::min(block_size, n), n);

  Index failed_pivot = -1;
  for (Index k = 0; k < n; k += block_size) {
    const Index b = std::min(block_size, n - k);

    // Panel factorization: sequential dependency chain.  A failed pivot is
    // reported through the captured index (not an exception), so the
    // executor never unwinds and the caller can retry on a re-formed input.
    ctx.sequential(
        perf::Category::kCholesky,
        [&](Index, Index) {
          par::KernelStats st;
          const double bd = static_cast<double>(b);
          st.flops = bd * bd * bd / 3.0 + 2.0 * bd * bd;
          st.bytes_stream = kBytesPerDouble * bd * static_cast<double>(k + b);
          return st;
        },
        [&] { failed_pivot = cholesky_factor_panel(a, k, b); });
    if (failed_pivot >= 0) return {failed_pivot};

    const Index rest = n - (k + b);
    if (rest <= 0) continue;

    // Row solve: A[k+b.., k..k+b) <- A[k+b.., k..k+b) * L11^{-T}, scattering
    // the result into A21^T for the trailing update.
    ctx.parallel(
        perf::Category::kCholesky, rest,
        [&](Index begin, Index end) {
          par::KernelStats st;
          const double rows = static_cast<double>(end - begin);
          const double bd = static_cast<double>(b);
          st.flops = rows * bd * bd;
          // Panel rows read+written plus the A21^T scatter.
          st.bytes_stream = kBytesPerDouble * rows * bd * 3.0;
          return st;
        },
        [&](Index begin, Index end, int /*lane*/) {
          for (Index ii = begin; ii < end; ++ii) {
            const Index i = k + b + ii;
            double* arow = a.row(i).data();
            for (Index j = k; j < k + b; ++j) {
              double s = arow[j] - dot(arow + k, a.row(j).data() + k, j - k);
              s /= a(j, j);
              arow[j] = s;
              a21t(j - k, ii) = s;
            }
          }
        });

    // Trailing update: A22 -= A21 * A21^T as GEMM panels.  Each
    // kGemmRowTile-row tile updates the rectangle up to its last row's
    // diagonal; the few entries this touches above the diagonal are never
    // read by later panels and are zeroed with the rest of the strict upper
    // triangle at the end.
    ctx.parallel(
        perf::Category::kCholesky, rest,
        [&](Index begin, Index end) {
          par::KernelStats st;
          const double bd = static_cast<double>(b);
          const double rows = static_cast<double>(end - begin);
          // Row ii of the trailing block updates ~ii+1 entries of width-b
          // reductions (read+write), streaming its A21 row once; the
          // b x kGemmColStrip panel of A21^T stays resident per row tile.
          double inner = 0.0;
          for (Index ii = begin; ii < end; ++ii) {
            inner += static_cast<double>(ii + 1);
          }
          st.flops = 2.0 * inner * bd;
          st.bytes_stream = kBytesPerDouble * (2.0 * inner + rows * bd);
          st.resident_bytes =
              kBytesPerDouble * bd *
              static_cast<double>(std::min(rest, kGemmColStrip));
          st.resident_sweeps = rows / static_cast<double>(kGemmRowTile);
          return st;
        },
        [&](Index begin, Index end, int /*lane*/) {
          double* const base = a.data();
          const double* const tdata = a21t.data();
          for (Index i0 = begin; i0 < end; i0 += kGemmRowTile) {
            const Index rows = std::min(kGemmRowTile, end - i0);
            const Index ncols = i0 + rows;  // through the tile's last row
            Panels::nn_acc(-1.0, base + (k + b + i0) * n + k, n, tdata, n,
                           base + (k + b + i0) * n + (k + b), n, rows, b,
                           ncols);
          }
        });
  }

  // Zero the strict upper triangle so L is directly usable.
  ctx.parallel(
      perf::Category::kCholesky, n,
      [&](Index begin, Index end) {
        par::KernelStats st;
        st.bytes_stream = kBytesPerDouble * static_cast<double>(end - begin) *
                          static_cast<double>(n) / 2.0;
        return st;
      },
      [&](Index begin, Index end, int /*lane*/) {
        for (Index i = begin; i < end; ++i) {
          double* arow = a.row(i).data();
          for (Index j = i + 1; j < n; ++j) arow[j] = 0.0;
        }
      });
  return {};
}

}  // namespace phmse::linalg::detail
