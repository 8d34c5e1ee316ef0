#include "linalg/blocked/blocked_kernels.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/blas.hpp"
#include "linalg/detail/panel_algos.hpp"
#include "support/check.hpp"

namespace phmse::linalg::blocked {
namespace {

using par::KernelStats;
using perf::Category;

constexpr double kBytes = 8.0;  // sizeof(double)

// The GEMM panel primitives from blas.cpp, as a detail/panel_algos.hpp
// Panels policy.
struct BlasPanels {
  static void nn_acc(double alpha, const double* a, Index lda,
                     const double* b, Index ldb, double* c, Index ldc,
                     Index mm, Index kk, Index nn) {
    gemm_nn_acc(alpha, a, lda, b, ldb, c, ldc, mm, kk, nn);
  }
  static void tn_acc(double alpha, const double* a, Index lda,
                     const double* b, Index ldb, double* c, Index ldc,
                     Index mm, Index kk, Index nn) {
    gemm_tn_acc(alpha, a, lda, b, ldb, c, ldc, mm, kk, nn);
  }
  static void tn_zero_acc(double alpha, const double* a, Index lda,
                          const double* b, Index ldb, double* c, Index ldc,
                          Index mm, Index kk, Index nn) {
    gemm_tn_zero_acc(alpha, a, lda, b, ldb, c, ldc, mm, kk, nn);
  }
};

}  // namespace

void sparse_dense(par::ExecContext& ctx, const Csr& h, const Matrix& c,
                  Matrix& g) {
  PHMSE_CHECK(h.cols() == c.rows(), "sparse_dense: dimension mismatch");
  const Index m = h.rows();
  const Index n = c.cols();
  g.resize_zero(m, n);

  auto cost = [&](Index begin, Index end) {
    KernelStats st;
    double nnz = 0.0;
    for (Index j = begin; j < end; ++j) nnz += static_cast<double>(h.row_nnz(j));
    st.flops = 2.0 * nnz * static_cast<double>(n);
    st.bytes_stream = kBytes * static_cast<double>((end - begin) * n);
    // The gathered C rows: which rows depends on the sparsity pattern, so
    // there is no tiling reuse — the paper's "randomly accesses its dense
    // counterpart".
    st.bytes_irregular = kBytes * nnz * static_cast<double>(n);
    return st;
  };
  auto body = [&](Index begin, Index end, int /*lane*/) {
    for (Index j = begin; j < end; ++j) {
      double* grow = g.row(j).data();
      const auto idx = h.row_indices(j);
      const auto val = h.row_values(j);
      for (std::size_t k = 0; k < idx.size(); ++k) {
        axpy(val[k], c.row(idx[k]).data(), grow, n);
      }
    }
  };
  ctx.parallel(Category::kDenseSparse, m, cost, body);
}

void innovation_covariance(par::ExecContext& ctx, const Matrix& g,
                           const Csr& h, const Vector& r_diag, Matrix& s) {
  PHMSE_CHECK(g.rows() == h.rows() && g.cols() == h.cols(),
              "innovation_covariance: G/H shape mismatch");
  PHMSE_CHECK(static_cast<Index>(r_diag.size()) == h.rows(),
              "innovation_covariance: noise diagonal size mismatch");
  const Index m = h.rows();
  s.resize_zero(m, m);

  auto cost = [&](Index begin, Index end) {
    KernelStats st;
    st.flops = 2.0 * static_cast<double>(end - begin) *
               static_cast<double>(h.nnz());
    st.bytes_stream = kBytes * static_cast<double>((end - begin) * g.cols());
    st.bytes_irregular =
        kBytes * static_cast<double>((end - begin) * h.nnz());
    return st;
  };
  auto body = [&](Index begin, Index end, int /*lane*/) {
    for (Index j = begin; j < end; ++j) {
      const double* grow = g.row(j).data();
      double* srow = s.row(j).data();
      for (Index l = 0; l < m; ++l) {
        const auto idx = h.row_indices(l);
        const auto val = h.row_values(l);
        double acc = 0.0;
        for (std::size_t k = 0; k < idx.size(); ++k) {
          acc += val[k] * grow[idx[k]];
        }
        srow[l] = acc;
      }
      srow[j] += r_diag[static_cast<std::size_t>(j)];
    }
  };
  ctx.parallel(Category::kMatMat, m, cost, body);
}

void trsm_lower(par::ExecContext& ctx, const Matrix& l, Matrix& b) {
  detail::trsm_impl<BlasPanels, false>(ctx, l, b);
}

void trsm_lower_transposed(par::ExecContext& ctx, const Matrix& l,
                           Matrix& b) {
  detail::trsm_impl<BlasPanels, true>(ctx, l, b);
}

void gain_times_residual(par::ExecContext& ctx, const Matrix& v,
                         const Vector& r, Vector& dx) {
  PHMSE_CHECK(static_cast<Index>(r.size()) == v.rows(),
              "gain_times_residual: residual size mismatch");
  PHMSE_CHECK(static_cast<Index>(dx.size()) == v.cols(),
              "gain_times_residual: output size mismatch");
  const Index m = v.rows();

  auto cost = [&](Index begin, Index end) {
    KernelStats st;
    const double cols = static_cast<double>(end - begin);
    st.flops = 2.0 * cols * static_cast<double>(m);
    st.bytes_stream = kBytes * cols * static_cast<double>(m);
    return st;
  };
  auto body = [&](Index begin, Index end, int /*lane*/) {
    for (Index j = 0; j < m; ++j) {
      const double rj = r[static_cast<std::size_t>(j)];
      const double* vrow = v.row(j).data();
      for (Index i = begin; i < end; ++i) {
        dx[static_cast<std::size_t>(i)] += rj * vrow[i];
      }
    }
  };
  ctx.parallel(Category::kMatVec, v.cols(), cost, body);
}

void covariance_downdate(par::ExecContext& ctx, const Matrix& w, Matrix& c) {
  detail::covariance_downdate_impl<BlasPanels>(ctx, w, c);
}

void downdate_rows(par::ExecContext& ctx, const Matrix& a, const Matrix& w,
                   Matrix& t) {
  detail::downdate_rows_impl<BlasPanels>(ctx, a, w, t);
}

void gram(par::ExecContext& ctx, const Matrix& w, Matrix& out) {
  detail::gram_impl<BlasPanels>(ctx, w, out);
}

CholeskyResult cholesky_factor(par::ExecContext& ctx, Matrix& a,
                               Index block_size) {
  return detail::cholesky_factor_impl<BlasPanels>(ctx, a, block_size);
}

}  // namespace phmse::linalg::blocked
