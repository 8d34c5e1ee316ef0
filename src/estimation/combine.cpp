#include "estimation/combine.hpp"

#include "linalg/backend.hpp"
#include "linalg/blas.hpp"
#include "support/check.hpp"

namespace phmse::est {
namespace {

using linalg::Matrix;
using linalg::Vector;

// Y = C^{-1} via Cholesky: C = L L^T, W = L^{-1} I, Y = W^T W.
Matrix information_matrix(par::ExecContext& ctx, const Matrix& c) {
  const linalg::Backend& be = linalg::default_backend();
  Matrix l = c;
  PHMSE_CHECK(be.cholesky_factor(ctx, l, 48).ok(),
              "combine: posterior covariance is not positive definite");
  Matrix w(c.rows(), c.cols());
  w.set_identity();
  be.trsm_lower(ctx, l, w);
  Matrix y;
  be.gram(ctx, w, y);
  return y;
}

// y = A x, charged as a dense matrix-vector product.
Vector matvec(par::ExecContext& ctx, const Matrix& a, const Vector& x) {
  Vector y;
  ctx.sequential(
      perf::Category::kMatVec,
      [&](Index, Index) {
        par::KernelStats st;
        st.flops = 2.0 * static_cast<double>(a.rows()) *
                   static_cast<double>(a.cols());
        st.bytes_stream = 8.0 * static_cast<double>(a.rows()) *
                          static_cast<double>(a.cols());
        return st;
      },
      [&] { linalg::gemv(a, x, y); });
  return y;
}

}  // namespace

NodeState combine_independent(par::ExecContext& ctx, const NodeState& a,
                              const NodeState& b,
                              const linalg::Vector& prior_x,
                              double prior_sigma) {
  PHMSE_CHECK(a.atom_begin == b.atom_begin && a.atom_end == b.atom_end,
              "combine: posteriors must cover the same atoms");
  PHMSE_CHECK(prior_x.size() == a.x.size(),
              "combine: prior dimension mismatch");
  PHMSE_CHECK(prior_sigma > 0.0, "combine: prior sigma must be positive");
  const Index n = a.dim();
  const double y0 = 1.0 / (prior_sigma * prior_sigma);

  const Matrix ya = information_matrix(ctx, a.c);
  const Matrix yb = information_matrix(ctx, b.c);

  // Fused information matrix: Ya + Yb - Y0 (Y0 spherical).
  Matrix lambda = ya;
  ctx.sequential(
      perf::Category::kVector,
      [&](Index, Index) {
        par::KernelStats st;
        st.flops = static_cast<double>(n) * static_cast<double>(n);
        st.bytes_stream = 24.0 * static_cast<double>(n * n);
        return st;
      },
      [&] {
        for (Index i = 0; i < n; ++i) {
          double* lrow = lambda.row(i).data();
          const double* brow = yb.row(i).data();
          for (Index j = 0; j < n; ++j) lrow[j] += brow[j];
          lrow[i] -= y0;
        }
      });

  // Fused information vector: Ya xa + Yb xb - Y0 x0.
  Vector eta_a = matvec(ctx, ya, a.x);
  const Vector eta_b = matvec(ctx, yb, b.x);
  for (std::size_t i = 0; i < eta_a.size(); ++i) {
    eta_a[i] += eta_b[i] - y0 * prior_x[i];
  }

  // Recover (xf, Cf) from information form.
  NodeState fused;
  fused.atom_begin = a.atom_begin;
  fused.atom_end = a.atom_end;
  fused.c = information_matrix(ctx, lambda);  // Cf = Lambda^{-1}
  fused.x = matvec(ctx, fused.c, eta_a);
  return fused;
}

NodeState combine_tournament(par::ExecContext& ctx,
                             std::vector<NodeState> posteriors,
                             const linalg::Vector& prior_x,
                             double prior_sigma) {
  PHMSE_CHECK(!posteriors.empty(), "combine: need at least one posterior");
  // Pairwise rounds, as the paper describes.
  while (posteriors.size() > 1) {
    std::vector<NodeState> next;
    for (std::size_t i = 0; i + 1 < posteriors.size(); i += 2) {
      next.push_back(combine_independent(ctx, posteriors[i],
                                         posteriors[i + 1], prior_x,
                                         prior_sigma));
    }
    if (posteriors.size() % 2 == 1) {
      next.push_back(std::move(posteriors.back()));
    }
    posteriors = std::move(next);
  }
  return std::move(posteriors.front());
}

}  // namespace phmse::est
