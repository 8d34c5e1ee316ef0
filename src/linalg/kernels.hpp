// ExecContext-parallel kernels for the Fig.-1 update procedure.
//
// Category mapping (chosen to mirror the accounting in the paper's Tables
// 3-6; see DESIGN.md):
//   d-s  : G = H * C            (sparse Jacobian times dense covariance)
//   m-m  : S = G * H^T + R      (innovation covariance assembly)
//   chol : factor S = L L^T     (see cholesky.hpp)
//   sys  : solve L W = G, L^T V = W  => V = K^T  (filter gain)
//   m-v  : dx = V^T r, and the covariance update C -= W^T W, which is
//          mathematically n dense matrix-vector products C(:,l) -= K a_l —
//          the dominant operation, reported by the paper under m-v
//   vec  : residuals, scalings, copies
//
// Every kernel takes an ExecContext so the same code runs serially, on a
// real thread team, or on the simulated multiprocessor (src/simarch).
//
// These free functions dispatch through the process-default Backend
// (backend.hpp): the same signatures are implemented by the ref / blocked /
// simd backends, and a caller that pinned a backend (per-solve override)
// calls through its Backend table instead.
//
// Exception transparency: these kernels hold no hidden state across
// parallel() calls and add no try/catch of their own, so the ExecContext
// contract applies verbatim — a body failure (e.g. a PHMSE_CHECK firing on
// a worker lane) joins the team cleanly and rethrows on the calling lane,
// leaving only the output arguments in a partially-written state.
#pragma once

#include <span>

#include "linalg/csr.hpp"
#include "linalg/matrix.hpp"
#include "parallel/exec.hpp"

namespace phmse::linalg {

/// G = H * C.  H: m x t sparse, C: t x n dense (n x n for the plain
/// sweep; the gathered rows of C, see gather_lower_rows, for a delayed
/// one), G resized to m x n.  Parallel over the m rows of G.  Category: d-s.
void sparse_dense(par::ExecContext& ctx, const Csr& h, const Matrix& c,
                  Matrix& g);

/// S = G * H^T + diag(r_diag).  G: m x n, H: m x n sparse, S resized to
/// m x m.  `r_diag` holds the measurement noise variances (R is diagonal
/// for independent scalar measurements).  Parallel over rows of S.
/// Category: m-m.
void innovation_covariance(par::ExecContext& ctx, const Matrix& g,
                           const Csr& h, const Vector& r_diag, Matrix& s);

/// In-place forward solve B <- L^{-1} B for lower-triangular L (m x m) and
/// B (m x k).  Parallel over B's columns.  Category: sys.
void trsm_lower(par::ExecContext& ctx, const Matrix& l, Matrix& b);

/// In-place backward solve B <- L^{-T} B.  Parallel over B's columns.
/// Category: sys.
void trsm_lower_transposed(par::ExecContext& ctx, const Matrix& l, Matrix& b);

/// dx += V^T r.  V: m x n (the gain transpose), r: m, dx: n.
/// Category: m-v.
void gain_times_residual(par::ExecContext& ctx, const Matrix& v,
                         const Vector& r, Vector& dx);

/// C -= W^T * W with W: m x n and C: n x n.  This is the covariance
/// measurement update C -= K (C H^T)^T with W = L^{-1} H C.  Parallel over
/// row pairs of C; each row update streams the m rows of W (which fit in
/// cache for the batch sizes the paper recommends).  Category: m-v (see
/// file comment).
///
/// W^T W is symmetric, so only C's lower triangle (i >= j) is guaranteed
/// current afterwards; the strict upper triangle is unspecified (the
/// blocked and simd backends leave it stale and do half the flops, the ref
/// oracle still writes it).  Entries (i, j) and (j, i) of W^T W are the
/// same exact products, so a C that was bitwise symmetric before the call
/// becomes bitwise the full update again after mirror_lower().  The Fig.-1
/// sweep (estimation/update.hpp) relies on this.
void covariance_downdate(par::ExecContext& ctx, const Matrix& w, Matrix& c);

/// out = W^T * W for W: m x n (out resized to n x n).  Used by the Fig.-3
/// combination procedure to form information matrices.  Category: m-m.
void gram(par::ExecContext& ctx, const Matrix& w, Matrix& out);

/// C += coeff * v v^T (rank-1 symmetric update).  Used by the non-Gaussian
/// (mixture) measurement update, whose collapsed posterior differs from the
/// prior by a rank-1 term along the gain direction.  Category: m-v.
void rank1_update(par::ExecContext& ctx, const Vector& v, double coeff,
                  Matrix& c);

/// out = a - b element-wise.  Category: vec.
void vec_sub(par::ExecContext& ctx, const Vector& a, const Vector& b,
             Vector& out);

/// y += x element-wise.  Category: vec.
void vec_add_inplace(par::ExecContext& ctx, const Vector& x, Vector& y);

/// Copies square C's strict lower triangle over its strict upper triangle,
/// C(i, j) = C(j, i) for j > i, leaving C bitwise symmetric and the lower
/// triangle untouched — the end of a lower-authoritative update sweep (see
/// covariance_downdate).  Lanes take row pairs (t, n-1-t), so each gets an
/// equal share of the triangle.  Category: vec.
void mirror_lower(par::ExecContext& ctx, Matrix& c);

/// mirror_lower restricted to the listed rows: C(r, j) = C(j, r) for every
/// r in `rows` and j > r.  `rows` must be ascending and duplicate-free.
/// Only upper entries are written, each with its mirror value, so on a
/// symmetric C this is a bitwise no-op.  Parallel over C's columns.
/// Category: vec.
void mirror_lower_rows(par::ExecContext& ctx, std::span<const Index> rows,
                       Matrix& c);

/// T(s, j) = C(r, j) for j <= r and C(j, r) for j > r, with r = rows[s]:
/// the listed rows of a symmetric C read from its lower triangle alone, as
/// a delayed sweep needs them before G = H C (estimation/update.hpp).
/// `rows` must be ascending and duplicate-free; T is resized to
/// rows.size() x n.  Parallel over columns.  Category: vec.
void gather_lower_rows(par::ExecContext& ctx, const Matrix& c,
                       std::span<const Index> rows, Matrix& t);

}  // namespace phmse::linalg
