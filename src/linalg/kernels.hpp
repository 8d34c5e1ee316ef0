// ExecContext-parallel kernels that no Backend table holds.
//
// The Fig.-1 kernels that each backend implements its own way (d-s, m-m,
// chol, sys and the m-v downdate) are reached only through a
// linalg::Backend table (backend.hpp, which also maps the paper's
// categories).  The kernels here are backend-independent: the non-Gaussian
// update's rank-1 term and the vec category's element-wise and copy loops,
// single-pass and bandwidth-bound with nothing to specialize.
//
// Every kernel takes an ExecContext so the same code runs serially, on a
// real thread team, or on the simulated multiprocessor (src/simarch).
//
// Exception transparency: these kernels hold no hidden state across
// parallel() calls and add no try/catch of their own, so the ExecContext
// contract applies verbatim — a body failure (e.g. a PHMSE_CHECK firing on
// a worker lane) joins the team cleanly and rethrows on the calling lane,
// leaving only the output arguments in a partially-written state.
#pragma once

#include <span>

#include "linalg/matrix.hpp"
#include "parallel/exec.hpp"

namespace phmse::linalg {

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
/// Backend::covariance_downdate).  Lanes take row pairs (t, n-1-t), so each
/// gets an equal share of the triangle.  Category: vec.
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
