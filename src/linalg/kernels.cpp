// The backend-independent kernels of kernels.hpp: bandwidth-bound
// single-pass loops with nothing to specialize, so they live here rather
// than in the per-backend tables (backend.hpp).
#include "linalg/kernels.hpp"

#include <algorithm>

#include "linalg/blas.hpp"
#include "linalg/detail/panel_algos.hpp"
#include "support/check.hpp"

namespace phmse::linalg {
namespace {

using par::KernelStats;
using perf::Category;

constexpr double kBytes = 8.0;  // sizeof(double)

// Side of the square tiles mirror_lower copies through, and the column
// block mirror_lower_rows sweeps its listed rows over: 64 doubles is 8
// cache lines, so a tile's reads and writes stay cache-resident.
constexpr Index kMirrorTile = 64;

}  // namespace

void rank1_update(par::ExecContext& ctx, const Vector& v, double coeff,
                  Matrix& c) {
  PHMSE_CHECK(c.rows() == c.cols() &&
                  c.rows() == static_cast<Index>(v.size()),
              "rank1_update: dimension mismatch");
  const Index n = c.rows();
  auto cost = [&](Index begin, Index end) {
    KernelStats st;
    const double rows = static_cast<double>(end - begin);
    st.flops = 2.0 * rows * static_cast<double>(n);
    st.bytes_stream = kBytes * (2.0 * rows * static_cast<double>(n));
    return st;
  };
  auto body = [&](Index begin, Index end, int /*lane*/) {
    for (Index i = begin; i < end; ++i) {
      axpy(coeff * v[static_cast<std::size_t>(i)], v.data(),
           c.row(i).data(), n);
    }
  };
  ctx.parallel(Category::kMatVec, n, cost, body);
}

void vec_sub(par::ExecContext& ctx, const Vector& a, const Vector& b,
             Vector& out) {
  PHMSE_CHECK(a.size() == b.size(), "vec_sub: size mismatch");
  out.resize(a.size());
  const Index n = static_cast<Index>(a.size());
  auto cost = [&](Index begin, Index end) {
    KernelStats st;
    st.flops = static_cast<double>(end - begin);
    st.bytes_stream = 3.0 * kBytes * static_cast<double>(end - begin);
    return st;
  };
  auto body = [&](Index begin, Index end, int /*lane*/) {
    for (Index i = begin; i < end; ++i) {
      out[static_cast<std::size_t>(i)] =
          a[static_cast<std::size_t>(i)] - b[static_cast<std::size_t>(i)];
    }
  };
  ctx.parallel(Category::kVector, n, cost, body);
}

void vec_add_inplace(par::ExecContext& ctx, const Vector& x, Vector& y) {
  PHMSE_CHECK(x.size() == y.size(), "vec_add_inplace: size mismatch");
  const Index n = static_cast<Index>(x.size());
  auto cost = [&](Index begin, Index end) {
    KernelStats st;
    st.flops = static_cast<double>(end - begin);
    st.bytes_stream = 3.0 * kBytes * static_cast<double>(end - begin);
    return st;
  };
  auto body = [&](Index begin, Index end, int /*lane*/) {
    for (Index i = begin; i < end; ++i) {
      y[static_cast<std::size_t>(i)] += x[static_cast<std::size_t>(i)];
    }
  };
  ctx.parallel(Category::kVector, n, cost, body);
}

void mirror_lower(par::ExecContext& ctx, Matrix& c) {
  PHMSE_CHECK(c.rows() == c.cols(), "mirror_lower: matrix must be square");
  const Index n = c.rows();
  // Row i copies its n-1-i upper entries, so every row pair costs n-1.
  auto cost = [&](Index begin, Index end) {
    double copies = 0.0;
    detail::for_pair_rows(n, begin, end, [&](Index lo, Index hi) {
      copies += 0.5 * static_cast<double>(hi - lo) *
                static_cast<double>(2 * n - 1 - lo - hi);
    });
    KernelStats st;
    st.bytes_stream = 2.0 * kBytes * copies;
    return st;
  };
  // Rows in kMirrorTile-square tiles: a tile reads kMirrorTile short row
  // segments below the diagonal and writes kMirrorTile short row segments
  // above it, so neither side strides the whole column.  Lanes read only
  // lower entries and write only their own rows' upper entries.
  auto body = [&](Index begin, Index end, int /*lane*/) {
    double* const base = c.data();
    detail::for_pair_rows(n, begin, end, [&](Index lo, Index hi) {
      for (Index i0 = lo; i0 < hi; i0 += kMirrorTile) {
        const Index i1 = std::min(i0 + kMirrorTile, hi);
        for (Index j0 = i0 + 1; j0 < n; j0 += kMirrorTile) {
          const Index j1 = std::min(j0 + kMirrorTile, n);
          for (Index i = i0; i < i1; ++i) {
            double* const row = base + i * n;
            for (Index j = std::max(j0, i + 1); j < j1; ++j) {
              row[j] = base[j * n + i];
            }
          }
        }
      }
    });
  };
  ctx.parallel(Category::kVector, detail::row_pairs(n), cost, body);
}

void mirror_lower_rows(par::ExecContext& ctx, std::span<const Index> rows,
                       Matrix& c) {
  PHMSE_CHECK(c.rows() == c.cols(),
              "mirror_lower_rows: matrix must be square");
  const Index n = c.rows();
  if (rows.empty()) return;
  PHMSE_CHECK(rows.front() >= 0 && rows.back() < n,
              "mirror_lower_rows: row index out of range");
  auto cost = [&](Index begin, Index end) {
    // Column j copies one entry for every listed row above it.  The writes
    // run along the listed rows; the reads gather down their columns.
    double copies = 0.0;
    for (const Index r : rows) {
      const Index first = std::max(begin, r + 1);
      if (first < end) copies += static_cast<double>(end - first);
    }
    KernelStats st;
    st.bytes_stream = kBytes * copies;
    st.bytes_irregular = kBytes * copies;
    return st;
  };
  // Columns in kMirrorTile blocks: each listed row then writes one short
  // contiguous segment per block, and the block's rows, whose lines hold
  // the column entries the listed rows read, stay cache-resident across
  // the whole row list instead of being re-fetched for every column.
  auto body = [&](Index begin, Index end, int /*lane*/) {
    double* const base = c.data();
    for (Index j0 = begin; j0 < end; j0 += kMirrorTile) {
      const Index j1 = std::min(j0 + kMirrorTile, end);
      for (const Index r : rows) {
        if (r + 1 >= j1) break;
        double* const dst = base + r * n;
        for (Index j = std::max(j0, r + 1); j < j1; ++j) {
          dst[j] = base[j * n + r];
        }
      }
    }
  };
  ctx.parallel(Category::kVector, n, cost, body);
}

void gather_lower_rows(par::ExecContext& ctx, const Matrix& c,
                       std::span<const Index> rows, Matrix& t) {
  PHMSE_CHECK(c.rows() == c.cols(),
              "gather_lower_rows: matrix must be square");
  const Index n = c.rows();
  const auto count = static_cast<Index>(rows.size());
  PHMSE_CHECK(count == 0 || (rows.front() >= 0 && rows.back() < n),
              "gather_lower_rows: row index out of range");
  t.resize(count, n);
  auto cost = [&](Index begin, Index end) {
    // Columns j <= r copy a contiguous stretch of row r; columns j > r
    // gather down column r.
    double along = 0.0;
    for (const Index r : rows) {
      along += static_cast<double>(
          std::max<Index>(0, std::min(end, r + 1) - begin));
    }
    const double copies =
        static_cast<double>(count) * static_cast<double>(end - begin);
    KernelStats st;
    st.bytes_stream = kBytes * (copies + along);
    st.bytes_irregular = kBytes * (copies - along);
    return st;
  };
  // Columns in kMirrorTile blocks, as in mirror_lower_rows: the block's
  // rows of C, whose lines hold the column entries the listed rows read,
  // stay cache-resident across the whole row list.
  auto body = [&](Index begin, Index end, int /*lane*/) {
    const double* const base = c.data();
    for (Index j0 = begin; j0 < end; j0 += kMirrorTile) {
      const Index j1 = std::min(j0 + kMirrorTile, end);
      for (Index s = 0; s < count; ++s) {
        const Index r = rows[static_cast<std::size_t>(s)];
        double* const dst = t.row(s).data();
        const Index split = std::clamp(r + 1, j0, j1);
        std::copy(base + r * n + j0, base + r * n + split, dst + j0);
        for (Index j = split; j < j1; ++j) dst[j] = base[j * n + r];
      }
    }
  };
  ctx.parallel(Category::kVector, n, cost, body);
}

}  // namespace phmse::linalg
