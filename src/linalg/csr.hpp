// Compressed sparse row (CSR) matrix.
//
// The measurement Jacobian H (m x n) is extremely sparse: a distance
// constraint touches 6 state variables, an angle 9, a torsion 12.  CSR keeps
// the dense-sparse products in the update procedure at O(nnz * n) instead of
// O(m * n^2).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "support/check.hpp"
#include "support/types.hpp"

namespace phmse::linalg {

/// Immutable CSR matrix assembled through CsrBuilder.
class Csr {
 public:
  Csr() = default;

  Index rows() const { return static_cast<Index>(row_ptr_.size()) - 1; }
  Index cols() const { return cols_; }
  Index nnz() const { return static_cast<Index>(values_.size()); }

  /// Column indices of row i's nonzeros (ascending).
  std::span<const Index> row_indices(Index i) const {
    PHMSE_ASSERT(i >= 0 && i < rows());
    return {col_idx_.data() + row_ptr_[static_cast<std::size_t>(i)],
            static_cast<std::size_t>(row_nnz(i))};
  }

  /// Values of row i's nonzeros, parallel to row_indices(i).
  std::span<const double> row_values(Index i) const {
    PHMSE_ASSERT(i >= 0 && i < rows());
    return {values_.data() + row_ptr_[static_cast<std::size_t>(i)],
            static_cast<std::size_t>(row_nnz(i))};
  }

  Index row_nnz(Index i) const {
    return static_cast<Index>(row_ptr_[static_cast<std::size_t>(i) + 1] -
                              row_ptr_[static_cast<std::size_t>(i)]);
  }

  /// Dense entry lookup (O(row nnz)); for tests and small cases.
  double at(Index i, Index j) const;

  /// Sets `out` to the columns holding a nonzero, ascending and
  /// duplicate-free, without a sort: one bit per column in `marks` is set
  /// for every nonzero, then the marked words are read back in order and
  /// cleared as they are read.  `marks` grows to cols() / 64 words on first
  /// use and is all-zero again on return.
  void nonzero_columns(std::vector<std::uint64_t>& marks,
                       std::vector<Index>& out) const;

  /// Writes into `out` this matrix with every column index replaced by its
  /// position in `cols`, which must be ascending, duplicate-free and list
  /// every column holding a nonzero; `out` gets cols.size() columns.  The
  /// map is monotone, so each row keeps its nonzero order.  Reuses `out`'s
  /// storage.
  void renumber_columns(std::span<const Index> cols, Csr& out) const;

 private:
  friend class CsrBuilder;

  Index cols_ = 0;
  std::vector<std::size_t> row_ptr_{0};
  std::vector<Index> col_idx_;
  std::vector<double> values_;
};

/// Row-by-row CSR assembly.  Rows are appended in order; within a row,
/// entries may arrive unordered and duplicates are summed.
class CsrBuilder {
 public:
  /// An empty builder with no columns; call reset() before building.
  CsrBuilder() = default;

  explicit CsrBuilder(Index cols) : cols_(cols) {
    PHMSE_CHECK(cols >= 0, "column count must be >= 0");
  }

  /// Re-arms the builder for a fresh matrix with `cols` columns.  Keeps the
  /// capacity of all internal buffers, so a builder that lives across
  /// repeated assemblies stops allocating once it has seen the largest row
  /// set (the steady-state solve path relies on this).
  void reset(Index cols);

  /// Starts a new row; returns its index.
  Index begin_row();

  /// Adds `value` at column `col` of the current row.
  void add(Index col, double value);

  /// Finalizes and returns the CSR matrix; the builder is left empty.
  Csr finish();

  /// Finalizes into `dst` by swapping buffers, so `dst`'s previous capacity
  /// round-trips back into the builder for the next reset()/build cycle.
  void finish_into(Csr& dst);

 private:
  Index cols_ = 0;
  bool in_row_ = false;
  std::vector<std::pair<Index, double>> current_;
  Csr out_;

  void flush_row();
};

}  // namespace phmse::linalg
