#include "linalg/csr.hpp"

#include <algorithm>
#include <bit>

namespace phmse::linalg {

double Csr::at(Index i, Index j) const {
  const auto idx = row_indices(i);
  const auto val = row_values(i);
  for (std::size_t k = 0; k < idx.size(); ++k) {
    if (idx[k] == j) return val[k];
  }
  return 0.0;
}

void Csr::nonzero_columns(std::vector<std::uint64_t>& marks,
                          std::vector<Index>& out) const {
  out.clear();
  const auto words = static_cast<std::size_t>((cols_ + 63) / 64);
  if (marks.size() < words) marks.resize(words, 0);
  std::size_t lo = words;
  std::size_t hi = 0;
  for (const Index col : col_idx_) {
    const auto w = static_cast<std::size_t>(col) / 64;
    marks[w] |= std::uint64_t{1} << (col % 64);
    lo = std::min(lo, w);
    hi = std::max(hi, w + 1);
  }
  for (std::size_t w = lo; w < hi; ++w) {
    std::uint64_t bits = marks[w];
    marks[w] = 0;
    for (; bits != 0; bits &= bits - 1) {
      out.push_back(static_cast<Index>(64 * w) + std::countr_zero(bits));
    }
  }
}

void Csr::renumber_columns(std::span<const Index> cols, Csr& out) const {
  out.cols_ = static_cast<Index>(cols.size());
  out.row_ptr_.assign(row_ptr_.begin(), row_ptr_.end());
  out.values_.assign(values_.begin(), values_.end());
  out.col_idx_.resize(col_idx_.size());
  for (std::size_t k = 0; k < col_idx_.size(); ++k) {
    const auto it = std::lower_bound(cols.begin(), cols.end(), col_idx_[k]);
    PHMSE_CHECK(it != cols.end() && *it == col_idx_[k],
                "renumber_columns: a nonzero column is not listed");
    out.col_idx_[k] = static_cast<Index>(it - cols.begin());
  }
}

Index CsrBuilder::begin_row() {
  flush_row();
  in_row_ = true;
  return out_.rows();
}

void CsrBuilder::add(Index col, double value) {
  PHMSE_CHECK(in_row_, "add() requires an open row (call begin_row first)");
  PHMSE_CHECK(col >= 0 && col < cols_, "column index out of range");
  current_.emplace_back(col, value);
}

void CsrBuilder::flush_row() {
  if (!in_row_) return;
  std::sort(current_.begin(), current_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t k = 0; k < current_.size(); ++k) {
    if (k > 0 && current_[k].first == out_.col_idx_.back()) {
      out_.values_.back() += current_[k].second;  // merge duplicate column
    } else {
      out_.col_idx_.push_back(current_[k].first);
      out_.values_.push_back(current_[k].second);
    }
  }
  out_.row_ptr_.push_back(out_.values_.size());
  current_.clear();
  in_row_ = false;
}

Csr CsrBuilder::finish() {
  flush_row();
  out_.cols_ = cols_;
  Csr result = std::move(out_);
  out_ = Csr{};
  return result;
}

void CsrBuilder::finish_into(Csr& dst) {
  flush_row();
  out_.cols_ = cols_;
  dst.cols_ = out_.cols_;
  dst.row_ptr_.swap(out_.row_ptr_);
  dst.col_idx_.swap(out_.col_idx_);
  dst.values_.swap(out_.values_);
}

void CsrBuilder::reset(Index cols) {
  PHMSE_CHECK(cols >= 0, "column count must be >= 0");
  cols_ = cols;
  in_row_ = false;
  current_.clear();
  out_.cols_ = 0;
  out_.row_ptr_.clear();
  out_.row_ptr_.push_back(0);
  out_.col_idx_.clear();
  out_.values_.clear();
}

}  // namespace phmse::linalg
