// Status types for the non-throwing numerical-kernel entry points.
//
// The fault-tolerance layer (DESIGN.md §9) needs to observe a failed
// factorization without unwinding through the executor, so every Cholesky
// kernel (each backend's cholesky_factor, blas.hpp's cholesky_factor_serial)
// returns a CholeskyResult.  A caller that cannot go on without the factor
// checks it itself; blas.hpp's cholesky_serial is the one throwing wrapper.
#pragma once

#include "support/types.hpp"

namespace phmse::linalg {

/// Outcome of a Cholesky factorization attempt.  On failure the matrix is
/// left partially factored (columns before the failing pivot are final);
/// callers that intend to retry must re-form the input.
struct [[nodiscard]] CholeskyResult {
  /// Index of the first pivot whose diagonal was not strictly positive
  /// (the matrix is not numerically SPD there), or -1 on success.  A NaN
  /// diagonal — e.g. from non-finite input — also reports as this pivot.
  Index failed_pivot = -1;

  bool ok() const { return failed_pivot < 0; }
  explicit operator bool() const { return ok(); }
};

}  // namespace phmse::linalg
