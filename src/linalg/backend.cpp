#include "linalg/backend.hpp"

#include <array>

#include "linalg/blocked/blocked_kernels.hpp"
#include "linalg/ref/ref_kernels.hpp"
#include "linalg/simd/simd_kernels.hpp"
#include "support/check.hpp"
#include "support/cpu.hpp"
#include "support/env.hpp"

namespace phmse::linalg {
namespace {

// The sparse kernels (sparse_dense, innovation_covariance,
// gain_times_residual) are scalar row loops that double as their own
// reference, so the ref backend shares the blocked backend's pointers for
// them; the tiled primitives use the frozen linalg::ref oracle.
Backend make_ref() {
  Backend b{};
  b.name = "ref";
  b.simd_isa = "portable";
  b.sparse_dense = blocked::sparse_dense;
  b.innovation_covariance = blocked::innovation_covariance;
  b.trsm_lower = ref::trsm_lower;
  b.trsm_lower_transposed = ref::trsm_lower_transposed;
  b.gain_times_residual = blocked::gain_times_residual;
  b.covariance_downdate = ref::covariance_downdate;
  b.downdate_rows = ref::downdate_rows;
  b.gram = ref::gram;
  b.cholesky_factor = ref::cholesky_factor;
  b.delay_min_dim = 0;
  return b;
}

Backend make_blocked() {
  Backend b{};
  b.name = "blocked";
  b.simd_isa = "portable";
  b.sparse_dense = blocked::sparse_dense;
  b.innovation_covariance = blocked::innovation_covariance;
  b.trsm_lower = blocked::trsm_lower;
  b.trsm_lower_transposed = blocked::trsm_lower_transposed;
  b.gain_times_residual = blocked::gain_times_residual;
  b.covariance_downdate = blocked::covariance_downdate;
  b.downdate_rows = blocked::downdate_rows;
  b.gram = blocked::gram;
  b.cholesky_factor = blocked::cholesky_factor;
  b.delay_min_dim = 0;
  return b;
}

// Per-primitive fallback: when no microkernel set is usable the simd entry
// points would just detour through the scalar panels, so point straight at
// the blocked kernels instead.  innovation_covariance is gather-dominated
// (a handful of nonzeros per constraint row) with nothing to vectorize, so
// it always uses the blocked implementation.
Backend make_simd() {
  Backend b = make_blocked();
  b.name = "simd";
  b.simd_isa = simd::active_isa();
  if (simd::available()) {
    b.sparse_dense = simd::sparse_dense;
    b.trsm_lower = simd::trsm_lower;
    b.trsm_lower_transposed = simd::trsm_lower_transposed;
    b.gain_times_residual = simd::gain_times_residual;
    b.covariance_downdate = simd::covariance_downdate;
    b.downdate_rows = simd::downdate_rows;
    b.gram = simd::gram;
    b.cholesky_factor = simd::cholesky_factor;
    b.delay_min_dim = simd::delay_min_dim();
  }
  return b;
}

struct Registry {
  Backend ref_backend = make_ref();
  Backend blocked_backend = make_blocked();
  Backend simd_backend = make_simd();
  std::array<const Backend*, 3> list{&ref_backend, &blocked_backend,
                                     &simd_backend};
};

const Registry& registry() {
  static const Registry r;
  return r;
}

}  // namespace

std::span<const Backend* const> all_backends() {
  return {registry().list.data(), registry().list.size()};
}

const Backend* find_backend(std::string_view name) {
  for (const Backend* b : all_backends()) {
    if (name == b->name) return b;
  }
  return nullptr;
}

std::string backend_support_summary() {
  std::string s = "valid backends: ";
  bool first = true;
  for (const Backend* b : all_backends()) {
    if (!first) s += ", ";
    first = false;
    s += b->name;
  }
  s += " (simd microkernels: ";
  s += simd::active_isa();
  s += "; cpu: ";
  s += support::cpu_features().summary();
  s += ")";
  return s;
}

const Backend& backend_or_throw(std::string_view name, std::string_view who) {
  const Backend* b = find_backend(name);
  PHMSE_CHECK(b != nullptr, std::string(who) + ": unknown backend '" +
                                std::string(name) + "'; " +
                                backend_support_summary());
  return *b;
}

const Backend& default_backend() {
  static const Backend& b = []() -> const Backend& {
    const std::string env = env_string("PHMSE_BACKEND", "");
    if (!env.empty()) return backend_or_throw(env, "PHMSE_BACKEND");
    return simd::available() ? registry().simd_backend
                             : registry().blocked_backend;
  }();
  return b;
}

const Backend& resolve_backend(std::string_view name, std::string_view who) {
  if (name.empty()) return default_backend();
  return backend_or_throw(name, who);
}

}  // namespace phmse::linalg
