// The linalg backend registry: runtime dispatch for the dense kernel layer.
//
// A Backend is a function-pointer table over the hot kernels of the Fig.-1
// update procedure (see kernels.hpp for the category mapping).  Three
// implementations are registered:
//
//   ref     — the frozen scalar oracle (linalg/ref); slow, trustworthy,
//             never optimized.  The differential gate for everything else.
//   blocked — the portable cache-blocked, register-tiled kernels
//             (linalg/blocked); the former hard-wired implementation.
//   simd    — explicit AVX-512/AVX2/NEON microkernels (linalg/simd); any
//             primitive whose microkernel set is missing on this CPU falls
//             back to the blocked implementation, so `simd` is always
//             selectable.
//
// Selection: default_backend() picks the best available implementation,
// overridable per process with PHMSE_BACKEND=ref|blocked|simd and per solve
// via core::HierSolveOptions::backend.
// Unknown names fail fast with the valid names and this CPU's features.
//
// Determinism contract (DESIGN.md §12): every backend is run-to-run
// deterministic and bitwise serial-vs-threaded identical *within itself*;
// agreement *across* backends is differential against `ref` (FMA and
// vector-width effects mean bitwise cross-backend equality is not
// guaranteed).  A solve's backend is resolved once at plan build, so a
// compiled plan never mixes backends mid-run.
//
// A future external-BLAS or GPU backend plugs in by filling another Backend
// table (device staging hidden behind the pointers) and adding it to the
// registry list in backend.cpp.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "linalg/csr.hpp"
#include "linalg/matrix.hpp"
#include "linalg/status.hpp"
#include "parallel/exec.hpp"

namespace phmse::linalg {

/// Function-pointer table for one kernel implementation.  All pointers are
/// always non-null; fallback resolution happens at registration.
struct Backend {
  /// Registry name ("ref", "blocked", "simd").
  const char* name;

  /// For the simd backend, the microkernel set it resolved to ("avx512",
  /// "avx2", "neon", or "scalar" when everything fell back to blocked);
  /// "portable" for the scalar/blocked backends.
  const char* simd_isa;

  /// G = H * C for H: m x t sparse and C: t x n (square for the plain
  /// sweep, the gathered rows of C for a delayed one).
  void (*sparse_dense)(par::ExecContext&, const Csr&, const Matrix&,
                       Matrix&);
  void (*innovation_covariance)(par::ExecContext&, const Matrix&, const Csr&,
                                const Vector&, Matrix&);
  void (*trsm_lower)(par::ExecContext&, const Matrix&, Matrix&);
  void (*trsm_lower_transposed)(par::ExecContext&, const Matrix&, Matrix&);
  void (*gain_times_residual)(par::ExecContext&, const Matrix&, const Vector&,
                              Vector&);
  /// C -= W^T W, the symmetric downdate of the Fig.-1 sweep.  Only the
  /// lower triangle (i >= j) is guaranteed current afterwards; the strict
  /// upper triangle is unspecified.  blocked and simd update rows i >= j
  /// only, through each row tile's diagonal block, with the per-element fma
  /// chain of the full panel; ref keeps its frozen full update as the
  /// oracle.  simd on AVX-512 runs ranks >= 32 through a packed 8 x 24
  /// tile over column blocks, with the same per-element chain.  Callers
  /// that need C whole mirror the lower triangle (kernels.hpp,
  /// mirror_lower).
  void (*covariance_downdate)(par::ExecContext&, const Matrix&, Matrix&);
  /// T -= A^T W for A: k x t, W: k x n and T: t x n, each element through
  /// covariance_downdate's own per-element chain — the pending downdates of
  /// a delayed sweep replayed over rows of C gathered into T.  With
  /// A(l, s) = W(l, r_s), row s of T then holds bitwise row r_s of C as
  /// downdating C by W would leave it: entries j <= r_s are the lower
  /// triangle's (r_s, j), and entries j > r_s equal its mirror (j, r_s),
  /// which sums the same exact products.  blocked and simd run their tn
  /// panel, ref its row axpy.  Category: vec.
  void (*downdate_rows)(par::ExecContext&, const Matrix& a, const Matrix& w,
                        Matrix& t);
  void (*gram)(par::ExecContext&, const Matrix&, Matrix&);
  CholeskyResult (*cholesky_factor)(par::ExecContext&, Matrix&,
                                    Index block_size);

  /// Smallest state dimension whose BatchUpdater::apply_all sweeps delay
  /// C's downdates (estimation/update.hpp): each applied batch's W is
  /// queued and every four batches flush as one rank-4m
  /// covariance_downdate, bitwise equal to the eager sweep.  0 means never
  /// delay.  The delay pays only with a kernel that turns the extra rank
  /// into fewer passes over C, so only simd sets it, and only when its
  /// AVX-512 set (the packed rank >= 32 tile) is active.
  Index delay_min_dim;
};

/// All registered backends, in registry order (ref, blocked, simd).
std::span<const Backend* const> all_backends();

/// Looks up a backend by name; nullptr when unknown.
const Backend* find_backend(std::string_view name);

/// Looks up a backend by name, failing fast on an unknown name with a
/// message listing the valid backends and which ones this CPU supports
/// natively.  `who` names the configuration source for the error text
/// (e.g. "PHMSE_BACKEND" or "HierSolveOptions.backend").
const Backend& backend_or_throw(std::string_view name, std::string_view who);

/// The process-default backend: PHMSE_BACKEND when set (fails fast on an
/// unknown value), otherwise the best available implementation (simd when
/// any microkernel set is usable on this CPU, else blocked).  Resolved once
/// and cached.
const Backend& default_backend();

/// Resolves an options-level backend name: empty means default_backend(),
/// anything else goes through backend_or_throw(name, who).
const Backend& resolve_backend(std::string_view name, std::string_view who);

/// One-line human-readable support summary, e.g.
/// "valid backends: ref, blocked, simd (simd microkernels: avx512; cpu:
/// avx2 fma avx512f)".  Used in selection errors and diagnostics.
std::string backend_support_summary();

}  // namespace phmse::linalg
