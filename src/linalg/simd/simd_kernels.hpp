// The `simd` backend: explicit vector microkernels for the gemm panel
// primitives, the streaming sparse kernels and the m-sized batch steps.
//
// Three microkernel sets are compiled (subject to target architecture):
//
//   * AVX-512F — 4 row x 4 zmm (32-column) register tiles, masked tails,
//     plus register forms of the batch steps (d-s, m-m, chol, sys; see
//     the kernels below);
//   * AVX2+FMA — 4 row x 2 ymm (8-column) register tiles, scalar tails;
//   * NEON     — 4 row x 2 q-reg (4-column) tiles (AArch64 only).
//
// On x86 every set is built with per-function target attributes, so the
// binary contains all of them regardless of the global -march flags; which
// one runs is picked once at startup from support::cpu_features() (the
// AVX-512 set needs avx512f, the AVX2 set needs avx2+fma).  When no set is
// usable the backend registry falls back to the blocked kernels
// per-primitive, so selecting `simd` is always safe.
//
// Determinism contract (see DESIGN.md §12): every microkernel accumulates
// each output element as one FMA chain over strictly ascending k — the same
// per-element expression as the blocked kernels — so each variant is
// bitwise serial-vs-threaded deterministic, and the panel results are even
// bitwise equal to the blocked backend's.  The streaming kernels
// (sparse_dense, gain_times_residual) use explicit-FMA axpy loops, which
// may differ from the blocked scalar kernels by FMA-contraction round-off;
// cross-backend agreement is therefore differential, not bitwise.  The
// AVX-512 batch forms (sparse_dense, innovation_covariance and the trsm and
// Cholesky diagonal blocks) keep, element by element, the chain of the
// loop they replace, so they are bitwise that loop on every executor.
//
// The environment variable PHMSE_SIMD_ISA=avx512|avx2|neon|scalar forces a
// specific microkernel set (it must be compiled in and supported by the
// CPU); this is how CI runs the AVX2 tiles under sanitizers on AVX-512
// hosts.  An unknown or unsupported value fails fast.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "linalg/csr.hpp"
#include "linalg/matrix.hpp"
#include "linalg/status.hpp"
#include "parallel/exec.hpp"

namespace phmse::linalg::simd {

/// The state dimension from which apply_all delays its downdates on the
/// AVX-512 set (Backend::delay_min_dim).  Chosen by the kernels_regress
/// apply_all_root4 row pairs at n in {1020, 1536, 2046, 2697}: the smallest
/// n where the delayed sweep beat the eager one in every run (EXPERIMENTS.md).
inline constexpr Index kDelayMinDim = 2046;

/// The microkernel set this process resolved to: "avx512", "avx2", "neon",
/// or "scalar" (no usable set; the registry bypasses these kernels then).
/// Resolved once at first use and cached.
const char* active_isa();

/// True when a vector microkernel set is usable (active_isa() != "scalar").
bool available();

/// Backend::delay_min_dim for this process: kDelayMinDim when the AVX-512
/// set (and with it the packed downdate tile) is active, else 0.
Index delay_min_dim();

/// Whether this build's portable `s += a * b` loops run fused.  GCC and
/// Clang contract such a loop into one fma per step exactly when the build
/// targets FMA (the Release -march=native build on an FMA host) and leave a
/// multiply and an add otherwise (the portable sanitizer builds).  The
/// blocked m-m loop and linalg::dot, which the Cholesky panel's dots call,
/// are such loops; the AVX-512 m-m and Cholesky forms follow this flag, in
/// a translation unit built with -ffp-contract=off, so they stay bitwise
/// those loops in either build.
#if defined(__FP_FAST_FMA)
inline constexpr bool kFusedScalarChains = true;
#else
inline constexpr bool kFusedScalarChains = false;
#endif

/// G = H * C (H: m x t, C: t x n).  Chain: g(j, q) = fma(h_k, c(col_k, q), .)
/// over row j's nonzeros in stored order, from +0.0.  On AVX-512 each row
/// accumulates 32-column strips in registers and stores them once (no
/// zeroing pass); the other sets zero G and run one axpy per nonzero.
/// Category: d-s.
void sparse_dense(par::ExecContext& ctx, const Csr& h, const Matrix& c,
                  Matrix& g);

/// S = G * H^T + diag(r) (G: m x n, H: m x n sparse).  Chain: s(j, l)
/// accumulates h_k * g(j, col_k) over H row l in stored order from +0.0 —
/// fused when kFusedScalarChains, else a multiply then an add — then r_j
/// is added on the diagonal: blocked::innovation_covariance's loop.  On
/// AVX-512 lanes run over 8 rows of G and gather its columns at the H row's
/// indices; the other sets run the blocked loop.  Category: m-m.
void innovation_covariance(par::ExecContext& ctx, const Matrix& g,
                           const Csr& h, const Vector& r_diag, Matrix& s);

/// In-place forward solve B <- L^{-1} B; blocked structure with simd GEMM
/// panels.  Chain: b(i, q) receives fma(-L(i, p), b(p, q), .) for
/// ascending p, then a multiply by 1 / L(i, i).  On AVX-512 each diagonal
/// block is solved right-looking with up to 16 rows of an 8-column strip
/// in registers.  Category: sys.
void trsm_lower(par::ExecContext& ctx, const Matrix& l, Matrix& b);

/// dx += V^T r with vectorized row axpy.  Category: m-v.
void gain_times_residual(par::ExecContext& ctx, const Matrix& v,
                         const Vector& r, Vector& dx);

/// C -= W^T * W on the lower triangle (backend.hpp).  Chain: c(i, j)
/// receives fma(-W(k, i), W(k, j), .) over ascending k, from C(i, j).  On
/// AVX-512 every rank runs the packed 8 x 24 tile over column blocks, a
/// lane's last row tile of fewer than 8 rows the panel; the other sets run
/// rank-m panel updates.  Category: m-v.
void covariance_downdate(par::ExecContext& ctx, const Matrix& w, Matrix& c);

/// T -= A^T * W with the simd tn panel (backend.hpp).  Category: vec.
void downdate_rows(par::ExecContext& ctx, const Matrix& a, const Matrix& w,
                   Matrix& t);

/// out = W^T * W with simd panels and strip-wise zero-init.  Category: m-m.
void gram(par::ExecContext& ctx, const Matrix& w, Matrix& out);

/// In-place blocked Cholesky with simd trailing-update panels.  Returns the
/// failing pivot instead of throwing — see status.hpp.  The diagonal-block
/// panel keeps detail::cholesky_factor_panel's chain: s = linalg::dot's
/// chain over the panel's earlier columns from 0.0, d = a(j, j) - s with
/// the same !(d > 0) failing pivot, sqrt(d), and (a(i, j) - s) * (1 / d)
/// below the pivot.  On AVX-512 panels of up to 48 rows run vectorized
/// over the rows below the pivot.  Category: chol.
[[nodiscard]] CholeskyResult cholesky_factor(par::ExecContext& ctx, Matrix& a,
                                             Index block_size = 48);

// -- test hooks -------------------------------------------------------------

/// Microkernel sets compiled into this binary AND usable on this CPU
/// (subset of {"avx512", "avx2", "neon"}); the differential suite iterates
/// these so every shipped variant is tested where hardware allows, not just
/// the one active_isa() picked.
std::vector<std::string> testable_isas();

/// Runs one GEMM panel (C += alpha * op(A) * B, or overwriting with
/// `zero`) with a specific microkernel set from testable_isas().
/// op(A) = A (mm x kk, lda) when !trans; A^T with A stored kk x mm (lda)
/// when trans.  Fails fast on an unusable ISA name.
void gemm_panel_for_isa(std::string_view isa, bool trans, bool zero,
                        double alpha, const double* a, Index lda,
                        const double* b, Index ldb, double* c, Index ldc,
                        Index mm, Index kk, Index nn);

/// The batch kernels above (sparse_dense, innovation_covariance,
/// trsm_lower, cholesky_factor) run with a specific microkernel set from
/// testable_isas() (or "scalar") instead of active_isa(), for per-ISA pins.
/// Fail fast on an unusable ISA name.
void sparse_dense_for_isa(std::string_view isa, par::ExecContext& ctx,
                          const Csr& h, const Matrix& c, Matrix& g);
void innovation_covariance_for_isa(std::string_view isa,
                                   par::ExecContext& ctx, const Matrix& g,
                                   const Csr& h, const Vector& r_diag,
                                   Matrix& s);
void trsm_lower_for_isa(std::string_view isa, par::ExecContext& ctx,
                        const Matrix& l, Matrix& b);
[[nodiscard]] CholeskyResult cholesky_factor_for_isa(std::string_view isa,
                                                     par::ExecContext& ctx,
                                                     Matrix& a,
                                                     Index block_size);

}  // namespace phmse::linalg::simd
