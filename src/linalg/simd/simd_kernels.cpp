#include "linalg/simd/simd_kernels.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/blas.hpp"
#include "linalg/blocked/blocked_kernels.hpp"
#include "linalg/detail/panel_algos.hpp"
#include "support/check.hpp"
#include "support/cpu.hpp"
#include "support/env.hpp"

#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
#define PHMSE_SIMD_X86 1
#include <immintrin.h>
#endif
#if defined(__ARM_NEON) || defined(__aarch64__)
#define PHMSE_SIMD_NEON 1
#include <arm_neon.h>
#endif

// Per-function target attributes: each microkernel set is compiled for its
// own ISA regardless of the translation unit's global -march flags, and the
// resolver below guarantees a set only runs on a CPU that has it.
#if PHMSE_SIMD_X86 && (defined(__GNUC__) || defined(__clang__))
#define PHMSE_TGT_AVX512 __attribute__((target("avx512f")))
#define PHMSE_TGT_AVX2 __attribute__((target("avx2,fma")))
#endif

namespace phmse::linalg::simd {
namespace {

using par::KernelStats;
using perf::Category;

constexpr double kBytes = 8.0;  // sizeof(double)

enum class Isa { kScalar, kAvx2, kAvx512, kNeon };

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kAvx512:
      return "avx512";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
    case Isa::kScalar:
      return "scalar";
  }
  return "scalar";
}

// A microkernel set is usable iff it is compiled into this binary and the
// running CPU supports it.
bool isa_usable(Isa isa) {
  const auto& f = support::cpu_features();
  switch (isa) {
#if PHMSE_SIMD_X86
    case Isa::kAvx512:
      return f.avx512f;  // the zmm tiles use only AVX-512F ops
    case Isa::kAvx2:
      return f.avx2 && f.fma;
#endif
#if PHMSE_SIMD_NEON
    case Isa::kNeon:
      return f.neon;
#endif
    case Isa::kScalar:
      return true;
    default:
      return false;
  }
}

Isa resolve_isa() {
  const std::string env = env_string("PHMSE_SIMD_ISA", "");
  if (!env.empty()) {
    Isa forced = Isa::kScalar;
    if (env == "avx512") {
      forced = Isa::kAvx512;
    } else if (env == "avx2") {
      forced = Isa::kAvx2;
    } else if (env == "neon") {
      forced = Isa::kNeon;
    } else {
      PHMSE_CHECK(env == "scalar",
                  "PHMSE_SIMD_ISA: unknown value '" + env +
                      "' (valid: avx512, avx2, neon, scalar)");
    }
    PHMSE_CHECK(isa_usable(forced),
                "PHMSE_SIMD_ISA=" + env +
                    ": microkernel set not available on this build/CPU "
                    "(detected: " +
                    support::cpu_features().summary() + ")");
    return forced;
  }
  if (isa_usable(Isa::kAvx512)) return Isa::kAvx512;
  if (isa_usable(Isa::kAvx2)) return Isa::kAvx2;
  if (isa_usable(Isa::kNeon)) return Isa::kNeon;
  return Isa::kScalar;
}

Isa active() {
  static const Isa isa = resolve_isa();
  return isa;
}

// ---------------------------------------------------------------------------
// GEMM panel microkernels.
//
// All variants compute, for each output element c(i, q),
//
//   c(i, q) = fma(alpha*a(i, kk-1), b(kk-1, q), ... fma(alpha*a(i, 0),
//             b(0, q), init) ...)        init = c(i, q), or 0.0 with `zero`
//
// — one FMA chain over strictly ascending k, the exact per-element
// expression of the blocked kernels (blas.cpp), so results are independent
// of the register tile an element lands in and bitwise stable across lane
// boundaries.  Coefficient addressing is generalized: a row's coefficients
// live at `a0 + r*ars`, stepping `aks` per k (ars=lda/aks=1 for A,
// ars=1/aks=lda for A^T), which lets one kernel serve the nn and tn panels.

#if PHMSE_SIMD_X86

// 4 C rows x 32 columns (4 zmm per row): 16 accumulators live across the
// whole reduction, 8 load micro-ops feed 16 FMAs per k step.
PHMSE_TGT_AVX512 void tile4_avx512(double alpha, const double* a0, Index ars,
                                   Index aks, const double* b, Index ldb,
                                   double* c0, Index ldc, Index kk, Index qn,
                                   bool zero) {
  const double* const a1 = a0 + ars;
  const double* const a2 = a1 + ars;
  const double* const a3 = a2 + ars;
  double* const c1 = c0 + ldc;
  double* const c2 = c1 + ldc;
  double* const c3 = c2 + ldc;
  Index q = 0;
  for (; q + 32 <= qn; q += 32) {
    __m512d r00, r01, r02, r03, r10, r11, r12, r13;
    __m512d r20, r21, r22, r23, r30, r31, r32, r33;
    if (zero) {
      r00 = r01 = r02 = r03 = _mm512_setzero_pd();
      r10 = r11 = r12 = r13 = _mm512_setzero_pd();
      r20 = r21 = r22 = r23 = _mm512_setzero_pd();
      r30 = r31 = r32 = r33 = _mm512_setzero_pd();
    } else {
      r00 = _mm512_loadu_pd(c0 + q);
      r01 = _mm512_loadu_pd(c0 + q + 8);
      r02 = _mm512_loadu_pd(c0 + q + 16);
      r03 = _mm512_loadu_pd(c0 + q + 24);
      r10 = _mm512_loadu_pd(c1 + q);
      r11 = _mm512_loadu_pd(c1 + q + 8);
      r12 = _mm512_loadu_pd(c1 + q + 16);
      r13 = _mm512_loadu_pd(c1 + q + 24);
      r20 = _mm512_loadu_pd(c2 + q);
      r21 = _mm512_loadu_pd(c2 + q + 8);
      r22 = _mm512_loadu_pd(c2 + q + 16);
      r23 = _mm512_loadu_pd(c2 + q + 24);
      r30 = _mm512_loadu_pd(c3 + q);
      r31 = _mm512_loadu_pd(c3 + q + 8);
      r32 = _mm512_loadu_pd(c3 + q + 16);
      r33 = _mm512_loadu_pd(c3 + q + 24);
    }
    for (Index k = 0; k < kk; ++k) {
      const double* const bk = b + k * ldb + q;
      const __m512d b0 = _mm512_loadu_pd(bk);
      const __m512d b1 = _mm512_loadu_pd(bk + 8);
      const __m512d b2 = _mm512_loadu_pd(bk + 16);
      const __m512d b3 = _mm512_loadu_pd(bk + 24);
      __m512d av = _mm512_set1_pd(alpha * a0[k * aks]);
      r00 = _mm512_fmadd_pd(av, b0, r00);
      r01 = _mm512_fmadd_pd(av, b1, r01);
      r02 = _mm512_fmadd_pd(av, b2, r02);
      r03 = _mm512_fmadd_pd(av, b3, r03);
      av = _mm512_set1_pd(alpha * a1[k * aks]);
      r10 = _mm512_fmadd_pd(av, b0, r10);
      r11 = _mm512_fmadd_pd(av, b1, r11);
      r12 = _mm512_fmadd_pd(av, b2, r12);
      r13 = _mm512_fmadd_pd(av, b3, r13);
      av = _mm512_set1_pd(alpha * a2[k * aks]);
      r20 = _mm512_fmadd_pd(av, b0, r20);
      r21 = _mm512_fmadd_pd(av, b1, r21);
      r22 = _mm512_fmadd_pd(av, b2, r22);
      r23 = _mm512_fmadd_pd(av, b3, r23);
      av = _mm512_set1_pd(alpha * a3[k * aks]);
      r30 = _mm512_fmadd_pd(av, b0, r30);
      r31 = _mm512_fmadd_pd(av, b1, r31);
      r32 = _mm512_fmadd_pd(av, b2, r32);
      r33 = _mm512_fmadd_pd(av, b3, r33);
    }
    _mm512_storeu_pd(c0 + q, r00);
    _mm512_storeu_pd(c0 + q + 8, r01);
    _mm512_storeu_pd(c0 + q + 16, r02);
    _mm512_storeu_pd(c0 + q + 24, r03);
    _mm512_storeu_pd(c1 + q, r10);
    _mm512_storeu_pd(c1 + q + 8, r11);
    _mm512_storeu_pd(c1 + q + 16, r12);
    _mm512_storeu_pd(c1 + q + 24, r13);
    _mm512_storeu_pd(c2 + q, r20);
    _mm512_storeu_pd(c2 + q + 8, r21);
    _mm512_storeu_pd(c2 + q + 16, r22);
    _mm512_storeu_pd(c2 + q + 24, r23);
    _mm512_storeu_pd(c3 + q, r30);
    _mm512_storeu_pd(c3 + q + 8, r31);
    _mm512_storeu_pd(c3 + q + 16, r32);
    _mm512_storeu_pd(c3 + q + 24, r33);
  }
  for (; q + 8 <= qn; q += 8) {
    __m512d r0, r1, r2, r3;
    if (zero) {
      r0 = r1 = r2 = r3 = _mm512_setzero_pd();
    } else {
      r0 = _mm512_loadu_pd(c0 + q);
      r1 = _mm512_loadu_pd(c1 + q);
      r2 = _mm512_loadu_pd(c2 + q);
      r3 = _mm512_loadu_pd(c3 + q);
    }
    for (Index k = 0; k < kk; ++k) {
      const __m512d bv = _mm512_loadu_pd(b + k * ldb + q);
      r0 = _mm512_fmadd_pd(_mm512_set1_pd(alpha * a0[k * aks]), bv, r0);
      r1 = _mm512_fmadd_pd(_mm512_set1_pd(alpha * a1[k * aks]), bv, r1);
      r2 = _mm512_fmadd_pd(_mm512_set1_pd(alpha * a2[k * aks]), bv, r2);
      r3 = _mm512_fmadd_pd(_mm512_set1_pd(alpha * a3[k * aks]), bv, r3);
    }
    _mm512_storeu_pd(c0 + q, r0);
    _mm512_storeu_pd(c1 + q, r1);
    _mm512_storeu_pd(c2 + q, r2);
    _mm512_storeu_pd(c3 + q, r3);
  }
  if (q < qn) {
    // Masked column tail: lanes past qn never load or store, and the fma on
    // a zeroed lane is dead, so the per-element chain is untouched.
    const __mmask8 mk =
        static_cast<__mmask8>((1u << static_cast<unsigned>(qn - q)) - 1u);
    __m512d r0, r1, r2, r3;
    if (zero) {
      r0 = r1 = r2 = r3 = _mm512_setzero_pd();
    } else {
      r0 = _mm512_maskz_loadu_pd(mk, c0 + q);
      r1 = _mm512_maskz_loadu_pd(mk, c1 + q);
      r2 = _mm512_maskz_loadu_pd(mk, c2 + q);
      r3 = _mm512_maskz_loadu_pd(mk, c3 + q);
    }
    for (Index k = 0; k < kk; ++k) {
      const __m512d bv = _mm512_maskz_loadu_pd(mk, b + k * ldb + q);
      r0 = _mm512_fmadd_pd(_mm512_set1_pd(alpha * a0[k * aks]), bv, r0);
      r1 = _mm512_fmadd_pd(_mm512_set1_pd(alpha * a1[k * aks]), bv, r1);
      r2 = _mm512_fmadd_pd(_mm512_set1_pd(alpha * a2[k * aks]), bv, r2);
      r3 = _mm512_fmadd_pd(_mm512_set1_pd(alpha * a3[k * aks]), bv, r3);
    }
    _mm512_mask_storeu_pd(c0 + q, mk, r0);
    _mm512_mask_storeu_pd(c1 + q, mk, r1);
    _mm512_mask_storeu_pd(c2 + q, mk, r2);
    _mm512_mask_storeu_pd(c3 + q, mk, r3);
  }
}

// Single-row remainder: 1 x 32 then 1 x 8 then a masked tail.
PHMSE_TGT_AVX512 void tile1_avx512(double alpha, const double* a0, Index aks,
                                   const double* b, Index ldb, double* c0,
                                   Index kk, Index qn, bool zero) {
  Index q = 0;
  for (; q + 32 <= qn; q += 32) {
    __m512d r0, r1, r2, r3;
    if (zero) {
      r0 = r1 = r2 = r3 = _mm512_setzero_pd();
    } else {
      r0 = _mm512_loadu_pd(c0 + q);
      r1 = _mm512_loadu_pd(c0 + q + 8);
      r2 = _mm512_loadu_pd(c0 + q + 16);
      r3 = _mm512_loadu_pd(c0 + q + 24);
    }
    for (Index k = 0; k < kk; ++k) {
      const double* const bk = b + k * ldb + q;
      const __m512d av = _mm512_set1_pd(alpha * a0[k * aks]);
      r0 = _mm512_fmadd_pd(av, _mm512_loadu_pd(bk), r0);
      r1 = _mm512_fmadd_pd(av, _mm512_loadu_pd(bk + 8), r1);
      r2 = _mm512_fmadd_pd(av, _mm512_loadu_pd(bk + 16), r2);
      r3 = _mm512_fmadd_pd(av, _mm512_loadu_pd(bk + 24), r3);
    }
    _mm512_storeu_pd(c0 + q, r0);
    _mm512_storeu_pd(c0 + q + 8, r1);
    _mm512_storeu_pd(c0 + q + 16, r2);
    _mm512_storeu_pd(c0 + q + 24, r3);
  }
  for (; q + 8 <= qn; q += 8) {
    __m512d r0 = zero ? _mm512_setzero_pd() : _mm512_loadu_pd(c0 + q);
    for (Index k = 0; k < kk; ++k) {
      r0 = _mm512_fmadd_pd(_mm512_set1_pd(alpha * a0[k * aks]),
                           _mm512_loadu_pd(b + k * ldb + q), r0);
    }
    _mm512_storeu_pd(c0 + q, r0);
  }
  if (q < qn) {
    const __mmask8 mk =
        static_cast<__mmask8>((1u << static_cast<unsigned>(qn - q)) - 1u);
    __m512d r0 = zero ? _mm512_setzero_pd() : _mm512_maskz_loadu_pd(mk, c0 + q);
    for (Index k = 0; k < kk; ++k) {
      r0 = _mm512_fmadd_pd(_mm512_set1_pd(alpha * a0[k * aks]),
                           _mm512_maskz_loadu_pd(mk, b + k * ldb + q), r0);
    }
    _mm512_mask_storeu_pd(c0 + q, mk, r0);
  }
}

// 4 C rows x 8 columns (2 ymm per row); AVX2 has 16 vector registers, so
// the tile is sized to keep the 8 accumulators plus B/broadcast temps
// resident.  Column remainders go through exact scalar std::fma chains.
PHMSE_TGT_AVX2 void tile4_avx2(double alpha, const double* a0, Index ars,
                               Index aks, const double* b, Index ldb,
                               double* c0, Index ldc, Index kk, Index qn,
                               bool zero) {
  const double* const a1 = a0 + ars;
  const double* const a2 = a1 + ars;
  const double* const a3 = a2 + ars;
  double* const c1 = c0 + ldc;
  double* const c2 = c1 + ldc;
  double* const c3 = c2 + ldc;
  Index q = 0;
  for (; q + 8 <= qn; q += 8) {
    __m256d r00, r01, r10, r11, r20, r21, r30, r31;
    if (zero) {
      r00 = r01 = _mm256_setzero_pd();
      r10 = r11 = _mm256_setzero_pd();
      r20 = r21 = _mm256_setzero_pd();
      r30 = r31 = _mm256_setzero_pd();
    } else {
      r00 = _mm256_loadu_pd(c0 + q);
      r01 = _mm256_loadu_pd(c0 + q + 4);
      r10 = _mm256_loadu_pd(c1 + q);
      r11 = _mm256_loadu_pd(c1 + q + 4);
      r20 = _mm256_loadu_pd(c2 + q);
      r21 = _mm256_loadu_pd(c2 + q + 4);
      r30 = _mm256_loadu_pd(c3 + q);
      r31 = _mm256_loadu_pd(c3 + q + 4);
    }
    for (Index k = 0; k < kk; ++k) {
      const double* const bk = b + k * ldb + q;
      const __m256d b0 = _mm256_loadu_pd(bk);
      const __m256d b1 = _mm256_loadu_pd(bk + 4);
      __m256d av = _mm256_set1_pd(alpha * a0[k * aks]);
      r00 = _mm256_fmadd_pd(av, b0, r00);
      r01 = _mm256_fmadd_pd(av, b1, r01);
      av = _mm256_set1_pd(alpha * a1[k * aks]);
      r10 = _mm256_fmadd_pd(av, b0, r10);
      r11 = _mm256_fmadd_pd(av, b1, r11);
      av = _mm256_set1_pd(alpha * a2[k * aks]);
      r20 = _mm256_fmadd_pd(av, b0, r20);
      r21 = _mm256_fmadd_pd(av, b1, r21);
      av = _mm256_set1_pd(alpha * a3[k * aks]);
      r30 = _mm256_fmadd_pd(av, b0, r30);
      r31 = _mm256_fmadd_pd(av, b1, r31);
    }
    _mm256_storeu_pd(c0 + q, r00);
    _mm256_storeu_pd(c0 + q + 4, r01);
    _mm256_storeu_pd(c1 + q, r10);
    _mm256_storeu_pd(c1 + q + 4, r11);
    _mm256_storeu_pd(c2 + q, r20);
    _mm256_storeu_pd(c2 + q + 4, r21);
    _mm256_storeu_pd(c3 + q, r30);
    _mm256_storeu_pd(c3 + q + 4, r31);
  }
  for (; q + 4 <= qn; q += 4) {
    __m256d r0, r1, r2, r3;
    if (zero) {
      r0 = r1 = r2 = r3 = _mm256_setzero_pd();
    } else {
      r0 = _mm256_loadu_pd(c0 + q);
      r1 = _mm256_loadu_pd(c1 + q);
      r2 = _mm256_loadu_pd(c2 + q);
      r3 = _mm256_loadu_pd(c3 + q);
    }
    for (Index k = 0; k < kk; ++k) {
      const __m256d bv = _mm256_loadu_pd(b + k * ldb + q);
      r0 = _mm256_fmadd_pd(_mm256_set1_pd(alpha * a0[k * aks]), bv, r0);
      r1 = _mm256_fmadd_pd(_mm256_set1_pd(alpha * a1[k * aks]), bv, r1);
      r2 = _mm256_fmadd_pd(_mm256_set1_pd(alpha * a2[k * aks]), bv, r2);
      r3 = _mm256_fmadd_pd(_mm256_set1_pd(alpha * a3[k * aks]), bv, r3);
    }
    _mm256_storeu_pd(c0 + q, r0);
    _mm256_storeu_pd(c1 + q, r1);
    _mm256_storeu_pd(c2 + q, r2);
    _mm256_storeu_pd(c3 + q, r3);
  }
  for (; q < qn; ++q) {
    double s0 = zero ? 0.0 : c0[q];
    double s1 = zero ? 0.0 : c1[q];
    double s2 = zero ? 0.0 : c2[q];
    double s3 = zero ? 0.0 : c3[q];
    for (Index k = 0; k < kk; ++k) {
      const double bv = b[k * ldb + q];
      s0 = std::fma(alpha * a0[k * aks], bv, s0);
      s1 = std::fma(alpha * a1[k * aks], bv, s1);
      s2 = std::fma(alpha * a2[k * aks], bv, s2);
      s3 = std::fma(alpha * a3[k * aks], bv, s3);
    }
    c0[q] = s0;
    c1[q] = s1;
    c2[q] = s2;
    c3[q] = s3;
  }
}

PHMSE_TGT_AVX2 void tile1_avx2(double alpha, const double* a0, Index aks,
                               const double* b, Index ldb, double* c0,
                               Index kk, Index qn, bool zero) {
  Index q = 0;
  for (; q + 8 <= qn; q += 8) {
    __m256d r0, r1;
    if (zero) {
      r0 = r1 = _mm256_setzero_pd();
    } else {
      r0 = _mm256_loadu_pd(c0 + q);
      r1 = _mm256_loadu_pd(c0 + q + 4);
    }
    for (Index k = 0; k < kk; ++k) {
      const double* const bk = b + k * ldb + q;
      const __m256d av = _mm256_set1_pd(alpha * a0[k * aks]);
      r0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(bk), r0);
      r1 = _mm256_fmadd_pd(av, _mm256_loadu_pd(bk + 4), r1);
    }
    _mm256_storeu_pd(c0 + q, r0);
    _mm256_storeu_pd(c0 + q + 4, r1);
  }
  for (; q + 4 <= qn; q += 4) {
    __m256d r0 = zero ? _mm256_setzero_pd() : _mm256_loadu_pd(c0 + q);
    for (Index k = 0; k < kk; ++k) {
      r0 = _mm256_fmadd_pd(_mm256_set1_pd(alpha * a0[k * aks]),
                           _mm256_loadu_pd(b + k * ldb + q), r0);
    }
    _mm256_storeu_pd(c0 + q, r0);
  }
  for (; q < qn; ++q) {
    double s0 = zero ? 0.0 : c0[q];
    for (Index k = 0; k < kk; ++k) {
      s0 = std::fma(alpha * a0[k * aks], b[k * ldb + q], s0);
    }
    c0[q] = s0;
  }
}

#endif  // PHMSE_SIMD_X86

#if PHMSE_SIMD_NEON

// 4 C rows x 4 columns (2 q-regs per row); AArch64 has 32 vector registers,
// so the 8 accumulators plus temps stay resident.
void tile4_neon(double alpha, const double* a0, Index ars, Index aks,
                const double* b, Index ldb, double* c0, Index ldc, Index kk,
                Index qn, bool zero) {
  const double* const a1 = a0 + ars;
  const double* const a2 = a1 + ars;
  const double* const a3 = a2 + ars;
  double* const c1 = c0 + ldc;
  double* const c2 = c1 + ldc;
  double* const c3 = c2 + ldc;
  Index q = 0;
  for (; q + 4 <= qn; q += 4) {
    float64x2_t r00, r01, r10, r11, r20, r21, r30, r31;
    if (zero) {
      r00 = r01 = vdupq_n_f64(0.0);
      r10 = r11 = vdupq_n_f64(0.0);
      r20 = r21 = vdupq_n_f64(0.0);
      r30 = r31 = vdupq_n_f64(0.0);
    } else {
      r00 = vld1q_f64(c0 + q);
      r01 = vld1q_f64(c0 + q + 2);
      r10 = vld1q_f64(c1 + q);
      r11 = vld1q_f64(c1 + q + 2);
      r20 = vld1q_f64(c2 + q);
      r21 = vld1q_f64(c2 + q + 2);
      r30 = vld1q_f64(c3 + q);
      r31 = vld1q_f64(c3 + q + 2);
    }
    for (Index k = 0; k < kk; ++k) {
      const double* const bk = b + k * ldb + q;
      const float64x2_t b0 = vld1q_f64(bk);
      const float64x2_t b1 = vld1q_f64(bk + 2);
      float64x2_t av = vdupq_n_f64(alpha * a0[k * aks]);
      r00 = vfmaq_f64(r00, av, b0);
      r01 = vfmaq_f64(r01, av, b1);
      av = vdupq_n_f64(alpha * a1[k * aks]);
      r10 = vfmaq_f64(r10, av, b0);
      r11 = vfmaq_f64(r11, av, b1);
      av = vdupq_n_f64(alpha * a2[k * aks]);
      r20 = vfmaq_f64(r20, av, b0);
      r21 = vfmaq_f64(r21, av, b1);
      av = vdupq_n_f64(alpha * a3[k * aks]);
      r30 = vfmaq_f64(r30, av, b0);
      r31 = vfmaq_f64(r31, av, b1);
    }
    vst1q_f64(c0 + q, r00);
    vst1q_f64(c0 + q + 2, r01);
    vst1q_f64(c1 + q, r10);
    vst1q_f64(c1 + q + 2, r11);
    vst1q_f64(c2 + q, r20);
    vst1q_f64(c2 + q + 2, r21);
    vst1q_f64(c3 + q, r30);
    vst1q_f64(c3 + q + 2, r31);
  }
  for (; q < qn; ++q) {
    double s0 = zero ? 0.0 : c0[q];
    double s1 = zero ? 0.0 : c1[q];
    double s2 = zero ? 0.0 : c2[q];
    double s3 = zero ? 0.0 : c3[q];
    for (Index k = 0; k < kk; ++k) {
      const double bv = b[k * ldb + q];
      s0 = std::fma(alpha * a0[k * aks], bv, s0);
      s1 = std::fma(alpha * a1[k * aks], bv, s1);
      s2 = std::fma(alpha * a2[k * aks], bv, s2);
      s3 = std::fma(alpha * a3[k * aks], bv, s3);
    }
    c0[q] = s0;
    c1[q] = s1;
    c2[q] = s2;
    c3[q] = s3;
  }
}

void tile1_neon(double alpha, const double* a0, Index aks, const double* b,
                Index ldb, double* c0, Index kk, Index qn, bool zero) {
  Index q = 0;
  for (; q + 4 <= qn; q += 4) {
    float64x2_t r0, r1;
    if (zero) {
      r0 = r1 = vdupq_n_f64(0.0);
    } else {
      r0 = vld1q_f64(c0 + q);
      r1 = vld1q_f64(c0 + q + 2);
    }
    for (Index k = 0; k < kk; ++k) {
      const double* const bk = b + k * ldb + q;
      const float64x2_t av = vdupq_n_f64(alpha * a0[k * aks]);
      r0 = vfmaq_f64(r0, av, vld1q_f64(bk));
      r1 = vfmaq_f64(r1, av, vld1q_f64(bk + 2));
    }
    vst1q_f64(c0 + q, r0);
    vst1q_f64(c0 + q + 2, r1);
  }
  for (; q < qn; ++q) {
    double s0 = zero ? 0.0 : c0[q];
    for (Index k = 0; k < kk; ++k) {
      s0 = std::fma(alpha * a0[k * aks], b[k * ldb + q], s0);
    }
    c0[q] = s0;
  }
}

#endif  // PHMSE_SIMD_NEON

using Tile4Fn = void (*)(double, const double*, Index, Index, const double*,
                         Index, double*, Index, Index, Index, bool);
using Tile1Fn = void (*)(double, const double*, Index, const double*, Index,
                         double*, Index, Index, bool);

// Strip-mined driver shared by every microkernel set: columns in
// kGemmColStrip L1 strips (the kk x strip B panel stays resident across row
// tiles), rows in tiles of 4 with a single-row remainder.
void panel_driver(Tile4Fn t4, Tile1Fn t1, double alpha, const double* a,
                  Index ars, Index aks, const double* b, Index ldb, double* c,
                  Index ldc, Index mm, Index kk, Index nn, bool zero) {
  if (mm <= 0 || nn <= 0) return;
  if (kk <= 0) {
    if (zero) {
      for (Index i = 0; i < mm; ++i) {
        std::fill(c + i * ldc, c + i * ldc + nn, 0.0);
      }
    }
    return;
  }
  for (Index q0 = 0; q0 < nn; q0 += kGemmColStrip) {
    const Index qn = std::min(nn - q0, kGemmColStrip);
    const double* const bq = b + q0;
    double* const cq = c + q0;
    Index i0 = 0;
    for (; i0 + 4 <= mm; i0 += 4) {
      t4(alpha, a + i0 * ars, ars, aks, bq, ldb, cq + i0 * ldc, ldc, kk, qn,
         zero);
    }
    for (; i0 < mm; ++i0) {
      t1(alpha, a + i0 * ars, aks, bq, ldb, cq + i0 * ldc, kk, qn, zero);
    }
  }
}

// One GEMM panel with the given microkernel set; kScalar falls back to the
// blocked panels from blas.cpp (same per-element chains).
void gemm_panel(Isa isa, bool trans, bool zero, double alpha, const double* a,
                Index lda, const double* b, Index ldb, double* c, Index ldc,
                Index mm, Index kk, Index nn) {
  const Index ars = trans ? 1 : lda;
  const Index aks = trans ? lda : 1;
  switch (isa) {
#if PHMSE_SIMD_X86
    case Isa::kAvx512:
      panel_driver(tile4_avx512, tile1_avx512, alpha, a, ars, aks, b, ldb, c,
                   ldc, mm, kk, nn, zero);
      return;
    case Isa::kAvx2:
      panel_driver(tile4_avx2, tile1_avx2, alpha, a, ars, aks, b, ldb, c,
                   ldc, mm, kk, nn, zero);
      return;
#endif
#if PHMSE_SIMD_NEON
    case Isa::kNeon:
      panel_driver(tile4_neon, tile1_neon, alpha, a, ars, aks, b, ldb, c,
                   ldc, mm, kk, nn, zero);
      return;
#endif
    default:
      break;
  }
  if (!zero) {
    if (trans) {
      gemm_tn_acc(alpha, a, lda, b, ldb, c, ldc, mm, kk, nn);
    } else {
      gemm_nn_acc(alpha, a, lda, b, ldb, c, ldc, mm, kk, nn);
    }
  } else {
    PHMSE_CHECK(trans, "simd: overwriting nn panel is not used");
    gemm_tn_zero_acc(alpha, a, lda, b, ldb, c, ldc, mm, kk, nn);
  }
}

// ---------------------------------------------------------------------------
// Packed rank-k covariance downdate (AVX-512).
//
// The rank-m panel above re-reads its whole k x strip B panel once per
// 4-row tile and holds only 4 x 32 elements of C in registers.  The packed
// tile makes fewer passes over C at any rank: 8 rows x 24 columns of C
// live in 24 zmm accumulators through the whole reduction, each k step is
// 3 loads of W and 24 fmas whose coefficients -W(k, i) are broadcast from
// an 8-wide k-major pack, and column blocks of kPackCols columns are the
// outer loop so the k x kPackCols block of W stays in L2 while every row
// tile of the lane sweeps it.  Each element is fma(-W(k, i), W(k, j), acc)
// over ascending k from acc = C(i, j): the panel's chain, so the lower
// triangle is bitwise the panel's at every rank.

#if PHMSE_SIMD_X86

// Column block: 20 tiles of 24 columns.  The k x 480 block of W is 240 KB
// at k = 64, well inside L2.
constexpr Index kPackCols = 480;
// Reduction chunk: the pack holds at most kPackK x 8 coefficients (16 KB,
// on the stack); longer reductions store C between chunks, which leaves
// every chain untouched.
constexpr Index kPackK = 256;

// C[0..8) x [0..qn) += pack^T W over kk reduction steps, qn <= 24.  Masked
// lanes never load or store, so a partial tile keeps the same chains.
PHMSE_TGT_AVX512 void packed_tile8x24_avx512(const double* pack,
                                             const double* w, Index ldw,
                                             double* c, Index ldc, Index kk,
                                             Index qn) {
  auto mask = [](Index cols) -> __mmask8 {
    if (cols >= 8) return 0xFF;
    if (cols <= 0) return 0;
    return static_cast<__mmask8>((1u << static_cast<unsigned>(cols)) - 1u);
  };
  const __mmask8 m0 = mask(qn);
  const __mmask8 m1 = mask(qn - 8);
  const __mmask8 m2 = mask(qn - 16);
  __m512d acc[8][3];
#pragma GCC unroll 8
  for (int r = 0; r < 8; ++r) {
    const double* cr = c + r * ldc;
    acc[r][0] = _mm512_maskz_loadu_pd(m0, cr);
    acc[r][1] = _mm512_maskz_loadu_pd(m1, cr + 8);
    acc[r][2] = _mm512_maskz_loadu_pd(m2, cr + 16);
  }
  for (Index k = 0; k < kk; ++k) {
    const double* const wk = w + k * ldw;
    const __m512d b0 = _mm512_maskz_loadu_pd(m0, wk);
    const __m512d b1 = _mm512_maskz_loadu_pd(m1, wk + 8);
    const __m512d b2 = _mm512_maskz_loadu_pd(m2, wk + 16);
    const double* const pk = pack + 8 * k;
#pragma GCC unroll 8
    for (int r = 0; r < 8; ++r) {
      const __m512d a = _mm512_set1_pd(pk[r]);
      acc[r][0] = _mm512_fmadd_pd(a, b0, acc[r][0]);
      acc[r][1] = _mm512_fmadd_pd(a, b1, acc[r][1]);
      acc[r][2] = _mm512_fmadd_pd(a, b2, acc[r][2]);
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < 8; ++r) {
    double* cr = c + r * ldc;
    _mm512_mask_storeu_pd(cr, m0, acc[r][0]);
    _mm512_mask_storeu_pd(cr + 8, m1, acc[r][1]);
    _mm512_mask_storeu_pd(cr + 16, m2, acc[r][2]);
  }
}

#endif  // PHMSE_SIMD_X86

// ---------------------------------------------------------------------------
// Vectorized axpy (y[i] = fma(a, x[i], y[i])) for the streaming kernels.

#if PHMSE_SIMD_X86

PHMSE_TGT_AVX512 void axpy_avx512(double a, const double* x, double* y,
                                  Index n) {
  const __m512d av = _mm512_set1_pd(a);
  Index i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_pd(
        y + i, _mm512_fmadd_pd(av, _mm512_loadu_pd(x + i),
                               _mm512_loadu_pd(y + i)));
    _mm512_storeu_pd(
        y + i + 8, _mm512_fmadd_pd(av, _mm512_loadu_pd(x + i + 8),
                                   _mm512_loadu_pd(y + i + 8)));
  }
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(
        y + i, _mm512_fmadd_pd(av, _mm512_loadu_pd(x + i),
                               _mm512_loadu_pd(y + i)));
  }
  if (i < n) {
    const __mmask8 mk =
        static_cast<__mmask8>((1u << static_cast<unsigned>(n - i)) - 1u);
    _mm512_mask_storeu_pd(
        y + i, mk,
        _mm512_fmadd_pd(av, _mm512_maskz_loadu_pd(mk, x + i),
                        _mm512_maskz_loadu_pd(mk, y + i)));
  }
}

PHMSE_TGT_AVX2 void axpy_avx2(double a, const double* x, double* y, Index n) {
  const __m256d av = _mm256_set1_pd(a);
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_pd(
        y + i, _mm256_fmadd_pd(av, _mm256_loadu_pd(x + i),
                               _mm256_loadu_pd(y + i)));
    _mm256_storeu_pd(
        y + i + 4, _mm256_fmadd_pd(av, _mm256_loadu_pd(x + i + 4),
                                   _mm256_loadu_pd(y + i + 4)));
  }
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_fmadd_pd(av, _mm256_loadu_pd(x + i),
                               _mm256_loadu_pd(y + i)));
  }
  for (; i < n; ++i) y[i] = std::fma(a, x[i], y[i]);
}

#endif  // PHMSE_SIMD_X86

#if PHMSE_SIMD_NEON

void axpy_neon(double a, const double* x, double* y, Index n) {
  const float64x2_t av = vdupq_n_f64(a);
  Index i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f64(y + i, vfmaq_f64(vld1q_f64(y + i), av, vld1q_f64(x + i)));
    vst1q_f64(y + i + 2,
              vfmaq_f64(vld1q_f64(y + i + 2), av, vld1q_f64(x + i + 2)));
  }
  for (; i < n; ++i) y[i] = std::fma(a, x[i], y[i]);
}

#endif  // PHMSE_SIMD_NEON

void axpy_scalar_fma(double a, const double* x, double* y, Index n) {
  for (Index i = 0; i < n; ++i) y[i] = std::fma(a, x[i], y[i]);
}

using AxpyFn = void (*)(double, const double*, double*, Index);

AxpyFn axpy_for(Isa isa) {
  switch (isa) {
#if PHMSE_SIMD_X86
    case Isa::kAvx512:
      return axpy_avx512;
    case Isa::kAvx2:
      return axpy_avx2;
#endif
#if PHMSE_SIMD_NEON
    case Isa::kNeon:
      return axpy_neon;
#endif
    default:
      return axpy_scalar_fma;
  }
}

AxpyFn axpy_fma() {
  static const AxpyFn fn = axpy_for(active());
  return fn;
}

// ---------------------------------------------------------------------------
// Register forms of the m-sized batch steps: G = H C (d-s), S = G H^T + R
// (m-m), the Cholesky panel of S = L L^T (chol) and the diagonal blocks of
// W = L^{-1} G (sys).  At the batch size m = 16 these steps are small —
// a few nonzeros per row of H, an m x m S, m-row triangles — and their
// scalar loops round-trip every partial result through memory.  The forms
// below hold the partial results in vector registers across a whole chain
// instead; each output element keeps the exact operation chain named in
// simd_kernels.hpp, so they are bitwise the loops they replace.

#if PHMSE_SIMD_X86

// Lanes [0, cols) of an 8-lane mask, cols clamped to [0, 8].
inline __mmask8 lane_mask(Index cols) {
  if (cols >= 8) return 0xFF;
  if (cols <= 0) return 0;
  return static_cast<__mmask8>((1u << static_cast<unsigned>(cols)) - 1u);
}

// One row of G = H C: g[q] = fma(h_k, c(col_k, q), .) over the row's
// nonzeros in stored order from +0.0.  32 columns (4 zmm) stay in
// registers across the nonzeros and are stored once, then 8, then a masked
// tail; a row without nonzeros stores +0.0.
PHMSE_TGT_AVX512 void sparse_row_avx512(const Index* idx, const double* val,
                                        Index nnz, const double* c,
                                        Index ldc, double* g, Index n) {
  Index q = 0;
  for (; q + 32 <= n; q += 32) {
    __m512d r0 = _mm512_setzero_pd();
    __m512d r1 = r0, r2 = r0, r3 = r0;
    for (Index k = 0; k < nnz; ++k) {
      const double* const ck = c + idx[k] * ldc + q;
      const __m512d hv = _mm512_set1_pd(val[k]);
      r0 = _mm512_fmadd_pd(hv, _mm512_loadu_pd(ck), r0);
      r1 = _mm512_fmadd_pd(hv, _mm512_loadu_pd(ck + 8), r1);
      r2 = _mm512_fmadd_pd(hv, _mm512_loadu_pd(ck + 16), r2);
      r3 = _mm512_fmadd_pd(hv, _mm512_loadu_pd(ck + 24), r3);
    }
    _mm512_storeu_pd(g + q, r0);
    _mm512_storeu_pd(g + q + 8, r1);
    _mm512_storeu_pd(g + q + 16, r2);
    _mm512_storeu_pd(g + q + 24, r3);
  }
  for (; q < n; q += 8) {
    const __mmask8 mk = lane_mask(n - q);
    __m512d r0 = _mm512_setzero_pd();
    for (Index k = 0; k < nnz; ++k) {
      r0 = _mm512_fmadd_pd(_mm512_set1_pd(val[k]),
                           _mm512_maskz_loadu_pd(mk, c + idx[k] * ldc + q),
                           r0);
    }
    _mm512_mask_storeu_pd(g + q, mk, r0);
  }
}

// sparse_row_avx512 on AVX2: 16 columns (4 ymm) in registers, then 4,
// then scalar fma for the last columns.
PHMSE_TGT_AVX2 void sparse_row_avx2(const Index* idx, const double* val,
                                    Index nnz, const double* c, Index ldc,
                                    double* g, Index n) {
  Index q = 0;
  for (; q + 16 <= n; q += 16) {
    __m256d r0 = _mm256_setzero_pd();
    __m256d r1 = r0, r2 = r0, r3 = r0;
    for (Index k = 0; k < nnz; ++k) {
      const double* const ck = c + idx[k] * ldc + q;
      const __m256d hv = _mm256_set1_pd(val[k]);
      r0 = _mm256_fmadd_pd(hv, _mm256_loadu_pd(ck), r0);
      r1 = _mm256_fmadd_pd(hv, _mm256_loadu_pd(ck + 4), r1);
      r2 = _mm256_fmadd_pd(hv, _mm256_loadu_pd(ck + 8), r2);
      r3 = _mm256_fmadd_pd(hv, _mm256_loadu_pd(ck + 12), r3);
    }
    _mm256_storeu_pd(g + q, r0);
    _mm256_storeu_pd(g + q + 4, r1);
    _mm256_storeu_pd(g + q + 8, r2);
    _mm256_storeu_pd(g + q + 12, r3);
  }
  for (; q + 4 <= n; q += 4) {
    __m256d r0 = _mm256_setzero_pd();
    for (Index k = 0; k < nnz; ++k) {
      r0 = _mm256_fmadd_pd(_mm256_set1_pd(val[k]),
                           _mm256_loadu_pd(c + idx[k] * ldc + q), r0);
    }
    _mm256_storeu_pd(g + q, r0);
  }
  for (; q < n; ++q) {
    double acc = 0.0;
    for (Index k = 0; k < nnz; ++k) {
      acc = std::fma(val[k], c[idx[k] * ldc + q], acc);
    }
    g[q] = acc;
  }
}

// acc + x * y as the portable scalar loops compute it (kFusedScalarChains).
PHMSE_TGT_AVX512 inline __m512d dot_step_avx512(__m512d x, __m512d y,
                                                __m512d acc) {
  if constexpr (kFusedScalarChains) {
    return _mm512_fmadd_pd(x, y, acc);
  } else {
    return _mm512_add_pd(acc, _mm512_mul_pd(x, y));
  }
}

// Rows [begin, end) of S = G H^T + R.  Lanes run over 8 rows j of G and
// gather G(j, col_k) at H row l's indices: s(j, l) accumulates h_k *
// g(j, col_k) over the H row in stored order from +0.0 (dot_step_avx512),
// is scattered into column l of S, and r_j is added to the diagonal last.
PHMSE_TGT_AVX512 void innovation_rows_avx512(const Matrix& g, const Csr& h,
                                             const Vector& r_diag, Matrix& s,
                                             Index begin, Index end) {
  const Index m = h.rows();
  alignas(64) long long goff[8];
  alignas(64) long long soff[8];
  for (int lane = 0; lane < 8; ++lane) {
    goff[lane] = static_cast<long long>(lane) * g.cols();
    soff[lane] = static_cast<long long>(lane) * m;
  }
  const __m512i gv_off = _mm512_load_si512(goff);
  const __m512i sv_off = _mm512_load_si512(soff);
  for (Index j0 = begin; j0 < end; j0 += 8) {
    const __mmask8 mk = lane_mask(end - j0);
    const double* const g0 = g.data() + j0 * g.cols();
    double* const s0 = s.data() + j0 * m;
    for (Index l = 0; l < m; ++l) {
      const auto idx = h.row_indices(l);
      const auto val = h.row_values(l);
      __m512d acc = _mm512_setzero_pd();
      for (std::size_t k = 0; k < idx.size(); ++k) {
        const __m512d gv = _mm512_mask_i64gather_pd(
            _mm512_setzero_pd(), mk, gv_off, g0 + idx[k], 8);
        acc = dot_step_avx512(_mm512_set1_pd(val[k]), gv, acc);
      }
      _mm512_mask_i64scatter_pd(s0 + l, mk, sv_off, acc, 8);
    }
  }
  for (Index j = begin; j < end; ++j) {
    s(j, j) += r_diag[static_cast<std::size_t>(j)];
  }
}

// Largest diagonal block the register Cholesky panel takes: the block size
// BatchUpdater factors S with.  The block's column-major copy,
// kCholPanelMax^2 doubles (18 KB), lives on the stack.
constexpr Index kCholPanelMax = 48;

// detail::cholesky_factor_panel over a zero-filled column-major copy of
// the block's lower triangle, so the rows below a pivot are contiguous:
// column j is computed in the aligned 8-row groups from the pivot's down,
// lane i accumulating a(i, p) * a(j, p) over ascending p from +0.0
// (dot_step_avx512 — linalg::dot's chain), then a(i, j) - s and the
// multiply by 1 / d.  The pivot's group holds the diagonal's own dot in
// the pivot's lane; the lanes above it are kept zero.  Full aligned
// stores let the next column's loads of the same groups forward from
// them.  On a failed pivot the finished columns are written back first,
// leaving A as the scalar panel leaves it.
PHMSE_TGT_AVX512 Index chol_panel_avx512(Matrix& a, Index k, Index b) {
  const Index lda = a.cols();
  double* const base = a.data() + k * lda + k;
  const Index ldt = (b + 7) / 8 * 8;
  alignas(64) double t[kCholPanelMax * kCholPanelMax];
  std::fill(t, t + ldt * b, 0.0);
  for (Index i = 0; i < b; ++i) {
    for (Index p = 0; p <= i; ++p) t[p * ldt + i] = base[i * lda + p];
  }
  auto write_back = [&](Index cols) {
    for (Index i = 0; i < b; ++i) {
      for (Index p = 0; p < std::min(i + 1, cols); ++p) {
        base[i * lda + p] = t[p * ldt + i];
      }
    }
  };
  for (Index j = 0; j < b; ++j) {
    double* const tj = t + j * ldt;
    const Index g0 = j / 8 * 8;
    __m512d inv = _mm512_setzero_pd();
    for (Index i0 = g0; i0 < b; i0 += 8) {
      __m512d acc = _mm512_setzero_pd();
      for (Index p = 0; p < j; ++p) {
        acc = dot_step_avx512(_mm512_load_pd(t + p * ldt + i0),
                              _mm512_set1_pd(t[p * ldt + j]), acc);
      }
      __m512d v = _mm512_sub_pd(_mm512_load_pd(tj + i0), acc);
      if (i0 == g0) {
        const unsigned lane = static_cast<unsigned>(j - g0);
        const auto pivot = static_cast<__mmask8>(1u << lane);
        const auto below = static_cast<__mmask8>(0xFFu << lane);
        const double d = _mm512_cvtsd_f64(_mm512_maskz_compress_pd(pivot, v));
        if (!(d > 0.0)) {
          write_back(j);
          return k + j;
        }
        const double root = std::sqrt(d);
        inv = _mm512_set1_pd(1.0 / root);
        v = _mm512_maskz_mov_pd(
            below, _mm512_mask_blend_pd(pivot, _mm512_mul_pd(v, inv),
                                        _mm512_set1_pd(root)));
      } else {
        v = _mm512_mul_pd(v, inv);
      }
      _mm512_store_pd(tj + i0, v);
    }
  }
  write_back(b);
  return -1;
}

// Rows of the register forward substitution: 16 rows of an 8-column strip
// of B stay in 16 zmm through a whole diagonal block.
constexpr Index kTrsmRegRows = 16;

// B <- L^{-1} B for the h <= H rows of one 8-column strip (lanes mk),
// right-looking in registers.  coef is H x H: coef[i * H + p] = -L(i, p)
// below the diagonal, 1 / L(i, i) on it, zero past row h.  Row i receives
// fma(-L(i, p), B(p, q), .) for ascending p and then the multiply by
// 1 / L(i, i): forward_substitute_block's chain.  Rows past h load row
// h - 1 (any finite values do: they never reach a real row) and store
// nothing, so the block is straight-line code.  Not inlined, so the
// coefficients are broadcast from coef at each fma instead of hoisted out
// of the strip loop as H^2/2 spilled vectors.
template <int H>
__attribute__((noinline)) PHMSE_TGT_AVX512 void trsm_strip_avx512(
    const double* coef, Index h, double* b, Index ldb, __mmask8 mk) {
  __m512d r[H];
#pragma GCC unroll 16
  for (int i = 0; i < H; ++i) {
    r[i] = _mm512_maskz_loadu_pd(mk, b + std::min<Index>(i, h - 1) * ldb);
  }
#pragma GCC unroll 16
  for (int p = 0; p < H; ++p) {
    r[p] = _mm512_mul_pd(r[p], _mm512_set1_pd(coef[p * H + p]));
#pragma GCC unroll 16
    for (int i = 1; i < H; ++i) {
      if (i > p) {
        r[i] = _mm512_fmadd_pd(_mm512_set1_pd(coef[i * H + p]), r[p], r[i]);
      }
    }
  }
#pragma GCC unroll 16
  for (int i = 0; i < H; ++i) {
    _mm512_mask_storeu_pd(b + i * ldb, i < h ? mk : __mmask8{0}, r[i]);
  }
}

template <int H>
PHMSE_TGT_AVX512 void trsm_block_avx512(const double* l, Index ldl,
                                        double* b, Index ldb, Index h,
                                        Index width) {
  alignas(64) double coef[H * H] = {};
  for (Index i = 0; i < h; ++i) {
    for (Index p = 0; p < i; ++p) coef[i * H + p] = -l[i * ldl + p];
    coef[i * H + i] = 1.0 / l[i * ldl + i];
  }
  for (Index q = 0; q < width; q += 8) {
    trsm_strip_avx512<H>(coef, h, b + q, ldb, lane_mask(width - q));
  }
}

// Panels::trsm_diag on AVX-512: the block in register sub-blocks of up to
// kTrsmRegRows rows, each first receiving the rows above it through the
// nn panel (the same fma chain).
PHMSE_TGT_AVX512 void trsm_diag_avx512(const double* l, Index ldl, double* b,
                                       Index ldb, Index bs, Index width) {
  for (Index s0 = 0; s0 < bs; s0 += kTrsmRegRows) {
    const Index h = std::min(kTrsmRegRows, bs - s0);
    double* const bs0 = b + s0 * ldb;
    if (s0 > 0) {
      gemm_panel(Isa::kAvx512, /*trans=*/false, /*zero=*/false, -1.0,
                 l + s0 * ldl, ldl, b, ldb, bs0, ldb, h, s0, width);
    }
    const double* const ls0 = l + s0 * ldl + s0;
    if (h <= 8) {
      trsm_block_avx512<8>(ls0, ldl, bs0, ldb, h, width);
    } else {
      trsm_block_avx512<16>(ls0, ldl, bs0, ldb, h, width);
    }
  }
}

// trsm_strip_avx512 on AVX2: h <= H rows of a 4-column strip in ymm, rows
// past h loading row h - 1 and storing nothing.
template <int H>
__attribute__((noinline)) PHMSE_TGT_AVX2 void trsm_strip_avx2(
    const double* coef, Index h, double* b, Index ldb) {
  __m256d r[H];
#pragma GCC unroll 16
  for (int i = 0; i < H; ++i) {
    r[i] = _mm256_loadu_pd(b + std::min<Index>(i, h - 1) * ldb);
  }
#pragma GCC unroll 16
  for (int p = 0; p < H; ++p) {
    r[p] = _mm256_mul_pd(r[p], _mm256_set1_pd(coef[p * H + p]));
#pragma GCC unroll 16
    for (int i = 1; i < H; ++i) {
      if (i > p) {
        r[i] = _mm256_fmadd_pd(_mm256_set1_pd(coef[i * H + p]), r[p], r[i]);
      }
    }
  }
#pragma GCC unroll 16
  for (int i = 0; i < H; ++i) {
    if (i < h) _mm256_storeu_pd(b + i * ldb, r[i]);
  }
}

// trsm_diag_avx512 on AVX2: register sub-blocks of 8 rows and 4-column
// strips; the last width % 4 columns run forward_substitute_block.
PHMSE_TGT_AVX2 void trsm_diag_avx2(const double* l, Index ldl, double* b,
                                   Index ldb, Index bs, Index width) {
  constexpr int kRows = 8;
  const Index vec_width = width / 4 * 4;
  for (Index s0 = 0; s0 < bs; s0 += kRows) {
    const Index h = std::min<Index>(kRows, bs - s0);
    double* const bs0 = b + s0 * ldb;
    if (s0 > 0) {
      gemm_panel(Isa::kAvx2, /*trans=*/false, /*zero=*/false, -1.0,
                 l + s0 * ldl, ldl, b, ldb, bs0, ldb, h, s0, vec_width);
    }
    const double* const ls0 = l + s0 * ldl + s0;
    alignas(32) double coef[kRows * kRows] = {};
    for (Index i = 0; i < h; ++i) {
      for (Index p = 0; p < i; ++p) coef[i * kRows + p] = -ls0[i * ldl + p];
      coef[i * kRows + i] = 1.0 / ls0[i * ldl + i];
    }
    for (Index q = 0; q < vec_width; q += 4) {
      trsm_strip_avx2<kRows>(coef, h, bs0 + q, ldb);
    }
  }
  if (vec_width < width) {
    detail::forward_substitute_block(l, ldl, b + vec_width, ldb, bs,
                                     width - vec_width);
  }
}

#endif  // PHMSE_SIMD_X86

// The detail/panel_algos.hpp Panels policy over one microkernel set.
template <Isa kIsa>
struct IsaPanels {
  static void nn_acc(double alpha, const double* a, Index lda,
                     const double* b, Index ldb, double* c, Index ldc,
                     Index mm, Index kk, Index nn) {
    gemm_panel(kIsa, /*trans=*/false, /*zero=*/false, alpha, a, lda, b, ldb,
               c, ldc, mm, kk, nn);
  }
  static void tn_acc(double alpha, const double* a, Index lda,
                     const double* b, Index ldb, double* c, Index ldc,
                     Index mm, Index kk, Index nn) {
    gemm_panel(kIsa, /*trans=*/true, /*zero=*/false, alpha, a, lda, b, ldb,
               c, ldc, mm, kk, nn);
  }
  static void tn_zero_acc(double alpha, const double* a, Index lda,
                          const double* b, Index ldb, double* c, Index ldc,
                          Index mm, Index kk, Index nn) {
    gemm_panel(kIsa, /*trans=*/true, /*zero=*/true, alpha, a, lda, b, ldb, c,
               ldc, mm, kk, nn);
  }
  static void trsm_diag(const double* l, Index ldl, double* b, Index ldb,
                        Index bs, Index width) {
#if PHMSE_SIMD_X86
    if constexpr (kIsa == Isa::kAvx512) {
      trsm_diag_avx512(l, ldl, b, ldb, bs, width);
      return;
    } else if constexpr (kIsa == Isa::kAvx2) {
      trsm_diag_avx2(l, ldl, b, ldb, bs, width);
      return;
    }
#endif
    detail::forward_substitute_block(l, ldl, b, ldb, bs, width);
  }
  static Index chol_panel(Matrix& a, Index k, Index b) {
#if PHMSE_SIMD_X86
    if constexpr (kIsa == Isa::kAvx512) {
      if (b <= kCholPanelMax) return chol_panel_avx512(a, k, b);
    }
#endif
    return detail::cholesky_factor_panel(a, k, b);
  }
};

// Calls f(IsaPanels<isa>{}), instantiating the panel drivers once per set.
template <class F>
decltype(auto) with_panels(Isa isa, F&& f) {
  switch (isa) {
#if PHMSE_SIMD_X86
    case Isa::kAvx512:
      return f(IsaPanels<Isa::kAvx512>{});
    case Isa::kAvx2:
      return f(IsaPanels<Isa::kAvx2>{});
#endif
#if PHMSE_SIMD_NEON
    case Isa::kNeon:
      return f(IsaPanels<Isa::kNeon>{});
#endif
    default:
      return f(IsaPanels<Isa::kScalar>{});
  }
}

using SparseRowFn = void (*)(const Index*, const double*, Index,
                             const double*, Index, double*, Index);

// The register form of one G row for `isa`; null where the set keeps the
// per-nonzero axpy.
SparseRowFn sparse_row_for(Isa isa) {
  switch (isa) {
#if PHMSE_SIMD_X86
    case Isa::kAvx512:
      return sparse_row_avx512;
    case Isa::kAvx2:
      return sparse_row_avx2;
#endif
    default:
      return nullptr;
  }
}

void sparse_dense_isa(Isa isa, par::ExecContext& ctx, const Csr& h,
                      const Matrix& c, Matrix& g) {
  PHMSE_CHECK(h.cols() == c.rows(), "sparse_dense: dimension mismatch");
  const Index m = h.rows();
  const Index n = c.cols();

  auto cost = [&](Index begin, Index end) {
    KernelStats st;
    double nnz = 0.0;
    for (Index j = begin; j < end; ++j) nnz += static_cast<double>(h.row_nnz(j));
    st.flops = 2.0 * nnz * static_cast<double>(n);
    st.bytes_stream = kBytes * static_cast<double>((end - begin) * n);
    st.bytes_irregular = kBytes * nnz * static_cast<double>(n);
    return st;
  };
  if (const SparseRowFn row = sparse_row_for(isa)) {
    g.resize(m, n);  // every entry is stored below
    ctx.parallel(Category::kDenseSparse, m, cost,
                 [&](Index begin, Index end, int /*lane*/) {
                   for (Index j = begin; j < end; ++j) {
                     const auto idx = h.row_indices(j);
                     row(idx.data(), h.row_values(j).data(),
                         static_cast<Index>(idx.size()), c.data(), c.cols(),
                         g.row(j).data(), n);
                   }
                 });
    return;
  }
  g.resize_zero(m, n);
  const AxpyFn axpy = axpy_for(isa);
  auto body = [&](Index begin, Index end, int /*lane*/) {
    for (Index j = begin; j < end; ++j) {
      double* grow = g.row(j).data();
      const auto idx = h.row_indices(j);
      const auto val = h.row_values(j);
      for (std::size_t k = 0; k < idx.size(); ++k) {
        axpy(val[k], c.row(idx[k]).data(), grow, n);
      }
    }
  };
  ctx.parallel(Category::kDenseSparse, m, cost, body);
}

void innovation_covariance_isa(Isa isa, par::ExecContext& ctx,
                               const Matrix& g, const Csr& h,
                               const Vector& r_diag, Matrix& s) {
#if PHMSE_SIMD_X86
  if (isa == Isa::kAvx512) {
    PHMSE_CHECK(g.rows() == h.rows() && g.cols() == h.cols(),
                "innovation_covariance: G/H shape mismatch");
    PHMSE_CHECK(static_cast<Index>(r_diag.size()) == h.rows(),
                "innovation_covariance: noise diagonal size mismatch");
    const Index m = h.rows();
    s.resize(m, m);  // every entry is stored below

    // blocked::innovation_covariance's accounting.
    auto cost = [&](Index begin, Index end) {
      KernelStats st;
      st.flops = 2.0 * static_cast<double>(end - begin) *
                 static_cast<double>(h.nnz());
      st.bytes_stream = kBytes * static_cast<double>((end - begin) * g.cols());
      st.bytes_irregular =
          kBytes * static_cast<double>((end - begin) * h.nnz());
      return st;
    };
    ctx.parallel(Category::kMatMat, m, cost,
                 [&](Index begin, Index end, int /*lane*/) {
                   innovation_rows_avx512(g, h, r_diag, s, begin, end);
                 });
    return;
  }
#endif
  (void)isa;
  blocked::innovation_covariance(ctx, g, h, r_diag, s);
}

Isa isa_by_name(std::string_view isa, const char* who) {
  Isa resolved = Isa::kScalar;
  if (isa == "avx512") {
    resolved = Isa::kAvx512;
  } else if (isa == "avx2") {
    resolved = Isa::kAvx2;
  } else if (isa == "neon") {
    resolved = Isa::kNeon;
  } else {
    PHMSE_CHECK(isa == "scalar", std::string(who) + ": unknown ISA name");
  }
  PHMSE_CHECK(isa_usable(resolved),
              std::string(who) + ": ISA not usable on this build/CPU");
  return resolved;
}

#if PHMSE_SIMD_X86

// The packed tile over the rows [lo, hi) of one lane, restricted to the
// column block [j0, j1): full 8-row tiles through packed_tile8x24_avx512,
// a short last tile through the panel (same chains).  Only columns up to
// each tile's last row are touched, as in covariance_downdate_impl.
PHMSE_TGT_AVX512 void packed_block_rows(const Matrix& w, Matrix& c,
                                        Index lo, Index hi, Index j0,
                                        Index j1, double* pack) {
  const Index kk = w.rows();
  const Index n = c.rows();
  const double* const wd = w.data();
  for (Index i0 = lo; i0 < hi; i0 += 8) {
    const Index rows = std::min<Index>(8, hi - i0);
    const Index jend = std::min(j1, i0 + rows);
    if (jend <= j0) continue;
    double* const ct = c.row(i0).data();
    if (rows < 8) {
      gemm_panel(Isa::kAvx512, /*trans=*/true, /*zero=*/false, -1.0,
                 wd + i0, n, wd + j0, n, ct + j0, n, rows, kk, jend - j0);
      continue;
    }
    for (Index k0 = 0; k0 < kk; k0 += kPackK) {
      const Index kc = std::min(kPackK, kk - k0);
      for (Index k = 0; k < kc; ++k) {
        const double* const src = wd + (k0 + k) * n + i0;
        for (int r = 0; r < 8; ++r) pack[8 * k + r] = -src[r];
      }
      for (Index q = j0; q < jend; q += 24) {
        packed_tile8x24_avx512(pack, wd + k0 * n + q, n, ct + q, n, kc,
                               std::min<Index>(24, jend - q));
      }
    }
  }
}

void packed_downdate(par::ExecContext& ctx, const Matrix& w, Matrix& c) {
  PHMSE_CHECK(c.rows() == c.cols() && c.rows() == w.cols(),
              "covariance_downdate: C shape mismatch");
  const Index kk = w.rows();
  const Index n = c.rows();

  auto cost = [&](Index begin, Index end) {
    KernelStats st;
    double entries = 0.0;
    double rows = 0.0;
    detail::for_pair_rows(n, begin, end, [&](Index lo, Index hi) {
      entries += detail::lower_entries(lo, hi);
      rows += static_cast<double>(hi - lo);
    });
    st.flops = 2.0 * static_cast<double>(kk) * entries;
    // C's lower entries read+written once; W's compulsory traffic once.
    st.bytes_stream =
        kBytes * (2.0 * entries +
                  static_cast<double>(kk) * static_cast<double>(n));
    // The k x kPackCols block of W stays resident while every 8-row tile
    // sweeps it.
    st.resident_bytes = kBytes * static_cast<double>(kk) *
                        static_cast<double>(std::min(n, kPackCols));
    st.resident_sweeps = rows / 8.0;
    return st;
  };
  auto body = [&](Index begin, Index end, int /*lane*/) {
    alignas(64) double pack[kPackK * 8];
    Index ranges[2][2];
    int count = 0;
    Index top = 0;
    detail::for_pair_rows(n, begin, end, [&](Index lo, Index hi) {
      ranges[count][0] = lo;
      ranges[count][1] = hi;
      ++count;
      top = std::max(top, hi);
    });
    for (Index j0 = 0; j0 < top; j0 += kPackCols) {
      const Index j1 = std::min(j0 + kPackCols, top);
      for (int r = 0; r < count; ++r) {
        packed_block_rows(w, c, ranges[r][0], ranges[r][1], j0, j1, pack);
      }
    }
  };
  ctx.parallel(Category::kMatVec, detail::row_pairs(n), cost, body);
}

#endif  // PHMSE_SIMD_X86

}  // namespace

const char* active_isa() { return isa_name(active()); }

bool available() { return active() != Isa::kScalar; }

Index delay_min_dim() { return active() == Isa::kAvx512 ? kDelayMinDim : 0; }

void sparse_dense(par::ExecContext& ctx, const Csr& h, const Matrix& c,
                  Matrix& g) {
  sparse_dense_isa(active(), ctx, h, c, g);
}

void innovation_covariance(par::ExecContext& ctx, const Matrix& g,
                           const Csr& h, const Vector& r_diag, Matrix& s) {
  innovation_covariance_isa(active(), ctx, g, h, r_diag, s);
}

void trsm_lower(par::ExecContext& ctx, const Matrix& l, Matrix& b) {
  with_panels(active(), [&](auto panels) {
    detail::trsm_impl<decltype(panels)>(ctx, l, b);
  });
}

void gain_times_residual(par::ExecContext& ctx, const Matrix& v,
                         const Vector& r, Vector& dx) {
  PHMSE_CHECK(static_cast<Index>(r.size()) == v.rows(),
              "gain_times_residual: residual size mismatch");
  PHMSE_CHECK(static_cast<Index>(dx.size()) == v.cols(),
              "gain_times_residual: output size mismatch");
  const Index m = v.rows();
  const AxpyFn axpy = axpy_fma();

  auto cost = [&](Index begin, Index end) {
    KernelStats st;
    const double cols = static_cast<double>(end - begin);
    st.flops = 2.0 * cols * static_cast<double>(m);
    st.bytes_stream = kBytes * cols * static_cast<double>(m);
    return st;
  };
  auto body = [&](Index begin, Index end, int /*lane*/) {
    const Index width = end - begin;
    if (width <= 0) return;
    double* const out = dx.data() + begin;
    for (Index j = 0; j < m; ++j) {
      axpy(r[static_cast<std::size_t>(j)], v.row(j).data() + begin, out,
           width);
    }
  };
  ctx.parallel(Category::kMatVec, v.cols(), cost, body);
}

void covariance_downdate(par::ExecContext& ctx, const Matrix& w, Matrix& c) {
#if PHMSE_SIMD_X86
  if (active() == Isa::kAvx512) {
    packed_downdate(ctx, w, c);
    return;
  }
#endif
  with_panels(active(), [&](auto panels) {
    detail::covariance_downdate_impl<decltype(panels)>(ctx, w, c);
  });
}

void downdate_rows(par::ExecContext& ctx, const Matrix& a, const Matrix& w,
                   Matrix& t) {
  with_panels(active(), [&](auto panels) {
    detail::downdate_rows_impl<decltype(panels)>(ctx, a, w, t);
  });
}

void gram(par::ExecContext& ctx, const Matrix& w, Matrix& out) {
  with_panels(active(), [&](auto panels) {
    detail::gram_impl<decltype(panels)>(ctx, w, out);
  });
}

CholeskyResult cholesky_factor(par::ExecContext& ctx, Matrix& a,
                               Index block_size) {
  return with_panels(active(), [&](auto panels) {
    return detail::cholesky_factor_impl<decltype(panels)>(ctx, a,
                                                          block_size);
  });
}

std::vector<std::string> testable_isas() {
  std::vector<std::string> out;
  for (const Isa isa : {Isa::kAvx512, Isa::kAvx2, Isa::kNeon}) {
    if (isa_usable(isa)) out.emplace_back(isa_name(isa));
  }
  return out;
}

void gemm_panel_for_isa(std::string_view isa, bool trans, bool zero,
                        double alpha, const double* a, Index lda,
                        const double* b, Index ldb, double* c, Index ldc,
                        Index mm, Index kk, Index nn) {
  gemm_panel(isa_by_name(isa, "gemm_panel_for_isa"), trans, zero, alpha, a,
             lda, b, ldb, c, ldc, mm, kk, nn);
}

void sparse_dense_for_isa(std::string_view isa, par::ExecContext& ctx,
                          const Csr& h, const Matrix& c, Matrix& g) {
  sparse_dense_isa(isa_by_name(isa, "sparse_dense_for_isa"), ctx, h, c, g);
}

void innovation_covariance_for_isa(std::string_view isa,
                                   par::ExecContext& ctx, const Matrix& g,
                                   const Csr& h, const Vector& r_diag,
                                   Matrix& s) {
  innovation_covariance_isa(isa_by_name(isa, "innovation_covariance_for_isa"),
                            ctx, g, h, r_diag, s);
}

void trsm_lower_for_isa(std::string_view isa, par::ExecContext& ctx,
                        const Matrix& l, Matrix& b) {
  with_panels(isa_by_name(isa, "trsm_lower_for_isa"), [&](auto panels) {
    detail::trsm_impl<decltype(panels)>(ctx, l, b);
  });
}

CholeskyResult cholesky_factor_for_isa(std::string_view isa,
                                       par::ExecContext& ctx, Matrix& a,
                                       Index block_size) {
  return with_panels(
      isa_by_name(isa, "cholesky_factor_for_isa"), [&](auto panels) {
        return detail::cholesky_factor_impl<decltype(panels)>(ctx, a,
                                                              block_size);
      });
}

}  // namespace phmse::linalg::simd
