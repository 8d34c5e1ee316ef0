// Perf-regression harness for the dense kernel backends.
//
// Times every gemm-panel kernel and the streaming sparse kernels under each
// registered backend — `simd` (explicit vector microkernels), `blocked`
// (portable register-tiled) and `ref` (frozen scalar oracle) — over the hot
// shapes of the Fig.-1 update and the Fig.-3 combination, then writes the
// machine-readable BENCH_kernels.json consumed by scripts/bench_check.py.
// Each row calls through the named backend's dispatch table, so the
// measurements are pinned regardless of PHMSE_BACKEND or what default
// dispatch resolves to.
//
// Two row sets justify the delayed sweep of estimation/update.hpp:
// covariance_downdate at rank 64 (one flush of four rank-16 batches) beside
// rank 16 at the ribo30S root's n = 2697, and the apply_all_root4_delayed /
// apply_all_root4_eager pair, one apply_all sweep of four root-shaped
// batches through a copy of the simd table that always delays and one that
// never does.  linalg::simd::kDelayMinDim is the smallest n where the
// delayed row wins.
// Run from the repository root so the JSON lands next to the committed
// baseline:
//
//   ./build/bench/kernels_regress            # writes BENCH_kernels.json
//   ./build/bench/kernels_regress out.json   # explicit output path
//
// Honours PHMSE_BENCH_SCALE (< 0.5 switches to tiny smoke shapes for CI)
// and PHMSE_BENCH_SEED.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "constraints/set.hpp"
#include "estimation/state.hpp"
#include "estimation/update.hpp"
#include "linalg/backend.hpp"
#include "linalg/blas.hpp"
#include "linalg/csr.hpp"
#include "linalg/simd/simd_kernels.hpp"
#include "parallel/exec.hpp"
#include "parallel/team.hpp"
#include "support/check.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"

namespace phmse::bench {
namespace {

using linalg::Backend;
using linalg::Matrix;

Matrix random_matrix(Index rows, Index cols, Rng& rng) {
  Matrix m(rows, cols);
  for (Index i = 0; i < rows; ++i) {
    for (Index j = 0; j < cols; ++j) m(i, j) = rng.gaussian();
  }
  return m;
}

Matrix random_spd(Index n, Rng& rng) {
  const Matrix a = random_matrix(n, n, rng);
  Matrix s = linalg::matmul(a, linalg::transpose(a));
  for (Index i = 0; i < n; ++i) s(i, i) += static_cast<double>(n);
  return s;
}

// An m x n Jacobian with 6 nonzeros per row, the pattern of a distance
// constraint.
linalg::Csr random_jacobian(Index m, Index n, Rng& rng) {
  linalg::CsrBuilder b(n);
  for (Index i = 0; i < m; ++i) {
    b.begin_row();
    for (int k = 0; k < 6; ++k) b.add(rng.uniform_int(0, n - 1), rng.gaussian());
  }
  return b.finish();
}

// A root-shaped node: n / 3 atoms on a line under a unit prior (state
// dimensions are multiples of 3), and
// `count` distance constraints between random atom pairs spanning the whole
// molecule, as the boundary constraints a hierarchy leaves to its root.
struct RootSweep {
  est::NodeState start;
  cons::ConstraintSet set;

  RootSweep(Index n, Index count, Rng& rng) {
    const Index atoms = n / 3;
    start.atom_begin = 0;
    start.atom_end = atoms;
    start.x.resize(static_cast<std::size_t>(3 * atoms));
    for (Index a = 0; a < atoms; ++a) {
      start.x[static_cast<std::size_t>(3 * a)] = 1.5 * static_cast<double>(a);
      start.x[static_cast<std::size_t>(3 * a + 1)] = rng.gaussian(0.0, 0.5);
      start.x[static_cast<std::size_t>(3 * a + 2)] = rng.gaussian(0.0, 0.5);
    }
    start.reset_covariance(1.0);
    for (Index i = 0; i < count; ++i) {
      cons::Constraint c;
      c.kind = cons::Kind::kDistance;
      const Index a = rng.uniform_int(0, atoms - 2);
      const Index b = rng.uniform_int(a + 1, atoms - 1);
      c.atoms = {a, b, 0, 0};
      c.observed = 1.5 * static_cast<double>(b - a) + rng.gaussian(0.0, 0.2);
      c.variance = 0.04;
      set.add(c);
    }
  }
};

// Runs `fn(ctx)` under a SerialContext (threads == 1) or a TeamContext.
template <class Fn>
void with_context(int threads, const Fn& fn) {
  if (threads <= 1) {
    par::SerialContext ctx;
    fn(ctx);
  } else {
    par::ThreadPool pool(threads);
    par::TeamContext team(pool, 0, threads);
    fn(team);
  }
}

struct Harness {
  std::vector<KernelBenchRecord> records;

  // Times one (kernel, impl, shape, threads) configuration.
  void run(const std::string& kernel, const std::string& impl, Index m,
           Index n, int threads, double flops, double bytes,
           const std::function<void(par::ExecContext&)>& body) {
    KernelBenchRecord rec;
    rec.kernel = kernel;
    rec.impl = impl;
    rec.m = m;
    rec.n = n;
    rec.threads = threads;
    rec.flops = flops;
    rec.bytes = bytes;
    with_context(threads, [&](par::ExecContext& ctx) {
      rec.seconds = time_best([&] { body(ctx); }, 3, &rec.reps);
    });
    records.push_back(rec);
    std::printf("  %-24s %-8s m=%-5lld n=%-5lld t=%d  %9.3f us  %8.3f GF/s\n",
                kernel.c_str(), impl.c_str(), static_cast<long long>(m),
                static_cast<long long>(n), threads, rec.seconds * 1e6,
                rec.gflops());
  }
};

int run_all(const std::string& out_path) {
  print_header("kernels_regress",
               "dense kernel backends vs scalar reference (perf trajectory)");
  std::printf("simd microkernels: %s\n", linalg::simd::active_isa());

  // Pinned backend tables: every row dispatches through one of these, so
  // the measurement never depends on the process default.
  const std::vector<const Backend*> impls = {
      linalg::find_backend("simd"), linalg::find_backend("blocked"),
      linalg::find_backend("ref")};
  for (const Backend* b : impls) PHMSE_CHECK(b != nullptr, "missing backend");

  const bool smoke = bench_scale() < 0.5;
  const std::vector<Index> dims =
      smoke ? std::vector<Index>{33, 64} : std::vector<Index>{129, 512, 1024};
  const std::vector<Index> trsm_sizes =
      smoke ? std::vector<Index>{32} : std::vector<Index>{128, 512};
  const Index trsm_rhs = smoke ? 64 : 512;
  const std::vector<Index> chol_sizes =
      smoke ? std::vector<Index>{48} : std::vector<Index>{128, 512};
  const Index m = 16;  // the paper's recommended constraint batch size

  std::vector<int> thread_counts{1};
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw > 1) thread_counts.push_back(hw);

  Rng rng(static_cast<std::uint64_t>(env_long("PHMSE_BENCH_SEED", 1234)));
  Harness h;

  for (const Index n : dims) {
    const Matrix v = random_matrix(m, n, rng);
    Matrix c0 = random_spd(n, rng);
    const double dm = static_cast<double>(m);
    const double dn = static_cast<double>(n);
    const double flops = 2.0 * dm * dn * dn;
    const double bytes = 8.0 * (2.0 * dn * dn + dm * dn);
    // C -= V^T V: blocked and simd update the lower triangle only
    // (m n (n+1) flops, each lower entry read and written once); ref still
    // runs its frozen full update.
    const double lower_flops = dm * dn * (dn + 1.0);
    const double lower_bytes = 8.0 * (dn * (dn + 1.0) + dm * dn);
    // The downdate accumulates (C -= V^T V), so the timed body can run on
    // the same matrix repeatedly without a reset — the reset's memory
    // traffic would otherwise dominate the measurement at large n.
    Matrix c = c0;
    for (const int t : thread_counts) {
      for (const Backend* b : impls) {
        const bool full = std::string(b->name) == "ref";
        c = c0;
        h.run("covariance_downdate", b->name, m, n, t,
              full ? flops : lower_flops, full ? bytes : lower_bytes,
              [&](par::ExecContext& ctx) {
                b->covariance_downdate(ctx, v, c);
              });
      }
      Matrix out;
      for (const Backend* b : impls) {
        h.run("gram", b->name, m, n, t, flops, bytes,
              [&](par::ExecContext& ctx) { b->gram(ctx, v, out); });
      }
    }
  }

  // Rank-64 flushes (four rank-16 batches stacked) and the rank-16 batch
  // at the ribo30S root's n, the shapes of the delayed sweep.
  const std::vector<std::pair<Index, Index>> wide =
      smoke ? std::vector<std::pair<Index, Index>>{{64, 64}, {16, 96}}
            : std::vector<std::pair<Index, Index>>{
                  {64, 1024}, {64, 2697}, {16, 2697}};
  for (const auto& [wm, n] : wide) {
    const Matrix v = random_matrix(wm, n, rng);
    const Matrix c0 = random_spd(n, rng);
    const double dm = static_cast<double>(wm);
    const double dn = static_cast<double>(n);
    Matrix c = c0;
    for (const int t : thread_counts) {
      for (const Backend* b : impls) {
        const bool full = std::string(b->name) == "ref";
        c = c0;
        h.run("covariance_downdate", b->name, wm, n, t,
              full ? 2.0 * dm * dn * dn : dm * dn * (dn + 1.0),
              full ? 8.0 * (2.0 * dn * dn + dm * dn)
                   : 8.0 * (dn * (dn + 1.0) + dm * dn),
              [&](par::ExecContext& ctx) {
                b->covariance_downdate(ctx, v, c);
              });
      }
    }
  }

  // The streaming kernels: G = H C (d-s) and dx += V^T r (m-v).
  const std::vector<Index> sparse_dims =
      smoke ? std::vector<Index>{64} : std::vector<Index>{129, 516, 2040};
  for (const Index n : sparse_dims) {
    const linalg::Csr jac = random_jacobian(m, n, rng);
    const Matrix c = random_spd(n, rng);
    const double dn = static_cast<double>(n);
    const double nnz = static_cast<double>(jac.nnz());
    Matrix g;
    for (const int t : thread_counts) {
      for (const Backend* b : impls) {
        h.run("sparse_dense", b->name, m, n, t, 2.0 * nnz * dn,
              8.0 * (static_cast<double>(m) * dn + nnz * dn),
              [&](par::ExecContext& ctx) { b->sparse_dense(ctx, jac, c, g); });
      }
    }
  }
  const std::vector<Index> gain_dims =
      smoke ? std::vector<Index>{64} : std::vector<Index>{516, 2040};
  for (const Index n : gain_dims) {
    const Matrix v = random_matrix(m, n, rng);
    const linalg::Vector r(static_cast<std::size_t>(m), 1.0);
    linalg::Vector dx(static_cast<std::size_t>(n), 0.0);
    const double work = static_cast<double>(m) * static_cast<double>(n);
    for (const int t : thread_counts) {
      for (const Backend* b : impls) {
        h.run("gain_times_residual", b->name, m, n, t, 2.0 * work, 8.0 * work,
              [&](par::ExecContext& ctx) {
                b->gain_times_residual(ctx, v, r, dx);
              });
      }
    }
  }

  // One apply_all sweep of four root-shaped batches, delayed (a copy of the
  // simd table that delays at every n) against eager (a copy that never
  // does).  Off AVX-512 the simd table itself never delays; the pair then
  // shows what the delay would cost on the panel.
  const std::vector<Index> sweep_dims =
      smoke ? std::vector<Index>{96}
            : std::vector<Index>{1020, 1536, 2046, 2697};
  Backend delayed = *impls[0];
  delayed.delay_min_dim = 1;
  Backend eager = *impls[0];
  eager.delay_min_dim = 0;
  std::printf("simd delay_min_dim: %lld\n",
              static_cast<long long>(impls[0]->delay_min_dim));
  for (const Index n : sweep_dims) {
    const RootSweep root(n, 4 * m, rng);
    const double dn = static_cast<double>(root.start.dim());
    const double flops = 4.0 * static_cast<double>(m) * dn * (dn + 1.0);
    const double bytes = 8.0 * (dn * (dn + 1.0) + 4.0 * static_cast<double>(m) * dn);
    for (const int t : thread_counts) {
      for (const auto& [kernel, table] :
           {std::pair<const char*, const Backend*>{"apply_all_root4_delayed",
                                                   &delayed},
            std::pair<const char*, const Backend*>{"apply_all_root4_eager",
                                                   &eager}}) {
        est::NodeState state = root.start;
        est::BatchUpdater updater;
        updater.set_backend(table);
        updater.reserve(m, root.start.dim());
        h.run(kernel, impls[0]->name, m, root.start.dim(), t, flops, bytes,
              [&](par::ExecContext& ctx) {
                updater.apply_all(ctx, state, root.set, m);
              });
      }
    }
  }

  for (const Index sz : trsm_sizes) {
    Matrix l = random_spd(sz, rng);
    linalg::cholesky_serial(l);
    const Matrix b0 = random_matrix(sz, trsm_rhs, rng);
    const double flops = static_cast<double>(trsm_rhs) *
                         static_cast<double>(sz) * static_cast<double>(sz);
    const double bytes =
        8.0 * (static_cast<double>(trsm_rhs) * static_cast<double>(sz) +
               0.5 * static_cast<double>(sz) * static_cast<double>(sz));
    Matrix b = b0;
    for (const int t : thread_counts) {
      for (const Backend* impl : impls) {
        h.run("trsm_lower", impl->name, sz, trsm_rhs, t, flops, bytes,
              [&](par::ExecContext& ctx) {
                b = b0;
                impl->trsm_lower(ctx, l, b);
              });
        h.run("trsm_lower_transposed", impl->name, sz, trsm_rhs, t, flops,
              bytes, [&](par::ExecContext& ctx) {
                b = b0;
                impl->trsm_lower_transposed(ctx, l, b);
              });
      }
    }
  }

  for (const Index sz : chol_sizes) {
    const Matrix s = random_spd(sz, rng);
    const double flops = static_cast<double>(sz) * static_cast<double>(sz) *
                         static_cast<double>(sz) / 3.0;
    const double bytes = 8.0 * static_cast<double>(sz) *
                         static_cast<double>(sz);
    Matrix a = s;
    for (const int t : thread_counts) {
      for (const Backend* impl : impls) {
        h.run("cholesky", impl->name, 0, sz, t, flops, bytes,
              [&](par::ExecContext& ctx) {
                a = s;
                const linalg::CholeskyResult r =
                    impl->cholesky_factor(ctx, a, 48);
                PHMSE_CHECK(r.ok(), "bench cholesky: not positive definite");
              });
      }
    }
  }

  write_kernel_bench_json(out_path, h.records);
  std::printf("\nwrote %zu records to %s\n", h.records.size(),
              out_path.c_str());

  // Headline: single-thread speedups per kernel at the largest measured
  // shape — blocked vs ref (acceptance bar >= 2x for covariance_downdate
  // and gram at n >= 512) and simd vs blocked (scripts/bench_check.py
  // --gate simd checks the geometric mean over the gemm-panel shapes).
  auto best_at_largest = [&](const std::string& kernel,
                             const char* impl) -> const KernelBenchRecord* {
    const KernelBenchRecord* best = nullptr;
    for (const KernelBenchRecord& r : h.records) {
      if (r.kernel != kernel || r.threads != 1 || r.impl != impl) continue;
      if (best == nullptr || r.n > best->n) best = &r;
    }
    return best;
  };
  std::printf("single-thread speedups at the largest shape:\n");
  for (const std::string kernel :
       {"covariance_downdate", "gram", "trsm_lower",
        "trsm_lower_transposed", "cholesky", "sparse_dense",
        "gain_times_residual"}) {
    const KernelBenchRecord* simd = best_at_largest(kernel, "simd");
    const KernelBenchRecord* blocked = best_at_largest(kernel, "blocked");
    const KernelBenchRecord* ref = best_at_largest(kernel, "ref");
    if (simd == nullptr || blocked == nullptr || ref == nullptr ||
        blocked->seconds <= 0.0 || simd->seconds <= 0.0) {
      continue;
    }
    std::printf(
        "  %-24s n=%-5lld blocked/ref %.2fx, simd/blocked %.2fx "
        "(%.2f GF/s simd)\n",
        kernel.c_str(), static_cast<long long>(blocked->n),
        ref->seconds / blocked->seconds, blocked->seconds / simd->seconds,
        simd->gflops());
  }
  std::printf("apply_all sweep of four root-shaped batches, delayed / eager:\n");
  for (const KernelBenchRecord& d : h.records) {
    if (d.kernel != "apply_all_root4_delayed") continue;
    for (const KernelBenchRecord& e : h.records) {
      if (e.kernel == "apply_all_root4_eager" && e.n == d.n &&
          e.threads == d.threads) {
        std::printf("  n=%-5lld t=%d  %.3f\n", static_cast<long long>(d.n),
                    d.threads, d.seconds / e.seconds);
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace phmse::bench

int main(int argc, char** argv) {
  return phmse::bench::run_all(argc > 1 ? argv[1] : "BENCH_kernels.json");
}
