// Reproduces Equation 1: the constrained least-squares work-estimation
// polynomial fitted to the Table-2 measurements.
//
// As in the paper, samples with very small batch dimensions are excluded
// (their cache behaviour is not polynomial), the fit is constrained so the
// model is a growth function with no negative predictions near the origin,
// and the result is the per-scalar-constraint time model used by the static
// processor-assignment heuristic.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/work_model.hpp"
#include "estimation/update.hpp"
#include "support/env.hpp"
#include "support/stopwatch.hpp"

namespace phmse::bench {
namespace {

// Stride-sampled, repeat-until-stable per-constraint timing (same scheme
// as bench/table2_batch_sweep.cpp).
double measure(const HelixProblem& p, Index m, Index budget,
               double min_seconds = 0.04) {
  est::NodeState state;
  state.atom_begin = 0;
  state.atom_end = p.model.num_atoms();
  state.x = p.initial;

  const Index total = p.constraints.size();
  const Index count = std::min(budget, total);
  const Index stride = std::max<Index>(1, total / count);
  cons::ConstraintSet sample;
  for (Index i = 0; i < count; ++i) {
    sample.add(p.constraints[(i * stride) % total]);
  }

  par::SerialContext ctx;
  est::BatchUpdater updater;
  Stopwatch sw;
  Index processed = 0;
  do {
    state.reset_covariance(1.0);
    updater.apply_all(ctx, state, sample, m);
    processed += count;
  } while (sw.seconds() < min_seconds);
  return sw.seconds() / static_cast<double>(processed);
}

int run() {
  print_header("Equation 1", "Constrained least-squares work estimation");

  std::vector<Index> lengths{1, 2, 4, 8, 16};
  // As the paper does, exclude very small batch sizes from the regression.
  std::vector<Index> batches{8, 16, 32, 64, 128, 256};
  Index budget = env_long("PHMSE_BENCH_T2_BUDGET", 384);
  if (bench_scale() < 0.5) {
    lengths = {1, 2, 4};
    budget = 192;
  }

  std::vector<core::WorkSample> samples;
  for (Index len : lengths) {
    const HelixProblem p = make_helix_problem(len);
    const double n = static_cast<double>(3 * p.model.num_atoms());
    for (Index m : batches) {
      core::WorkSample s;
      s.n = n;
      s.m = static_cast<double>(m);
      s.seconds_per_constraint = measure(p, m, budget);
      samples.push_back(s);
      std::printf("sample: n=%6.0f m=%4.0f t=%.3e s/constraint\n", s.n, s.m,
                  s.seconds_per_constraint);
    }
  }

  const core::WorkModel model = core::fit_work_model(samples);
  std::printf("\nFitted Equation 1 (per scalar constraint, seconds):\n");
  std::printf("  t(n, m) = %.3e*n^2 + %.3e*n*m + %.3e*n + %.3e*m + %.3e\n",
              model.a_n2, model.a_nm, model.a_n, model.a_m, model.a_1);

  // Report fit quality and the paper's two constraint checks.
  double sse = 0.0;
  double sst = 0.0;
  double mean = 0.0;
  for (const auto& s : samples) mean += s.seconds_per_constraint;
  mean /= static_cast<double>(samples.size());
  for (const auto& s : samples) {
    const double pred = model.per_constraint(s.n, s.m);
    sse += (pred - s.seconds_per_constraint) *
           (pred - s.seconds_per_constraint);
    sst += (s.seconds_per_constraint - mean) *
           (s.seconds_per_constraint - mean);
  }
  std::printf("  R^2 = %.4f over %zu samples\n", 1.0 - sse / sst,
              samples.size());
  std::printf("  checks: leading coefficient positive: %s; all "
              "coefficients non-negative (=> non-negative predictions and "
              "coefficient sum): yes\n",
              model.a_n2 > 0.0 ? "yes" : "NO");
  std::printf("Paper reference: a quadratic-in-n, linear-in-m polynomial "
              "fitted under the same constraints (their Eq. 1).\n");
  return 0;
}

}  // namespace
}  // namespace phmse::bench

int main() { return phmse::bench::run(); }
