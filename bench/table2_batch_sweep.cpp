// Reproduces Table 2 / Figure 6: average execution time per scalar
// constraint as a function of node size (43..680 atoms — prefix helices of
// the 16-bp problem) and constraint batch dimension (1..512).
//
// The paper's shape: per-constraint time is U-shaped in the batch dimension
// (tiny batches degenerate to cache-unfriendly vector operations; large
// batches pay the O(m^2) Cholesky growth) with the minimum at a moderate
// batch size (16 on the 1996 machines), and grows quadratically with node
// size.  The absolute optimum can shift on modern cache hierarchies; the
// measured minimum per node size is flagged with '*'.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "estimation/update.hpp"
#include "support/env.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

namespace phmse::bench {
namespace {

// Measures seconds per scalar constraint for one node: applies a stride
// sample of `budget` constraints (spread over the whole molecule, like the
// paper's per-node measurements) in batches of `m` as one apply_all sweep
// (so the sweep's closing covariance mirror is paid once, as a node pays
// it), sweeping repeatedly until at least `min_seconds` have been timed.
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
  print_header("Table 2 / Figure 6",
               "Per-scalar-constraint time vs node size and batch dimension");

  std::vector<Index> lengths{1, 2, 4, 8, 16};  // 43..680 atoms
  std::vector<Index> batches{1, 2, 4, 8, 16, 32, 64, 128, 256, 512};
  Index budget = env_long("PHMSE_BENCH_T2_BUDGET", 512);
  if (bench_scale() < 0.5) {
    lengths = {1, 2, 4};
    budget = 256;
  }

  std::vector<HelixProblem> problems;
  std::vector<std::string> header{"Batch Dim \\ Atoms"};
  for (Index len : lengths) {
    problems.push_back(make_helix_problem(len));
    header.push_back(std::to_string(problems.back().model.num_atoms()));
  }

  // Track the measured minimum per node size.
  std::vector<double> best(problems.size(), 1e300);
  std::vector<Index> best_m(problems.size(), 0);
  std::vector<std::vector<double>> grid;
  for (Index m : batches) {
    std::vector<double> row;
    for (std::size_t i = 0; i < problems.size(); ++i) {
      const double t = measure(problems[i], m, budget);
      row.push_back(t);
      if (t < best[i]) {
        best[i] = t;
        best_m[i] = m;
      }
    }
    grid.push_back(std::move(row));
  }

  Table t(header);
  for (std::size_t r = 0; r < batches.size(); ++r) {
    std::vector<std::string> cells{std::to_string(batches[r])};
    for (std::size_t i = 0; i < problems.size(); ++i) {
      std::string cell = format_fixed(grid[r][i] * 1e6, 2);  // microseconds
      if (batches[r] == best_m[i]) cell += "*";
      cells.push_back(std::move(cell));
    }
    t.add_row(std::move(cells));
  }
  std::printf("%s(entries in microseconds per scalar constraint; '*' marks "
              "the per-column minimum)\n\n",
              t.str().c_str());

  std::printf("Measured optimum batch dimension per node size:");
  for (std::size_t i = 0; i < problems.size(); ++i) {
    std::printf(" %lld", static_cast<long long>(best_m[i]));
  }
  std::printf("\nPaper reference (Table 2): minimum at batch 16 for all "
              "node sizes on 33 MHz R3000;\nper-constraint time grows "
              "quadratically with node size.\n");

  // Quadratic-growth check across node sizes at the optimum batch.
  if (problems.size() >= 3) {
    const double small = best[0];
    const double large = best[problems.size() - 1];
    const double n_ratio =
        static_cast<double>(problems.back().model.num_atoms()) /
        static_cast<double>(problems.front().model.num_atoms());
    std::printf("Growth check: per-constraint time ratio %.1fx over a "
                "%.0fx node-size range (quadratic would be %.0fx).\n",
                large / small, n_ratio, n_ratio * n_ratio);
  }
  return 0;
}

}  // namespace
}  // namespace phmse::bench

int main() { return phmse::bench::run(); }
