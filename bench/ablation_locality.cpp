// Ablation A2 (paper Section 3.1): sensitivity of the hierarchical win to
// constraint locality.
//
// The paper bounds the hierarchical advantage by two scenarios: if most
// observations can be pushed to the leaves, per-constraint time is O(n)
// (vs O(n^2) flat); if every node carries as many constraints as its
// children combined, the advantage shrinks to O(n / log n)-ish.  This
// harness interpolates between the scenarios by forcing a fraction q of
// the constraints to the root before solving.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

namespace phmse::bench {
namespace {

// Moves ~fraction q of every non-root node's constraints up to the root.
void delocalize(core::Hierarchy& h, double q) {
  cons::ConstraintSet promoted;
  core::HierNode* root = &h.root();
  h.for_each_post_order([&](core::HierNode& node) {
    if (&node == root) return;
    cons::ConstraintSet keep;
    Index i = 0;
    for (const cons::Constraint& c : node.constraints.all()) {
      // Deterministic interleaved selection.
      const double hash =
          static_cast<double>((i * 2654435761u) % 1000u) / 1000.0;
      if (hash < q) {
        promoted.add(c);
      } else {
        keep.add(c);
      }
      ++i;
    }
    node.constraints = std::move(keep);
  });
  root->constraints.append(promoted);
}

int run() {
  print_header("Ablation A2 (Section 3.1)",
               "Hierarchical advantage vs constraint locality");

  const Index helix_len = bench_scale() < 0.5 ? 4 : 8;
  const HelixProblem p = make_helix_problem(helix_len);

  Table t({"fraction at root", "total(s)", "per-constraint(us)",
           "vs fully-local"});
  double base = 0.0;
  for (double q : {0.0, 0.1, 0.25, 0.5, 1.0}) {
    core::Hierarchy h = prepare_helix_hierarchy(p, 1);
    delocalize(h, q);
    par::SerialContext ctx;
    core::HierSolveOptions opts;  // one cycle
    Stopwatch sw;
    core::SolvePlan(h, opts).run(ctx, p.initial);
    const double total = sw.seconds();
    if (q == 0.0) base = total;
    t.add_row({format_fixed(q, 2), format_fixed(total, 3),
               format_fixed(total / static_cast<double>(p.constraints.size()) *
                                1e6,
                            2),
               format_fixed(total / base, 2)});
  }
  std::printf("%s", t.str().c_str());
  std::printf("(helix %lld bp, one cycle, sequential host time)\n",
              static_cast<long long>(helix_len));
  std::printf("Paper reference: the advantage of hierarchy rests on most "
              "observations being localized;\nas constraints climb toward "
              "the root the cost approaches the flat organization's.\n");
  return 0;
}

}  // namespace
}  // namespace phmse::bench

int main() { return phmse::bench::run(); }
