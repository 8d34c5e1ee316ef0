// Reproduces Table 1 / Figure 5: run time of one full cycle of constraint
// application for RNA double helices of 1..16 base pairs, flat organization
// versus hierarchical decomposition, and the hierarchical speedup.
//
// The paper's shape: per-constraint time grows ~quadratically with molecule
// size for the flat organization and ~linearly for the hierarchical one, so
// the speedup rises from 1.78x (1 bp) to 30x (16 bp).  Absolute seconds
// here are modern-host wall-clock; the paper's were 1996 hardware.
//
// Flags: --show-tree prints the Fig.-2 decomposition of the 16-bp helix.
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_util.hpp"
#include "support/table.hpp"

namespace phmse::bench {
namespace {

struct Row {
  Index length;
  Index atoms;
  Index constraints;
  double flat_total;
  double flat_per;
  double hier_total;
  double hier_per;
};

Row run_length(Index length) {
  const HelixProblem p = make_helix_problem(length);
  Row row{};
  row.length = length;
  row.atoms = p.model.num_atoms();
  row.constraints = p.constraints.size();

  // Both organizations run one cycle, batches of 16 (the paper's optimum),
  // sequentially.  The plans compile outside the timed region — Table 1
  // times constraint application, not setup — and each solve reports its
  // own wall clock.
  //
  // Flat organization: one node holding the whole molecule.
  {
    engine::Plan plan = Engine::compile(
        engine::Problem::flat(p.model.num_atoms(), p.constraints));
    row.flat_total = plan.solve(p.initial).seconds;
  }

  // Hierarchical decomposition (Fig. 2).
  {
    engine::Plan plan = make_helix_plan(p, 1);
    row.hier_total = plan.solve(p.initial).seconds;
  }

  row.flat_per = row.flat_total / static_cast<double>(row.constraints);
  row.hier_per = row.hier_total / static_cast<double>(row.constraints);
  return row;
}

int run(bool show_tree) {
  print_header("Table 1 / Figure 5",
               "Helix run times, flat vs hierarchical organization");

  if (show_tree) {
    const HelixProblem p = make_helix_problem(16);
    engine::Plan plan = make_helix_plan(p, 1);
    std::printf("%s\n", plan.hierarchy().describe().c_str());
    return 0;
  }

  std::vector<Index> lengths{1, 2, 4, 8, 16};
  if (bench_scale() < 0.5) lengths = {1, 2, 4};

  Table t({"Helix Length", "Atoms", "Constraints", "Flat Total(s)",
           "Flat/Constr", "Hier Total(s)", "Hier/Constr", "Speedup"});
  for (Index len : lengths) {
    const Row r = run_length(len);
    t.add_row({std::to_string(r.length), std::to_string(r.atoms),
               std::to_string(r.constraints), format_fixed(r.flat_total, 3),
               format_fixed(r.flat_per, 6), format_fixed(r.hier_total, 3),
               format_fixed(r.hier_per, 6),
               format_fixed(r.flat_total / r.hier_total, 2)});
    std::printf("... helix %lld bp done\n", static_cast<long long>(len));
  }
  std::printf("%s\n", t.str().c_str());

  std::printf("Paper reference (Table 1): speedup 1.78, 3.21, 6.40, 13.79, "
              "30.09 for 1..16 bp;\nflat per-constraint time grows "
              "quadratically, hierarchical roughly linearly.\n");
  return 0;
}

}  // namespace
}  // namespace phmse::bench

int main(int argc, char** argv) {
  const bool show_tree =
      argc > 1 && std::strcmp(argv[1], "--show-tree") == 0;
  return phmse::bench::run(show_tree);
}
