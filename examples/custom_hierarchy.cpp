// Automatic decomposition of a user-defined molecule.
//
// The paper requires the user to supply the structure hierarchy, with a
// recursive-bisection fallback, and sketches a bottom-up alternative
// (Section 5).  This example builds an artificial two-domain chain
// molecule with NO hand-written hierarchy and compares the decompositions
// PHMSE offers — flat, recursive bisection, bottom-up grouping from
// residue-level leaves, and constraint-graph partitioning — each stated
// as an engine::Problem and compiled to a plan.
#include <cstdio>
#include <vector>

#include "core/graph_partition.hpp"
#include "engine/engine.hpp"
#include "molecule/topology.hpp"
#include "support/rng.hpp"

using namespace phmse;

namespace {

// A chain of `residues` residues, 6 pseudo-atoms each, folded into two
// spatially separate domains with a short linker.
struct ChainMolecule {
  mol::Topology topo;
  std::vector<std::pair<Index, Index>> residue_ranges;
};

ChainMolecule build_chain(Index residues) {
  ChainMolecule m;
  Rng rng(5);
  for (Index r = 0; r < residues; ++r) {
    const Index begin = m.topo.size();
    const double domain_shift = r < residues / 2 ? 0.0 : 40.0;
    const double t = static_cast<double>(r);
    const mol::Vec3 center{4.0 * std::cos(0.7 * t) + domain_shift,
                           4.0 * std::sin(0.7 * t), 1.8 * t};
    for (Index k = 0; k < 6; ++k) {
      const double u = static_cast<double>(k);
      std::string label = "r";
      label += std::to_string(r);
      label += '_';
      label += std::to_string(k);
      m.topo.add_atom(std::move(label),
                      center + mol::Vec3{1.4 * std::cos(2.1 * u),
                                         1.4 * std::sin(2.1 * u),
                                         0.4 * u} +
                          mol::Vec3{rng.gaussian(0.0, 0.05),
                                    rng.gaussian(0.0, 0.05),
                                    rng.gaussian(0.0, 0.05)});
    }
    m.residue_ranges.emplace_back(begin, m.topo.size());
  }
  return m;
}

cons::ConstraintSet make_data(const ChainMolecule& m) {
  Rng rng(6);
  cons::ConstraintSet data;
  // Dense geometry inside each residue, sparse links between neighbours.
  for (const auto& [begin, end] : m.residue_ranges) {
    for (Index i = begin; i < end; ++i) {
      for (Index j = i + 1; j < end; ++j) {
        data.add(cons::make_observed(cons::Kind::kDistance, {i, j, 0, 0},
                                     m.topo, 0.05, rng, 1));
      }
    }
  }
  for (std::size_t r = 0; r + 1 < m.residue_ranges.size(); ++r) {
    const auto& [b1, e1] = m.residue_ranges[r];
    const auto& [b2, e2] = m.residue_ranges[r + 1];
    for (int k = 0; k < 4; ++k) {
      data.add(cons::make_observed(cons::Kind::kDistance,
                                   {b1 + k, b2 + k, 0, 0}, m.topo, 0.2, rng,
                                   2));
    }
  }
  // Frame anchors on the first residue.
  for (int axis = 0; axis < 3; ++axis) {
    data.add(cons::make_observed(cons::Kind::kPosition, {0, 0, 0, 0}, m.topo,
                                 0.05, rng, 0, axis));
    data.add(cons::make_observed(cons::Kind::kPosition, {3, 0, 0, 0}, m.topo,
                                 0.05, rng, 0, axis));
  }
  return data;
}

// Compiles `problem` (one timed cycle) and returns plan + solve seconds.
std::pair<engine::Plan, double> solve_with(const engine::Problem& problem,
                                           const linalg::Vector& initial) {
  engine::CompileOptions copts;  // one cycle
  copts.solve.prior_sigma = 0.5;
  engine::Plan plan = Engine::compile(problem, copts);
  const double seconds = plan.solve(initial).seconds;
  return {std::move(plan), seconds};
}

}  // namespace

int main() {
  const ChainMolecule molecule = build_chain(48);
  const cons::ConstraintSet data = make_data(molecule);
  std::printf("chain molecule: %lld atoms, %lld constraints\n",
              static_cast<long long>(molecule.topo.size()),
              static_cast<long long>(data.size()));

  Rng rng(8);
  linalg::Vector initial = molecule.topo.true_state();
  for (auto& v : initial) v += rng.gaussian(0.0, 0.4);

  // (a) Flat: everything in one node.
  const double t_flat =
      solve_with(engine::Problem::flat(molecule.topo.size(), data), initial)
          .second;
  std::printf("flat organization:        %.3f s / cycle\n", t_flat);

  // (b) Recursive bisection, blind to the residue structure.
  const double t_bisect =
      solve_with(engine::Problem::bisection(molecule.topo.size(), data, 12),
                 initial)
          .second;
  std::printf("recursive bisection:      %.3f s / cycle (%.1fx)\n", t_bisect,
              t_flat / t_bisect);

  // (c) Bottom-up grouping from residue leaves (paper Section 5): merges
  //     the strongly-coupled neighbours first, so almost every constraint
  //     is applied deep in the tree.
  auto [bottom_up, t_bu] = solve_with(
      engine::Problem::custom(molecule.topo.size(), data,
                              [&molecule, &data] {
                                return core::build_bottom_up_hierarchy(
                                    molecule.residue_ranges, data);
                              }),
      initial);
  std::printf("bottom-up from residues:  %.3f s / cycle (%.1fx)\n", t_bu,
              t_flat / t_bu);

  // (d) Graph partitioning (paper Section 5's preferred direction): build
  //     the constraint graph, bisect it recursively with FM refinement, and
  //     solve in the resulting atom order.  The constraints and the state
  //     are remapped into partition order, so the problem is stated over
  //     the REMAPPED data; the decomposition recipe re-partitions inside
  //     the lambda.
  {
    core::Decomposition d = core::decompose_by_graph_partition(
        molecule.topo.size(), data);
    const cons::ConstraintSet remapped =
        core::remap_constraints(data, d.rank);
    engine::Problem problem = engine::Problem::custom(
        molecule.topo.size(), remapped, [&molecule, &data] {
          return core::decompose_by_graph_partition(molecule.topo.size(),
                                                    data)
              .hierarchy;
        });
    const double t_gp =
        solve_with(problem, core::remap_state(initial, d.order)).second;
    std::printf("graph partitioning:       %.3f s / cycle (%.1fx)\n", t_gp,
                t_flat / t_gp);
  }

  std::printf("\nbottom-up tree (top levels):\n");
  const std::string desc = bottom_up.hierarchy().describe(false);
  // Print only the first few lines.
  std::size_t pos = 0;
  for (int line = 0; line < 8 && pos != std::string::npos; ++line) {
    const std::size_t next = desc.find('\n', pos);
    std::printf("%s\n", desc.substr(pos, next - pos).c_str());
    pos = next == std::string::npos ? next : next + 1;
  }
  return 0;
}
