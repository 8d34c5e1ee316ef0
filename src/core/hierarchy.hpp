// The structure hierarchy (paper Section 3).
//
// A hierarchy node owns a contiguous range of global atom ids; its children
// partition that range.  Constraints are attached to the lowest node whose
// range contains all their atoms (src/core/assign.hpp), and the estimate is
// propagated leaf-to-root in post-order: a node's children are updated
// first, their posteriors become the node's block-diagonal prior, then the
// node applies its own (boundary-spanning) constraints.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "constraints/set.hpp"
#include "molecule/ribo30s.hpp"
#include "molecule/rna_helix.hpp"
#include "support/types.hpp"

namespace phmse::core {

/// One node of the structure hierarchy.
struct HierNode {
  std::string name;
  Index atom_begin = 0;
  Index atom_end = 0;
  std::vector<std::unique_ptr<HierNode>> children;

  /// Constraints applied at this node (assigned, not inherited).
  cons::ConstraintSet constraints;

  /// Work estimates (filled by estimate_work).
  double own_work = 0.0;
  double subtree_work = 0.0;

  /// Processor assignment (filled by assign_processors or
  /// assign_wave_processors).
  int proc_first = 0;
  int proc_count = 1;
  /// Depth wave of the §5 wave schedule (filled by assign_wave_processors);
  /// -1 under the static schedule.
  int wave = -1;

  bool is_leaf() const { return children.empty(); }
  Index num_atoms() const { return atom_end - atom_begin; }
  Index dim() const { return 3 * num_atoms(); }
};

/// An owning tree of HierNodes with whole-tree queries.
class Hierarchy {
 public:
  explicit Hierarchy(std::unique_ptr<HierNode> root);

  HierNode& root() { return *root_; }
  const HierNode& root() const { return *root_; }

  Index num_nodes() const;
  Index num_leaves() const;
  Index depth() const;
  Index total_constraints() const;

  /// Checks structural invariants: every node's children are ordered and
  /// exactly partition its atom range; throws phmse::Error on violation.
  void validate() const;

  /// Indented tree printout (the shape of the paper's Figs. 2 and 4).
  std::string describe(bool show_constraints = true) const;

  /// Visits nodes in post-order (children before parents).
  template <typename F>
  void for_each_post_order(F&& f) {
    post_order(*root_, f);
  }
  template <typename F>
  void for_each_post_order(F&& f) const {
    post_order_const(*root_, f);
  }

 private:
  template <typename F>
  static void post_order(HierNode& node, F& f) {
    for (auto& child : node.children) post_order(*child, f);
    f(node);
  }
  template <typename F>
  static void post_order_const(const HierNode& node, F& f) {
    for (const auto& child : node.children) post_order_const(*child, f);
    f(node);
  }

  std::unique_ptr<HierNode> root_;
};

/// Builds the paper's Fig.-2 decomposition of an RNA double helix:
/// recursive bisection into sub-helices down to base pairs, then base pair
/// -> two bases -> {backbone, sidechain} leaves.
Hierarchy build_helix_hierarchy(const mol::HelixModel& model);

/// Builds the paper's Fig.-4-style decomposition of the 30S model: root ->
/// spatial domains -> segments (high branching factor).
Hierarchy build_ribo_hierarchy(const mol::Ribo30sModel& model);

/// A single-node ("flat") hierarchy over `num_atoms` atoms.
Hierarchy build_flat_hierarchy(Index num_atoms);

/// The paper's "simple and non-optimal recursive bisection" automatic
/// decomposition of a flat problem: halve the atom range down to leaves of
/// at most `max_leaf_atoms`.
Hierarchy build_bisection_hierarchy(Index num_atoms, Index max_leaf_atoms);

/// Bottom-up automatic decomposition (paper Section 5): the caller gives
/// the leaf atom ranges (e.g. residues); consecutive leaves are greedily
/// grouped into a binary tree that minimizes the number of constraints
/// forced above each merge (constraints crossing a merge boundary).
Hierarchy build_bottom_up_hierarchy(
    const std::vector<std::pair<Index, Index>>& leaf_ranges,
    const cons::ConstraintSet& constraints);

}  // namespace phmse::core
