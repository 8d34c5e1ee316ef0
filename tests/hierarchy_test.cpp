#include <gtest/gtest.h>

#include "constraints/helix_gen.hpp"
#include "core/hierarchy.hpp"
#include "molecule/ribo30s.hpp"
#include "molecule/rna_helix.hpp"
#include "support/check.hpp"

namespace phmse::core {
namespace {

TEST(HelixHierarchy, StructureMatchesFig2) {
  const mol::HelixModel model = mol::build_helix(4);
  const Hierarchy h = build_helix_hierarchy(model);
  h.validate();

  // 4 pairs: root + 2 sub-helices + 4 pairs + 8 bases + 16 leaves.
  EXPECT_EQ(h.num_leaves(), 16);
  EXPECT_EQ(h.num_nodes(), 1 + 2 + 4 + 8 + 16);
  // depth: helix(1) -> sub(2) -> pair(3) -> base(4) -> leaf(5)
  EXPECT_EQ(h.depth(), 5);
  EXPECT_EQ(h.root().num_atoms(), model.num_atoms());
}

TEST(HelixHierarchy, SingleBasePairSkipsHelixLevels) {
  const mol::HelixModel model = mol::build_helix(1);
  const Hierarchy h = build_helix_hierarchy(model);
  h.validate();
  EXPECT_EQ(h.num_leaves(), 4);   // 2 bases x (backbone + sidechain)
  EXPECT_EQ(h.depth(), 3);        // pair -> base -> leaf
}

TEST(HelixHierarchy, LeavesAreBackbonesAndSidechains) {
  const mol::HelixModel model = mol::build_helix(2);
  const Hierarchy h = build_helix_hierarchy(model);
  Index leaf_atoms = 0;
  h.for_each_post_order([&](const HierNode& node) {
    if (node.is_leaf()) {
      leaf_atoms += node.num_atoms();
      EXPECT_GE(node.num_atoms(), 8);
      EXPECT_LE(node.num_atoms(), 12);
    }
  });
  EXPECT_EQ(leaf_atoms, model.num_atoms());
}

TEST(HelixHierarchy, NonPowerOfTwoLengthWorks) {
  const mol::HelixModel model = mol::build_helix(5);
  const Hierarchy h = build_helix_hierarchy(model);
  h.validate();
  EXPECT_EQ(h.num_leaves(), 20);
}

TEST(RiboHierarchy, HighBranchingFactor) {
  const mol::Ribo30sModel model = mol::build_ribo30s();
  const Hierarchy h = build_ribo_hierarchy(model);
  h.validate();
  EXPECT_EQ(h.depth(), 3);  // root -> domains -> segments
  // Root branching equals the number of (non-empty) domains.
  EXPECT_GE(h.root().children.size(), 4u);
  EXPECT_EQ(h.num_leaves(), model.num_segments());
}

TEST(FlatHierarchy, SingleNode) {
  const Hierarchy h = build_flat_hierarchy(100);
  EXPECT_EQ(h.num_nodes(), 1);
  EXPECT_EQ(h.depth(), 1);
  EXPECT_TRUE(h.root().is_leaf());
  EXPECT_EQ(h.root().num_atoms(), 100);
}

TEST(BisectionHierarchy, RespectsLeafBound) {
  const Hierarchy h = build_bisection_hierarchy(100, 16);
  h.validate();
  h.for_each_post_order([&](const HierNode& node) {
    if (node.is_leaf()) {
      EXPECT_LE(node.num_atoms(), 16);
    }
  });
}

TEST(BisectionHierarchy, TinyProblemIsSingleLeaf) {
  const Hierarchy h = build_bisection_hierarchy(8, 16);
  EXPECT_EQ(h.num_nodes(), 1);
}

TEST(BottomUpHierarchy, BuildsValidBinaryTree) {
  const mol::HelixModel model = mol::build_helix(2);
  const cons::ConstraintSet set = cons::generate_helix_constraints(model);
  // Leaves: the 8 backbone/sidechain groups in atom order.
  std::vector<std::pair<Index, Index>> leaves;
  for (const auto& pair : model.pairs) {
    for (const auto* base : {&pair.strand1, &pair.strand2}) {
      leaves.emplace_back(base->backbone_begin, base->backbone_end);
      leaves.emplace_back(base->sidechain_begin, base->sidechain_end);
    }
  }
  const Hierarchy h = build_bottom_up_hierarchy(leaves, set);
  h.validate();
  EXPECT_EQ(h.num_leaves(), static_cast<Index>(leaves.size()));
  EXPECT_EQ(h.root().num_atoms(), model.num_atoms());
}

TEST(BottomUpHierarchy, MergesStronglyCoupledLeavesFirst) {
  // Three leaves; many constraints couple leaf 0 and 1, one couples 1-2.
  std::vector<std::pair<Index, Index>> leaves{{0, 2}, {2, 4}, {4, 6}};
  cons::ConstraintSet set;
  cons::Constraint c;
  c.kind = cons::Kind::kDistance;
  for (int i = 0; i < 10; ++i) {
    c.atoms = {1, 2, 0, 0};  // crosses leaves 0-1
    set.add(c);
  }
  c.atoms = {3, 4, 0, 0};  // crosses leaves 1-2
  set.add(c);

  const Hierarchy h = build_bottom_up_hierarchy(leaves, set);
  // First merge must join leaves 0 and 1: the root's first child spans
  // atoms [0,4).
  ASSERT_EQ(h.root().children.size(), 2u);
  EXPECT_EQ(h.root().children[0]->atom_end, 4);
  EXPECT_FALSE(h.root().children[0]->is_leaf());
  EXPECT_TRUE(h.root().children[1]->is_leaf());
}

TEST(BottomUpHierarchy, RejectsNonContiguousLeaves) {
  std::vector<std::pair<Index, Index>> leaves{{0, 2}, {3, 5}};
  EXPECT_THROW(build_bottom_up_hierarchy(leaves, cons::ConstraintSet{}),
               phmse::Error);
}

TEST(Hierarchy, DescribeShowsStructure) {
  const mol::HelixModel model = mol::build_helix(1);
  const Hierarchy h = build_helix_hierarchy(model);
  const std::string d = h.describe();
  EXPECT_NE(d.find("helix"), std::string::npos);
  EXPECT_NE(d.find("backbone"), std::string::npos);
  EXPECT_NE(d.find("sidechain"), std::string::npos);
}

TEST(Hierarchy, PostOrderVisitsChildrenFirst) {
  const mol::HelixModel model = mol::build_helix(2);
  Hierarchy h = build_helix_hierarchy(model);
  std::vector<const HierNode*> order;
  h.for_each_post_order([&](HierNode& n) { order.push_back(&n); });
  // Root must come last.
  EXPECT_EQ(order.back(), &h.root());
  // Every node must appear after all of its children.
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (const auto& child : order[i]->children) {
      const auto child_pos =
          std::find(order.begin(), order.end(), child.get());
      EXPECT_LT(child_pos - order.begin(), static_cast<std::ptrdiff_t>(i));
    }
  }
}

}  // namespace
}  // namespace phmse::core
