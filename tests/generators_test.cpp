#include <gtest/gtest.h>

#include "constraints/helix_gen.hpp"
#include "constraints/ribo_gen.hpp"
#include "molecule/ribo30s.hpp"
#include "molecule/rna_helix.hpp"

namespace phmse::cons {
namespace {

// The paper's Table 1 constraint counts; ours land within 0.2%.
struct Table1Row {
  Index length;
  Index paper_constraints;
};

class HelixConstraintCounts : public ::testing::TestWithParam<Table1Row> {};

INSTANTIATE_TEST_SUITE_P(PaperSizes, HelixConstraintCounts,
                         ::testing::Values(Table1Row{1, 675},
                                           Table1Row{2, 1574},
                                           Table1Row{4, 3294},
                                           Table1Row{8, 6810},
                                           Table1Row{16, 13824}));

TEST_P(HelixConstraintCounts, WithinHalfPercentOfPaper) {
  const auto [length, paper] = GetParam();
  const mol::HelixModel model = mol::build_helix(length);
  const ConstraintSet set = generate_helix_constraints(model);
  const double rel =
      std::abs(static_cast<double>(set.size() - paper)) / paper;
  EXPECT_LT(rel, 0.005) << "got " << set.size() << " want ~" << paper;
  // And the closed-form count matches the generator exactly.
  EXPECT_EQ(set.size(), helix_constraint_count(model.sequence));
}

TEST(HelixGen, AllFiveCategoriesPresent) {
  const mol::HelixModel model = mol::build_helix(2);
  const ConstraintSet set = generate_helix_constraints(model);
  for (int cat = 1; cat <= 5; ++cat) {
    EXPECT_GT(set.count_category(cat), 0) << "category " << cat;
  }
}

TEST(HelixGen, SingleBasePairHasNoJunctions) {
  const mol::HelixModel model = mol::build_helix(1);
  const ConstraintSet set = generate_helix_constraints(model);
  EXPECT_EQ(set.count_category(5), 0);
}

TEST(HelixGen, CategoryCountsMatchClosedForm) {
  // 1 bp of G-C: categories from first principles.
  const mol::HelixModel model = mol::build_helix(1);
  const ConstraintSet set = generate_helix_constraints(model);
  EXPECT_EQ(set.count_category(1), 2 * 66);          // C(12,2) per backbone
  EXPECT_EQ(set.count_category(2), 55 + 28);         // C(11,2) + C(8,2)
  EXPECT_EQ(set.count_category(3), 12 * 11 + 12 * 8);
  EXPECT_EQ(set.count_category(4), 11 * 8 + 144);
}

TEST(HelixGen, AllConstraintsAreDistances) {
  const mol::HelixModel model = mol::build_helix(2);
  const ConstraintSet set = generate_helix_constraints(model);
  for (const Constraint& c : set.all()) {
    EXPECT_EQ(c.kind, Kind::kDistance);
  }
}

TEST(HelixGen, ObservationsNearGroundTruth) {
  const mol::HelixModel model = mol::build_helix(2);
  const ConstraintSet set = generate_helix_constraints(model);
  // RMS residual at ground truth should be on the order of the noise.
  const double rms =
      rms_residual(set, model.topology, model.topology.true_state());
  EXPECT_GT(rms, 0.0);
  EXPECT_LT(rms, 0.5);
}

TEST(HelixGen, IntraBaseNoiseTighterThanJunctionNoise) {
  const mol::HelixModel model = mol::build_helix(2);
  const ConstraintSet set = generate_helix_constraints(model);
  double intra_var = 0.0;
  double junction_var = 0.0;
  for (const Constraint& c : set.all()) {
    if (c.category == 1) intra_var = c.variance;
    if (c.category == 5) junction_var = c.variance;
  }
  EXPECT_LT(intra_var, junction_var);
}

TEST(HelixGen, DeterministicForSameSeed) {
  const mol::HelixModel model = mol::build_helix(2);
  const ConstraintSet a = generate_helix_constraints(model);
  const ConstraintSet b = generate_helix_constraints(model);
  ASSERT_EQ(a.size(), b.size());
  for (Index i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].observed, b[i].observed);
  }
}

TEST(HelixGen, ChemistryAnglesOptIn) {
  const mol::HelixModel model = mol::build_helix(2);
  HelixNoise noise;
  EXPECT_EQ(generate_helix_constraints(model, noise).count_category(6), 0);

  noise.include_chemistry_angles = true;
  const ConstraintSet set = generate_helix_constraints(model, noise);
  // Per backbone of 12 atoms: 10 angles and 9 torsions; 4 backbones.
  EXPECT_EQ(set.count_category(6), 4 * 10);
  EXPECT_EQ(set.count_category(7), 4 * 9);
  for (const Constraint& c : set.all()) {
    if (c.category == 6) {
      EXPECT_EQ(c.kind, Kind::kAngle);
    }
    if (c.category == 7) {
      EXPECT_EQ(c.kind, Kind::kTorsion);
    }
  }
}

TEST(HelixGen, AnchorsAreNonCollinear) {
  // Frame fixing needs three non-collinear anchor points; the generator
  // anchors four atoms spread over both strands.
  const mol::HelixModel model = mol::build_helix(1);
  HelixNoise noise;
  noise.anchor_first_pair = true;
  const ConstraintSet set = generate_helix_constraints(model, noise);
  std::vector<Index> anchored;
  for (const Constraint& c : set.all()) {
    if (c.category == 0 && c.axis == 0) anchored.push_back(c.atoms[0]);
  }
  ASSERT_GE(anchored.size(), 3u);
  const mol::Vec3 a = model.topology.atom(anchored[0]).position;
  const mol::Vec3 b = model.topology.atom(anchored[1]).position;
  const mol::Vec3 c3 = model.topology.atom(anchored[2]).position;
  EXPECT_GT((b - a).cross(c3 - a).norm(), 1.0);
}

TEST(RiboGen, TotalNearPaperScale) {
  const mol::Ribo30sModel model = mol::build_ribo30s();
  const ConstraintSet set = generate_ribo_constraints(model);
  // "about 6500 constraints"
  EXPECT_GE(set.size(), 5800);
  EXPECT_LE(set.size(), 7200);
}

TEST(RiboGen, HasAllCategories) {
  const mol::Ribo30sModel model = mol::build_ribo30s();
  const ConstraintSet set = generate_ribo_constraints(model);
  for (int cat = 1; cat <= 4; ++cat) {
    EXPECT_GT(set.count_category(cat), 0) << "category " << cat;
  }
}

TEST(RiboGen, ProteinAnchorsAreThreePerProtein) {
  const mol::Ribo30sModel model = mol::build_ribo30s();
  const ConstraintSet set = generate_ribo_constraints(model);
  EXPECT_EQ(set.count_category(4), 21 * 3);
}

TEST(RiboGen, IntraSegmentConstraintsStayInSegment) {
  const mol::Ribo30sModel model = mol::build_ribo30s();
  const ConstraintSet set = generate_ribo_constraints(model);
  for (const Constraint& c : set.all()) {
    if (c.category != 1) continue;
    // Both atoms must fall into the same segment.
    const Index a = c.atoms[0];
    const Index b = c.atoms[1];
    bool same = false;
    for (const mol::Segment& s : model.segments) {
      if (a >= s.begin && a < s.end) {
        same = b >= s.begin && b < s.end;
        break;
      }
    }
    EXPECT_TRUE(same);
  }
}

TEST(RiboGen, ConstraintsReferenceValidAtoms) {
  const mol::Ribo30sModel model = mol::build_ribo30s();
  const ConstraintSet set = generate_ribo_constraints(model);
  const auto [lo, hi] = set.atom_span();
  EXPECT_GE(lo, 0);
  EXPECT_LT(hi, model.num_atoms());
}

}  // namespace
}  // namespace phmse::cons
