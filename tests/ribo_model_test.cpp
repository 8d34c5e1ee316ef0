#include <gtest/gtest.h>

#include "molecule/ribo30s.hpp"
#include "support/check.hpp"

namespace phmse::mol {
namespace {

TEST(Ribo30s, DefaultSizeMatchesPaperScale) {
  const Ribo30sModel model = build_ribo30s();
  // "about 900 pseudo-atoms" — the default options land at 898.
  EXPECT_GE(model.num_atoms(), 850);
  EXPECT_LE(model.num_atoms(), 950);
  EXPECT_EQ(model.num_segments(), 65 + 65 + 21);
}

TEST(Ribo30s, SegmentKindsCounted) {
  const Ribo30sModel model = build_ribo30s();
  Index helices = 0;
  Index coils = 0;
  Index proteins = 0;
  for (const Segment& s : model.segments) {
    switch (s.kind) {
      case Segment::Kind::kHelix: ++helices; break;
      case Segment::Kind::kCoil: ++coils; break;
      case Segment::Kind::kProtein: ++proteins; break;
    }
  }
  EXPECT_EQ(helices, 65);
  EXPECT_EQ(coils, 65);
  EXPECT_EQ(proteins, 21);
}

TEST(Ribo30s, SegmentsTileTheTopology) {
  const Ribo30sModel model = build_ribo30s();
  Index cursor = 0;
  for (const Segment& s : model.segments) {
    EXPECT_EQ(s.begin, cursor);
    EXPECT_GT(s.size(), 0);
    cursor = s.end;
  }
  EXPECT_EQ(cursor, model.num_atoms());
}

TEST(Ribo30s, SegmentsOrderedByDomain) {
  const Ribo30sModel model = build_ribo30s();
  int prev = 0;
  for (const Segment& s : model.segments) {
    EXPECT_GE(s.domain, prev);
    EXPECT_LT(s.domain, model.num_domains);
    prev = s.domain;
  }
}

TEST(Ribo30s, DomainSegmentsReturnsMatchingRange) {
  const Ribo30sModel model = build_ribo30s();
  Index covered = 0;
  for (int d = 0; d < model.num_domains; ++d) {
    const auto [lo, hi] = model.domain_segments(d);
    for (Index s = lo; s < hi; ++s) {
      EXPECT_EQ(model.segments[static_cast<std::size_t>(s)].domain, d);
    }
    covered += hi - lo;
  }
  EXPECT_EQ(covered, model.num_segments());
}

TEST(Ribo30s, EveryDomainNonEmptyByDefault) {
  const Ribo30sModel model = build_ribo30s();
  for (int d = 0; d < model.num_domains; ++d) {
    const auto [lo, hi] = model.domain_segments(d);
    EXPECT_GT(hi - lo, 0) << "domain " << d;
  }
}

TEST(Ribo30s, ProteinsAreSinglePseudoAtoms) {
  const Ribo30sModel model = build_ribo30s();
  for (const Segment& s : model.segments) {
    if (s.kind == Segment::Kind::kProtein) {
      EXPECT_EQ(s.size(), 1);
    }
  }
}

TEST(Ribo30s, AtomsStayNearTheirSegmentCenter) {
  const Ribo30sModel model = build_ribo30s();
  for (const Segment& s : model.segments) {
    for (Index a = s.begin; a < s.end; ++a) {
      EXPECT_LT(distance(model.topology.atom(a).position, s.center), 20.0);
    }
  }
}

TEST(Ribo30s, DeterministicForSameSeed) {
  const Ribo30sModel a = build_ribo30s();
  const Ribo30sModel b = build_ribo30s();
  ASSERT_EQ(a.num_atoms(), b.num_atoms());
  for (Index i = 0; i < a.num_atoms(); ++i) {
    EXPECT_DOUBLE_EQ(a.topology.atom(i).position.x,
                     b.topology.atom(i).position.x);
  }
}

TEST(Ribo30s, CustomOptionsRespected) {
  Ribo30sOptions opts;
  opts.num_helices = 4;
  opts.num_coils = 3;
  opts.num_proteins = 2;
  opts.num_domains = 2;
  const Ribo30sModel model = build_ribo30s(opts);
  EXPECT_EQ(model.num_segments(), 9);
  EXPECT_EQ(model.num_domains, 2);
}

}  // namespace
}  // namespace phmse::mol
