#include "molecule/ribo30s.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace phmse::mol {
namespace {

constexpr double kModelRadius = 55.0;  // overall extent of the 30S body

// Quasi-uniform deterministic points in a ball, via a Fibonacci spiral on
// shells.  Deterministic placement keeps the problem reproducible and the
// domain decomposition stable.
Vec3 layout_point(Index i, Index total) {
  const double golden = M_PI * (3.0 - std::sqrt(5.0));
  const double frac = (static_cast<double>(i) + 0.5) / static_cast<double>(total);
  const double radius = kModelRadius * std::cbrt(frac);
  const double cos_theta = 1.0 - 2.0 * frac;
  const double sin_theta = std::sqrt(std::max(0.0, 1.0 - cos_theta * cos_theta));
  const double phi = golden * static_cast<double>(i);
  return {radius * sin_theta * std::cos(phi),
          radius * sin_theta * std::sin(phi), radius * cos_theta};
}

// Spatial domain of a center: a wedge by azimuth plus a polar cap split,
// giving num_domains roughly equal regions.
int domain_of(const Vec3& c, int num_domains) {
  const double phi = std::atan2(c.y, c.x);            // -pi..pi
  const double frac = (phi + M_PI) / (2.0 * M_PI);    // 0..1
  int d = static_cast<int>(frac * num_domains);
  if (d >= num_domains) d = num_domains - 1;
  return d;
}

struct PendingSegment {
  Segment::Kind kind;
  Index atoms;
  Vec3 center;
  int domain;
};

}  // namespace

std::pair<Index, Index> Ribo30sModel::domain_segments(int domain) const {
  Index lo = 0;
  while (lo < num_segments() &&
         segments[static_cast<std::size_t>(lo)].domain < domain) {
    ++lo;
  }
  Index hi = lo;
  while (hi < num_segments() &&
         segments[static_cast<std::size_t>(hi)].domain == domain) {
    ++hi;
  }
  return {lo, hi};
}

Ribo30sModel build_ribo30s(const Ribo30sOptions& options) {
  PHMSE_CHECK(options.num_domains >= 1, "need at least one domain");
  Ribo30sModel model;
  model.num_domains = options.num_domains;
  Rng rng(options.seed);

  // Decide every segment's kind, size and center first, then sort by
  // (domain, layout order) so atom ranges are contiguous per domain.
  std::vector<PendingSegment> pending;
  const Index total_segments =
      options.num_helices + options.num_coils + options.num_proteins;
  Index layout_idx = 0;
  for (Index h = 0; h < options.num_helices; ++h) {
    const Index atoms =
        (h % 2 == 0) ? options.helix_atoms_large : options.helix_atoms_small;
    const Vec3 c = layout_point(layout_idx++, total_segments);
    pending.push_back({Segment::Kind::kHelix, atoms, c,
                       domain_of(c, options.num_domains)});
  }
  for (Index c = 0; c < options.num_coils; ++c) {
    const Vec3 ctr = layout_point(layout_idx++, total_segments);
    pending.push_back({Segment::Kind::kCoil, options.coil_atoms, ctr,
                       domain_of(ctr, options.num_domains)});
  }
  for (Index p = 0; p < options.num_proteins; ++p) {
    const Vec3 ctr = layout_point(layout_idx++, total_segments);
    pending.push_back({Segment::Kind::kProtein, 1, ctr,
                       domain_of(ctr, options.num_domains)});
  }

  std::stable_sort(pending.begin(), pending.end(),
                   [](const PendingSegment& a, const PendingSegment& b) {
                     return a.domain < b.domain;
                   });

  // Emit atoms.
  for (const PendingSegment& ps : pending) {
    Segment seg;
    seg.kind = ps.kind;
    seg.center = ps.center;
    seg.domain = ps.domain;
    seg.begin = model.topology.size();

    const char* prefix = ps.kind == Segment::Kind::kHelix   ? "H"
                         : ps.kind == Segment::Kind::kCoil ? "C"
                                                           : "P";
    for (Index k = 0; k < ps.atoms; ++k) {
      Vec3 p = ps.center;
      if (ps.kind == Segment::Kind::kHelix) {
        // Short helical stack of pseudo-bases around the center.
        const double t = static_cast<double>(k);
        p += Vec3{2.8 * std::cos(0.8 * t), 2.8 * std::sin(0.8 * t),
                  2.5 * (t - static_cast<double>(ps.atoms - 1) / 2.0)};
      } else if (ps.kind == Segment::Kind::kCoil) {
        // Loose chain.
        const double t = static_cast<double>(k);
        p += Vec3{3.2 * t - 1.6 * static_cast<double>(ps.atoms - 1),
                  1.5 * std::sin(1.3 * t), 1.5 * std::cos(1.7 * t)};
      }
      p += Vec3{rng.gaussian(0.0, options.jitter),
                rng.gaussian(0.0, options.jitter),
                rng.gaussian(0.0, options.jitter)};
      std::string label(prefix);
      label += std::to_string(model.segments.size());
      label += '_';
      label += std::to_string(k);
      model.topology.add_atom(std::move(label), p);
    }
    seg.end = model.topology.size();
    model.segments.push_back(seg);
  }
  return model;
}

}  // namespace phmse::mol
