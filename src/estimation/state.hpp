// The structure estimate (x, C).
//
// The pair of a state vector x (3 coordinates per atom) and a covariance
// matrix C is the paper's representation of "our best estimate of the
// molecular structure along with an indication of the variability of the
// estimated numbers" (Section 2).  A NodeState covers a contiguous range of
// global atom ids — the whole molecule for the flat solver, or one
// hierarchy node's atoms.
#pragma once

#include "linalg/matrix.hpp"
#include "molecule/topology.hpp"
#include "support/rng.hpp"
#include "support/types.hpp"

namespace phmse::est {

/// Estimate over the contiguous global atom range [atom_begin, atom_end).
struct NodeState {
  Index atom_begin = 0;
  Index atom_end = 0;
  linalg::Vector x;   // dimension 3 * (atom_end - atom_begin)
  linalg::Matrix c;   // square, same dimension

  Index num_atoms() const { return atom_end - atom_begin; }
  Index dim() const { return 3 * num_atoms(); }

  /// Local state offset of coordinate `axis` of global atom `atom`.
  Index coord_index(Index atom, int axis) const {
    PHMSE_ASSERT(atom >= atom_begin && atom < atom_end);
    return 3 * (atom - atom_begin) + axis;
  }

  /// Position of global atom `atom` as stored in x.
  mol::Vec3 position(Index atom) const {
    const Index i = coord_index(atom, 0);
    return {x[static_cast<std::size_t>(i)], x[static_cast<std::size_t>(i + 1)],
            x[static_cast<std::size_t>(i + 2)]};
  }

  /// Re-initializes the covariance to the spherical prior sigma^2 * I (the
  /// paper re-initializes C between cycles of constraint application).
  void reset_covariance(double prior_sigma);
};

/// Builds an initial estimate over atoms [begin, end): the ground-truth
/// positions of `topology` perturbed by N(0, perturb_sigma^2) per
/// coordinate, with covariance prior_sigma^2 * I.
NodeState make_initial_state(const mol::Topology& topology, Index begin,
                             Index end, double prior_sigma,
                             double perturb_sigma, Rng& rng);

/// Refills `st` with the slice [begin, end) of a full-molecule state vector
/// and the spherical prior; gives every hierarchy leaf a consistent starting
/// point.  Reuses the existing x/C capacity, so a leaf state that persists
/// across solves never reallocates.
void fill_state_from_full(NodeState& st, const linalg::Vector& full_x,
                          Index begin, Index end, double prior_sigma);

}  // namespace phmse::est
