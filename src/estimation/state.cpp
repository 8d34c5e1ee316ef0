#include "estimation/state.hpp"

namespace phmse::est {

void NodeState::reset_covariance(double prior_sigma) {
  PHMSE_CHECK(prior_sigma > 0.0, "prior sigma must be positive");
  c.resize_zero(dim(), dim());
  c.set_scaled_identity(prior_sigma * prior_sigma);
}

NodeState make_initial_state(const mol::Topology& topology, Index begin,
                             Index end, double prior_sigma,
                             double perturb_sigma, Rng& rng) {
  PHMSE_CHECK(begin >= 0 && begin <= end && end <= topology.size(),
              "atom range out of bounds");
  NodeState st;
  st.atom_begin = begin;
  st.atom_end = end;
  st.x.resize(static_cast<std::size_t>(st.dim()));
  for (Index a = begin; a < end; ++a) {
    const mol::Vec3& p = topology.atom(a).position;
    const Index i = 3 * (a - begin);
    st.x[static_cast<std::size_t>(i + 0)] = p.x + rng.gaussian(0.0, perturb_sigma);
    st.x[static_cast<std::size_t>(i + 1)] = p.y + rng.gaussian(0.0, perturb_sigma);
    st.x[static_cast<std::size_t>(i + 2)] = p.z + rng.gaussian(0.0, perturb_sigma);
  }
  st.reset_covariance(prior_sigma);
  return st;
}

void fill_state_from_full(NodeState& st, const linalg::Vector& full_x,
                          Index begin, Index end, double prior_sigma) {
  PHMSE_CHECK(begin >= 0 && begin <= end &&
                  3 * end <= static_cast<Index>(full_x.size()),
              "atom range out of bounds");
  st.atom_begin = begin;
  st.atom_end = end;
  st.x.assign(full_x.begin() + 3 * begin, full_x.begin() + 3 * end);
  st.reset_covariance(prior_sigma);
}

}  // namespace phmse::est
