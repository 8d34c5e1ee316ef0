#include "service/fingerprint.hpp"

#include <bit>
#include <string_view>
#include <tuple>

#include "linalg/backend.hpp"

namespace phmse::service {

namespace {

/// Appends fields to the canonical word stream.  Doubles are encoded by
/// bit pattern: the fingerprint must distinguish any value change exactly,
/// not up to rounding.
class Encoder {
 public:
  explicit Encoder(std::vector<std::uint64_t>& words) : words_(words) {}

  void word(std::uint64_t w) { words_.push_back(w); }
  void integer(long long v) { word(static_cast<std::uint64_t>(v)); }
  void real(double v) { word(std::bit_cast<std::uint64_t>(v)); }

  void string(std::string_view s) {
    integer(static_cast<long long>(s.size()));
    std::uint64_t w = 0;
    std::size_t filled = 0;
    for (unsigned char c : s) {
      w |= static_cast<std::uint64_t>(c) << (8 * filled);
      if (++filled == 8) {
        word(w);
        w = 0;
        filled = 0;
      }
    }
    if (filled != 0) word(w);
  }

 private:
  std::vector<std::uint64_t>& words_;
};

/// Words per constraint: kind, the atom array, axis, variance, category.
constexpr std::size_t kConstraintWords =
    4 + std::tuple_size_v<decltype(cons::Constraint::atoms)>;

}  // namespace

Fingerprint fingerprint(const engine::Problem& problem,
                        const engine::CompileOptions& options) {
  Fingerprint fp;
  if (problem.recipe.empty()) return fp;  // opaque decompose: uncacheable

  const core::HierSolveOptions& s = options.solve;
  // The backend the plan would dispatch: "" and the default's own name
  // share a plan, and an unknown name fails here as compile would.
  const std::string_view backend =
      linalg::resolve_backend(s.backend, "HierSolveOptions.backend").name;

  Encoder enc(fp.words);
  enc.string(problem.recipe);
  enc.integer(problem.num_atoms);

  // Compile options that shape the plan.  calibrate_work_model, the
  // work-model coefficients and the processor count are deliberately
  // excluded: they steer the schedule (a performance property), and
  // reschedule() revises the schedule on a cached plan anyway — the
  // numerics are bitwise identical across schedules (DESIGN.md §8).
  enc.integer(s.batch_size);
  enc.integer(s.max_cycles);
  enc.real(s.tolerance);
  enc.real(s.prior_sigma);
  enc.integer(static_cast<long long>(s.policy.on_failure));
  enc.integer(s.policy.max_retries);
  enc.real(s.policy.regularization_init);
  enc.real(s.policy.regularization_growth);
  enc.real(s.policy.gate_chi2_per_dof);
  enc.string(backend);

  // Constraint structure in problem order: everything the compiled slots
  // depend on except the observed value (which set_observations rebinds).
  // The encoding is reserved to its exact size before the constraints,
  // which are nearly all of it, are appended.
  const auto count = static_cast<std::size_t>(problem.constraints.size());
  enc.integer(static_cast<long long>(count));
  fp.words.reserve(fp.words.size() + kConstraintWords * count);
  for (const cons::Constraint& c : problem.constraints.all()) {
    enc.integer(static_cast<long long>(c.kind));
    for (Index atom : c.atoms) enc.integer(atom);
    enc.integer(c.axis);
    enc.real(c.variance);
    enc.integer(c.category);
  }
  return fp;
}

}  // namespace phmse::service
