// Structural fingerprint of a (Problem, CompileOptions) pair.
//
// Engine::compile depends on everything about a problem EXCEPT the observed
// measurement values: the atom count, the decomposition recipe, each
// constraint's kind / atoms / axis / variance / category, and the compile
// options that shape the plan (solve parameters, policy, and the resolved
// kernel backend's name).  The processor count is deliberately not
// encoded: it only shapes the schedule, which Plan::reschedule revises on
// a cached plan.  Two submissions that agree on all of that can share one
// compiled plan and differ only via Plan::set_observations — which is
// exactly what the phmse::Server plan cache exploits.
//
// The fingerprint is a canonical word encoding of those structural fields,
// reserved to its exact size.  Lookups compare the full encoding, so two
// structurally different problems can never share one plan (the property
// tests in tests/service_test.cpp pin both directions).  There is no hash:
// the plan cache's only reader compares encodings in a short list scan,
// where a miss stops at the size or the first differing word and a hit
// must compare every word anyway.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/engine.hpp"

namespace phmse::service {

/// Canonical structural identity of a compile input.  Equality is exact
/// (full encoding compare).
struct Fingerprint {
  /// Canonical encoding of the structural fields.
  std::vector<std::uint64_t> words;

  bool operator==(const Fingerprint& other) const = default;

  /// False for problems that opted out of caching (empty Problem::recipe):
  /// the decompose callable is opaque, so without a recipe tag two
  /// different decompositions would be indistinguishable.
  bool cacheable() const { return !words.empty(); }
};

/// Fingerprints `problem` under `options`.  Returns a non-cacheable (empty)
/// fingerprint when problem.recipe is empty.  An unknown
/// options.solve.backend fails fast, as Engine::compile would.
Fingerprint fingerprint(const engine::Problem& problem,
                        const engine::CompileOptions& options);

}  // namespace phmse::service
