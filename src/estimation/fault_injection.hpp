// Deterministic fault-injection seam for the fault-tolerance tests.
//
// Header-only and compiled into every build, disarmed until a test arms a
// site: a disarmed hook costs the Injector static's guard check and one
// acquire load of `armed_`.  Tests arm the process-wide Injector with
// (node, batch) sites and the BatchUpdater hooks fire deterministically —
// sites are keyed on the node's atom range and the batch ordinal, both of
// which are identical across the serial, threaded and simulated executors,
// so an injected fault reproduces bitwise on all three.
//
// Three fault kinds, matching the failure modes DESIGN.md §9 catalogues:
//   kNonSpd             — after S = G H^T + R is assembled, subtract twice
//                         the smallest diagonal entry from the whole
//                         diagonal: S - delta I is certainly not SPD, and a
//                         Tikhonov rung lambda >= delta provably repairs it
//                         (S + (lambda - delta) I >= S), so the retry
//                         ladder is exercised end to end.  Fires on every
//                         assembly, including retries (a persistent fault).
//   kCorruptObservation — overwrite the first residual with `magnitude`
//                         (default 1e6: finite but wildly inconsistent, the
//                         chi-squared gate's case; a NaN magnitude instead
//                         exercises the validation path).
//   kPoisonState        — write NaN into the node state before the batch
//                         linearizes (pre-update validation must catch it).
//   kStall              — sleep `magnitude` wall-clock seconds at the batch
//                         boundary, before the batch linearizes.  The site
//                         (atom range + batch ordinal) is deterministic
//                         across executors, so deadline/cancellation tests
//                         get a reproducible "pathological molecule" whose
//                         slow point is known exactly: the cancellation
//                         poll right after the stalled batch observes the
//                         expired deadline (DESIGN.md §13).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "estimation/state.hpp"
#include "linalg/matrix.hpp"
#include "support/types.hpp"

namespace phmse::fault {

enum class Kind : int { kNonSpd = 0, kCorruptObservation, kPoisonState,
                        kStall };

/// One armed injection site.  (atom_begin, atom_end) selects the target
/// node by its atom range (-1 = wildcard; note an ancestor shares its
/// first leaf's atom_begin, so pinning ONE node needs both ends); batch
/// selects the batch ordinal within that node's sweep (-1 = any batch,
/// including direct apply() calls).
struct Site {
  Kind kind = Kind::kNonSpd;
  Index atom_begin = -1;
  Index atom_end = -1;
  Index batch = -1;
  /// kCorruptObservation: value written over the first residual.
  /// kStall: wall-clock seconds to sleep.
  double magnitude = 1e6;
  /// How many times this site may fire before going dormant (-1 = forever,
  /// the historical persistent-fault behavior).  A finite count models
  /// TRANSIENT faults: `max_fires = 1` fails exactly one attempt, so the
  /// service layer's retry-with-backoff path can be exercised end to end.
  int max_fires = -1;
};

/// Process-wide registry of armed sites.  Thread-safe: hooks fire from
/// executor lanes; arming/clearing happens on the test thread between runs.
class Injector {
 public:
  static Injector& instance() {
    static Injector inj;
    return inj;
  }

  void arm(const Site& site) {
    std::lock_guard<std::mutex> lock(mu_);
    sites_.push_back(site);
    armed_.store(true, std::memory_order_release);
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    sites_.clear();
    fired_ = 0;
    armed_.store(false, std::memory_order_release);
  }

  /// Total hook firings since the last clear().
  long fired() const {
    std::lock_guard<std::mutex> lock(mu_);
    return fired_;
  }

  /// Returns true (and counts the firing) when a site matching
  /// (kind, atom range, batch) is armed; `magnitude` (optional) receives
  /// the site's payload.
  bool fire(Kind kind, Index atom_begin, Index atom_end, Index batch,
            double* magnitude = nullptr) {
    if (!armed_.load(std::memory_order_acquire)) return false;
    std::lock_guard<std::mutex> lock(mu_);
    for (Site& s : sites_) {
      if (s.kind != kind) continue;
      if (s.atom_begin >= 0 && s.atom_begin != atom_begin) continue;
      if (s.atom_end >= 0 && s.atom_end != atom_end) continue;
      if (s.batch >= 0 && s.batch != batch) continue;
      if (s.max_fires == 0) continue;  // transient site already spent
      if (s.max_fires > 0) --s.max_fires;
      ++fired_;
      if (magnitude != nullptr) *magnitude = s.magnitude;
      return true;
    }
    return false;
  }

 private:
  Injector() = default;
  mutable std::mutex mu_;
  std::vector<Site> sites_;
  long fired_ = 0;
  std::atomic<bool> armed_{false};
};

inline void maybe_poison_state(est::NodeState& state, Index batch) {
  if (Injector::instance().fire(Kind::kPoisonState, state.atom_begin,
                                state.atom_end, batch)) {
    state.x[0] = std::numeric_limits<double>::quiet_NaN();
  }
}

inline void maybe_stall(const est::NodeState& state, Index batch) {
  double seconds = 0.0;
  if (Injector::instance().fire(Kind::kStall, state.atom_begin,
                                state.atom_end, batch, &seconds)) {
    if (seconds > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    }
  }
}

inline void maybe_corrupt_observation(const est::NodeState& state,
                                      Index batch,
                                      linalg::Vector& residual) {
  double magnitude = 0.0;
  if (!residual.empty() &&
      Injector::instance().fire(Kind::kCorruptObservation, state.atom_begin,
                                state.atom_end, batch, &magnitude)) {
    residual[0] = magnitude;
  }
}

inline void maybe_force_non_spd(const est::NodeState& state, Index batch,
                                linalg::Matrix& s) {
  if (s.rows() > 0 &&
      Injector::instance().fire(Kind::kNonSpd, state.atom_begin,
                                state.atom_end, batch)) {
    double min_diag = s(0, 0);
    for (Index i = 1; i < s.rows(); ++i) {
      min_diag = std::min(min_diag, s(i, i));
    }
    const double delta = 2.0 * std::max(min_diag, 1e-300);
    for (Index i = 0; i < s.rows(); ++i) s(i, i) -= delta;
  }
}

}  // namespace phmse::fault
